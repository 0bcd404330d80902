"""Results-store and regression-gate tests."""

import json

import pytest

from repro.campaign.gate import (
    DEFAULT_THRESHOLD, check, load_baseline,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import CSV_COLUMNS, ResultsStore


def cell():
    return CampaignSpec.from_document({
        "name": "t",
        "sweep": [{"benchmarks": ["osu_latency"], "transports": ["threads"],
                   "ranks": [2], "sizes": ["1:16"]}],
    }).cells[0]


def table(metric="latency_us", rows=None):
    return {
        "benchmark": "osu_latency",
        "metric": metric,
        "rows": rows or [
            {"size": 1, "value": 2.0, "min": 1.5, "max": 2.5,
             "iterations": 10},
            {"size": 16, "value": 3.0, "min": 2.5, "max": 3.5,
             "iterations": 10},
        ],
    }


class TestStore:
    def test_append_load_round_trip(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        record = store.append(cell(), table(), attempt=2, backend="cold",
                              elapsed_s=0.5)
        loaded = store.load()
        assert loaded == [record]
        assert loaded[0]["schema"] == "ombpy-campaign-results/1"
        assert loaded[0]["attempt"] == 2
        assert loaded[0]["transport"] == "threads"
        assert store.completed_cells() == {cell().cell_id}

    def test_torn_tail_dropped(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        store.append(cell(), table(), attempt=1, backend="cold",
                     elapsed_s=0.1)
        with open(store.results_path, "a", encoding="utf-8") as fh:
            fh.write('{"cell": "half')
        assert len(store.load()) == 1

    def test_mid_file_corruption_raises(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        with open(store.results_path, "w", encoding="utf-8") as fh:
            fh.write("garbage\n")
            fh.write(json.dumps({"cell": "a"}) + "\n")
        with pytest.raises(ValueError, match="corrupt"):
            store.load()

    def test_csv_one_row_per_size(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        store.append(cell(), table(), attempt=1, backend="warm",
                     elapsed_s=0.1)
        lines = store.to_csv().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        assert lines[1].startswith(f"{cell().cell_id},osu_latency,threads,2")
        assert ",1,2.0," in lines[1] and ",16,3.0," in lines[2]

    def test_manifest_atomic_round_trip(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        doc = store.write_manifest(
            name="t", fingerprint="f00", status="degraded",
            completed=["b", "a"],
            missed=[{"cell": "c", "reason": "quarantined"}],
            skipped=["d needs 4 ranks"],
        )
        assert store.read_manifest() == doc
        assert doc["completed"] == ["a", "b"]      # sorted
        assert doc["cells"] == 3
        assert not (tmp_path / "MANIFEST.json.tmp").exists()

    def test_missing_files(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        assert store.load() == []
        assert store.read_manifest() is None


def record(benchmark="osu_latency", transport="threads", ranks=2,
           metric="latency_us", rows=None):
    return {
        "cell": f"{benchmark}.{transport}.n{ranks}.x",
        "benchmark": benchmark, "transport": transport, "ranks": ranks,
        "metric": metric,
        "rows": rows or [{"size": 1, "value": 2.0}, {"size": 16,
                                                     "value": 3.0}],
    }


class TestGate:
    def test_within_threshold_passes(self):
        baseline = {"osu_latency/threads/n2": {1: 2.0, 16: 3.0}}
        result = check([record()], baseline)
        assert result.ok and result.checked == 1

    def test_latency_slowdown_fails(self):
        baseline = {"osu_latency/threads/n2": {1: 1.0, 16: 1.0}}
        result = check([record()], baseline, threshold=1.5)
        assert not result.ok
        regression = result.regressions[0]
        assert regression.slowdown == pytest.approx(2.5)    # mean(2.0, 3.0)
        assert regression.worst_size == 16
        assert "REGRESSION" in result.format()

    def test_bandwidth_direction_inverted(self):
        # Bandwidth *dropping* is the regression; values above baseline
        # must pass.
        rows = [{"size": 1, "value": 100.0}]
        baseline = {"osu_bw/threads/n2": {1: 300.0}}
        bad = check([record(benchmark="osu_bw", metric="bandwidth_mbs",
                            rows=rows)], baseline, threshold=1.5)
        assert not bad.ok and bad.regressions[0].slowdown == 3.0
        good = check([record(benchmark="osu_bw", metric="bandwidth_mbs",
                             rows=[{"size": 1, "value": 600.0}])],
                     baseline, threshold=1.5)
        assert good.ok

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError, match="threshold"):
            check([], {}, threshold=1.0)

    def test_absent_series_and_sizes_skipped_not_failed(self):
        baseline = {"osu_latency/threads/n2": {512: 1.0}}   # no common size
        result = check([record(), record(benchmark="osu_allreduce")],
                       baseline)
        assert result.ok and result.checked == 0
        assert len(result.skipped) == 2

    def test_load_campaign_baseline(self, tmp_path):
        store = ResultsStore(str(tmp_path))
        store.append(cell(), table(), attempt=1, backend="cold",
                     elapsed_s=0.1)
        baseline = load_baseline(store.results_path)
        assert baseline == {"osu_latency/threads/n2": {1: 2.0, 16: 3.0}}
        # A fresh identical run gates cleanly against it.
        assert check(store.load(), baseline,
                     threshold=DEFAULT_THRESHOLD).ok
