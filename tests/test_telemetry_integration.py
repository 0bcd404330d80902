"""End-to-end telemetry tests over the live runtime.

Exercises the hook wiring (comm/matching/collectives/reliability), the
env-driven install path, job aggregation over the control plane, the
counter-agreement invariant with the reliability layer, and the
launcher-side dump merge.
"""

import json
import os

import pytest

from repro.mpi.world import run_on_threads
from repro.telemetry import telemetry_from_env
from repro.telemetry.export import (
    collect_job, merged_metrics, read_rank_dumps, render_summary,
    write_job_files, write_rank_dump,
)


@pytest.fixture
def telemetry_env(monkeypatch):
    """Arm metrics + tracing for every rank the world bootstrap builds."""
    monkeypatch.setenv("OMBPY_METRICS", "1")
    monkeypatch.setenv("OMBPY_TRACE", "1")


def _traffic(comm):
    comm.allgather_bytes(bytes([comm.rank]) * 4)
    if comm.rank == 1:
        comm.send_bytes(b"payload", 0, 3)
    if comm.rank == 0:
        comm.recv_bytes(1, 3, 64)
    comm.barrier()


class TestEnvInstall:
    def test_disabled_by_default(self):
        assert telemetry_from_env(0) is None

    def test_trace_implies_metrics(self, monkeypatch):
        monkeypatch.setenv("OMBPY_TRACE", "1")
        tele = telemetry_from_env(2)
        assert tele is not None
        assert tele.metrics is not None
        assert tele.tracer is not None
        assert tele.rank == 2

    def test_zero_means_off(self, monkeypatch):
        monkeypatch.setenv("OMBPY_METRICS", "0")
        monkeypatch.setenv("OMBPY_TRACE", "0")
        assert telemetry_from_env(0) is None

    def test_threads_fabric_installs_per_rank(self, telemetry_env):
        def fn(comm):
            tele = comm.endpoint.telemetry
            assert tele is not None
            assert tele is comm.endpoint.engine.telemetry
            return tele.rank

        assert run_on_threads(3, fn) == [0, 1, 2]


class TestHookWiring:
    def test_counters_track_traffic(self, telemetry_env):
        def fn(comm):
            _traffic(comm)
            return comm.endpoint.telemetry.snapshot()

        snaps = [s["metrics"] for s in run_on_threads(2, fn)]
        c0, c1 = (s["counters"] for s in snaps)
        # Rank 1's direct send shows up at both ends.
        assert c1["comm.msgs_sent"] >= 1
        assert c0["comm.msgs_recvd"] >= 1
        assert c1["comm.bytes_sent"] >= len(b"payload")
        # Collectives ran under spans and counted internal messages.
        assert c0["coll.calls.allgather"] == 1
        assert c0["coll.calls.barrier"] == 1
        assert c0["coll.msgs"] >= 1
        # Every delivery classified as posted-hit or unexpected.
        assert (
            c0["comm.msgs_recvd"]
            == c0.get("match.posted_hits", 0)
            + c0.get("match.unexpected_queued", 0)
        )
        # The recv-wait histogram saw the blocking receive.
        assert snaps[0]["histograms"]["p2p.recv_wait_us"]["count"] >= 1

    def test_trace_events_recorded_per_rank(self, telemetry_env):
        def fn(comm):
            _traffic(comm)
            return comm.endpoint.telemetry.dump()

        dumps = run_on_threads(2, fn)
        for dump in dumps:
            kinds = {e[0] for e in dump["trace"]}
            assert "X" in kinds  # collective spans
            assert "i" in kinds  # message instants
            names = {e[1] for e in dump["trace"]}
            assert "coll.allgather" in names
            assert "send" in names

    def test_bench_sweep_records_phases(self, telemetry_env):
        from repro.core.options import Options
        from repro.core.runner import run_benchmark

        def fn(comm):
            run_benchmark(
                "osu_latency", comm,
                Options(min_size=1, max_size=4, iterations=2, warmup=1,
                        buffer="bytearray"),
            )
            return comm.endpoint.telemetry.dump()

        dumps = run_on_threads(2, fn)
        counters = dumps[0]["metrics"]["counters"]
        assert counters["bench.phases"] >= 1
        phase_spans = [
            e for e in dumps[0]["trace"] if e[2] == "bench"
        ]
        assert phase_spans
        assert all(e[1] == "osu_latency" for e in phase_spans)
        assert phase_spans[0][6]["size"] >= 1


class TestCollectiveMessageCount:
    """``coll.msgs`` counts every message a collective sends, so summed
    over ranks it equals the ``comm.msgs_sent`` delta of the call."""

    @pytest.mark.parametrize("n, groups, work, expected", [
        # 3 header + 3 scatter + 4*3 ring messages.
        (4, None, lambda comm: comm.bcast_bytes(
            bytes(65536) if comm.rank == 0 else None, 0), 18),
        # 2*3 intra-group gather + 2 leader ring + 2*3 intra-group bcast.
        (8, "2x4", lambda comm: comm.allgather_bytes(bytes(16)), 14),
    ], ids=["bcast_64k_p4", "allgather_2x4"])
    def test_coll_msgs_equals_msgs_sent(
        self, telemetry_env, n, groups, work, expected
    ):
        def counts(comm):
            c = comm.endpoint.telemetry.snapshot()["metrics"]["counters"]
            return c.get("coll.msgs", 0), c.get("comm.msgs_sent", 0)

        def fn(comm):
            coll0, sent0 = counts(comm)
            work(comm)
            coll1, sent1 = counts(comm)
            return coll1 - coll0, sent1 - sent0

        deltas = run_on_threads(n, fn, groups=groups)
        assert sum(c for c, _ in deltas) == sum(s for _, s in deltas) \
            == expected


class TestReliabilityMirror:
    def test_counters_agree_with_stats(self, telemetry_env):
        """The metrics registry and stats() must report identical counts,
        and comm.msgs_sent must equal the reliability layer's sequenced
        frame count — the acceptance-criteria invariant."""
        def fn(comm):
            _traffic(comm)
            comm.barrier()  # settle ACK traffic before snapshotting
            stats = None
            t = comm.endpoint.transport
            while t is not None and stats is None:
                if hasattr(t, "stats"):
                    stats = t.stats()
                t = getattr(t, "inner", None)
            return stats, comm.endpoint.telemetry.snapshot()["metrics"]

        results = run_on_threads(2, fn, reliable=True)
        for stats, metrics in results:
            assert stats is not None
            counters = metrics["counters"]
            for key, value in stats.items():
                assert counters.get(f"reliability.{key}", 0) == value, key
            # Every comm-level send became exactly one sequenced frame.
            assert counters["comm.msgs_sent"] == stats["sent"]

    def test_no_mirror_without_telemetry(self):
        def fn(comm):
            _traffic(comm)
            t = comm.endpoint.transport
            return t.stats()["sent"]

        sent = run_on_threads(2, fn, reliable=True)
        assert all(s >= 1 for s in sent)


class TestJobAggregation:
    def test_collect_job_gathers_all_ranks(self, telemetry_env):
        def fn(comm):
            _traffic(comm)
            dumps = collect_job(comm, comm.endpoint.telemetry)
            if comm.rank == 0:
                assert sorted(dumps) == [0, 1, 2]
                return merged_metrics(dumps)
            assert dumps is None
            return None

        merged = run_on_threads(3, fn)[0]
        assert merged["nranks"] == 3
        job = merged["job"]["counters"]
        per_rank = [
            merged["ranks"][str(r)]["counters"].get("comm.msgs_sent", 0)
            for r in range(3)
        ]
        assert job["comm.msgs_sent"] == sum(per_rank)

    def test_message_conservation_after_quiesce(self, telemetry_env):
        """Once a closing barrier quiesces the job, every counted send
        has been counted as a delivery somewhere.  (collect_job itself
        cannot promise this: its own gather traffic races the per-rank
        snapshots.)"""
        def fn(comm):
            _traffic(comm)
            return comm.endpoint.telemetry.dump()

        dumps = {d["rank"]: d for d in run_on_threads(3, fn)}
        job = merged_metrics(dumps)["job"]["counters"]
        assert job["comm.msgs_sent"] == job["comm.msgs_recvd"]
        assert job["comm.bytes_sent"] == job["comm.bytes_recvd"]

    def test_rank_dump_files_merge(self, tmp_path, telemetry_env):
        base = str(tmp_path / "job")

        def fn(comm):
            _traffic(comm)
            write_rank_dump(base, comm.endpoint.telemetry)

        run_on_threads(2, fn)
        dumps = read_rank_dumps(base, 2)
        assert sorted(dumps) == [0, 1]
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        write_job_files(dumps, str(metrics_path), str(trace_path))
        metrics = json.loads(metrics_path.read_text())
        assert metrics["schema"] == "ombpy-metrics/1"
        assert metrics["nranks"] == 2
        trace = json.loads(trace_path.read_text())
        assert {e["pid"] for e in trace["traceEvents"]} == {0, 1}

    def test_world_finalize_writes_dump(self, tmp_path, monkeypatch):
        from repro.mpi import init as runtime_init

        base = str(tmp_path / "single")
        monkeypatch.setenv("OMBPY_METRICS", "1")
        monkeypatch.setenv("OMBPY_TELEMETRY_OUT", base)
        world = runtime_init()  # no launcher env -> singleton world
        world.finalize()
        dumps = read_rank_dumps(base, 1)
        assert 0 in dumps
        assert dumps[0]["metrics"] is not None

    def test_summary_table_shape(self, telemetry_env):
        def fn(comm):
            _traffic(comm)
            return comm.endpoint.telemetry.dump()

        dumps = {d["rank"]: d for d in run_on_threads(2, fn)}
        text = render_summary(dumps)
        lines = text.strip().split("\n")
        assert lines[0].startswith("# telemetry")
        assert lines[1].split()[:3] == ["#", "rank", "msgs"]
        assert len(lines) == 2 + 2 + 1  # header x2, one per rank, job row
        assert lines[-1].startswith("job")


class TestCliIntegration:
    def test_ombpy_threads_metrics_and_trace(self, tmp_path, monkeypatch):
        from repro.core.cli import main

        monkeypatch.chdir(tmp_path)
        rc = main([
            "osu_latency", "--threads", "2", "-m", "1:4", "-i", "2",
            "-x", "1", "--metrics",
            "--metrics-out", str(tmp_path / "metrics.json"),
            "--trace-out", str(tmp_path / "trace.json"),
        ])
        assert rc == 0
        # The CLI-set env must not leak into later runs.
        assert "OMBPY_METRICS" not in os.environ
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["nranks"] == 2
        assert metrics["job"]["counters"]["comm.msgs_sent"] > 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["traceEvents"]

    def test_ombpy_without_flags_stays_dark(self, tmp_path, monkeypatch):
        from repro.core.cli import main

        monkeypatch.chdir(tmp_path)
        rc = main([
            "osu_latency", "--threads", "2", "-m", "1:4", "-i", "2",
            "-x", "1",
        ])
        assert rc == 0
        assert not (tmp_path / "metrics.json").exists()
