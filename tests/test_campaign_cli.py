"""End-to-end ``ombpy-campaign`` CLI tests (cold backend, tiny grids)."""

import json
import os

import pytest

from repro.campaign import cli
from repro.campaign.journal import CAMPAIGN_RESUMED, CELL_DONE, replay
from repro.campaign.store import JOURNAL_FILE, SPEC_FILE, ResultsStore
from repro.knobs import CAMPAIGN_CONCURRENCY

SPEC_DOC = {
    "name": "cli-e2e",
    "sweep": [
        {
            "benchmarks": ["osu_latency"],
            "transports": ["threads"],
            "ranks": [2],
            "sizes": ["1:16"],
            "iterations": 3,
            "warmup": 1,
        }
    ],
}

KNOBS = ["--backend", "cold", "--cell-timeout", "120"]


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_DOC))
    return str(path)


@pytest.fixture
def out_dir(tmp_path):
    return str(tmp_path / "campaign")


def test_run_resume_status_report_cycle(spec_file, out_dir, tmp_path,
                                        capsys):
    assert cli.main(["run", spec_file, "--out", out_dir, *KNOBS]) == 0
    out = capsys.readouterr().out
    assert "complete — 1/1 cells done" in out

    store = ResultsStore(out_dir)
    manifest = store.read_manifest()
    assert manifest["status"] == "complete"
    assert len(manifest["completed"]) == 1
    records = store.load()
    assert len(records) == 1
    assert records[0]["rows"]                 # real benchmark output
    assert records[0]["backend"] == "cold"

    # A no-op resume completes without re-running anything.
    assert cli.main(["resume", out_dir, *KNOBS]) == 0
    state = replay(os.path.join(out_dir, JOURNAL_FILE))
    assert state.resumes == 1
    done_records = sum(
        1 for r in _journal(out_dir) if r["type"] == CELL_DONE
    )
    assert done_records == 1                  # exactly once, ever

    assert cli.main(["status", out_dir]) == 0
    out = capsys.readouterr().out
    assert "done=1" in out and "pending=0" in out

    csv_path = str(tmp_path / "results.csv")
    assert cli.main(["report", out_dir, "--csv", csv_path]) == 0
    out = capsys.readouterr().out
    assert "complete" in out and "wrote" in out
    with open(csv_path, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0].startswith("cell,benchmark,")
    assert len(lines) > 1

    # Gate the campaign against its own results: trivially clean.
    baseline = os.path.join(out_dir, "results.jsonl")
    assert cli.main(["report", out_dir, "--gate", baseline]) == 0
    assert "0 regression(s)" in capsys.readouterr().out


def test_rerun_of_existing_journal_refused(spec_file, out_dir, capsys):
    assert cli.main(["run", spec_file, "--out", out_dir, *KNOBS]) == 0
    capsys.readouterr()
    assert cli.main(["run", spec_file, "--out", out_dir, *KNOBS]) == 2
    assert "resume" in capsys.readouterr().err


def test_resume_rejects_fingerprint_mismatch(spec_file, out_dir, capsys):
    assert cli.main(["run", spec_file, "--out", out_dir, *KNOBS]) == 0
    capsys.readouterr()
    spec_path = os.path.join(out_dir, SPEC_FILE)
    with open(spec_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["sweep"][0]["iterations"] = 99        # a different sweep now
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert cli.main(["resume", out_dir, *KNOBS]) == 2
    err = capsys.readouterr().err
    assert "fingerprint mismatch" in err
    # No resume record was appended to the refused journal.
    assert all(r["type"] != CAMPAIGN_RESUMED for r in _journal(out_dir))


def test_resume_without_journal_refused(out_dir, capsys):
    assert cli.main(["resume", out_dir, *KNOBS]) == 2
    assert "no journal" in capsys.readouterr().err


def test_bad_env_knob_fails_fast_naming_variable(spec_file, out_dir,
                                                 monkeypatch, capsys):
    monkeypatch.setenv(CAMPAIGN_CONCURRENCY.name, "0")
    assert cli.main(["run", spec_file, "--out", out_dir, *KNOBS]) == 2
    assert CAMPAIGN_CONCURRENCY.name in capsys.readouterr().err


def test_cli_knob_overrides_env(spec_file, out_dir, monkeypatch):
    monkeypatch.setenv(CAMPAIGN_CONCURRENCY.name, "0")  # invalid, but overridden
    assert cli.main(["run", spec_file, "--out", out_dir,
                     "--concurrency", "1", *KNOBS]) == 0


def test_report_gate_failure_exits_nonzero(spec_file, out_dir, tmp_path,
                                           capsys):
    assert cli.main(["run", spec_file, "--out", out_dir, *KNOBS]) == 0
    capsys.readouterr()
    # A prior campaign's store claiming latency used to be far lower.
    records = ResultsStore(out_dir).load()
    for row in records[0]["rows"]:
        row["value"] = 1e-9
    baseline = tmp_path / "results.jsonl"
    baseline.write_text(json.dumps(records[0]) + "\n")
    assert cli.main(["report", out_dir, "--gate", str(baseline)]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def _journal(out_dir):
    with open(os.path.join(out_dir, JOURNAL_FILE),
              encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]
