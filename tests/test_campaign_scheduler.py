"""Scheduler tests: retry, backoff, quarantine, manifests, exactly-once.

All tests run against :class:`ScriptedBackend` — a deterministic
in-process backend whose per-cell failure scripts let each test target
one scheduler policy without subprocess cost.
"""

import json
import os
import random
import threading

from repro.campaign import backends as bk
from repro.campaign.config import CampaignConfig
from repro.campaign.journal import (
    CAMPAIGN_BEGIN, CAMPAIGN_RESUMED, CELL_DONE, CELL_PLANNED,
    CELL_QUARANTINED, Journal, replay,
)
from repro.campaign.scheduler import (
    COMPLETE, DEGRADED, FREE_RETRY_CAP, INTERRUPTED, CampaignScheduler,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultsStore

_TABLE = {
    "metric": "latency_us",
    "rows": [{"size": 1, "value": 1.0, "min": 1.0, "max": 1.0,
              "iterations": 1}],
}


class ScriptedBackend:
    """Fails each cell per its script (a list of outcome kinds), then
    succeeds; records every execution."""

    name = "scripted"

    def __init__(self, scripts: dict | None = None) -> None:
        self.scripts = {k: list(v) for k, v in (scripts or {}).items()}
        self.executed: list[str] = []
        self._lock = threading.Lock()
        self.interrupts = 0

    def supports(self, cell) -> bool:
        return True

    def interrupt(self) -> None:
        self.interrupts += 1

    def run(self, cell, timeout_s: float) -> bk.CellOutcome:
        with self._lock:
            self.executed.append(cell.cell_id)
            script = self.scripts.get(cell.cell_id)
        if script:
            kind = script.pop(0)
            return bk.CellOutcome(
                ok=False, kind=kind, backend=self.name, elapsed_s=0.0,
                error=f"scripted {kind}",
            )
        return bk.CellOutcome(
            ok=True, kind=bk.OK, backend=self.name, elapsed_s=0.01,
            table=dict(_TABLE),
        )


def make_doc(sizes=("1:16",), benchmarks=("osu_latency",)):
    return {
        "name": "t",
        "sweep": [
            {
                "benchmarks": list(benchmarks),
                "transports": ["threads"],
                "ranks": [2],
                "sizes": list(sizes),
            }
        ],
    }


def start_journal(journal: Journal, spec: CampaignSpec) -> None:
    journal.append(CAMPAIGN_BEGIN, name=spec.name,
                   fingerprint=spec.fingerprint(), cells=len(spec.cells))
    for cell in spec.cells:
        journal.append(CELL_PLANNED, cell=cell.cell_id)


def build(tmp_path, doc=None, scripts=None, resume=False, sleep=None,
          **config_kw):
    """Wire up spec + journal + store + scripted backend + scheduler."""
    spec = CampaignSpec.from_document(doc or make_doc())
    path = str(tmp_path / "journal.jsonl")
    journal = Journal(path)
    if not resume:
        start_journal(journal, spec)
    else:
        journal.append(CAMPAIGN_RESUMED, fingerprint=spec.fingerprint())
    backend = ScriptedBackend(scripts)
    scheduler = CampaignScheduler(
        spec, journal, ResultsStore(str(tmp_path)), backend,
        config=CampaignConfig(**config_kw), state=replay(path),
        sleep=sleep if sleep is not None else (lambda _s: None),
        rng=random.Random(7),
    )
    return spec, scheduler, backend, journal


def journal_records(tmp_path):
    with open(tmp_path / "journal.jsonl", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


class TestHappyPath:
    def test_all_cells_complete(self, tmp_path):
        doc = make_doc(sizes=["1:4", "8:16", "32:64"])
        spec, scheduler, backend, journal = build(tmp_path, doc)
        result = scheduler.run()
        journal.close()
        assert result.status == COMPLETE
        assert result.completed == sorted(spec.cell_ids())
        assert result.missed == []
        assert sorted(backend.executed) == sorted(spec.cell_ids())
        manifest = ResultsStore(str(tmp_path)).read_manifest()
        assert manifest["status"] == "complete"
        assert manifest["completed"] == sorted(spec.cell_ids())

    def test_results_durable_before_done_record(self, tmp_path):
        spec, scheduler, _, journal = build(tmp_path)
        scheduler.run()
        journal.close()
        store = ResultsStore(str(tmp_path))
        assert store.completed_cells() == set(spec.cell_ids())
        # Every CELL_DONE in the journal has rows behind it in the store.
        done = {r["cell"] for r in journal_records(tmp_path)
                if r["type"] == CELL_DONE}
        assert done <= store.completed_cells()

    def test_concurrent_workers_complete_everything(self, tmp_path):
        doc = make_doc(sizes=[f"{1 << i}:{2 << i}" for i in range(6)])
        spec, scheduler, _, journal = build(tmp_path, doc, concurrency=4)
        result = scheduler.run()
        journal.close()
        assert result.status == COMPLETE
        assert len(result.completed) == 6


class TestRetry:
    def test_transient_failure_retries_to_success(self, tmp_path):
        spec = CampaignSpec.from_document(make_doc())
        cell = spec.cells[0].cell_id
        _, scheduler, backend, journal = build(
            tmp_path, scripts={cell: ["app_error"]}, retry_max=2,
        )
        result = scheduler.run()
        journal.close()
        assert result.status == COMPLETE
        assert backend.executed.count(cell) == 2
        state = replay(str(tmp_path / "journal.jsonl"))
        assert state.failures[cell] == 1    # the charged first attempt

    def test_retries_exhausted_lands_in_missed(self, tmp_path):
        spec = CampaignSpec.from_document(make_doc())
        cell = spec.cells[0].cell_id
        _, scheduler, backend, journal = build(
            tmp_path, scripts={cell: ["app_error"] * 10},
            retry_max=1, quarantine_after=50,
        )
        result = scheduler.run()
        journal.close()
        assert result.status == DEGRADED
        assert backend.executed.count(cell) == 2    # initial + 1 retry
        assert len(result.missed) == 1
        assert "retries exhausted" in result.missed[0]["reason"]
        assert result.missed[0]["last_error"] == "scripted app_error"

    def test_degraded_campaign_keeps_other_cells(self, tmp_path):
        doc = make_doc(sizes=["1:4", "8:16"])
        spec = CampaignSpec.from_document(doc)
        bad = spec.cells[0].cell_id
        _, scheduler, _, journal = build(
            tmp_path, doc, scripts={bad: ["app_error"] * 10},
            retry_max=0, quarantine_after=50,
        )
        result = scheduler.run()
        journal.close()
        assert result.status == DEGRADED
        assert len(result.completed) == 1
        manifest = ResultsStore(str(tmp_path)).read_manifest()
        assert manifest["status"] == "degraded"
        assert [m["cell"] for m in manifest["missed"]] == [bad]

    def test_backoff_sleeps_between_attempts(self, tmp_path):
        spec = CampaignSpec.from_document(make_doc())
        cell = spec.cells[0].cell_id
        delays: list[float] = []
        _, scheduler, _, journal = build(
            tmp_path, scripts={cell: ["app_error"] * 3}, retry_max=3,
            quarantine_after=50, retry_backoff_ms=100.0,
            sleep=delays.append,
        )
        scheduler.run()
        journal.close()
        assert len(delays) == 3
        # Jittered doubling: each delay within +/-50% of 0.1 * 2^(n-1).
        for index, delay in enumerate(delays):
            nominal = 0.1 * (2 ** index)
            assert 0.5 * nominal <= delay <= 1.5 * nominal


class TestQuarantine:
    def test_repeat_offender_quarantined(self, tmp_path):
        spec = CampaignSpec.from_document(make_doc())
        cell = spec.cells[0].cell_id
        _, scheduler, backend, journal = build(
            tmp_path, scripts={cell: ["app_error"] * 10},
            retry_max=10, quarantine_after=3,
        )
        result = scheduler.run()
        journal.close()
        assert result.status == DEGRADED
        assert backend.executed.count(cell) == 3
        assert "quarantined after 3 failures" in result.missed[0]["reason"]
        assert any(r["type"] == CELL_QUARANTINED
                   for r in journal_records(tmp_path))

    def test_replayed_failures_quarantine_without_another_attempt(
            self, tmp_path):
        """A resume whose journal already shows >= threshold failures
        must not burn another attempt on the doomed cell."""
        spec = CampaignSpec.from_document(make_doc())
        cell = spec.cells[0].cell_id
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            start_journal(journal, spec)
            for attempt in (1, 2, 3):
                journal.append("CELL_FAILED", cell=cell, attempt=attempt,
                               error="boom", kind="app_error", charged=True)
        backend = ScriptedBackend()
        with Journal(path) as journal:
            scheduler = CampaignScheduler(
                spec, journal, ResultsStore(str(tmp_path)), backend,
                config=CampaignConfig(quarantine_after=3),
                state=replay(path), sleep=lambda _s: None,
            )
            result = scheduler.run()
        assert result.status == DEGRADED
        assert backend.executed == []
        assert replay(path).quarantined == {cell}

    def test_uncharged_kinds_never_quarantine(self, tmp_path):
        spec = CampaignSpec.from_document(make_doc())
        cell = spec.cells[0].cell_id
        _, scheduler, backend, journal = build(
            tmp_path, scripts={cell: ["rejected", "backend_error"]},
            retry_max=0, quarantine_after=1,
        )
        result = scheduler.run()
        journal.close()
        assert result.status == COMPLETE
        assert backend.executed.count(cell) == 3
        assert replay(str(tmp_path / "journal.jsonl")).failures == {}

    def test_free_retries_are_capped(self, tmp_path):
        """A permanently broken backend must not spin a cell forever:
        past FREE_RETRY_CAP its failures start charging."""
        spec = CampaignSpec.from_document(make_doc())
        cell = spec.cells[0].cell_id
        _, scheduler, backend, journal = build(
            tmp_path, scripts={cell: ["backend_error"] * 100},
            retry_max=2, quarantine_after=3,
        )
        result = scheduler.run()
        journal.close()
        assert result.status == DEGRADED
        assert backend.executed.count(cell) <= FREE_RETRY_CAP + 4


class TestInterrupt:
    def test_stop_checkpoints_and_reports_interrupted(self, tmp_path):
        doc = make_doc(sizes=["1:4", "8:16", "32:64", "64:128"])
        spec = CampaignSpec.from_document(doc)
        _, scheduler, backend, journal = build(tmp_path, doc, concurrency=1)

        fired = []

        original = backend.run

        def stop_after_first(cell, timeout_s):
            outcome = original(cell, timeout_s)
            if not fired:
                fired.append(True)
                scheduler.request_stop()
            return outcome

        backend.run = stop_after_first
        result = scheduler.run()
        journal.close()
        assert result.status == INTERRUPTED
        assert backend.interrupts == 1
        state = replay(str(tmp_path / "journal.jsonl"))
        assert state.ended == INTERRUPTED
        assert len(state.done) == 1
        assert len(state.pending()) == 3

    def test_interrupted_attempt_is_uncharged_and_resumable(self, tmp_path):
        spec = CampaignSpec.from_document(make_doc())
        cell = spec.cells[0].cell_id
        _, scheduler, _, journal = build(
            tmp_path, scripts={cell: ["interrupted"] * 1},
            retry_max=0, quarantine_after=1,
        )
        scheduler.request_stop()    # already stopping when the worker runs
        result = scheduler.run()
        journal.close()
        state = replay(str(tmp_path / "journal.jsonl"))
        assert result.status == INTERRUPTED
        assert state.failures == {}
        assert state.pending() == [cell]


class TestResume:
    def test_resume_runs_only_pending_cells(self, tmp_path):
        doc = make_doc(sizes=["1:4", "8:16", "32:64"])
        spec = CampaignSpec.from_document(doc)
        path = str(tmp_path / "journal.jsonl")
        first_cell = spec.cells[0].cell_id
        with Journal(path) as journal:
            start_journal(journal, spec)
            journal.append(CELL_DONE, cell=first_cell, attempt=1)
        backend = ScriptedBackend()
        with Journal(path) as journal:
            journal.append(CAMPAIGN_RESUMED, fingerprint=spec.fingerprint())
            scheduler = CampaignScheduler(
                spec, journal, ResultsStore(str(tmp_path)), backend,
                state=replay(path), sleep=lambda _s: None,
            )
            result = scheduler.run()
        assert result.status == COMPLETE
        assert set(result.completed) == set(spec.cell_ids())
        assert first_cell not in backend.executed
        assert len(backend.executed) == 2

    def test_completed_campaign_resume_is_a_noop(self, tmp_path):
        spec, scheduler, backend, journal = build(tmp_path)
        scheduler.run()
        journal.close()
        path = str(tmp_path / "journal.jsonl")
        backend2 = ScriptedBackend()
        with Journal(path) as journal2:
            journal2.append(CAMPAIGN_RESUMED, fingerprint=spec.fingerprint())
            scheduler2 = CampaignScheduler(
                spec, journal2, ResultsStore(str(tmp_path)), backend2,
                state=replay(path), sleep=lambda _s: None,
            )
            result = scheduler2.run()
        assert result.status == COMPLETE
        assert backend2.executed == []
