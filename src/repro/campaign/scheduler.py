"""The campaign scheduler: concurrent cells, retries, quarantine.

Executes the pending cells of a campaign over a pool of worker threads.
Per cell: a wall-clock timeout (enforced by the backend), up to
``retry_max`` retries with capped-exponential jittered backoff, and
**quarantine** once the cell's *cumulative journaled* failure count
reaches ``quarantine_after`` — a cell that keeps crashing is set aside
and the campaign completes without it, listed in the manifest's
``missed`` section, instead of aborting the whole sweep.

Durability contract: every transition is journaled (and fsynced) before
the scheduler acts on it, and results are appended to the store before
``CELL_DONE`` is journaled — so a completed cell is never re-run after
a crash, and a journaled-done cell always has its data in the store.

A stop request (SIGINT in the CLI) is a *checkpoint-and-stop*: workers
finish or abandon their current attempt (in-flight subprocesses are
terminated via ``backend.interrupt()``), interrupted attempts are
journaled uncharged, and the journal is left consistent for resume.
"""

from __future__ import annotations

import collections
import random
import threading
import time
from dataclasses import dataclass, field

from ..backoff import backoff_s
from . import backends as bk
from .config import RETRY_BACKOFF_CAP_S, RETRY_JITTER, CampaignConfig
from .journal import (
    CAMPAIGN_END, CELL_DONE, CELL_FAILED, CELL_PLANNED, CELL_QUARANTINED,
    CELL_STARTED, Journal, JournalState,
)
from .spec import CampaignSpec
from .store import ResultsStore

#: Failure kinds that never charge the cell's quarantine budget: the
#: campaign's own shutdown, and backend/admission trouble that is not
#: the cell's fault.
UNCHARGED_KINDS = (bk.INTERRUPTED, bk.BACKEND_ERROR, bk.REJECTED)

#: How many uncharged failures one cell may ride for free in a single
#: driver run before they start charging anyway (a permanently broken
#: backend must not spin a cell forever).
FREE_RETRY_CAP = 3

#: Run statuses.
COMPLETE = "complete"
DEGRADED = "degraded"
INTERRUPTED = "interrupted"


@dataclass
class CampaignResult:
    """What one driver run (initial or resumed) accomplished."""

    status: str
    completed: list[str] = field(default_factory=list)
    missed: list[dict] = field(default_factory=list)
    executed: int = 0           # cells this run actually ran
    manifest: dict | None = None


class CampaignScheduler:
    """Drives one campaign run to completion (or checkpoint-stop)."""

    def __init__(
        self,
        spec: CampaignSpec,
        journal: Journal,
        store: ResultsStore,
        backend,
        config: CampaignConfig | None = None,
        state: JournalState | None = None,
        sleep=None,
        rng: random.Random | None = None,
    ) -> None:
        self.spec = spec
        self.journal = journal
        self.store = store
        self.backend = backend
        self.config = config or CampaignConfig()
        self.state = state or JournalState()
        self._rng = rng or random.Random()
        self._sleep = sleep
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._cells = {c.cell_id: c for c in spec.cells}
        self._queue: collections.deque[str] = collections.deque()
        self._missed: dict[str, dict] = {}
        self._executed = 0

    # -- control ----------------------------------------------------------
    def request_stop(self) -> None:
        """Checkpoint-and-stop: no new attempts, in-flight cells killed."""
        self._stop.set()
        interrupt = getattr(self.backend, "interrupt", None)
        if interrupt is not None:
            interrupt()

    def stopping(self) -> bool:
        return self._stop.is_set()

    # -- run --------------------------------------------------------------
    def run(self) -> CampaignResult:
        state = self.state
        # The spec is authoritative for the plan: a crash can land
        # between CAMPAIGN_BEGIN and the last CELL_PLANNED append, so a
        # resumed journal may know only part of the grid.  Re-plan the
        # missing cells (a no-op on the normal path).
        for cell in self.spec.cells:
            if cell.cell_id not in state.planned:
                self.journal.append(CELL_PLANNED, cell=cell.cell_id)
                state.planned.append(cell.cell_id)
        # Replayed failure counts may already cross the quarantine
        # threshold (the crash happened right after a CELL_FAILED):
        # quarantine those up front rather than burning another attempt.
        for cell_id in list(state.pending()):
            if state.failures.get(cell_id, 0) >= self.config.quarantine_after:
                self._quarantine(cell_id)
        pending = [c for c in state.pending()
                   if c not in state.quarantined and c in self._cells]
        self._queue.extend(pending)

        workers = [
            # Bounded by the --concurrency knob, not by rank count.
            threading.Thread(target=self._worker,  # ombpy-lint: ignore[OMB513]
                             name=f"campaign-worker-{i}", daemon=True)
            for i in range(min(self.config.concurrency, max(1, len(pending))))
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

        if self._stop.is_set():
            self.journal.append(CAMPAIGN_END, status=INTERRUPTED,
                                done=len(state.done),
                                missed=sorted(self._missed))
            return CampaignResult(
                status=INTERRUPTED, completed=sorted(state.done),
                missed=list(self._missed.values()),
                executed=self._executed,
            )
        return self._finish()

    def _finish(self) -> CampaignResult:
        state = self.state
        missed = []
        for cell_id in state.planned:
            if cell_id in state.done:
                continue
            entry = self._missed.get(cell_id) or {
                "cell": cell_id,
                "failures": state.failures.get(cell_id, 0),
                "reason": ("quarantined" if cell_id in state.quarantined
                           else "not attempted"),
                "last_error": state.last_error.get(cell_id),
            }
            missed.append(entry)
        status = COMPLETE if not missed else DEGRADED
        manifest = self.store.write_manifest(
            name=self.spec.name, fingerprint=self.spec.fingerprint(),
            status=status, completed=sorted(state.done), missed=missed,
            skipped=self.spec.skipped,
        )
        self.journal.append(CAMPAIGN_END, status=status,
                            done=len(state.done),
                            missed=sorted(m["cell"] for m in missed))
        return CampaignResult(
            status=status, completed=sorted(state.done), missed=missed,
            executed=self._executed, manifest=manifest,
        )

    # -- workers ----------------------------------------------------------
    def _next_cell(self) -> str | None:
        with self._lock:
            if self._queue:
                return self._queue.popleft()
        return None

    def _worker(self) -> None:
        while not self._stop.is_set():
            cell_id = self._next_cell()
            if cell_id is None:
                return
            self._run_cell(cell_id)

    def _run_cell(self, cell_id: str) -> None:
        cell = self._cells[cell_id]
        state = self.state
        attempt = 0
        free_retries = 0
        while True:
            if self._stop.is_set():
                return
            attempt += 1
            self.journal.append(
                CELL_STARTED, cell=cell_id, attempt=attempt,
                backend=getattr(self.backend, "name", "backend"),
            )
            with self._lock:
                self._executed += 1
            outcome = self.backend.run(cell, self.config.cell_timeout_s)
            if outcome.ok:
                # Results first, then the DONE record: a journaled-done
                # cell must always have durable data behind it.
                self.store.append(
                    cell, outcome.table or {}, attempt=attempt,
                    backend=outcome.backend,
                    elapsed_s=outcome.elapsed_s,
                )
                self.journal.append(
                    CELL_DONE, cell=cell_id, attempt=attempt,
                    backend=outcome.backend,
                    elapsed_s=round(outcome.elapsed_s, 4),
                )
                with self._lock:
                    state.done.add(cell_id)
                return

            charged = outcome.kind not in UNCHARGED_KINDS
            if not charged:
                free_retries += 1
                if free_retries > FREE_RETRY_CAP \
                        and outcome.kind != bk.INTERRUPTED:
                    charged = True
            self.journal.append(
                CELL_FAILED, cell=cell_id, attempt=attempt,
                error=outcome.error, kind=outcome.kind, charged=charged,
            )
            with self._lock:
                if charged:
                    state.failures[cell_id] = \
                        state.failures.get(cell_id, 0) + 1
                state.last_error[cell_id] = outcome.error or outcome.kind
                failures = state.failures.get(cell_id, 0)

            if outcome.kind == bk.INTERRUPTED or self._stop.is_set():
                return      # stays pending; resume re-runs it
            if failures >= self.config.quarantine_after:
                self._quarantine(cell_id)
                return
            if charged and attempt > self.config.retry_max:
                with self._lock:
                    self._missed[cell_id] = {
                        "cell": cell_id,
                        "failures": failures,
                        "reason": (
                            f"retries exhausted "
                            f"({attempt} attempts this run)"
                        ),
                        "last_error": outcome.error,
                    }
                return
            self._backoff(attempt)

    def _quarantine(self, cell_id: str) -> None:
        state = self.state
        failures = state.failures.get(cell_id, 0)
        self.journal.append(CELL_QUARANTINED, cell=cell_id,
                            failures=failures)
        with self._lock:
            state.quarantined.add(cell_id)
            self._missed[cell_id] = {
                "cell": cell_id,
                "failures": failures,
                "reason": f"quarantined after {failures} failures",
                "last_error": state.last_error.get(cell_id),
            }

    def _backoff(self, attempt: int) -> None:
        delay = backoff_s(
            attempt, self.config.retry_backoff_ms / 1000.0,
            RETRY_BACKOFF_CAP_S, RETRY_JITTER, self._rng,
        )
        if self._sleep is not None:
            self._sleep(delay)
            return
        # Interruptible sleep: a stop request must not wait out a backoff.
        deadline = time.monotonic() + delay
        while not self._stop.is_set():
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._stop.wait(min(remaining, 0.25))
