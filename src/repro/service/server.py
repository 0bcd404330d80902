"""The benchmark service daemon: admission, deadlines, retry, drain.

:class:`BenchmarkService` owns a warm rank pool (threads by default,
processes via ``--pool process``) and a listening socket (UDS or TCP).
Three kinds of thread cooperate under one lock:

* **acceptor + per-connection handlers** — parse requests, run
  admission control, answer queries.  They never touch the pool
  directly except through the control queue.
* **the control loop** — the only thread that dispatches to the pool.
  It is event-driven: it blocks on the pool's event queue, where the
  pool reports job done / failed / rank dead and ``submit``, ``cancel``,
  ``drain`` and ``stop`` put a wake-up, timed to the earliest job
  deadline (watchdog), retry due time (capped-exponential backoff) or
  drain deadline.  It completes drains and flips the service state
  machine ``SERVING → DEGRADED → DRAINING → STOPPED``.
* **signal-driven drain** — SIGTERM/SIGINT ask for a graceful drain;
  queued and running jobs get ``drain_grace_s`` to finish, stragglers
  are killed.

Failure classification (what gets retried):

* a job whose *member* rank died (``dead_member``) is a genuine rank
  failure → retried on the shrunken pool up to the retry cap;
* a job that saw ``RankFailedError``/``CommRevokedError`` while none of
  its own members died is **collateral** — on the shared in-process
  fabric a death is visible to every engine — and is requeued without
  charging its retry budget (bounded by :data:`COLLATERAL_REQUEUE_CAP`);
* deadline kills, cancels, and application errors are never retried.
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import queue
import socket
import threading
import time

from ..backoff import backoff_s
from ..telemetry import MetricsRegistry, merge_snapshots
from . import protocol
from .config import RETRY_BACKOFF_CAP_S, ServiceConfig
from .pool import JobRun, ThreadRankPool, job_context
from .protocol import (
    ACCEPTED, CANCELLED, DEADLINE, DONE, ERROR, FAILED, JobSpec, QUEUED,
    REJECTED, RUNNING, TERMINAL_STATES, read_message,
)

#: Service states.
SERVING = "SERVING"
DEGRADED = "DEGRADED"
DRAINING = "DRAINING"
STOPPED = "STOPPED"

#: How many times a job may be requeued for free because an *unrelated*
#: rank death poisoned its engines mid-run.
COLLATERAL_REQUEUE_CAP = 3

#: Pool-queue item that only wakes the control loop.
_WAKE = {"type": "wake"}

#: States a job holds while the service still owes it work.
_LIVE = (QUEUED, RUNNING)


class JobRecord:
    """Server-side lifecycle record for one submitted job."""

    __slots__ = (
        "job_id", "spec", "state", "attempts", "collateral_requeues",
        "result", "error", "failure_kind", "submitted_at", "started_at",
        "finished_at", "deadline_at",
    )

    def __init__(self, job_id: str, spec: JobSpec) -> None:
        self.job_id = job_id
        self.spec = spec
        self.state = QUEUED
        self.attempts = 0
        self.collateral_requeues = 0
        self.result: dict | None = None
        self.error: str | None = None
        #: Why a FAILED job failed: "rank_failure", "collateral",
        #: "pool_degraded", "pool_lost", or "app_error".  Clients
        #: (ombpy-submit exit codes, the campaign driver's retry
        #: accounting) branch on this instead of parsing the error text.
        self.failure_kind: str | None = None
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.deadline_at: float | None = None   # monotonic, while RUNNING

    def to_wire(self) -> dict:
        return {
            "job_id": self.job_id,
            "state": self.state,
            "spec": self.spec.to_wire(),
            "attempts": self.attempts,
            "result": self.result,
            "error": self.error,
            "failure_kind": self.failure_kind,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class BenchmarkService:
    """The daemon.  Construct, :meth:`start`, then :meth:`serve_forever`
    (or drive :meth:`drain`/:meth:`stop` yourself in tests)."""

    def __init__(
        self,
        pool_size: int = 4,
        config: ServiceConfig | None = None,
        socket_path: str | None = None,
        tcp: tuple[str, int] | None = None,
        pool=None,
        fault_plan=None,
        reliable: bool = False,
        metrics_out: str | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if pool is not None:
            self.pool = pool
        else:
            self.pool = ThreadRankPool(
                pool_size, fault_plan=fault_plan, reliable=reliable
            )
        self.metrics_out = metrics_out
        self.metrics = MetricsRegistry()
        self._m_submitted = self.metrics.counter("service.jobs.submitted")
        self._m_accepted = self.metrics.counter("service.jobs.accepted")
        self._m_rejected = self.metrics.counter("service.jobs.rejected")
        self._m_completed = self.metrics.counter("service.jobs.completed")
        self._m_failed = self.metrics.counter("service.jobs.failed")
        self._m_cancelled = self.metrics.counter("service.jobs.cancelled")
        self._m_deadline = self.metrics.counter("service.jobs.deadline")
        self._m_retries = self.metrics.counter("service.jobs.retries")
        self._m_rank_deaths = self.metrics.counter("service.pool.rank_deaths")
        self._g_live = self.metrics.gauge("service.pool.live")
        self._g_queue = self.metrics.gauge("service.queue.depth")
        self._g_degraded = self.metrics.gauge("service.degraded")
        self._g_live.set(self.pool.live_count())

        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self.state = SERVING
        self._started_at = time.time()
        self._jobs: dict[str, JobRecord] = {}
        self._queue: list[tuple[int, int, str]] = []   # (-priority, seq, id)
        self._retry_heap: list[tuple[float, str]] = []  # (due_monotonic, id)
        self._deadlines: list[tuple[float, str]] = []   # (deadline_at, id)
        self._live_jobs = 0     # records in QUEUED or RUNNING
        self._seq = itertools.count(1)
        self._serial = itertools.count(1)
        self._stop_evt = threading.Event()
        self._stop_done = threading.Event()
        self._drain_deadline: float | None = None

        # -- listener ----------------------------------------------------
        self._socket_path = None
        if tcp is not None:
            self._server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            self._server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._server.bind(tcp)
        else:
            if socket_path is None:
                raise ValueError("need socket_path or tcp address")
            self._socket_path = socket_path
            try:
                os.unlink(socket_path)
            except FileNotFoundError:
                pass
            self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._server.bind(socket_path)
        self._server.listen(16)
        self._server.settimeout(0.2)

    @property
    def address(self):
        """Bound address: UDS path or ``(host, port)``."""
        return self._socket_path or self._server.getsockname()

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        for target, name in (
            (self._accept_loop, "service-accept"),
            (self._control_loop, "service-control"),
        ):
            threading.Thread(target=target, name=name, daemon=True).start()

    def serve_forever(self) -> None:
        """Block until the service reaches STOPPED."""
        with self._lock:
            while self.state != STOPPED:
                self._changed.wait()

    def drain(self) -> None:
        """Stop admitting; let queued + running jobs finish within the
        drain grace, then stop.  Idempotent."""
        with self._lock:
            if self.state in (DRAINING, STOPPED):
                return
            self.state = DRAINING
            self._drain_deadline = time.monotonic() + self.config.drain_grace_s
            self._changed.notify_all()
        self._wake()

    def stop(self) -> None:
        """Hard stop: kill in-flight jobs, stop the pool, close sockets,
        write merged telemetry.  Idempotent."""
        with self._lock:
            if self.state == STOPPED:
                # Another thread is (or finished) tearing down; wait so
                # our caller sees a fully-stopped service — in
                # particular, the merged telemetry file on disk.
                already_stopped = True
            else:
                already_stopped = False
                self.state = STOPPED
        if already_stopped:
            self._stop_done.wait(timeout=30.0)
            return
        with self._lock:
            running = [r.job_id for r in self._jobs.values()
                       if r.state == RUNNING]
            queued_ids = [jid for _, _, jid in self._queue]
            self._queue.clear()
            self._retry_heap.clear()
            self._changed.notify_all()
        for job_id in running:
            self.pool.kill(job_id)
        with self._lock:
            for job_id in queued_ids:
                rec = self._jobs.get(job_id)
                if rec is not None and rec.state == QUEUED:
                    self._finish(rec, CANCELLED, error="service stopped")
        try:
            self._stop_evt.set()
            self._wake()
            self._server.close()
            if self._socket_path:
                try:
                    os.unlink(self._socket_path)
                except OSError:
                    pass
            self.pool.stop()
            self._write_metrics()
        finally:
            self._stop_done.set()

    def _write_metrics(self) -> None:
        if not self.metrics_out:
            return
        per_rank = {}
        if hasattr(self.pool, "telemetry_snapshots"):
            per_rank = self.pool.telemetry_snapshots()
        doc = {
            "service": self.metrics.snapshot(),
            "jobs": {jid: rec.to_wire() for jid, rec in self._jobs.items()},
            "ranks": {str(r): s for r, s in per_rank.items()},
        }
        if per_rank:
            doc["merged"] = merge_snapshots(list(per_rank.values()))
        tmp = self.metrics_out + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.metrics_out)

    # -- admission --------------------------------------------------------
    def submit(self, spec: JobSpec):
        """Admission control.  Returns ``(job_id, None)`` on acceptance
        or ``(None, reason)`` on rejection."""
        self._m_submitted.inc()
        reason = self._admission_error(spec)
        if reason is not None:
            self._m_rejected.inc()
            return None, reason
        with self._lock:
            if self.state in (DRAINING, STOPPED):
                self._m_rejected.inc()
                return None, "service is draining; not admitting new jobs"
            if len(self._queue) >= self.config.queue_depth:
                self._m_rejected.inc()
                return None, (
                    f"queue full ({self.config.queue_depth} jobs); "
                    "retry later (backpressure)"
                )
            seq = next(self._seq)
            job_id = f"job-{seq:06d}"
            self._jobs[job_id] = JobRecord(job_id, spec)
            self._live_jobs += 1
            heapq.heappush(self._queue, (-spec.priority, seq, job_id))
            self._g_queue.set(len(self._queue))
            self._m_accepted.inc()
            self._changed.notify_all()
        self._wake()
        return job_id, None

    def _admission_error(self, spec: JobSpec) -> str | None:
        if spec.ranks > self.pool.live_count():
            return (
                f"job needs {spec.ranks} ranks but only "
                f"{self.pool.live_count()} are live in the pool"
            )
        if spec.kind == protocol.KIND_BENCHMARK:
            from ..core.options import Options
            from ..core.registry import get_benchmark

            try:
                bench = get_benchmark(spec.benchmark)
            except KeyError as exc:
                return str(exc)
            if spec.ranks < bench.min_ranks:
                return (
                    f"{spec.benchmark} needs at least {bench.min_ranks} "
                    f"ranks, job asked for {spec.ranks}"
                )
            try:
                Options(**spec.options)
            except (TypeError, ValueError) as exc:
                return f"invalid benchmark options: {exc}"
        return None

    def cancel(self, job_id: str) -> tuple[JobRecord | None, str | None]:
        with self._lock:
            rec = self._jobs.get(job_id)
            if rec is None:
                return None, f"unknown job {job_id!r}"
            if rec.state in TERMINAL_STATES:
                return rec, None
            running = rec.state == RUNNING
            if running:
                # Mark first so the pool's failure event is folded into
                # the cancel rather than counted as a job failure.
                self._move(rec, CANCELLED)
            else:
                self._queue = [e for e in self._queue if e[2] != job_id]
                heapq.heapify(self._queue)
                self._retry_heap = [e for e in self._retry_heap
                                    if e[1] != job_id]
                heapq.heapify(self._retry_heap)
                self._g_queue.set(len(self._queue))
                self._finish(rec, CANCELLED, error="cancelled by client")
        if running:
            self.pool.kill(job_id)
        self._wake()
        return rec, None

    def status(self) -> dict:
        with self._lock:
            counts: dict[str, int] = {}
            for rec in self._jobs.values():
                counts[rec.state] = counts.get(rec.state, 0) + 1
            return {
                "state": self.state,
                "pool": self.pool.describe(),
                "queue_depth": len(self._queue),
                "running": counts.get(RUNNING, 0),
                "jobs": counts,
                "metrics": self.metrics.snapshot(),
                "uptime_s": round(time.time() - self._started_at, 3),
            }

    def wait_for(self, job_id: str, states=TERMINAL_STATES,
                 timeout: float | None = None):
        """Block until ``job_id`` is in one of ``states`` or terminal, the
        service stops, or ``timeout`` passes; answered on the state
        change's notify.  Returns the record, or None for an unknown id."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                rec = self._jobs.get(job_id)
                if rec is None or rec.state in states \
                        or rec.state in TERMINAL_STATES \
                        or self.state == STOPPED:
                    return rec
                wait = None if deadline is None \
                    else deadline - time.monotonic()
                if wait is not None and wait <= 0:
                    return rec
                self._changed.wait(wait)

    # -- control loop -----------------------------------------------------
    def _wake(self) -> None:
        """Make the control loop take another pass (any thread)."""
        self.pool.events.put(_WAKE)

    def _control_loop(self) -> None:
        events = self.pool.events
        while not self._stop_evt.is_set():
            try:
                event = events.get(timeout=self._timeout_s())
            except queue.Empty:
                event = None
            if event is not None and event is not _WAKE:
                self._handle_pool_event(event)
            self._check_deadlines()
            self._dispatch_ready()
            self._check_drain_done()

    def _timeout_s(self) -> float | None:
        """How long the loop may block: until the earliest job deadline,
        retry due time or drain deadline; None when none is set."""
        with self._lock:
            dues = [self._next_deadline(),
                    self._retry_heap[0][0] if self._retry_heap else None,
                    self._drain_deadline if self.state == DRAINING else None]
        dues = [due for due in dues if due is not None]
        return max(0.0, min(dues) - time.monotonic()) if dues else None

    def _next_deadline(self) -> float | None:
        """The earliest deadline of a RUNNING job; discards heap entries
        of jobs that finished or were re-dispatched.  Lock held."""
        while self._deadlines:
            due, job_id = self._deadlines[0]
            rec = self._jobs[job_id]
            if rec.state == RUNNING and rec.deadline_at == due:
                return due
            heapq.heappop(self._deadlines)
        return None

    def _handle_pool_event(self, event: dict) -> None:
        etype = event.get("type")
        if etype == "rank_dead":
            self._m_rank_deaths.inc()
            self._g_live.set(self.pool.live_count())
            with self._lock:
                if self.state == SERVING:
                    self.state = DEGRADED
                    self._g_degraded.set(1)
                self._changed.notify_all()
            return
        if etype == "pool_lost":
            with self._lock:
                for rec in self._jobs.values():
                    if rec.state in _LIVE:
                        self._finish(
                            rec, FAILED,
                            error=f"pool lost: {event.get('reason')}",
                            failure_kind="pool_lost",
                        )
                self._queue.clear()
                self._g_queue.set(0)
            self.stop()
            return
        job_id = event.get("job_id")
        with self._lock:
            rec = self._jobs.get(job_id)
            if rec is None:
                return
            if rec.state == CANCELLED:
                # Cancel raced the pool; the revoke-driven failure event
                # is the kill taking effect, not a new outcome.
                if rec.finished_at is None:
                    self._finish(rec, CANCELLED,
                                 error=rec.error or "cancelled by client")
                return
            if rec.state == DEADLINE:
                if rec.finished_at is None:
                    self._finish(rec, DEADLINE, error=rec.error)
                return
            if rec.state != RUNNING:
                return
            if etype == "job_done":
                rec.result = event.get("result")
                self._finish(rec, DONE)
                return
            # job_failed
            self._classify_failure(rec, event)

    def _classify_failure(self, rec: JobRecord, event: dict) -> None:
        """Decide FAILED / retry / collateral-requeue.  Lock held."""
        error = event.get("error") or "job failed"
        kinds = set(event.get("kinds") or ())
        dead_member = bool(event.get("dead_member"))
        if dead_member:
            cap = rec.spec.max_retries
            if cap is None:
                cap = self.config.retry_max
            if rec.spec.ranks > self.pool.live_count():
                self._finish(rec, FAILED, error=(
                    f"rank failure: {error} (pool shrank below job size: "
                    f"needs {rec.spec.ranks}, {self.pool.live_count()} live)"
                ), failure_kind="rank_failure")
                return
            if rec.attempts <= cap:
                self._schedule_retry(rec, error)
                return
            self._finish(rec, FAILED, error=f"rank failure: {error} "
                         f"(retries exhausted after {rec.attempts} attempts)",
                         failure_kind="rank_failure")
            return
        if kinds and kinds <= {"rank_failed", "revoked"}:
            # None of this job's members died: an unrelated death on the
            # shared fabric poisoned its engines.  Requeue for free.
            if rec.collateral_requeues < COLLATERAL_REQUEUE_CAP:
                rec.collateral_requeues += 1
                self._move(rec, QUEUED)
                rec.deadline_at = None
                heapq.heappush(
                    self._queue,
                    (-rec.spec.priority, next(self._seq), rec.job_id),
                )
                self._g_queue.set(len(self._queue))
                self._changed.notify_all()
                return
            self._finish(rec, FAILED,
                         error=f"collateral rank-failure exposure: {error}",
                         failure_kind="collateral")
            return
        self._finish(rec, FAILED, error=error, failure_kind="app_error")

    def _schedule_retry(self, rec: JobRecord, error: str) -> None:
        """Queue a retryable job behind its capped-exponential backoff."""
        self._m_retries.inc()
        self._move(rec, QUEUED)
        rec.deadline_at = None
        rec.error = f"retrying after rank failure: {error}"
        due = time.monotonic() + backoff_s(
            rec.attempts, self.config.retry_backoff_ms / 1000.0,
            RETRY_BACKOFF_CAP_S,
        )
        heapq.heappush(self._retry_heap, (due, rec.job_id))
        self._changed.notify_all()

    def _check_deadlines(self) -> None:
        now = time.monotonic()
        expired = []
        with self._lock:
            while (due := self._next_deadline()) is not None and due <= now:
                rec = self._jobs[heapq.heappop(self._deadlines)[1]]
                self._move(rec, DEADLINE)
                rec.error = (
                    f"deadline exceeded "
                    f"({rec.spec.deadline_s or self.config.default_deadline_s}s)"
                )
                self._m_deadline.inc()
                expired.append(rec.job_id)
        for job_id in expired:
            # Revoke the job's context: members unblock with
            # CommRevokedError, the pool frees them, and the eventual
            # job_failed event folds into the DEADLINE outcome above.
            self.pool.kill(job_id)

    def _dispatch_ready(self) -> None:
        while True:
            with self._lock:
                if self.state == STOPPED:
                    return
                now = time.monotonic()
                while self._retry_heap and self._retry_heap[0][0] <= now:
                    _, job_id = heapq.heappop(self._retry_heap)
                    rec = self._jobs.get(job_id)
                    if rec is not None and rec.state == QUEUED:
                        heapq.heappush(
                            self._queue,
                            (-rec.spec.priority, next(self._seq), job_id),
                        )
                self._g_queue.set(len(self._queue))
                rec = self._pop_dispatchable()
                if rec is None:
                    return
                run = JobRun(
                    job_id=rec.job_id, spec=rec.spec, members=[],
                    context=job_context(next(self._serial)),
                )
                self._move(rec, RUNNING)
                rec.attempts += 1
                rec.started_at = time.time()
                deadline_s = rec.spec.deadline_s
                if deadline_s is None:
                    deadline_s = self.config.default_deadline_s
                rec.deadline_at = time.monotonic() + deadline_s
                heapq.heappush(self._deadlines, (rec.deadline_at, rec.job_id))
                self._g_queue.set(len(self._queue))
                self._changed.notify_all()
            self.pool.dispatch(run)

    def _pop_dispatchable(self) -> JobRecord | None:
        """Pop the best queued job the pool can run right now.  Lock
        held.  Skips (keeps queued) jobs that need more free ranks than
        currently available; fails jobs that can never run again."""
        kept = []
        picked = None
        while self._queue:
            entry = heapq.heappop(self._queue)
            rec = self._jobs.get(entry[2])
            if rec is None or rec.state != QUEUED:
                continue
            if rec.spec.ranks > self.pool.live_count():
                self._finish(
                    rec, FAILED,
                    error=(
                        f"pool degraded below job size: needs "
                        f"{rec.spec.ranks} ranks, "
                        f"{self.pool.live_count()} live"
                    ),
                    failure_kind="pool_degraded",
                )
                continue
            if self.pool.can_dispatch(rec.spec.ranks):
                picked = rec
                break
            kept.append(entry)
            if not self.pool.concurrent:
                break
        for entry in kept:
            heapq.heappush(self._queue, entry)
        return picked

    def _check_drain_done(self) -> None:
        with self._lock:
            if self.state != DRAINING:
                return
            overdue = time.monotonic() >= self._drain_deadline
            if self._live_jobs and not overdue:
                return
        self.stop()

    def _finish(self, rec: JobRecord, state: str,
                error: str | None = None,
                failure_kind: str | None = None) -> None:
        """Move a job to a terminal state.  Lock held."""
        self._move(rec, state)
        if error is not None:
            rec.error = error
        elif state == DONE:
            rec.error = None    # drop any stale retry annotation
        if state == FAILED:
            rec.failure_kind = failure_kind or "app_error"
        rec.finished_at = time.time()
        rec.deadline_at = None
        if state == DONE:
            self._m_completed.inc()
        elif state == FAILED:
            self._m_failed.inc()
        elif state == CANCELLED:
            self._m_cancelled.inc()
        self._changed.notify_all()

    def _move(self, rec: JobRecord, state: str) -> None:
        """Set a job's state, keeping the live-job count.  Lock held."""
        self._live_jobs += (state in _LIVE) - (rec.state in _LIVE)
        rec.state = state

    # -- connection handling ----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._stop_evt.is_set():
            try:
                conn, _ = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="service-conn", daemon=True,
            )
            t.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            fh = conn.makefile("rb")
            while True:
                try:
                    request = read_message(fh)
                except (ValueError, OSError) as exc:
                    protocol.write_message(conn, {
                        "ok": False, "reply": ERROR,
                        "reason": f"bad request: {exc}",
                    })
                    return
                if request is None:
                    return
                try:
                    reply = self._handle_request(request)
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    reply = {
                        "ok": False, "reply": ERROR,
                        "reason": f"{type(exc).__name__}: {exc}",
                    }
                try:
                    protocol.write_message(conn, reply)
                except OSError:
                    return
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def _handle_request(self, request: dict) -> dict:
        op = request.get("op")
        if op == "SUBMIT":
            try:
                spec = JobSpec.from_wire(request.get("job"))
            except (TypeError, ValueError) as exc:
                self._m_submitted.inc()
                self._m_rejected.inc()
                return {"ok": False, "reply": REJECTED,
                        "reason": f"invalid job spec: {exc}"}
            job_id, reason = self.submit(spec)
            if job_id is None:
                return {"ok": False, "reply": REJECTED, "reason": reason}
            with self._lock:
                depth = len(self._queue)
            return {"ok": True, "reply": ACCEPTED,
                    "job_id": job_id, "queue_depth": depth}
        if op == "STATUS":
            return {"ok": True, "reply": "STATUS", **self.status()}
        if op in ("JOB", "RESULT"):
            # JOB answers in any state, waiting first for ``states`` when
            # given; RESULT answers only a terminal job, waiting for one
            # when ``wait`` is set.
            job_id = request.get("job_id", "")
            if op == "JOB":
                states = request.get("states")
            else:
                states = TERMINAL_STATES if request.get("wait") else None
            if states:
                rec = self.wait_for(job_id, tuple(states),
                                    request.get("timeout_s"))
            else:
                rec = self._jobs.get(job_id)
            if rec is None:
                return {"ok": False, "reply": ERROR,
                        "reason": f"unknown job {job_id!r}"}
            with self._lock:
                wire = rec.to_wire()
            if op == "JOB":
                return {"ok": True, "reply": "JOB", "job": wire}
            if wire["state"] not in TERMINAL_STATES:
                return {"ok": False, "reply": ERROR,
                        "reason": f"job {job_id} not finished "
                                  f"(state {wire['state']})",
                        "job": wire}
            return {"ok": True, "reply": "RESULT", "job": wire}
        if op == "CANCEL":
            rec, reason = self.cancel(request.get("job_id", ""))
            if rec is None:
                return {"ok": False, "reply": ERROR, "reason": reason}
            with self._lock:
                return {"ok": True, "reply": "CANCELLED",
                        "job": rec.to_wire()}
        if op == "DRAIN":
            self.drain()
            return {"ok": True, "reply": "DRAINING"}
        return {"ok": False, "reply": ERROR,
                "reason": f"unknown op {op!r}"}
