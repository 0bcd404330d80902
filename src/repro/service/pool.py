"""The warm rank pool: persistent ranks-as-threads serving many jobs.

``ombpy-run`` builds a world, runs one program, and tears everything
down.  :class:`ThreadRankPool` builds the world **once** — an
:class:`~repro.mpi.transport.inproc.InprocFabric` with one long-lived
rank thread per slot — and then serves an open-ended stream of jobs.

Isolation: every job gets its own communicator built over the member
ranks with a **fresh context id** derived from the job serial (the same
context-folding scheme ``Comm.Split`` uses, executed without traffic
because the server assigns members centrally).  The matching engine
keys all traffic by context, so concurrent jobs — even two copies of
the same benchmark on overlapping tag ranges — can never cross-match
messages, and killing one job (revoking its context) cannot touch
another.

Degradation: a rank that dies (an injected crash standing in for a
process death) is marked failed on the fabric — every survivor's engine
learns of the death exactly as it would from a socket EOF.  The pool
reports the death upward, stops scheduling the dead slot, revokes the
contexts of any job the victim was running (flushing the surviving
members out of their collectives), and keeps serving on the shrunken
rank set.  ULFM's primitives — revoke, failure acknowledgement, the
per-rank dead set — are what make each transition safe.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field

from ..mpi.comm import Comm, Endpoint
from ..mpi.group import Group
from ..mpi.transport.inproc import InprocFabric
from ..mpi.world import build_endpoint
from .protocol import KIND_SLEEP, table_to_wire

#: Job contexts: ``(serial << SHIFT) | SALT``.  The base communicator
#: (context 0) derives Dup/Split contexts in the low 16-bit slot and
#: ULFM shrink counts down from the top of that slot; the salt keeps
#: job contexts clear of both, and the shift leaves the usual 16 bits
#: of derivation headroom for Dup/Split/shrink *inside* a job.
_JOB_CONTEXT_SHIFT = 20
_JOB_CONTEXT_SALT = 0xB
#: Serial bound keeping ``job_ctx << 16`` (one in-job derivation) < 2^62.
MAX_JOB_SERIAL = 1 << 26


def job_context(serial: int) -> int:
    """Context id for job number ``serial`` (1-based)."""
    if not 0 < serial < MAX_JOB_SERIAL:
        raise ValueError(f"job serial {serial} out of range")
    return (serial << _JOB_CONTEXT_SHIFT) | _JOB_CONTEXT_SALT


class JobKilled(Exception):
    """A job was preempted (deadline or cancel) while off the wire."""


@dataclass
class JobRun:
    """One dispatched job instance on the pool."""

    job_id: str
    spec: object                  # protocol.JobSpec
    members: list[int]            # world ranks, sorted ascending
    context: int
    cancel: threading.Event = field(default_factory=threading.Event)
    # -- filled in by member reports --
    pending: set[int] = field(default_factory=set)
    result: dict | None = None
    errors: list[str] = field(default_factory=list)
    kinds: set[str] = field(default_factory=set)
    dead_member: bool = False


def _error_kind(exc: BaseException) -> str:
    name = type(exc).__name__
    if name == "RankFailedError":
        return "rank_failed"
    if name == "CommRevokedError":
        return "revoked"
    if name == "PeerFailedError":
        return "rank_failed"
    if isinstance(exc, JobKilled):
        return "killed"
    return "error"


class ThreadRankPool:
    """N warm rank threads over one in-process fabric.

    Emits pool events (dicts) on :attr:`events` for the server's control
    loop::

        {"type": "job_done",   "job_id": ..., "result": {...} | None}
        {"type": "job_failed", "job_id": ..., "error": str,
         "kinds": [...], "dead_member": bool}
        {"type": "rank_dead",  "rank": int, "reason": str}
    """

    #: Jobs may run side by side on disjoint rank sets.
    concurrent = True

    def __init__(
        self,
        size: int,
        fault_plan=None,
        reliable: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.events: queue.Queue = queue.Queue()
        self._fabric = InprocFabric(size)
        self._endpoints: list[Endpoint] = [
            build_endpoint(
                self._fabric.create_transport(rank), fault_plan=fault_plan,
                reliable=reliable,
            )
            for rank in range(size)
        ]
        self._lock = threading.Lock()
        self._free: set[int] = set(range(size))
        self._dead: set[int] = set()
        self._runs: dict[str, JobRun] = {}
        self._mailboxes: list[queue.Queue] = [queue.Queue() for _ in range(size)]
        self._stopping = False
        self._threads = [
            threading.Thread(
                target=self._rank_loop, args=(r,),
                name=f"pool-rank-{r}", daemon=True,
            )
            for r in range(size)
        ]
        for t in self._threads:
            t.start()

    # -- server-facing surface -------------------------------------------
    def live_count(self) -> int:
        with self._lock:
            return self.size - len(self._dead)

    def can_dispatch(self, nranks: int) -> bool:
        with self._lock:
            return len(self._free) >= nranks

    def dispatch(self, run: JobRun) -> None:
        """Assign the lowest free ranks to ``run`` and wake them.

        Only the server's control loop calls this (after
        :meth:`can_dispatch`), so free-set checks cannot race.
        """
        with self._lock:
            members = sorted(self._free)[: run.spec.ranks]
            if len(members) < run.spec.ranks:
                raise RuntimeError(
                    f"dispatch without capacity: need {run.spec.ranks}, "
                    f"free {sorted(self._free)}"
                )
            self._free.difference_update(members)
            run.members = members
            run.pending = set(members)
            self._runs[run.job_id] = run
        for rank in members:
            self._mailboxes[rank].put(run)

    def kill(self, job_id: str) -> bool:
        """Preempt a running job: set its cancel flag and revoke its
        context on every live member, flushing them out of collectives
        with ``CommRevokedError``.  Other jobs are untouched — the
        context is theirs alone."""
        with self._lock:
            run = self._runs.get(job_id)
            if run is None:
                return False
            members = [r for r in run.members if r not in self._dead]
        run.cancel.set()
        for rank in members:
            self._endpoints[rank].engine.revoke_context(run.context)
        return True

    def describe(self) -> dict:
        with self._lock:
            return {
                "substrate": "threads",
                "size": self.size,
                "live": self.size - len(self._dead),
                "free": len(self._free),
                "failed_ranks": sorted(self._dead),
            }

    def telemetry_snapshots(self) -> dict[int, dict]:
        """Per-rank telemetry snapshots, when telemetry is armed."""
        out = {}
        for rank, ep in enumerate(self._endpoints):
            if ep.telemetry is not None:
                out[rank] = ep.telemetry.snapshot()
        return out

    def stop(self, timeout: float = 10.0) -> None:
        """Stop every rank thread and close the fabric (idempotent)."""
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
        for box in self._mailboxes:
            box.put(None)
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.1, deadline - time.monotonic()))
        for ep in self._endpoints:
            ep.close()
        self._fabric.close()

    # -- rank side --------------------------------------------------------
    def _rank_loop(self, rank: int) -> None:
        endpoint = self._endpoints[rank]
        while True:
            run = self._mailboxes[rank].get()
            if run is None:
                return
            # A peer may have died while this rank sat idle; clear the
            # sticky failure so the new job's (all-live) traffic flows.
            # The per-rank death record survives acknowledgement.
            endpoint.engine.acknowledge_failure()
            if run.cancel.is_set():
                self._report(rank, run, error="job cancelled before start",
                             kind="killed")
                continue
            try:
                result = self._execute(endpoint, rank, run)
            except BaseException as exc:  # noqa: BLE001 - classified below
                if type(exc).__name__ == "InjectedCrash":
                    # The thread analogue of a process death: peers find
                    # out through the fabric, as they would through EOF.
                    self._fabric.mark_rank_failed(
                        rank, f"rank {rank} crashed (injected fault: {exc})"
                    )
                    self._on_rank_dead(rank, run, str(exc))
                    return  # the rank is gone; its thread with it
                endpoint.engine.acknowledge_failure()
                self._report(rank, run, error=f"{type(exc).__name__}: {exc}",
                             kind=_error_kind(exc))
            else:
                self._report(rank, run, result=result)

    def _execute(self, endpoint: Endpoint, rank: int, run: JobRun):
        spec = run.spec
        comm = Comm(endpoint, Group(run.members), context=run.context)
        lead = rank == run.members[0]
        if spec.kind == KIND_SLEEP:
            if run.cancel.wait(spec.seconds):
                raise JobKilled("killed while sleeping")
            return {"slept_s": spec.seconds} if lead else None

        from ..core.options import Options
        from ..core.runner import run_benchmark

        options = Options(**spec.options)
        if spec.validate:
            from ..analysis import verify

            with verify(comm):
                table = run_benchmark(spec.benchmark, comm, options)
        else:
            table = run_benchmark(spec.benchmark, comm, options)
        return table_to_wire(table) if lead else None

    # -- report aggregation ----------------------------------------------
    def _report(
        self,
        rank: int,
        run: JobRun,
        result: dict | None = None,
        error: str | None = None,
        kind: str | None = None,
    ) -> None:
        with self._lock:
            run.pending.discard(rank)
            if result is not None:
                run.result = result
            if error is not None:
                run.errors.append(f"rank {rank}: {error}")
                run.kinds.add(kind or "error")
            if rank not in self._dead:
                self._free.add(rank)
            finished = not run.pending
            if finished:
                self._runs.pop(run.job_id, None)
        if finished:
            self._emit_final(run)

    def _on_rank_dead(self, rank: int, run: JobRun, reason: str) -> None:
        """A member crashed mid-job: record the death, flush the other
        jobs that rank was *not* part of untouched, and finish this one."""
        with self._lock:
            self._dead.add(rank)
            self._free.discard(rank)
            run.pending.discard(rank)
            run.dead_member = True
            run.errors.append(f"rank {rank}: died ({reason})")
            run.kinds.add("crash")
            finished = not run.pending
            if finished:
                self._runs.pop(run.job_id, None)
        self.events.put({"type": "rank_dead", "rank": rank, "reason": reason})
        # Flush the surviving members promptly: their collectives on the
        # job context die with CommRevokedError instead of relying only
        # on the sticky engine failure.
        for member in run.members:
            if member != rank:
                self._endpoints[member].engine.revoke_context(run.context)
        if finished:
            self._emit_final(run)

    def _emit_final(self, run: JobRun) -> None:
        if run.errors or run.dead_member:
            self.events.put({
                "type": "job_failed",
                "job_id": run.job_id,
                "error": run.errors[0] if run.errors else "rank died",
                "kinds": sorted(run.kinds),
                "dead_member": run.dead_member,
            })
        else:
            self.events.put({
                "type": "job_done",
                "job_id": run.job_id,
                "result": run.result,
            })
