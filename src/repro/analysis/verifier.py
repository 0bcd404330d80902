"""Runtime MPI verifier — live deadlock, mismatch, and leak detection.

Activated with::

    with repro.analysis.verify(comm) as v:
        ...   # any runtime/bindings traffic on this rank

or for benchmark runs via the driver's ``--validate`` flag.  While
active, the verifier is an observer on this rank's endpoint
(:class:`repro.mpi.observer.Observer`) and detects:

* **deadlock** — under the threads transport, every rank's blocking
  receive registers in a shared wait-for graph; a cycle of blocked ranks
  whose pending receives can only be satisfied by other blocked ranks is
  reported as :class:`DeadlockError` naming each rank's pending
  operation.  Sound here because the inproc fabric delivers
  synchronously: a blocked rank cannot have a message in flight.
* **timeout escalation** — under multi-process transports (no shared
  graph), any receive pending longer than ``op_timeout`` raises the same
  diagnostic from local state, bounding hangs.
* **collective mismatches** — each rank's Nth collective on a
  communicator must agree on (operation, root, reduce-op) across ranks;
  disagreement raises :class:`CollectiveMismatchError` at call time.
* **count mismatches** — a buffer receive completing with fewer bytes
  than the posted buffer (beyond the existing oversized-message
  :class:`~repro.mpi.exceptions.TruncationError`).
* **leaked operations at finalize** — receives posted but never
  completed, and requests never waited/tested, reported when the
  ``verify`` block exits.
"""

from __future__ import annotations

import threading
import time
import weakref
from contextlib import contextmanager
from dataclasses import dataclass

from ..mpi.observer import Observer
from .findings import Finding

#: Tags at or above this value belong to internal collective traffic
#: (mirrors repro.mpi.constants.INTERNAL_TAG_BASE; kept literal so this
#: module stays import-light for the hook path).
_INTERNAL_TAG_BASE = 2 ** 30


class VerifyError(RuntimeError):
    """Base class for runtime-verifier diagnostics."""


class DeadlockError(VerifyError):
    """A wait-for cycle (or bounded-timeout escalation) was detected."""


class CollectiveMismatchError(VerifyError):
    """Ranks disagreed on the Nth collective call on a communicator."""


class CountMismatchError(VerifyError):
    """A receive completed with fewer bytes than the posted buffer."""


class PendingOperationError(VerifyError):
    """Operations were still pending when verification ended."""


class PeerFailedError(VerifyError):
    """A receive waits on a rank whose verified region already failed."""


@dataclass
class _WaitInfo:
    """One rank's currently blocked receive (world-rank coordinates)."""

    rank: int
    source: int | None    # sender world rank, None = ANY_SOURCE
    tag: int
    context: int
    collective: str | None
    since: float
    ticket: object

    def describe(self) -> str:
        src = "ANY_SOURCE" if self.source is None else self.source
        where = (
            f"in collective '{self.collective}'"
            if self.collective is not None
            else f"tag={self.tag}"
        )
        return (
            f"rank {self.rank}: recv(source={src}, {where}, "
            f"context={self.context:#x}) pending "
            f"{time.monotonic() - self.since:.2f}s"
        )


class _SharedState:
    """Cross-rank verifier state, shared through the transport fabric.

    Under the threads transport every rank's :class:`Verifier` resolves to
    the same instance (anchored on the ``InprocFabric``), enabling the
    wait-for graph and the collective ledger.  Multi-process transports
    get a per-process instance, degrading gracefully to local checks.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.ranks: set[int] = set()
        self.waiting: dict[int, _WaitInfo] = {}
        self.failed: dict[int, str] = {}
        #: members of a detected wait-for cycle -> shared diagnostic, so
        #: every member raises the same DeadlockError (not a peer error).
        self.deadlocked: dict[int, str] = {}
        #: ranks whose collective can never complete because a peer
        #: entered a mismatched one -> shared diagnostic.
        self.mismatched: dict[int, str] = {}
        #: (rank, context) -> next collective call index.  Lives here, not
        #: on the per-session Verifier, so sequential verify() regions on
        #: one fabric stay aligned even when ranks overlap session exits.
        self.coll_seq: dict[tuple[int, int], int] = {}
        #: (context, call index) -> ((name, root, op), first rank)
        self.ledger: dict[tuple[int, int], tuple[tuple, int]] = {}

    # -- membership ------------------------------------------------------
    def register(self, rank: int) -> None:
        with self.lock:
            self.ranks.add(rank)

    def unregister(self, rank: int) -> None:
        with self.lock:
            self.ranks.discard(rank)
            self.waiting.pop(rank, None)
            if not self.ranks:
                # Last rank out: reset session state so a later verify()
                # on the same fabric starts from a clean ledger.
                self.ledger.clear()
                self.failed.clear()
                self.deadlocked.clear()
                self.mismatched.clear()
                self.coll_seq.clear()

    def mark_failed(self, rank: int, reason: str) -> None:
        with self.lock:
            self.failed[rank] = reason

    # -- wait-for graph --------------------------------------------------
    def set_waiting(self, info: _WaitInfo) -> None:
        with self.lock:
            self.waiting[info.rank] = info

    def clear_waiting(self, rank: int) -> None:
        with self.lock:
            self.waiting.pop(rank, None)

    def failed_source(self, info: _WaitInfo) -> tuple[int, str] | None:
        """Has a rank this receive depends on already failed?"""
        with self.lock:
            if not self.failed:
                return None
            if info.source is None:
                rank, reason = next(iter(self.failed.items()))
                return rank, reason
            if info.source in self.failed:
                return info.source, self.failed[info.source]
        return None

    def find_deadlock(self, min_age: float) -> dict[int, _WaitInfo]:
        """Return the set of provably deadlocked ranks (empty if none).

        A rank is *possibly live* if it is not blocked, or if any rank
        its receive could be satisfied by is possibly live.  The fixpoint
        complement is the deadlocked set: every potential sender is
        itself blocked, so no future delivery can occur (the inproc
        fabric has no in-flight window — sends deliver synchronously).
        """
        now = time.monotonic()
        with self.lock:
            waiting = dict(self.waiting)
            ranks = set(self.ranks)
        targets = {}
        for rank, info in waiting.items():
            targets[rank] = (
                ranks - {rank} if info.source is None else {info.source}
            )
        live = ranks - set(waiting)
        changed = True
        while changed:
            changed = False
            for rank, deps in targets.items():
                if rank not in live and deps & live:
                    live.add(rank)
                    changed = True
        dead = {
            rank: waiting[rank]
            for rank in set(targets) - live
        }
        # Discard transient states: a member whose message just arrived
        # (event set but waiter not yet woken) or that only just blocked.
        for rank, info in dead.items():
            if info.ticket.done():  # type: ignore[attr-defined]
                return {}
            if now - info.since < min_age:
                return {}
        return dead


#: fabric/transport -> shared state for all ranks communicating over it.
_STATES: "weakref.WeakKeyDictionary[object, _SharedState]" = \
    weakref.WeakKeyDictionary()
_STATES_LOCK = threading.Lock()


def _shared_state_for(transport: object) -> _SharedState:
    anchor = getattr(transport, "_fabric", None)
    if anchor is None:
        anchor = transport
    with _STATES_LOCK:
        state = _STATES.get(anchor)
        if state is None:
            state = _SharedState()
            _STATES[anchor] = state
        return state


class Verifier(Observer):
    """Per-rank verifier, attached to one endpoint's observers.

    It tracks posted receives (``on_post``) until their request completes
    (``on_request_done``), takes over the blocking wait (``on_wait``) to
    watch for deadlock, checks collective entries against the cross-rank
    ledger (``on_coll_enter``) and buffer-receive byte counts
    (``on_recv_count``), and records peers the failure detector declares
    dead (``on_rank_failed``).
    """

    def __init__(
        self,
        endpoint,
        shared: _SharedState,
        op_timeout: float = 30.0,
        grace: float = 0.25,
        poll: float = 0.02,
        strict: bool = True,
    ) -> None:
        self.endpoint = endpoint
        self.rank: int = endpoint.world_rank
        self.shared = shared
        self.op_timeout = op_timeout
        self.grace = grace
        self.poll = poll
        self.strict = strict
        self.findings: list[Finding] = []
        #: id(request) -> (request, source_world, tag, context)
        self._tracked: dict[int, tuple] = {}
        self._tag_collective: dict[int, str] = {}

    # -- lifecycle -------------------------------------------------------
    def attach(self) -> None:
        self.shared.register(self.rank)
        self.endpoint.attach(self)

    def detach(self) -> None:
        self.endpoint.detach(self)
        self.shared.unregister(self.rank)

    def abort(self, exc: BaseException) -> None:
        """Record this rank's failure so blocked peers fail fast."""
        self.shared.mark_failed(self.rank, repr(exc))

    def on_rank_failed(self, rank: int, reason: str) -> None:
        """The failure detector declared a *peer* rank dead.

        Called from the detector thread; must never raise — it sits on
        the path that unblocks every pending receive.
        """
        self.shared.mark_failed(rank, reason)
        self.findings.append(Finding(
            rule="OMB103", severity="error", path=f"rank {self.rank}",
            line=0, col=0,
            message=f"peer rank {rank} declared failed: {reason}",
        ))

    def finish(self) -> None:
        """Finalize checks: nothing may still be pending on this rank."""
        leaks = []
        for request, source_world, tag, context in self._tracked.values():
            ticket = request._ticket
            if ticket.cancelled or ticket.error is not None:
                continue  # done: cancelled, or failed with its error
            state = "matched but never waited/tested" if ticket.done() \
                else "still unmatched"
            src = "ANY_SOURCE" if source_world is None else source_world
            leaks.append(
                f"recv(source={src}, tag={tag}, context={context:#x}) "
                f"{state}"
            )
        unexpected = self.endpoint.engine.pending_unexpected()
        if unexpected:
            leaks.append(
                f"{unexpected} delivered message(s) never received"
            )
        if not leaks:
            return
        message = (
            f"rank {self.rank}: {len(leaks)} operation(s) pending at "
            "finalize: " + "; ".join(leaks)
        )
        self._report("OMB102", message, PendingOperationError)

    def _report(self, rule: str, message: str, exc_type) -> None:
        self.findings.append(Finding(
            rule=rule, severity="error", path=f"rank {self.rank}",
            line=0, col=0, message=message,
        ))
        if self.strict:
            raise exc_type(message)

    # -- events: point-to-point -----------------------------------------
    def on_post(self, request, source_world: int | None, tag: int,
                context: int) -> None:
        """A receive was posted on this rank (called from Comm).

        ``source_world`` is the sender's *world* rank (None for
        ANY_SOURCE) — the coordinate system of the wait-for graph; the
        ticket itself only knows communicator-local ranks.
        """
        self._tracked[id(request)] = (request, source_world, tag, context)

    def on_request_done(self, request) -> None:
        """A request completed; a tracked receive's result is consumed."""
        self._tracked.pop(id(request), None)

    def on_wait(self, request, timeout: float | None) -> None:
        """Take the wait over: slice-wait on the request's ticket with
        deadlock/timeout surveillance; return once it is done."""
        ticket = request._ticket
        event = ticket._event
        if event.is_set():
            return
        tracked = self._tracked.get(id(request))
        if tracked is not None:
            _r, source, tag, context = tracked
        else:
            # Posted before this verifier attached: fall back to the
            # ticket's fields; correct for COMM_WORLD, conservative else.
            source = None if ticket.source < 0 else ticket.source
            tag, context = ticket.tag, ticket.context
        info = _WaitInfo(
            rank=self.rank,
            source=source,
            tag=tag,
            context=context,
            collective=(
                self._tag_collective.get(tag)
                if tag >= _INTERNAL_TAG_BASE else None
            ),
            since=time.monotonic(),
            ticket=ticket,
        )
        deadline = None if timeout is None else info.since + timeout
        self.shared.set_waiting(info)
        try:
            while True:
                if event.wait(self.poll):
                    return
                now = time.monotonic()
                with self.shared.lock:
                    marked = self.shared.deadlocked.get(self.rank)
                    mismatch = self.shared.mismatched.get(self.rank)
                if marked is not None:
                    # A peer detected a cycle this rank belongs to.
                    raise DeadlockError(marked)
                if mismatch is not None:
                    # A peer entered a mismatched collective; this rank's
                    # collective (or dependent receive) cannot complete.
                    raise CollectiveMismatchError(mismatch)
                if now - info.since >= self.grace:
                    dead = self.shared.find_deadlock(self.grace)
                    if self.rank in dead:
                        message = (
                            "deadlock detected among ranks "
                            f"{sorted(dead)}: "
                            + "; ".join(
                                dead[r].describe() for r in sorted(dead)
                            )
                        )
                        with self.shared.lock:
                            for member in dead:
                                self.shared.deadlocked.setdefault(
                                    member, message
                                )
                        raise DeadlockError(message)
                failed = self.shared.failed_source(info)
                if failed is not None:
                    peer, reason = failed
                    raise PeerFailedError(
                        f"rank {self.rank} waits on rank {peer}, whose "
                        f"verified region already failed: {reason}"
                    )
                if now - info.since >= self.op_timeout:
                    raise DeadlockError(
                        f"operation exceeded the {self.op_timeout}s "
                        "verification timeout — "
                        + self._timeout_snapshot(info)
                    )
                if deadline is not None and now >= deadline:
                    raise TimeoutError(
                        f"receive (source={ticket.source}, "
                        f"tag={ticket.tag}) timed out after {timeout}s"
                    )
        finally:
            self.shared.clear_waiting(self.rank)

    def _timeout_snapshot(self, info: _WaitInfo) -> str:
        with self.shared.lock:
            waiting = list(self.shared.waiting.values())
        if not waiting:
            waiting = [info]
        return "pending operations: " + "; ".join(
            w.describe() for w in sorted(waiting, key=lambda w: w.rank)
        )

    # -- events: collectives --------------------------------------------
    def on_coll_enter(self, context: int, name: str, root: int | None,
                      op: str | None, tag: int) -> None:
        """Check the collective against the cross-rank ledger; remember
        its tag so a receive blocked under it names the collective."""
        self._tag_collective[tag] = name
        entry = (name, root, op)
        with self.shared.lock:
            index = self.shared.coll_seq.get((self.rank, context), 0)
            self.shared.coll_seq[(self.rank, context)] = index + 1
            prev = self.shared.ledger.setdefault(
                (context, index), (entry, self.rank)
            )
        (prev_entry, prev_rank) = prev
        if prev_entry != entry and prev_rank != self.rank:
            pname, proot, pop = prev_entry
            message = (
                f"collective mismatch on context {context:#x}, call "
                f"#{index}: rank {self.rank} entered "
                f"{_describe_collective(name, root, op)} but rank "
                f"{prev_rank} entered "
                f"{_describe_collective(pname, proot, pop)}"
            )
            # Peers blocked inside the mismatched collective can never
            # complete it; mark them so they raise this same diagnostic
            # instead of a generic peer-failure.
            with self.shared.lock:
                for member in self.shared.ranks - {self.rank}:
                    self.shared.mismatched.setdefault(member, message)
            raise CollectiveMismatchError(message)

    # -- events: bindings layer -----------------------------------------
    def on_recv_count(self, received: int, expected: int,
                      source: int, tag: int) -> None:
        """A buffer receive completed; counts must match exactly."""
        if received == expected:
            return
        self._report(
            "OMB101",
            f"rank {self.rank}: receive completed with {received} bytes "
            f"into a {expected}-byte buffer (source={source}, tag={tag}) "
            "— send/recv count or datatype mismatch",
            CountMismatchError,
        )


def _describe_collective(name: str, root: int | None, op: str | None) -> str:
    parts = []
    if root is not None:
        parts.append(f"root={root}")
    if op is not None:
        parts.append(f"op={op}")
    return f"{name}({', '.join(parts)})"


def _resolve_endpoint(target):
    """Accept a runtime Comm/World, a bindings Comm/CommWorld, or an
    Endpoint itself."""
    endpoint = getattr(target, "endpoint", None)
    if endpoint is not None:
        return endpoint
    runtime = getattr(target, "runtime", None)
    if runtime is not None:
        return runtime.endpoint
    if hasattr(target, "engine") and hasattr(target, "transport"):
        return target
    raise TypeError(
        f"cannot resolve an MPI endpoint from {type(target).__name__!r}; "
        "pass a communicator, a World, or an Endpoint"
    )


@contextmanager
def verify(
    target,
    *,
    op_timeout: float = 30.0,
    grace: float = 0.25,
    poll: float = 0.02,
    strict: bool = True,
):
    """Verify all MPI traffic of this rank inside the ``with`` block.

    ``target`` is any communicator-bearing object (runtime ``Comm`` or
    ``World``, bindings ``Comm``/``CommWorld``, or an ``Endpoint``).
    Every participating rank should enter ``verify`` at the same logical
    point of the program; under the threads transport the ranks share
    one cross-rank state and get full deadlock/mismatch detection, under
    process transports each rank verifies locally with timeout
    escalation.

    ``op_timeout`` bounds any single blocking operation; ``grace`` is the
    minimum blocked time before a wait-for cycle is reported; ``strict``
    raises on count-mismatch/finalize findings instead of only recording
    them on ``Verifier.findings``.
    """
    endpoint = _resolve_endpoint(target)
    shared = _shared_state_for(endpoint.transport)
    v = Verifier(
        endpoint, shared,
        op_timeout=op_timeout, grace=grace, poll=poll, strict=strict,
    )
    v.attach()
    try:
        yield v
    except BaseException as exc:
        v.abort(exc)
        raise
    else:
        v.finish()
    finally:
        v.detach()
