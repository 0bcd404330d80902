"""Communication tracing — a PMPI-style profiling layer.

A :class:`TraceLog` is a plain observer on the endpoint's seam
(:class:`repro.mpi.observer.Observer`): it records every **send**, every
**recv** (arrival at the receiver's matching engine) and every
**complete** (a receive matched, on arrival or against the unexpected
queue) as a :class:`TraceEvent`.  Used two ways:

* as a debugging/profiling tool (``with traced(comm) as log:`` in user
  code) — for full span traces and job-level Chrome output use
  ``ombpy --trace-out`` instead;
* by the test suite to assert the *structure* of collective algorithms —
  a binomial broadcast must move exactly p-1 payload messages, a ring
  allgather exactly p*(p-1), recursive doubling p*log2(p) — independent
  of whether the numerical results happen to be right.

Event coordinates: ``send`` events carry world ranks on both ends;
``recv``/``complete`` events carry the envelope's communicator-local
ranks (identical to world ranks on COMM_WORLD, which is what the
structural tests trace).  Queries filter to ``kind="send"`` by default,
so message-count assertions keep their historical meaning.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .comm import Comm
from .observer import Observer


@dataclass(frozen=True)
class TraceEvent:
    """One traced message event (send, recv, or complete)."""

    src_world: int
    dst_world: int
    context: int
    tag: int
    nbytes: int
    t_ns: int
    kind: str = "send"


@dataclass
class TraceLog(Observer):
    """Thread-safe event collection with query helpers; one log may
    observe several endpoints."""

    events: list[TraceEvent] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _add(self, kind: str, src: int, dst: int, env) -> None:
        event = TraceEvent(
            src_world=src, dst_world=dst, context=env.context, tag=env.tag,
            nbytes=env.nbytes, t_ns=time.perf_counter_ns(), kind=kind,
        )
        with self._lock:
            self.events.append(event)

    # -- events ---------------------------------------------------------
    def on_send(self, src_world: int, dst_world: int, env) -> None:
        self._add("send", src_world, dst_world, env)

    def on_deliver(self, env, matched: bool, queue_depth: int) -> None:
        self._add("recv", env.source, env.dest, env)
        if matched:
            self._add("complete", env.source, env.dest, env)

    def on_match_queued(self, env) -> None:
        self._add("complete", env.source, env.dest, env)

    def snapshot(self, kind: str | None = "send") -> list[TraceEvent]:
        """Consistent copy of the events recorded so far.

        Queries must not iterate ``self.events`` directly: transport
        reader threads append concurrently, and a list resize mid-iteration
        raises ``RuntimeError`` (or silently skips events).  ``kind``
        filters to one event kind; pass None for all kinds.
        """
        with self._lock:
            events = list(self.events)
        if kind is None:
            return events
        return [e for e in events if e.kind == kind]

    # -- queries --------------------------------------------------------
    def message_count(
        self, include_self: bool = False, kind: str | None = "send"
    ) -> int:
        """Total sends (self-sends excluded by default)."""
        return sum(
            1 for e in self.snapshot(kind)
            if include_self or e.src_world != e.dst_world
        )

    def total_bytes(
        self, include_self: bool = False, kind: str | None = "send"
    ) -> int:
        return sum(
            e.nbytes for e in self.snapshot(kind)
            if include_self or e.src_world != e.dst_world
        )

    def by_pair(self, kind: str | None = "send") -> dict[tuple[int, int], int]:
        """{(src, dst): message count}."""
        out: dict[tuple[int, int], int] = {}
        for e in self.snapshot(kind):
            key = (e.src_world, e.dst_world)
            out[key] = out.get(key, 0) + 1
        return out

    def receives(self) -> list[TraceEvent]:
        """Arrival events (one per message reaching the matching engine)."""
        return self.snapshot("recv")

    def completions(self) -> list[TraceEvent]:
        """Receive-completion events (posted hit or unexpected-queue hit)."""
        return self.snapshot("complete")

    def clear(self) -> None:
        with self._lock:
            self.events.clear()


@contextmanager
def traced(comm: Comm, log: TraceLog | None = None):
    """Trace all message traffic on this rank's endpoint.

    Yields ``log`` (a fresh :class:`TraceLog` by default) attached to the
    endpoint's observers for the duration.  All communicators sharing the
    endpoint are traced.
    """
    if log is None:
        log = TraceLog()
    comm.endpoint.attach(log)
    try:
        yield log
    finally:
        comm.endpoint.detach(log)


def run_traced(n: int, fn, timeout: float = 60.0) -> TraceLog:
    """Run ``fn(comm)`` on n ranks with every rank traced into one log.

    Returns the combined log (events from all ranks).  The per-rank
    ordering of events is preserved; cross-rank ordering is by wall
    clock and should not be relied on.
    """
    from .world import run_on_threads

    shared = TraceLog()

    def work(comm: Comm):
        with traced(comm, shared):
            return fn(comm)

    run_on_threads(n, work, timeout=timeout)
    return shared
