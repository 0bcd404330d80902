"""Span-based per-rank tracer.

Records MPI-call spans (collectives, blocking waits, benchmark phases)
and point message events as compact in-memory records, exportable two
ways:

* **Chrome trace JSON** (``chrome://tracing`` / Perfetto): one *pid* per
  rank, one *tid* per OS thread within the rank, complete (``"X"``)
  events for spans and instant (``"i"``) events for messages — see
  :func:`repro.telemetry.export.chrome_trace` for the job-level merge;
* **compact JSONL**: one JSON array per line, for ad-hoc ``jq``-style
  processing.

Timestamps are wall-clock ``time.time_ns()`` so events from different
rank *processes* line up on one timeline (a per-process monotonic clock
would have a different origin in every rank); durations are wall-clock
deltas clamped non-negative.  Within one thread events are recorded at
completion time, so per-``(pid, tid)`` *end* times are non-decreasing —
the invariant ``tools/validate_trace.py`` checks.

The event buffer is bounded (``OMBPY_TRACE_MAX_EVENTS``); once full,
further events are counted in :attr:`Tracer.dropped` rather than
recorded, so a long benchmark cannot exhaust memory.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from ..knobs import TRACE_MAX_EVENTS

# Event record layout (list, JSON-ready):
#   [ph, name, cat, ts_ns, dur_ns, tid, args]
# ph is the Chrome phase: "X" complete (span), "i" instant (message).
PH_SPAN = "X"
PH_INSTANT = "i"


class Tracer:
    """Per-rank event recorder."""

    def __init__(
        self, rank: int, max_events: int = TRACE_MAX_EVENTS.default
    ) -> None:
        # ~80 bytes/event in memory, so the default cap bounds a rank at
        # roughly 16 MB of trace state.
        TRACE_MAX_EVENTS.check(max_events, what="max_events")
        self.rank = rank
        self.max_events = max_events
        self.dropped = 0
        self._events: list[list] = []
        self._tids: dict[int, int] = {}
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _append(
        self, ph: str, name: str, cat: str, ts_ns: int, dur_ns: int,
        args: dict | None,
    ) -> None:
        ident = threading.get_ident()
        with self._lock:
            if len(self._events) >= self.max_events:
                self.dropped += 1
                return
            tid = self._tids.setdefault(ident, len(self._tids))
            self._events.append(
                [ph, name, cat, ts_ns, dur_ns, tid, args or {}]
            )

    def complete(
        self, name: str, cat: str, ts_ns: int, dur_ns: int,
        args: dict | None = None,
    ) -> None:
        """Record one finished span (start ``ts_ns``, length ``dur_ns``)."""
        self._append(PH_SPAN, name, cat, ts_ns, max(0, dur_ns), args)

    def instant(self, name: str, cat: str, args: dict | None = None) -> None:
        """Record a point event stamped now."""
        self._append(PH_INSTANT, name, cat, time.time_ns(), 0, args)

    def message(
        self, kind: str, src: int, dst: int, context: int, tag: int,
        nbytes: int,
    ) -> None:
        """Record one message event (kind: send / recv / complete)."""
        self._append(
            PH_INSTANT, kind, "msg", time.time_ns(), 0,
            {"src": src, "dst": dst, "tag": tag, "nbytes": nbytes,
             "context": context},
        )

    @contextmanager
    def span(self, name: str, cat: str = "mpi", **args):
        """Context manager recording the enclosed region as a span."""
        t0 = time.time_ns()
        try:
            yield
        finally:
            self.complete(name, cat, t0, time.time_ns() - t0, args or None)

    # -- export ----------------------------------------------------------
    def events(self) -> list[list]:
        """Consistent copy of the recorded events (JSON-ready lists)."""
        with self._lock:
            return [list(e) for e in self._events]

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0


def events_to_jsonl(events: list[list], rank: int) -> str:
    """Compact JSONL rendering: one ``[rank, ph, name, ...]`` per line."""
    import json

    lines = [
        json.dumps([rank] + list(e), separators=(",", ":"))
        for e in events
    ]
    return "\n".join(lines) + ("\n" if lines else "")
