"""Per-rank telemetry: an observer on the endpoint's seam.

One :class:`Telemetry` instance per rank bundles the metrics registry
and the span tracer.  :meth:`Telemetry.attach` puts it on an endpoint's
observers (:class:`repro.mpi.observer.Observer`), where it counts and
traces these events:

* ``on_send``, ``on_deliver``, ``on_match_queued`` — message counters,
  matching hit/queue counters and send/recv/complete trace instants;
* ``on_recv_wait``                 — the blocking-receive histogram/span;
* ``on_coll_enter``/``on_coll_exit`` — a span + latency histogram per
  collective call;
* ``on_coll_message``              — collective-internal message counters.

``Benchmark._sweep`` opens :meth:`Telemetry.phase` spans itself, and the
reliability layer mirrors its counters into the registry through
``bind_telemetry`` (see :mod:`repro.mpi.reliability`), bound at attach.

With no tool attached an event site costs one truthiness test, which is
why no global kill-switch or sampling layer exists.  The hot counters are
resolved once at construction so an instrumented send is one lock and
one integer add.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..knobs import METRICS, TRACE, TRACE_MAX_EVENTS, flag, read
from ..mpi.observer import Observer
from .metrics import MetricsRegistry
from .tracer import Tracer

SCHEMA = "ombpy-telemetry/1"


class Telemetry(Observer):
    """Per-rank metrics + tracing, fed by the endpoint's events."""

    def __init__(
        self,
        rank: int,
        metrics: bool = True,
        trace: bool = False,
        max_trace_events: int | None = None,
    ) -> None:
        self.rank = rank
        self.metrics: MetricsRegistry | None = (
            MetricsRegistry() if metrics else None
        )
        if trace:
            cap = (
                max_trace_events if max_trace_events is not None
                else read(TRACE_MAX_EVENTS)
            )
            self.tracer: Tracer | None = Tracer(rank, max_events=cap)
        else:
            self.tracer = None
        # Start time of each running collective, by (context, tag).
        self._coll_t0: dict[tuple[int, int], int] = {}
        # Pre-resolved hot-path instruments.
        m = self.metrics
        self._c_sent = m.counter("comm.msgs_sent") if m else None
        self._c_sent_bytes = m.counter("comm.bytes_sent") if m else None
        self._c_recvd = m.counter("comm.msgs_recvd") if m else None
        self._c_recvd_bytes = m.counter("comm.bytes_recvd") if m else None
        self._c_posted_hits = m.counter("match.posted_hits") if m else None
        self._c_unexpected = m.counter("match.unexpected_queued") if m else None
        self._c_unexpected_hits = (
            m.counter("match.unexpected_hits") if m else None
        )
        self._g_unexpected_peak = (
            m.gauge("match.unexpected_peak") if m else None
        )
        self._c_coll_msgs = m.counter("coll.msgs") if m else None
        self._c_coll_bytes = m.counter("coll.bytes") if m else None
        self._h_recv_wait = m.histogram("p2p.recv_wait_us") if m else None
        self._h_coll = m.histogram("coll.us") if m else None

    def attach(self, endpoint) -> None:
        """Observe ``endpoint``, and bind every transport decorator in its
        stack that mirrors counters (the reliability layer)."""
        endpoint.attach(self)
        t = endpoint.transport
        while t is not None:
            bind = getattr(t, "bind_telemetry", None)
            if bind is not None:
                bind(self)
            t = getattr(t, "inner", None)

    # -- point-to-point events ------------------------------------------
    def on_send(self, src_world: int, dst_world: int, env) -> None:
        """One outgoing message left this rank at the communicator level."""
        if self._c_sent is not None:
            self._c_sent.inc()
            self._c_sent_bytes.inc(env.nbytes)
        if self.tracer is not None:
            self.tracer.message(
                "send", src_world, dst_world, env.context, env.tag, env.nbytes
            )

    def on_deliver(self, env, matched: bool, queue_depth: int) -> None:
        """One message arrived at this rank's matching engine.

        ``env.source`` is the sender's *communicator-local* rank (on
        COMM_WORLD it equals the world rank); ``matched`` says whether a
        posted receive consumed it immediately or it joined the
        unexpected queue (depth ``queue_depth`` after the append).
        """
        if self._c_recvd is not None:
            self._c_recvd.inc()
            self._c_recvd_bytes.inc(env.nbytes)
            if matched:
                self._c_posted_hits.inc()
            else:
                self._c_unexpected.inc()
                self._g_unexpected_peak.set_max(queue_depth)
        if self.tracer is not None:
            self.tracer.message(
                "recv", env.source, self.rank, env.context, env.tag, env.nbytes
            )

    def on_match_queued(self, env) -> None:
        """A newly posted receive completed against a queued message."""
        if self._c_unexpected_hits is not None:
            self._c_unexpected_hits.inc()
        if self.tracer is not None:
            self.tracer.message(
                "complete", env.source, self.rank, env.context, env.tag,
                env.nbytes,
            )

    def on_recv_wait(
        self, t0_ns: int, dur_ns: int, source: int, tag: int
    ) -> None:
        """A blocking receive finished waiting (``dur_ns`` wall-clock)."""
        if self._h_recv_wait is not None:
            self._h_recv_wait.observe(dur_ns / 1000.0)
        if self.tracer is not None:
            self.tracer.complete(
                "recv.wait", "p2p", t0_ns, dur_ns,
                {"source": source, "tag": tag},
            )

    # -- collective events -----------------------------------------------
    def on_coll_enter(self, context, name, root, op, tag) -> None:
        self._coll_t0[(context, tag)] = time.time_ns()

    def on_coll_exit(self, context, name, root, op, tag) -> None:
        """One collective call ends: a span + latency histogram."""
        t0 = self._coll_t0.pop((context, tag))
        dur = time.time_ns() - t0
        if self.metrics is not None:
            self.metrics.counter("coll.calls." + name).inc()
            self._h_coll.observe(dur / 1000.0)
        if self.tracer is not None:
            self.tracer.complete("coll." + name, "collective", t0, dur)

    def on_coll_message(self, nbytes: int) -> None:
        """One collective-internal message was sent (subset of on_send)."""
        if self._c_coll_msgs is not None:
            self._c_coll_msgs.inc()
            self._c_coll_bytes.inc(nbytes)

    # -- benchmark phases ------------------------------------------------
    @contextmanager
    def phase(self, name: str, **args):
        """Span + counter for one benchmark phase (e.g. one message size)."""
        t0 = time.time_ns()
        try:
            yield
        finally:
            dur = time.time_ns() - t0
            if self.metrics is not None:
                self.metrics.counter("bench.phases").inc()
            if self.tracer is not None:
                self.tracer.complete(name, "bench", t0, dur, args or None)

    # -- snapshots -------------------------------------------------------
    def snapshot(self) -> dict:
        """Metrics-only view (no trace events)."""
        return {
            "schema": SCHEMA,
            "rank": self.rank,
            "metrics": (
                self.metrics.snapshot() if self.metrics is not None else None
            ),
            "trace_dropped": (
                self.tracer.dropped if self.tracer is not None else 0
            ),
        }

    def dump(self) -> dict:
        """Full per-rank payload: metrics snapshot + trace events."""
        d = self.snapshot()
        d["trace"] = self.tracer.events() if self.tracer is not None else []
        return d


def telemetry_from_env(rank: int) -> Telemetry | None:
    """Build a rank's Telemetry from ``OMBPY_METRICS``/``OMBPY_TRACE``.

    Returns None (telemetry fully disabled, zero overhead beyond the
    hook sites' None checks) when neither variable is set.  Tracing
    implies metrics: the job summary table needs the counters.
    """
    trace = flag(TRACE)
    if not trace and not flag(METRICS):
        return None
    return Telemetry(rank, metrics=True, trace=trace)
