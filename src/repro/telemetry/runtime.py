"""Per-rank telemetry object and endpoint wiring.

One :class:`Telemetry` instance per rank bundles the metrics registry
and the span tracer and exposes the narrow hook methods the runtime
layers call:

* ``Comm.isend_bytes``            -> :meth:`Telemetry.on_send`
* ``Comm.recv_bytes``             -> :meth:`Telemetry.on_recv_wait`
* ``Comm.<collective>``           -> :meth:`Telemetry.run_collective`
* ``MatchingEngine.deliver``      -> :meth:`Telemetry.on_delivered`
* ``MatchingEngine.post_recv``    -> :meth:`Telemetry.on_matched_from_queue`
* collective internals (csend)    -> :meth:`Telemetry.on_coll_message`
* ``Benchmark._sweep``            -> :meth:`Telemetry.phase`
* ``ReliableTransport._count``    -> mirrored counters via
  ``bind_telemetry`` (see :mod:`repro.mpi.reliability`)

Every hook site guards with ``if endpoint.telemetry is not None`` — the
disabled cost is one attribute load and one identity test, which is why
no global kill-switch or sampling layer exists.  The hot counters are
resolved once at construction so an instrumented send is one lock and
one integer add.

Message *sinks* are lightweight subscribers to the send/recv/complete
event stream; :mod:`repro.mpi.trace` uses one to keep its ``TraceLog``
API alive on top of this layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..knobs import METRICS, TRACE, TRACE_MAX_EVENTS, flag, read
from .metrics import MetricsRegistry
from .tracer import Tracer

SCHEMA = "ombpy-telemetry/1"


class Telemetry:
    """Per-rank metrics + tracing facade the runtime hooks call into."""

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
        # Message sinks (e.g. repro.mpi.trace.TraceLog): called with
        # (kind, src, dst, context, tag, nbytes).
        self._sinks: list = []
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

    # -- sinks -----------------------------------------------------------
    def add_message_sink(self, sink) -> None:
        """Subscribe ``sink(kind, src, dst, context, tag, nbytes)``."""
        self._sinks = self._sinks + [sink]

    def remove_message_sink(self, sink) -> None:
        self._sinks = [s for s in self._sinks if s is not sink]

    def _emit(
        self, kind: str, src: int, dst: int, context: int, tag: int,
        nbytes: int,
    ) -> None:
        for sink in self._sinks:
            sink(kind, src, dst, context, tag, nbytes)

    # -- point-to-point hooks -------------------------------------------
    def on_send(self, src_world: int, dst_world: int, env) -> None:
        """One outgoing message left this rank at the communicator level."""
        if self._c_sent is not None:
            self._c_sent.inc()
            self._c_sent_bytes.inc(env.nbytes)
        if self.tracer is not None:
            self.tracer.message(
                "send", src_world, dst_world, env.context, env.tag, env.nbytes
            )
        if self._sinks:
            self._emit(
                "send", src_world, dst_world, env.context, env.tag, env.nbytes
            )

    def on_delivered(self, env, matched: bool, queue_depth: int) -> None:
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
        if self._sinks:
            self._emit(
                "recv", env.source, self.rank, env.context, env.tag, env.nbytes
            )
            if matched:
                self._emit(
                    "complete", env.source, self.rank, env.context, env.tag,
                    env.nbytes,
                )

    def on_matched_from_queue(self, env) -> None:
        """A newly posted receive completed against a queued message."""
        if self._c_unexpected_hits is not None:
            self._c_unexpected_hits.inc()
        if self.tracer is not None:
            self.tracer.message(
                "complete", env.source, self.rank, env.context, env.tag,
                env.nbytes,
            )
        if self._sinks:
            self._emit(
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

    # -- collective hooks ------------------------------------------------
    def run_collective(self, name: str, fn, *args):
        """Run one collective under a span + latency histogram."""
        t0 = time.time_ns()
        try:
            return fn(*args)
        finally:
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


def install_on_endpoint(endpoint, tele: Telemetry) -> Telemetry:
    """Attach ``tele`` to an endpoint: comm hooks, engine hooks, and any
    transport decorator in the stack that knows how to bind (the
    reliability layer mirrors its counters into the registry)."""
    endpoint.telemetry = tele
    endpoint.engine.telemetry = tele
    t = endpoint.transport
    while t is not None:
        bind = getattr(t, "bind_telemetry", None)
        if bind is not None:
            bind(tele)
        t = getattr(t, "inner", None)
    return tele


def uninstall_from_endpoint(endpoint) -> None:
    """Detach telemetry from an endpoint (hook sites revert to no-ops)."""
    endpoint.telemetry = None
    endpoint.engine.telemetry = None
    t = endpoint.transport
    while t is not None:
        bind = getattr(t, "bind_telemetry", None)
        if bind is not None:
            bind(None)
        t = getattr(t, "inner", None)
