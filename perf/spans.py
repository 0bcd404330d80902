"""Spans recorded from outside the program, and what is derived from them.

Nothing in ``src/`` is edited to trace it.  The traced pass wraps the
bindings calls it makes and interposes on two public attributes of a
live endpoint (see :func:`interpose`): the transport is wrapped in
:class:`SpanTransport` (a decorator with ``.inner``, like the runtime's
own ``ReliableTransport``) and the matching engine's ``deliver`` in
:class:`SpanEngine`.

Recording a span is two clock reads and one tuple append — anything more
and an 8-byte message would mostly measure its own tracing.  The rest of
a span (parent, iteration id) is worked out afterwards in :func:`link`:
spans on one thread nest, and in a closed loop the k-th span of a name
on a rank belongs to iteration ``k // per_iteration``.
``perf_counter_ns`` is CLOCK_MONOTONIC, so spans of different rank
processes share one timeline.  Spans stay in memory and are written as
Chrome-trace JSON when the run ends.
"""

from __future__ import annotations

import json
import os
from threading import get_ident
from time import perf_counter_ns as now

from quant import median


class SpanRecorder:
    """In-memory span sink for one rank: ``(name, thread, start, end)``."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.spans: list[tuple] = []

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call.  Call it only from the
        thread that wrapped it (the rank's own)."""
        append, tid = self.spans.append, get_ident()

        def traced(*args):
            start = now()
            result = fn(*args)
            append((name, tid, start, now()))
            return result

        return traced

    def wrap_p2p(self, name: str, fn):
        """:meth:`wrap` for a ``(buf, peer, tag)`` call — spelling the
        arguments out saves a tenth of a microsecond per 8-byte message,
        which is a percent of what is being measured."""
        append, tid = self.spans.append, get_ident()

        def traced(buf, peer, tag):
            start = now()
            result = fn(buf, peer, tag)
            append((name, tid, start, now()))
            return result

        return traced

    def export(self) -> list[dict]:
        pid = os.getpid()
        return [
            {"name": name, "rank": self.rank, "pid": pid, "tid": tid,
             "start": start, "end": end}
            for name, tid, start, end in self.spans
        ]


class SpanTransport:
    """Transport decorator: a span around ``send`` of traced-tag frames."""

    def __init__(self, inner, recorder: SpanRecorder, tag: int) -> None:
        self.inner = inner
        self._append = recorder.spans.append
        self._tag = tag
        self._send = inner.send
        # Traced-tag frames are sent by the rank's own thread, which is
        # also the one that interposes.
        self._tid = get_ident()
        # Hot pass-through bound once; the rest go through __getattr__.
        self.ensure_peer = inner.ensure_peer

    def send(self, dest_world_rank, env, payload) -> None:
        if env.tag != self._tag:
            return self._send(dest_world_rank, env, payload)
        start = now()
        self._send(dest_world_rank, env, payload)
        self._append(("transport.send", self._tid, start, now()))

    def __getattr__(self, name):
        return getattr(self.inner, name)


class SpanEngine:
    """Matching-engine decorator: a span around ``deliver`` of
    traced-tag messages.  A delivery runs on whatever thread the
    transport uses — the sender's on the threads fabric, a reader thread
    on sockets."""

    def __init__(self, inner, recorder: SpanRecorder, tag: int) -> None:
        self.inner = inner
        self._append = recorder.spans.append
        self._tag = tag
        self._deliver = inner.deliver
        # Hot pass-throughs bound once; the rest go through __getattr__.
        self.post_recv = inner.post_recv
        self.check_failure = inner.check_failure
        self.is_revoked = inner.is_revoked

    def deliver(self, env, payload) -> None:
        if env.tag != self._tag:
            return self._deliver(env, payload)
        start = now()
        self._deliver(env, payload)
        self._append(("engine.deliver", get_ident(), start, now()))

    def __getattr__(self, name):
        return getattr(self.inner, name)


def interpose(rt, recorder: SpanRecorder, tag: int) -> None:
    """Put the span decorators on a live runtime communicator's endpoint.

    Only public attributes are touched: ``comm.endpoint``, its
    ``transport`` and ``engine``, and the transport's
    ``innermost().attach(...)``.
    """
    endpoint = rt.endpoint
    engine = SpanEngine(endpoint.engine, recorder, tag)
    endpoint.transport = SpanTransport(endpoint.transport, recorder, tag)
    endpoint.transport.innermost().attach(engine)
    endpoint.engine = engine


# -- derivation ---------------------------------------------------------------
def link(records: list[dict], per_iteration: int = 1) -> list[dict]:
    """Complete raw spans with ``iter`` and ``parent``.

    ``iter``: the k-th span of a name on a rank (by start time) belongs
    to iteration ``k // per_iteration``.  ``parent``: the innermost span
    on the same thread that contains it (an index into the result), or
    None.  The input may concatenate several ranks' exports.
    """
    out = [dict(r, parent=None) for r in records]
    counts: dict[tuple, int] = {}
    for i in sorted(range(len(out)), key=lambda i: out[i]["start"]):
        key = (out[i]["rank"], out[i]["name"])
        out[i]["iter"] = counts.get(key, 0) // per_iteration
        counts[key] = counts.get(key, 0) + 1

    def thread(r):
        return (r.get("pid", 0), r["tid"])

    order = sorted(range(len(out)), key=lambda i: (
        thread(out[i]), out[i]["start"], -out[i]["end"]))
    stack: list[int] = []
    current = None
    for i in order:
        span = out[i]
        if thread(span) != current:
            current, stack = thread(span), []
        while stack and out[stack[-1]]["end"] < span["end"]:
            stack.pop()
        if stack:
            span["parent"] = stack[-1]
        stack.append(i)
    return out


def self_times(spans: list[dict]) -> list[int]:
    """Self time of each span: its duration minus the part of it that
    its child spans cover (overlapping children are not counted twice,
    and a child reaching outside its parent is clipped)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0
        cursor = s["start"]
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out.append(s["end"] - s["start"] - covered)
    return out


#: What :func:`message_budget` reports per message, in path order; the
#: two ``*_call`` entries are whole calls, the rest tile the path.
SEGMENTS = ("send_call", "above_transport", "transport_send", "wire_wake",
            "match", "complete_wake", "recv_call")


def message_budget(spans: list[dict], sender: int, receiver: int,
                   send_name: str = "bindings.Send",
                   recv_name: str = "bindings.Recv") -> dict:
    """Split each traced message sender→receiver into the self times
    along its blocking path, and return the median of each (ns).

    The path of one message is: ``send_name`` entered on the sender →
    ``transport.send`` entered → ``engine.deliver`` entered on the
    receiver → deliver returns → the receiver's ``recv_name`` returns.
    Those boundaries tile the interval exactly, so per message the
    segments ``above_transport``, ``transport_send``, ``wire_wake``,
    ``match`` and ``complete_wake`` add up to ``path``: its one-way
    time, less the receiver's turn-around before its next send.  (The
    medians of skewed segments need not add up to the median path.)
    With several messages per iteration the first of each is followed.
    """
    def pick(name, rank):
        found: dict[int, dict] = {}
        for s in sorted(spans, key=lambda s: s["start"]):
            if s["name"] == name and s["rank"] == rank:
                found.setdefault(s["iter"], s)
        return found

    send = pick(send_name, sender)
    tsend = pick("transport.send", sender)
    deliver = pick("engine.deliver", receiver)
    recv = pick(recv_name, receiver)
    seg: dict[str, list[int]] = {k: [] for k in SEGMENTS + ("path",)}
    for it, s in send.items():
        if not (it in tsend and it in deliver and it in recv):
            continue
        t, d, r = tsend[it], deliver[it], recv[it]
        handoff = min(t["end"], d["start"])   # threads: deliver nests in send
        seg["send_call"].append(s["end"] - s["start"])
        seg["above_transport"].append(t["start"] - s["start"])
        seg["transport_send"].append(handoff - t["start"])
        seg["wire_wake"].append(d["start"] - handoff)
        seg["match"].append(d["end"] - d["start"])
        seg["complete_wake"].append(r["end"] - d["end"])
        seg["recv_call"].append(r["end"] - r["start"])
        seg["path"].append(r["end"] - s["start"])
    if not seg["path"]:
        raise ValueError("no complete traced message found")
    return {k: median(v) for k, v in seg.items()} | {"messages": len(seg["path"])}


def chrome_trace(spans: list[dict]) -> dict:
    """Chrome ``chrome://tracing`` / Perfetto JSON: one pid per rank."""
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ns"}
    t0 = min(s["start"] for s in spans)
    events = []
    for i, s in enumerate(spans):
        events.append({
            "name": s["name"], "cat": "perf", "ph": "X",
            "pid": s["rank"], "tid": s["tid"],
            "ts": (s["start"] - t0) / 1e3,
            "dur": (s["end"] - s["start"]) / 1e3,
            "args": {"iter": s["iter"], "id": i, "parent": s["parent"]},
        })
    for rank in sorted({s["rank"] for s in spans}):
        events.append({"name": "process_name", "ph": "M", "pid": rank,
                       "args": {"name": f"rank {rank}"}})
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(path: str, spans: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace(spans), fh)
