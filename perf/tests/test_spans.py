"""Span arithmetic: parents, iteration ids, self time, the path budget."""

import json

import spans


def _span(name, start, end, rank=0, tid=1, pid=1):
    return {"name": name, "rank": rank, "pid": pid, "tid": tid,
            "start": start, "end": end}


def test_self_time_is_span_minus_the_union_of_its_children():
    linked = spans.link([
        _span("parent", 0, 100),
        _span("a", 10, 30),
        _span("b", 35, 50),
        _span("inner", 36, 40),           # grandchild: b's business
        _span("elsewhere", 20, 60, tid=2),  # other thread: nobody's child
    ])
    assert [s["parent"] for s in linked] == [None, 0, 0, 2, None]
    assert spans.self_times(linked) == [100 - 20 - 15, 20, 15 - 4, 4, 40]


def test_self_time_counts_overlap_once_and_clips_to_the_parent():
    linked = [
        dict(_span("parent", 0, 100), parent=None),
        dict(_span("a", 10, 30), parent=0),
        dict(_span("b", 20, 50), parent=0),     # overlaps a
        dict(_span("c", 90, 120), parent=0),    # runs past the parent
    ]
    assert spans.self_times(linked)[0] == 100 - 40 - 10


def test_link_numbers_iterations_per_rank_and_name():
    raw = [_span("bindings.Isend", 10 * k, 10 * k + 5) for k in range(8)]
    raw += [_span("bindings.Isend", 10 * k, 10 * k + 5, rank=1, tid=9)
            for k in range(4)]
    linked = spans.link(raw, per_iteration=4)
    assert [s["iter"] for s in linked[:8]] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert [s["iter"] for s in linked[8:]] == [0, 0, 0, 0]


def _one_message(t0, rank_s=0, rank_r=1, sockets=False):
    """Spans of one message whose path is 100 ns long."""
    tid_s, tid_r = 10 + rank_s, 10 + rank_r
    deliver_tid = 99 if sockets else tid_s
    send_end = t0 + 45 if sockets else t0 + 70
    return [
        _span("bindings.Send", t0, send_end + 5, rank_s, tid_s),
        _span("transport.send", t0 + 20, send_end, rank_s, tid_s),
        _span("engine.deliver", t0 + 50, t0 + 65, rank_r, deliver_tid),
        _span("bindings.Recv", t0 - 30, t0 + 100, rank_r, tid_r),
    ]


def test_budget_segments_tile_the_message_path():
    for sockets in (False, True):
        raw = [s for k in range(5) for s in _one_message(1000 * k, sockets=sockets)]
        budget = spans.message_budget(spans.link(raw), 0, 1)
        assert budget["messages"] == 5
        assert budget["path"] == 100
        tiled = sum(budget[k] for k in (
            "above_transport", "transport_send", "wire_wake", "match",
            "complete_wake"))
        assert tiled == budget["path"]
        assert budget["above_transport"] == 20
        assert budget["match"] == 15
        assert budget["complete_wake"] == 35
        # Threads: the delivery nests in the send, no wire.  Sockets:
        # the send returned 5 ns before the reader thread delivered.
        assert budget["wire_wake"] == (5 if sockets else 0)
        assert budget["transport_send"] == (25 if sockets else 30)


def test_chrome_trace_is_loadable_json_with_complete_events():
    linked = spans.link(_one_message(0) + _one_message(1000))
    doc = json.loads(json.dumps(spans.chrome_trace(linked)))
    events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 8
    assert min(e["ts"] for e in events) == 0
    assert {e["pid"] for e in events} == {0, 1}
    assert all({"iter", "parent", "id"} <= set(e["args"]) for e in events)


def test_recorder_and_decorators_record_only_the_traced_tag():
    class Env:
        def __init__(self, tag):
            self.tag = tag

    class Inner:
        def __init__(self):
            self.calls = []

        def send(self, dest, env, payload):
            self.calls.append(("send", env.tag))

        def deliver(self, env, payload):
            self.calls.append(("deliver", env.tag))

        def ensure_peer(self, peer): ...
        def post_recv(self, *a, **k): ...
        def check_failure(self): ...
        def is_revoked(self, context): ...
        other = "passed through"

    rec = spans.SpanRecorder(3)
    inner = Inner()
    transport = spans.SpanTransport(inner, rec, tag=7)
    engine = spans.SpanEngine(inner, rec, tag=7)
    for tag in (7, 3, 7):
        transport.send(1, Env(tag), b"")
        engine.deliver(Env(tag), b"")
    assert len(inner.calls) == 6
    assert sorted(s["name"] for s in rec.export()) == \
        ["engine.deliver"] * 2 + ["transport.send"] * 2
    assert transport.inner is inner and transport.other == "passed through"
    traced = rec.wrap("bindings.Send", lambda a, b: a + b)
    assert traced(2, 3) == 5
    last = rec.export()[-1]
    assert last["name"] == "bindings.Send" and last["rank"] == 3
    assert last["end"] >= last["start"]
