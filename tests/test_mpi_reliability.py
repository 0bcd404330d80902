"""The reliable-delivery layer: framing, acks, retransmit, recovery.

Unit tests drive two :class:`ReliableTransport` instances over an
in-memory wire with loss knobs; the property test (the headline
guarantee) runs real rank threads under Hypothesis-generated survivable
fault plans and asserts the delivered stream equals the sent stream —
exactly once, in order.
"""

from __future__ import annotations

import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.mpi.exceptions import RankFailedError
from repro.mpi.matching import Envelope, MatchingEngine
from repro.mpi.reliability import FRAME_SIZE, ReliableTransport
from repro.mpi.transport.base import CONTROL_CONTEXT, Transport
from repro.mpi.world import reliability_stats, run_on_threads


class _Wire(Transport):
    """In-memory wire between two reliability layers, with loss knobs."""

    def __init__(self, world_rank: int, world_size: int = 2) -> None:
        super().__init__(world_rank, world_size)
        self.peers: dict[int, "_Wire"] = {}
        self.drop_next = 0          # swallow the next N primary sends
        self.sent = []              # every primary send, delivered or not
        self.unfaulted = []         # every retransmit

    def send(self, dest_world_rank, env, payload):
        self.sent.append((dest_world_rank, env, payload))
        if self.drop_next > 0:
            self.drop_next -= 1
            return
        self.peers[dest_world_rank]._deliver_local(env, payload)

    def send_unfaulted(self, dest_world_rank, env, payload):
        self.unfaulted.append((dest_world_rank, env, payload))
        self.peers[dest_world_rank]._deliver_local(env, payload)

    def close(self):
        pass


class _LossyRetransmitWire(_Wire):
    """A wire whose retransmit path is *also* dead (peer truly gone)."""

    def send_unfaulted(self, dest_world_rank, env, payload):
        self.unfaulted.append((dest_world_rank, env, payload))


def make_pair(wire_cls=_Wire, **kwargs):
    w0, w1 = wire_cls(0), wire_cls(1)
    w0.peers[1], w1.peers[0] = w1, w0
    kwargs.setdefault("rto_initial", 0.01)
    kwargs.setdefault("close_linger", 0.0)
    r0 = ReliableTransport(w0, **kwargs)
    r1 = ReliableTransport(w1, **kwargs)
    e0, e1 = MatchingEngine(), MatchingEngine()
    r0.attach(e0)
    r1.attach(e1)
    return (r0, r1), (w0, w1), (e0, e1)


def _env(tag, nbytes, source=0, dest=1, context=0):
    return Envelope(context, source, dest, tag, nbytes)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


class TestFraming:
    def test_clean_delivery_and_ack(self):
        (r0, _r1), (w0, _w1), (_e0, e1) = make_pair()
        ticket = e1.post_recv(0, 0, 7, 64)
        r0.send(1, _env(7, 5), b"hello")
        assert ticket.wait(5) == b"hello"
        # The wire saw a framed payload, the engine the original bytes.
        _dest, wire_env, frame = w0.sent[0]
        assert wire_env.nbytes == FRAME_SIZE + 5 and len(frame) == wire_env.nbytes
        # The cumulative ACK retires the pending frame.
        assert wait_until(lambda: not r0._has_unacked())
        stats = r0.stats()
        assert stats["sent"] == 1 and stats["acks_received"] == 1
        assert r1_delivered(_r1) == 1

    def test_control_plane_bypasses_framing(self):
        (r0, _r1), (w0, _w1), _ = make_pair()
        r0.send(1, _env(0, 2, context=CONTROL_CONTEXT), b"hb")
        _dest, env, payload = w0.sent[0]
        assert env.context == CONTROL_CONTEXT and payload == b"hb"
        assert r0.stats()["sent"] == 0  # not part of the data stream

    def test_corrupt_frame_dropped(self):
        (r0, r1), (w0, _w1), (_e0, e1) = make_pair()
        w0.drop_next = 1
        r0.send(1, _env(3, 4), b"data")
        _dest, env, frame = w0.sent[0]
        corrupted = frame[:-1] + bytes([frame[-1] ^ 0xFF])
        r1._on_frame(env, corrupted)
        assert r1.stats()["corrupt_dropped"] == 1
        assert e1.pending_unexpected() == 0
        # The retransmit timer still recovers the original.
        assert e1.post_recv(0, 0, 3, 64).wait(5) == b"data"

    def test_truncated_frame_dropped(self):
        (r0, r1), (w0, _w1), (_e0, e1) = make_pair()
        w0.drop_next = 1
        r0.send(1, _env(3, 4), b"data")
        _dest, env, frame = w0.sent[0]
        r1._on_frame(env, frame[: FRAME_SIZE + 1])
        assert r1.stats()["corrupt_dropped"] == 1
        assert e1.post_recv(0, 0, 3, 64).wait(5) == b"data"


class TestDuplicatesAndReorder:
    def test_duplicate_dropped_and_reacked(self):
        (r0, r1), (w0, _w1), (_e0, e1) = make_pair()
        ticket = e1.post_recv(0, 0, 7, 64)
        r0.send(1, _env(7, 2), b"ok")
        assert ticket.wait(5) == b"ok"
        acks_before = r1.stats()["acks_sent"]
        _dest, env, frame = w0.sent[0]
        r1._on_frame(env, frame)  # replay the same wire frame
        assert r1.stats()["duplicates_dropped"] == 1
        assert e1.pending_unexpected() == 0  # not delivered twice
        assert r1.stats()["acks_sent"] == acks_before + 1  # re-acked

    def test_out_of_order_buffered_and_delivered_in_sequence(self):
        (r0, r1), (w0, _w1), (_e0, e1) = make_pair()
        w0.drop_next = 2  # swallow both primaries; we replay by hand
        r0.send(1, _env(5, 1), b"a")
        r0.send(1, _env(5, 1), b"b")
        (_d0, env_a, frame_a), (_d1, env_b, frame_b) = w0.sent[:2]
        r1._on_frame(env_b, frame_b)  # seq 1 arrives first
        assert r1.stats()["out_of_order"] == 1
        assert r1.stats()["delivered"] == 0
        r1._on_frame(env_a, frame_a)  # seq 0 releases both, in order
        assert r1.stats()["delivered"] == 2
        first = e1.post_recv(0, 0, 5, 64).wait(5)
        second = e1.post_recv(0, 0, 5, 64).wait(5)
        assert (first, second) == (b"a", b"b")


class TestRetransmit:
    def test_lost_primary_is_retransmitted(self):
        (r0, _r1), (w0, _w1), (_e0, e1) = make_pair()
        w0.drop_next = 1
        ticket = e1.post_recv(0, 0, 9, 64)
        r0.send(1, _env(9, 4), b"lost")
        assert ticket.wait(5) == b"lost"
        assert len(w0.unfaulted) >= 1  # recovered via the unfaulted path
        assert r0.stats()["retransmits"] >= 1
        assert wait_until(lambda: not r0._has_unacked())

    def test_escalates_to_engine_failure_after_max_retries(self):
        (r0, _r1), (w0, _w1), (e0, _e1) = make_pair(
            wire_cls=_LossyRetransmitWire, max_retries=2,
        )
        w0.drop_next = 10**6  # peer unreachable on every path
        r0.send(1, _env(9, 4), b"void")
        assert wait_until(lambda: r0.stats()["escalations"] >= 1, timeout=10)
        assert 1 in e0.failed_ranks()
        with pytest.raises(RankFailedError):
            e0.post_recv(0, 1, 9, 64, source_world=1).wait(5)


class TestConfig:
    def test_validation(self):
        wire = _Wire(0)
        with pytest.raises(ValueError, match="rto_initial"):
            ReliableTransport(wire, rto_initial=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ReliableTransport(wire, max_retries=0)

    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("OMBPY_REL_RTO_MS", "20")
        monkeypatch.setenv("OMBPY_REL_MAX_RETRIES", "3")
        rel = ReliableTransport(_Wire(0))
        assert (rel.rto_initial, rel.max_retries) == (0.02, 3)
        # 0 ms used to be silently replaced by the default.
        monkeypatch.setenv("OMBPY_REL_RTO_MS", "0")
        with pytest.raises(ValueError, match="OMBPY_REL_RTO_MS"):
            ReliableTransport(_Wire(0))
        # Explicit arguments win without consulting the variable.
        assert ReliableTransport(_Wire(0), rto_initial=0.01).rto_initial \
            == 0.01

    def test_stats_helper_walks_the_stack(self):
        (r0, _r1), (w0, _w1), _ = make_pair()
        assert reliability_stats(r0) == r0.stats()
        assert reliability_stats(w0) is None

    def test_name_and_innermost(self):
        (r0, _r1), (w0, _w1), _ = make_pair()
        assert "reliable" in r0.name
        assert r0.innermost() is w0


def r1_delivered(r1) -> int:
    return r1.stats()["delivered"]


#: Survivable plans only: loss rates well below 1, no crash.  The
#: reliable layer must make every one of these invisible.
SURVIVABLE = dict(
    seed=st.integers(min_value=0, max_value=2**16),
    drop=st.floats(min_value=0.0, max_value=0.3),
    duplicate=st.floats(min_value=0.0, max_value=0.3),
    truncate=st.floats(min_value=0.0, max_value=0.2),
    delay=st.floats(min_value=0.0, max_value=0.2),
    messages=st.lists(
        st.binary(min_size=0, max_size=64), min_size=1, max_size=10
    ),
)


class TestDeliveredEqualsSent:
    """Satellite property: the app-visible stream is unaffected by faults."""

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(**SURVIVABLE)
    def test_stream_exactly_once_in_order(
        self, seed, drop, duplicate, truncate, delay, messages
    ):
        plan = FaultPlan(
            seed=seed, drop=drop, duplicate=duplicate, truncate=truncate,
            delay=delay, delay_hold=2, backstop_ms=100.0,
        )
        os.environ["OMBPY_REL_RTO_MS"] = "20"
        try:
            # One tag for the whole stream: the matching engine then
            # matches in delivery order, so equality below proves the
            # stream arrived exactly once *and in order*.
            def body(comm):
                if comm.rank == 0:
                    for payload in messages:
                        comm.send_bytes(payload, 1, 0)
                    return [
                        comm.recv_bytes(1, 1, 80)[0] for _ in messages
                    ]
                got = [comm.recv_bytes(0, 0, 80)[0] for _ in messages]
                for payload in got:
                    comm.send_bytes(payload, 0, 1)
                return got

            out = run_on_threads(
                2, body, fault_plan=plan, reliable=True, timeout=60
            )
        finally:
            os.environ.pop("OMBPY_REL_RTO_MS", None)
        assert out[1] == messages   # forward stream: exactly once, in order
        assert out[0] == messages   # echoed stream: both directions hold
