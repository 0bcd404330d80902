"""Discrete-event engine semantics."""

import numpy as np
import pytest

from repro.simulator.collective_cost import GAMMA_US_PER_BYTE
from repro.simulator.engine import (
    ANY,
    SimulationError,
    simulate,
    simulate_collective,
)
from repro.simulator.loggp import NetworkModel

NET = NetworkModel(alpha_us=1.0, beta_us_per_byte=0.01)


class TestPrimitives:
    def test_one_way_message_costs_latency(self):
        def sender(rank, p):
            yield ("send", 1, bytes(100))

        def receiver(rank, p):
            yield ("recv", 0, 100)

        clocks = simulate([sender(0, 2), receiver(1, 2)], NET).clocks
        assert clocks[0] == 0.0
        assert clocks[1] == pytest.approx(NET.latency_us(100))

    def test_ping_pong_round_trip(self):
        def rank0(rank, p):
            yield ("send", 1, bytes(10))
            yield ("recv", 1, 10)

        def rank1(rank, p):
            yield ("recv", 0, 10)
            yield ("send", 0, bytes(10))

        clocks = simulate([rank0(0, 2), rank1(1, 2)], NET).clocks
        assert clocks[0] == pytest.approx(2 * NET.latency_us(10))

    def test_compute_advances_clock(self):
        def prog(rank, p):
            yield ("compute", 5.0)
            yield ("compute", 2.5)

        assert simulate([prog(0, 1)], NET).clocks[0] == pytest.approx(7.5)

    def test_reduce_combines_and_charges_reduction_cost(self):
        def prog(rank, p):
            out = yield ("reduce", np.add, np.ones(4), np.ones(4))
            assert out.tolist() == [2.0] * 4

        sim = simulate([prog(0, 1)], NET)
        assert sim.clocks[0] == pytest.approx(GAMMA_US_PER_BYTE * 32)

    def test_recv_waits_for_late_message(self):
        def busy_sender(rank, p):
            yield ("compute", 50.0)
            yield ("send", 1, b"")

        def eager_receiver(rank, p):
            yield ("recv", 0, 0)

        clocks = simulate(
            [busy_sender(0, 2), eager_receiver(1, 2)], NET
        ).clocks
        assert clocks[1] == pytest.approx(50.0 + NET.latency_us(0))

    def test_early_message_waits_for_recv(self):
        def eager_sender(rank, p):
            yield ("send", 1, b"")

        def busy_receiver(rank, p):
            yield ("compute", 50.0)
            yield ("recv", 0, 0)

        clocks = simulate(
            [eager_sender(0, 2), busy_receiver(1, 2)], NET
        ).clocks
        assert clocks[1] == pytest.approx(50.0)

    def test_per_sender_fifo(self):
        def sender(rank, p):
            yield ("send", 1, bytes(1000))  # slow (big)
            yield ("send", 1, b"")  # fast (small) — must still be second

        def receiver(rank, p):
            first = yield ("recv", 0, 1000)
            second = yield ("recv", 0, 1000)
            assert (len(first), len(second)) == (1000, 0)

        sim = simulate([sender(0, 2), receiver(1, 2)], NET)
        assert (sim.msgs, sim.nbytes) == (2, 1000)

    def test_sendrecv_combined(self):
        def prog(rank, p):
            other = 1 - rank
            yield ("sendrecv", other, other, bytes(64), 64)

        clocks = simulate([prog(0, 2), prog(1, 2)], NET).clocks
        assert clocks[0] == clocks[1] == pytest.approx(NET.latency_us(64))

    def test_send_overhead_charged_to_sender(self):
        def sender(rank, p):
            yield ("send", 1, b"")

        def receiver(rank, p):
            yield ("recv", 0, 0)

        clocks = simulate(
            [sender(0, 2), receiver(1, 2)], NET, per_send_overhead_us=3.0
        ).clocks
        assert clocks[0] == pytest.approx(3.0)
        assert clocks[1] == pytest.approx(3.0 + NET.latency_us(0))


def _steps(*steps):
    """A rank program that yields ``steps``.  A ``recv`` may carry the
    payload it expects after its tag; the engine ignores that element."""
    for step in steps:
        got = yield step
        if step[0] == "recv" and len(step) > 4:
            assert got == step[4], (step, got)


# Two-rank programs per case, and whether they complete under rendezvous
# sends too.
COMPLETES = {
    "wildcard source and tag": (
        [("send", 1, b"a", 5), ("send", 1, b"b", 7)],
        [("recv", ANY, 1, 7, b"b"), ("recv", 0, 1, ANY, b"a")],
        False,
    ),
    "posted irecv before a blocked recv": (
        [("recv", 1, 1), ("send", 1, b"a"), ("send", 1, b"b")],
        [("irecv", 0, 1), ("send", 0, b"x"), ("recv", 0, 1, 0, b"b"),
         ("wait",)],
        True,
    ),
    "irecv takes the earliest buffered message": (
        [("send", 1, b"a"), ("send", 1, b"b")],
        [("irecv", 0, 1), ("recv", 0, 1, 0, b"b"), ("wait",)],
        False,
    ),
    "wait on irecvs": (
        [("compute", 5.0), ("isend", 1, b"a", 1), ("isend", 1, b"b", 2)],
        [("irecv", 0, 1, 2), ("irecv", 0, 1, 1), ("wait",),
         ("compute", 1.0)],
        True,
    ),
    "coll of one name": (
        [("compute", 3.0), ("coll", "barrier"), ("recv", 1, 0)],
        [("coll", "barrier"), ("send", 0, b"")],
        True,
    ),
    "sendrecv pair": (
        [("sendrecv", 1, 1, b"a", 1)],
        [("sendrecv", 0, 0, b"b", 1)],
        True,
    ),
    "send to a blocked sendrecv": (
        [("sendrecv", 1, 1, b"a", 1)],
        [("send", 0, b"b"), ("recv", 0, 1, 0, b"a")],
        True,
    ),
    "send to a posted irecv": (
        [("irecv", 1, 1), ("send", 1, b"a"), ("wait",)],
        [("irecv", 0, 1), ("send", 0, b"b"), ("wait",)],
        True,
    ),
}


@pytest.mark.parametrize("rank0, rank1, rendezvous", COMPLETES.values(),
                         ids=list(COMPLETES))
def test_program_completes(rank0, rank1, rendezvous):
    for mode in {False, rendezvous}:
        sim = simulate([_steps(*rank0), _steps(*rank1)], NET,
                       rendezvous=mode)
        sends = sum(s[0] in ("send", "isend", "sendrecv")
                    for s in rank0 + rank1)
        assert (sim.msgs, sim.blocked) == (sends, {})


def test_wait_and_coll_clocks():
    clocks = simulate([_steps(*COMPLETES["wait on irecvs"][0]),
                       _steps(*COMPLETES["wait on irecvs"][1])], NET).clocks
    assert clocks[1] == pytest.approx(5.0 + NET.latency_us(1) + 1.0)
    clocks = simulate([_steps(*COMPLETES["coll of one name"][0]),
                       _steps(*COMPLETES["coll of one name"][1])], NET).clocks
    assert clocks == [pytest.approx(3.0 + NET.latency_us(0)), 3.0]


def test_unreceived_and_unmatched_reported():
    sim = simulate([_steps(("irecv", 1, 0, 3)), _steps(("send", 0, b"", 4))],
                   NET)
    assert sim.unreceived == [(1, ("send", 0, b"", 4))]
    assert sim.unmatched == [(0, ("irecv", 1, 0, 3))]


# Two-rank programs that never finish, whether they need rendezvous sends
# to hang, and the step each rank is left blocked in.
DEADLOCKS = {
    "coll name mismatch": (
        [("coll", "barrier")], [("coll", "bcast")], False,
        {0: ("coll", "barrier"), 1: ("coll", "bcast")},
    ),
    "coll one rank skips": (
        [("coll", "barrier")], [], False, {0: ("coll", "barrier")},
    ),
    "wait on an unmatched irecv": (
        [("irecv", 1, 0, 3), ("wait",)], [("send", 0, b"", 4)], False,
        {0: ("wait",)},
    ),
    "head-to-head sends": (
        [("send", 1, b""), ("recv", 1, 0)],
        [("send", 0, b""), ("recv", 0, 0)], True,
        {0: ("send", 1, b""), 1: ("send", 0, b"")},
    ),
}


class TestErrors:
    def test_deadlock_detected(self):
        def waiter(rank, p):
            yield ("recv", 1 - rank, 0)

        with pytest.raises(SimulationError, match="deadlock") as err:
            simulate([waiter(0, 2), waiter(1, 2)], NET)
        assert err.value.sim.blocked == {0: ("recv", 1, 0), 1: ("recv", 0, 0)}

    @pytest.mark.parametrize("rank0, rank1, rendezvous, blocked",
                             DEADLOCKS.values(), ids=list(DEADLOCKS))
    def test_stuck_steps_reported(self, rank0, rank1, rendezvous, blocked):
        with pytest.raises(SimulationError, match="deadlock") as err:
            simulate([_steps(*rank0), _steps(*rank1)], NET,
                     rendezvous=rendezvous)
        assert err.value.sim.blocked == blocked
        if rendezvous:  # it only hangs when sends wait for receivers
            simulate([_steps(*rank0), _steps(*rank1)], NET)

    def test_unknown_event_rejected(self):
        def bad(rank, p):
            yield ("teleport", 1)

        with pytest.raises(SimulationError, match="unknown event"):
            simulate([bad(0, 1)], NET)


    def test_truncation_detected(self):
        def sender(rank, p):
            yield ("send", 1, bytes(8))

        def receiver(rank, p):
            yield ("recv", 0, 4)

        with pytest.raises(SimulationError, match="4-byte receive"):
            simulate([sender(0, 2), receiver(1, 2)], NET)


class TestCollectiveRunner:
    def test_max_finish_time(self):
        def prog(rank, p):
            yield ("compute", float(rank))

        assert simulate_collective(
            lambda r, p: prog(r, p), 4, NET
        ) == pytest.approx(3.0)
