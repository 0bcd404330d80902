"""Discrete-event engine semantics."""

import numpy as np
import pytest

from repro.simulator.collective_cost import GAMMA_US_PER_BYTE
from repro.simulator.engine import SimulationError, simulate, simulate_collective
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


class TestErrors:
    def test_deadlock_detected(self):
        def waiter(rank, p):
            yield ("recv", 1 - rank, 0)

        with pytest.raises(SimulationError, match="deadlock"):
            simulate([waiter(0, 2), waiter(1, 2)], NET)

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
