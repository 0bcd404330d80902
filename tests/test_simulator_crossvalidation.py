"""DES-vs-analytic cross-validation of collective cost models.

The discrete-event engine runs the runtime's own collective schedules
(:mod:`repro.mpi.collectives.schedule`).  Where the analytic formula is
exact for the algorithm (barrier, ring allgather, recursive doubling on
power-of-two sizes, pairwise alltoall, binomial bcast on power-of-two
sizes), the simulation must match it to floating-point tolerance.
"""

import math

import numpy as np
import pytest

from repro.mpi import ops
from repro.mpi.collectives import schedule as s
from repro.simulator.collective_cost import (
    GAMMA_US_PER_BYTE,
    allgather_us,
    allreduce_us,
    alltoall_us,
    barrier_us,
    bcast_us,
)
from repro.simulator.engine import simulate, simulate_collective
from repro.simulator.loggp import NetworkModel

NET = NetworkModel(alpha_us=1.3, beta_us_per_byte=2e-4)


def _sim(algorithm, p, *args, **kw):
    """Simulated time of ``algorithm`` run flat over p ranks."""
    return simulate_collective(
        lambda r, p: algorithm(range(p), r, *args), p, NET, **kw
    )


def _bcast(r, p, n, root=0):
    return s.binomial_bcast(
        range(p), r, root, bytes(n) if r == root else None, n
    )


def _allreduce_rd(r, p, n):
    return s.recursive_doubling_allreduce(
        range(p), r, np.ones(n // 8), ops.SUM
    )


def _ring_allgather(r, p, n):
    blocks = [None] * p
    blocks[r] = bytes(n)
    return s.ring_allgather(range(p), r, blocks, [n] * p)


class TestBarrier:
    @pytest.mark.parametrize("p", (2, 3, 4, 5, 8, 16))
    def test_matches_analytic(self, p):
        sim = _sim(s.dissemination_barrier, p)
        assert sim == pytest.approx(barrier_us(NET, p))


class TestBcast:
    @pytest.mark.parametrize("p", (2, 4, 8, 16))
    @pytest.mark.parametrize("n", (64, 4096))
    def test_binomial_pow2_matches(self, p, n):
        sim = simulate_collective(lambda r, p: _bcast(r, p, n), p, NET)
        assert sim == pytest.approx(bcast_us(NET, p, n))

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_non_pow2_within_analytic_bound(self, p):
        """For non-powers of two, the tree's critical path can be one
        round shorter than ceil(log2 p)*t(n); analytic is an upper bound."""
        n = 512
        sim = simulate_collective(lambda r, p: _bcast(r, p, n), p, NET)
        analytic = bcast_us(NET, p, n)
        assert sim <= analytic + 1e-9
        assert sim >= analytic * 0.5


class TestAllgatherRing:
    @pytest.mark.parametrize("p", (2, 3, 5, 8))
    @pytest.mark.parametrize("n", (128, 65536))
    def test_matches_analytic_ring(self, p, n):
        sim = simulate_collective(
            lambda r, p: _ring_allgather(r, p, n), p, NET
        )
        assert sim == pytest.approx((p - 1) * NET.latency_us(n))

    def test_selector_form_matches_large(self):
        # Large blocks route allgather_us to the ring formula.
        p, n = 8, 65536
        assert allgather_us(NET, p, n) == pytest.approx(
            (p - 1) * NET.latency_us(n)
        )


class TestAllreduce:
    @pytest.mark.parametrize("p", (2, 4, 8, 16))
    def test_recursive_doubling_matches(self, p):
        n = 1024
        sim = simulate_collective(
            lambda r, p: _allreduce_rd(r, p, n), p, NET
        )
        assert sim == pytest.approx(allreduce_us(NET, p, n))

    def test_rd_non_pow2_completes(self):
        """Non-power-of-two p runs to completion: the fold adds one hop in
        and one hop out around the power-of-two core the analytic form
        prices."""
        n = 1024
        hop = NET.latency_us(n)
        for p in (3, 5, 6, 7, 17):
            sim = simulate([_allreduce_rd(r, p, n) for r in range(p)], NET)
            pof2 = 2 ** int(math.log2(p))
            assert sim.msgs == pof2 * int(math.log2(pof2)) + 2 * (p - pof2)
            core = allreduce_us(NET, pof2, n)
            assert core + hop - 1e-9 <= max(sim.clocks) \
                <= core + 2 * hop + GAMMA_US_PER_BYTE * n + 1e-9

    def test_rd_tally_at_four_ranks(self):
        """p=4 recursive doubling delivers 8 messages (perf's
        collectives.msgs_per_allreduce_n4)."""
        sim = simulate([_allreduce_rd(r, 4, 1024) for r in range(4)], NET)
        assert (sim.msgs, sim.nbytes) == (8, 8 * 1024)

    @pytest.mark.parametrize("p", (4, 8))
    def test_ring_matches_for_large(self, p):
        n = 1 << 20
        sim = _sim(
            s.ring_allreduce, p, np.ones(n // 8), ops.SUM
        )
        assert sim == pytest.approx(allreduce_us(NET, p, n), rel=0.01)


class TestAlltoall:
    @pytest.mark.parametrize("p", (2, 3, 4, 8))
    def test_pairwise_matches(self, p):
        n = 2048
        sim = _sim(s.pairwise_alltoall, p, [bytes(n)] * p, n)
        assert sim == pytest.approx((p - 1) * NET.latency_us(n))

    def test_analytic_selector_uses_pairwise_for_large(self):
        p, n = 8, 2048
        assert alltoall_us(NET, p, n) == pytest.approx(
            (p - 1) * NET.latency_us(n)
        )


class TestGather:
    @pytest.mark.parametrize("p", (2, 4, 8))
    def test_binomial_gather_log_rounds(self, p):
        n = 256
        sim = _sim(s.binomial_gather, p, 0, bytes(n))
        # Root's critical path: receives log2(p) subtree messages of
        # doubling size, serialized at the root.
        expect = sum(
            NET.latency_us(n * 2 ** k) for k in range(int(math.log2(p)))
        )
        # Subtree sends overlap, so the DES can only be faster than the
        # fully-serialized bound and at least the largest single message.
        assert sim <= expect + 1e-9
        assert sim >= NET.latency_us(n * p // 2)


class TestPythonOverheadKnob:
    def test_per_send_overhead_increases_collective_time(self):
        p, n = 8, 1024
        base = simulate_collective(
            lambda r, p: _ring_allgather(r, p, n), p, NET
        )
        slow = simulate_collective(
            lambda r, p: _ring_allgather(r, p, n), p, NET,
            per_send_overhead_us=0.5,
        )
        assert slow > base
        # Ring: p-1 serialized steps, each inflated by the send overhead.
        assert slow == pytest.approx(base + (p - 1) * 0.5, rel=0.01)
