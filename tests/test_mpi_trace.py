"""Tracer tests + algorithm-structure assertions.

The structural counts below are the message complexities of the
collective algorithms.  Where the algorithm is a schedule
(:mod:`repro.mpi.collectives.schedule`), the expected count is the
simulator engine's tally of that schedule; validating them proves the
implementation runs the algorithm it claims, not merely that results are
numerically right.
"""

import math
import threading

import numpy as np
import pytest

from repro.mpi import ops
from repro.mpi.collectives import schedule as s
from repro.mpi.collectives import selector
from repro.mpi.trace import run_traced, traced
from repro.mpi.world import run_on_threads
from repro.simulator.engine import simulate
from repro.simulator.loggp import NetworkModel


def _tally(n, algorithm, args):
    """Messages the engine delivers running ``algorithm`` over n ranks,
    rank r passing ``args(r)``."""
    return simulate(
        [algorithm(range(n), r, *args(r)) for r in range(n)],
        NetworkModel(alpha_us=1.0, beta_us_per_byte=0.0),
    ).msgs


def _collective_trace(n, fn, op=None, algorithm=None):
    if op is not None:
        selector.force(op, algorithm)
    try:
        return run_traced(n, fn)
    finally:
        if op is not None:
            selector.force(op, None)


class TestTracer:
    def test_records_pt2pt(self):
        def work(comm):
            if comm.rank == 0:
                comm.send_bytes(b"abc", 1, 9)
            elif comm.rank == 1:
                comm.recv_bytes(0, 9, 8)

        log = run_traced(2, work)
        assert log.message_count() == 1
        assert log.total_bytes() == 3
        assert log.by_pair() == {(0, 1): 1}

    def test_records_receive_and_completion_events(self):
        # Hold traffic until every rank's trace sink is installed, so
        # the receiver cannot miss an early arrival.
        gate = threading.Barrier(2)

        def work(comm):
            gate.wait()
            if comm.rank == 0:
                comm.send_bytes(b"abc", 1, 9)
            elif comm.rank == 1:
                comm.recv_bytes(0, 9, 8)

        log = run_traced(2, work)
        # The one payload message is seen arriving at rank 1...
        recvs = [e for e in log.receives() if e.nbytes == 3]
        assert len(recvs) == 1
        assert recvs[0].src_world == 0
        assert recvs[0].dst_world == 1
        # ...and completing against a receive (posted or unexpected).
        completes = [e for e in log.completions() if e.nbytes == 3]
        assert len(completes) == 1

    def test_every_send_eventually_completes(self):
        gate = threading.Barrier(4)

        def work(comm):
            gate.wait()
            comm.allgather_bytes(bytes([comm.rank]) * 8)
            comm.barrier()

        log = run_traced(4, work)
        sends = log.message_count(include_self=True)
        assert sends > 0
        assert len(log.receives()) == sends
        assert len(log.completions()) == sends

    def test_self_sends_filtered_by_default(self):
        def work(comm):
            comm.isend_bytes(b"self", comm.rank, 1)
            comm.recv_bytes(comm.rank, 1, 8)

        log = run_traced(2, work)
        assert log.message_count() == 0
        assert log.message_count(include_self=True) == 2

    def test_traced_context_manager_restores_transport(self):
        def work(comm):
            original = comm.endpoint.transport
            with traced(comm) as log:
                comm.isend_bytes(b"x", comm.rank, 0)
                comm.recv_bytes(comm.rank, 0, 4)
                assert log.message_count(include_self=True) == 1
            assert comm.endpoint.transport is original

        run_on_threads(1, work)

    def test_clear(self):
        def work(comm):
            if comm.rank == 0:
                comm.send_bytes(b"1", 1, 1)
            else:
                comm.recv_bytes(0, 1, 4)

        log = run_traced(2, work)
        log.clear()
        assert log.message_count() == 0


class TestAlgorithmStructure:
    """Message-complexity assertions for the collective algorithms."""

    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_binomial_bcast_sends_p_minus_1_payloads(self, n):
        payload = b"z" * 64

        def work(comm):
            comm.bcast_bytes(payload if comm.rank == 0 else None, 0)

        log = _collective_trace(n, work, "bcast", "binomial")
        # p-1 header messages + p-1 payload messages.
        payload_msgs = [
            e for e in log.snapshot()
            if e.nbytes == 64 and e.src_world != e.dst_world
        ]
        assert len(payload_msgs) == n - 1

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_linear_bcast_sends_all_from_root(self, n):
        payload = b"y" * 32

        def work(comm):
            comm.bcast_bytes(payload if comm.rank == 0 else None, 0)

        log = _collective_trace(n, work, "bcast", "linear")
        payload_msgs = [e for e in log.snapshot() if e.nbytes == 32]
        assert len(payload_msgs) == n - 1
        assert all(e.src_world == 0 for e in payload_msgs)

    @pytest.mark.parametrize("n", (3, 4, 5, 8))
    def test_ring_allgather_message_count(self, n):
        def work(comm):
            comm.allgather_bytes(bytes([comm.rank]) * 16)

        log = _collective_trace(n, work, "allgather", "ring")
        data_msgs = [e for e in log.snapshot() if e.nbytes == 16]
        # Ring: p-1 steps, every rank sends one block per step.
        assert len(data_msgs) == _tally(
            n, s.ring_allgather,
            lambda r: ([bytes(16) if i == r else None for i in range(n)],
                       [16] * n),
        )
        # Each rank only ever sends to its right neighbour.
        for e in data_msgs:
            assert e.dst_world == (e.src_world + 1) % n

    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_recursive_doubling_allreduce_message_count(self, n):
        def work(comm):
            comm.allreduce_array(np.ones(4), ops.SUM)

        log = _collective_trace(n, work, "allreduce", "recursive_doubling")
        data_msgs = [e for e in log.snapshot() if e.nbytes == 32]
        # Power-of-two p: log2(p) rounds, p messages per round.
        assert len(data_msgs) == _tally(
            n, s.recursive_doubling_allreduce,
            lambda r: (np.ones(4), ops.SUM),
        )

    @pytest.mark.parametrize("n", (4, 8))
    def test_pairwise_alltoall_message_count(self, n):
        def work(comm):
            comm.alltoall_bytes([b"Q" * 8] * comm.size)

        log = _collective_trace(n, work, "alltoall", "pairwise")
        data_msgs = [
            e for e in log.snapshot()
            if e.nbytes == 8 and e.src_world != e.dst_world
        ]
        # Every ordered pair exchanges exactly one block.
        assert len(data_msgs) == _tally(
            n, s.pairwise_alltoall, lambda r: ([b"Q" * 8] * n, 8)
        )
        assert set(log.by_pair()) >= {
            (i, j) for i in range(n) for j in range(n) if i != j
        }

    @pytest.mark.parametrize("n", (4, 8))
    def test_bruck_alltoall_fewer_messages_than_pairwise(self, n):
        def work(comm):
            comm.alltoall_bytes([b"w" * 8] * comm.size)

        bruck = _collective_trace(n, work, "alltoall", "bruck")
        pairwise = _collective_trace(n, work, "alltoall", "pairwise")
        # Bruck: p*ceil(log2 p) messages < p*(p-1) for p >= 4.
        assert bruck.message_count() < pairwise.message_count()
        assert bruck.message_count() == n * math.ceil(math.log2(n))

    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_dissemination_barrier_message_count(self, n):
        def work(comm):
            comm.barrier()

        log = _collective_trace(n, work)
        # ceil(log2 p) rounds, one zero-byte token per rank per round.
        zero_msgs = [e for e in log.snapshot() if e.nbytes == 0]
        assert len(zero_msgs) == _tally(
            n, s.dissemination_barrier, lambda r: ()
        )

    def test_bruck_total_volume_exceeds_pairwise_per_message_economy(self):
        """Bruck trades message count for volume: it ships ~p/2 blocks
        per message, so total bytes exceed pairwise's."""
        n = 8

        def work(comm):
            comm.alltoall_bytes([b"v" * 8] * comm.size)

        bruck = _collective_trace(n, work, "alltoall", "bruck")
        pairwise = _collective_trace(n, work, "alltoall", "pairwise")
        assert bruck.total_bytes() > pairwise.total_bytes()
