"""Correctness of every collective, across world sizes and algorithms."""

import numpy as np
import pytest

from repro.mpi import ops
from repro.mpi.collectives import selector
from repro.mpi.exceptions import CountError
from repro.mpi.world import run_on_threads

SIZES = (1, 2, 3, 4, 5, 8)
PAYLOAD_SIZES = (1, 7, 64, 1000)


def run_forced(op, algorithm, n, work, timeout=60.0):
    """Force one algorithm globally, run the world, then clear.

    Forcing must happen in the main thread before any rank starts:
    selector state is global, and per-rank enter/exit would let ranks
    disagree about the algorithm mid-collective.
    """
    selector.force(op, algorithm)
    try:
        return run_on_threads(n, work, timeout=timeout)
    finally:
        selector.force(op, None)


def test_available_algorithms_are_the_documented_set():
    """Algorithm names are public (``OMBPY_COLL_<OP>``, ablations): the
    table must keep every one, in this order."""
    assert {op: selector.available(op) for op in selector.ALGORITHMS} == {
        "bcast": ("binomial", "scatter_allgather", "linear", "hierarchical"),
        "allreduce": (
            "recursive_doubling", "ring", "reduce_bcast", "hierarchical",
        ),
        "allgather": ("recursive_doubling", "ring", "linear", "hierarchical"),
        "alltoall": ("bruck", "pairwise"),
        "reduce": ("binomial", "rabenseifner", "linear"),
        "reduce_scatter": ("recursive_halving", "pairwise"),
        "gather": ("binomial", "linear", "hierarchical"),
        "scatter": ("binomial", "linear"),
        "barrier": ("dissemination", "hierarchical"),
        "scan": ("recursive_doubling", "linear"),
    }


def test_eligibility_fallbacks():
    """A forced algorithm that cannot run the arguments hands over."""
    cases = [
        # (op, forced, size, count, commutative) -> runs
        (("allgather", "recursive_doubling", 6, None, True), "ring"),
        (("allgather", "recursive_doubling", 8, None, True),
         "recursive_doubling"),
        (("reduce_scatter", "recursive_halving", 6, None, True), "pairwise"),
        (("reduce_scatter", "recursive_halving", 8, None, False),
         "pairwise"),
        (("allreduce", "ring", 8, 7, True), "recursive_doubling"),
        (("allreduce", "ring", 8, 8, True), "ring"),
        (("reduce", "rabenseifner", 8, 7, True), "binomial"),
        (("allreduce", "ring", 8, 64, False), "reduce_bcast"),
        (("reduce", "binomial", 8, 64, False), "linear"),
        (("scan", "recursive_doubling", 8, 64, False), "recursive_doubling"),
    ]
    for (op, alg, size, count, commutative), expect in cases:
        selector.force(op, alg)
        try:
            got = selector.pick(
                op, 64, size, count=count, commutative=commutative
            )
        finally:
            selector.force(op, None)
        assert got == expect, (op, alg, size, count, commutative)


class TestBarrier:
    @pytest.mark.parametrize("n", SIZES)
    def test_barrier_completes(self, n):
        def work(comm):
            for _ in range(3):
                comm.barrier()
        run_on_threads(n, work)

    def test_barrier_synchronizes(self):
        """No rank leaves the barrier before every rank has entered it."""
        import threading

        entered = []
        lock = threading.Lock()

        def work(comm):
            with lock:
                entered.append(comm.rank)
            comm.barrier()
            with lock:
                assert len(entered) == comm.size
        run_on_threads(6, work)


class TestBcast:
    @pytest.mark.parametrize("algorithm", selector.available("bcast"))
    @pytest.mark.parametrize("n", (2, 4, 5))
    def test_algorithms(self, algorithm, n):
        payload = bytes(range(256)) * 5
        def work(comm):
            for root in range(comm.size):
                out = comm.bcast_bytes(
                    payload if comm.rank == root else None, root
                )
                assert out == payload
        run_forced("bcast", algorithm, n, work)

    @pytest.mark.parametrize("nbytes", (1, 100, 20000, 300000))
    def test_sizes_cross_selector_threshold(self, nbytes):
        payload = b"z" * nbytes
        def work(comm):
            out = comm.bcast_bytes(payload if comm.rank == 0 else None, 0)
            assert out == payload
        run_on_threads(5, work)

    def test_single_rank(self):
        def work(comm):
            assert comm.bcast_bytes(b"solo", 0) == b"solo"
        run_on_threads(1, work)


class TestReduce:
    @pytest.mark.parametrize("algorithm", selector.available("reduce"))
    @pytest.mark.parametrize("n", (2, 4, 5))
    def test_sum_algorithms(self, algorithm, n):
        def work(comm):
            send = np.full(40, comm.rank + 1.0)
            out = comm.reduce_array(send, ops.SUM, 0)
            if comm.rank == 0:
                expect = sum(range(1, comm.size + 1))
                assert np.allclose(out, expect)
            else:
                assert out is None
        run_forced("reduce", algorithm, n, work)

    @pytest.mark.parametrize("op,reduction", [
        (ops.SUM, np.sum), (ops.MAX, np.max), (ops.MIN, np.min),
        (ops.PROD, np.prod),
    ])
    def test_ops(self, op, reduction):
        def work(comm):
            send = np.array([float(comm.rank + 1), float(10 - comm.rank)])
            out = comm.reduce_array(send, op, 0)
            if comm.rank == 0:
                all_data = np.array([
                    [float(r + 1), float(10 - r)] for r in range(comm.size)
                ])
                assert np.allclose(out, reduction(all_data, axis=0))
        run_on_threads(4, work)

    def test_noncommutative_preserves_rank_order(self):
        # "first" keeps the lower-rank operand: result must be rank 0's data.
        first = ops.create(lambda a, b: a, commute=False)
        def work(comm):
            out = comm.reduce_array(
                np.array([float(comm.rank)]), first, 0
            )
            if comm.rank == 0:
                assert out[0] == 0.0
        run_on_threads(5, work)

    def test_nonzero_root(self):
        def work(comm):
            out = comm.reduce_array(np.ones(3), ops.SUM, 2)
            if comm.rank == 2:
                assert np.allclose(out, comm.size)
            else:
                assert out is None
        run_on_threads(4, work)


class TestAllreduce:
    @pytest.mark.parametrize("algorithm", selector.available("allreduce"))
    @pytest.mark.parametrize("n", (2, 4, 5, 8))
    def test_algorithms(self, algorithm, n):
        def work(comm):
            send = np.arange(32, dtype="f8") + comm.rank
            out = comm.allreduce_array(send, ops.SUM)
            expect = (
                np.arange(32, dtype="f8") * comm.size
                + sum(range(comm.size))
            )
            assert np.allclose(out, expect)
        run_forced("allreduce", algorithm, n, work)

    def test_int_dtype_preserved(self):
        def work(comm):
            out = comm.allreduce_array(np.ones(4, dtype="i4"), ops.SUM)
            assert out.dtype == np.dtype("i4")
            assert out[0] == comm.size
        run_on_threads(3, work)

    def test_max_op(self):
        def work(comm):
            out = comm.allreduce_array(
                np.array([float(comm.rank)]), ops.MAX
            )
            assert out[0] == comm.size - 1
        run_on_threads(6, work)

    def test_large_array_ring_path(self):
        def work(comm):
            send = np.full(50_000, 2.0)
            out = comm.allreduce_array(send, ops.SUM)
            assert np.allclose(out, 2.0 * comm.size)
        run_on_threads(5, work)


class TestGatherScatter:
    @pytest.mark.parametrize("algorithm", selector.available("gather"))
    @pytest.mark.parametrize("n", (2, 4, 5))
    def test_gather_algorithms(self, algorithm, n):
        def work(comm):
            for root in range(comm.size):
                out = comm.gather_bytes(bytes([comm.rank] * 3), root)
                if comm.rank == root:
                    assert out == [bytes([r] * 3) for r in range(comm.size)]
                else:
                    assert out is None
        run_forced("gather", algorithm, n, work)

    @pytest.mark.parametrize("algorithm", selector.available("scatter"))
    @pytest.mark.parametrize("n", (2, 4, 5))
    def test_scatter_algorithms(self, algorithm, n):
        def work(comm):
            for root in range(comm.size):
                blocks = (
                    [bytes([i] * 4) for i in range(comm.size)]
                    if comm.rank == root else None
                )
                out = comm.scatter_bytes(blocks, root)
                assert out == bytes([comm.rank] * 4)
        run_forced("scatter", algorithm, n, work)

    def test_scatter_unequal_blocks_rejected(self):
        def work(comm):
            blocks = [b"a", b"bb"] if comm.rank == 0 else None
            if comm.rank == 0:
                with pytest.raises(CountError):
                    comm.scatter_bytes(blocks, 0)
        run_on_threads(1, work)


class TestAllgather:
    @pytest.mark.parametrize("algorithm", selector.available("allgather"))
    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_algorithms_pow2(self, algorithm, n):
        def work(comm):
            out = comm.allgather_bytes(bytes([comm.rank] * 5))
            assert out == [bytes([r] * 5) for r in range(comm.size)]
        run_forced("allgather", algorithm, n, work)

    @pytest.mark.parametrize("n", (3, 5, 7))
    def test_non_pow2_sizes(self, n):
        def work(comm):
            out = comm.allgather_bytes(bytes([comm.rank]))
            assert out == [bytes([r]) for r in range(comm.size)]
        run_on_threads(n, work)


class TestAlltoall:
    @pytest.mark.parametrize("algorithm", selector.available("alltoall"))
    @pytest.mark.parametrize("n", (2, 3, 4, 5, 8))
    def test_algorithms(self, algorithm, n):
        def work(comm):
            blocks = [
                bytes([comm.rank, j, 0xAB]) for j in range(comm.size)
            ]
            out = comm.alltoall_bytes(blocks)
            assert out == [
                bytes([i, comm.rank, 0xAB]) for i in range(comm.size)
            ]
        run_forced("alltoall", algorithm, n, work)

    def test_block_count_mismatch_rejected(self):
        def work(comm):
            with pytest.raises(CountError):
                comm.alltoall_bytes([b"x"] * (comm.size + 1))
        run_on_threads(2, work)


class TestReduceScatter:
    @pytest.mark.parametrize(
        "algorithm", selector.available("reduce_scatter")
    )
    @pytest.mark.parametrize("n", (2, 4, 8))
    def test_algorithms(self, algorithm, n):
        def work(comm):
            p = comm.size
            send = np.arange(p * 4, dtype="f8") * (comm.rank + 1)
            out = comm.reduce_scatter_array(send, [4] * p, ops.SUM)
            factor = sum(range(1, p + 1))
            expect = np.arange(
                comm.rank * 4, comm.rank * 4 + 4, dtype="f8"
            ) * factor
            assert np.allclose(out, expect)
        run_forced("reduce_scatter", algorithm, n, work)

    def test_uneven_counts(self):
        def work(comm):
            counts = [1, 2, 3][: comm.size]
            send = np.ones(sum(counts))
            out = comm.reduce_scatter_array(send, counts, ops.SUM)
            assert out.shape[0] == counts[comm.rank]
            assert np.allclose(out, comm.size)
        run_on_threads(3, work)

    def test_count_sum_mismatch_rejected(self):
        def work(comm):
            with pytest.raises(CountError):
                comm.reduce_scatter_array(
                    np.ones(5), [1] * comm.size, ops.SUM
                )
        run_on_threads(3, work)


class TestScan:
    @pytest.mark.parametrize("algorithm", selector.available("scan"))
    @pytest.mark.parametrize("n", (1, 2, 4, 5, 8))
    def test_inclusive_prefix_sum(self, algorithm, n):
        def work(comm):
            out = comm.scan_array(
                np.array([comm.rank + 1.0, 1.0]), ops.SUM
            )
            assert out[0] == sum(range(1, comm.rank + 2))
            assert out[1] == comm.rank + 1
        run_forced("scan", algorithm, n, work)

    def test_scan_noncommutative_order(self):
        # Concatenation-like op encoded numerically: keep lower-rank value.
        first = ops.create(lambda a, b: a, commute=False)
        def work(comm):
            out = comm.scan_array(np.array([float(comm.rank)]), first)
            assert out[0] == 0.0  # prefix always starts at rank 0's value
        run_on_threads(4, work)


class TestVectorCollectives:
    @pytest.mark.parametrize("n", (1, 2, 4, 5))
    def test_gatherv_ragged(self, n):
        def work(comm):
            mine = bytes([comm.rank]) * (comm.rank + 1)
            out = comm.gatherv_bytes(mine, None, 0)
            if comm.rank == 0:
                assert out == [
                    bytes([r]) * (r + 1) for r in range(comm.size)
                ]
        run_on_threads(n, work)

    def test_gatherv_with_explicit_counts(self):
        def work(comm):
            counts = [r + 1 for r in range(comm.size)]
            mine = b"k" * (comm.rank + 1)
            out = comm.gatherv_bytes(mine, counts, 0)
            if comm.rank == 0:
                assert [len(b) for b in out] == counts
        run_on_threads(4, work)

    @pytest.mark.parametrize("n", (2, 4, 5))
    def test_scatterv_ragged(self, n):
        def work(comm):
            blocks = (
                [bytes([j]) * (j + 2) for j in range(comm.size)]
                if comm.rank == 1 % comm.size else None
            )
            out = comm.scatterv_bytes(blocks, 1 % comm.size)
            assert out == bytes([comm.rank]) * (comm.rank + 2)
        run_on_threads(n, work)

    @pytest.mark.parametrize("n", (2, 3, 5))
    def test_allgatherv(self, n):
        def work(comm):
            counts = [r * 2 + 1 for r in range(comm.size)]
            mine = bytes([comm.rank]) * counts[comm.rank]
            out = comm.allgatherv_bytes(mine, counts)
            assert out == [
                bytes([r]) * counts[r] for r in range(comm.size)
            ]
        run_on_threads(n, work)

    def test_allgatherv_count_mismatch_rejected(self):
        def work(comm):
            counts = [5] * comm.size
            with pytest.raises(CountError):
                comm.allgatherv_bytes(b"xx", counts)  # claims 5, sends 2
        run_on_threads(2, work)

    @pytest.mark.parametrize("n", (2, 3, 5, 8))
    def test_alltoallv_ragged(self, n):
        def work(comm):
            blocks = [
                bytes([comm.rank]) * (j + 1) for j in range(comm.size)
            ]
            out = comm.alltoallv_bytes(blocks)
            assert out == [
                bytes([i]) * (comm.rank + 1) for i in range(comm.size)
            ]
        run_on_threads(n, work)


class TestConcurrentCollectives:
    def test_back_to_back_mixed_collectives(self):
        """Consecutive different collectives must not cross-match."""
        def work(comm):
            for i in range(5):
                comm.barrier()
                b = comm.bcast_bytes(
                    bytes([i]) if comm.rank == 0 else None, 0
                )
                assert b == bytes([i])
                s = comm.allreduce_array(
                    np.array([float(i)]), ops.SUM
                )
                assert s[0] == i * comm.size
                g = comm.allgather_bytes(bytes([comm.rank, i]))
                assert g[comm.rank] == bytes([comm.rank, i])
        run_on_threads(5, work)
