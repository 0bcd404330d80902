"""Property-based collective tests: semantics match a NumPy reference for
arbitrary payloads, ops, and world sizes."""

import os
import struct
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ops
from repro.mpi.collectives import schedule as s
from repro.mpi.collectives import selector
from repro.mpi.world import run_on_threads
from repro.simulator.engine import simulate
from repro.simulator.loggp import NetworkModel

world_sizes = st.integers(2, 6)
elem_counts = st.integers(1, 40)
seeds = st.integers(0, 2**31 - 1)

_SETTINGS = dict(max_examples=20, deadline=None)


def _rank_data(seed: int, rank: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed * 1000 + rank)
    return rng.integers(-100, 100, count).astype("f8")


@given(world_sizes, elem_counts, seeds)
@settings(**_SETTINGS)
def test_allreduce_sum_matches_numpy(n, count, seed):
    def work(comm):
        return comm.allreduce_array(
            _rank_data(seed, comm.rank, count), ops.SUM
        )

    results = run_on_threads(n, work)
    expect = np.sum(
        [_rank_data(seed, r, count) for r in range(n)], axis=0
    )
    for out in results:
        assert np.allclose(out, expect)


@given(world_sizes, elem_counts, seeds, st.sampled_from(["MAX", "MIN"]))
@settings(**_SETTINGS)
def test_allreduce_extrema_matches_numpy(n, count, seed, opname):
    op = getattr(ops, opname)
    reduction = np.max if opname == "MAX" else np.min

    def work(comm):
        return comm.allreduce_array(
            _rank_data(seed, comm.rank, count), op
        )

    results = run_on_threads(n, work)
    expect = reduction(
        [_rank_data(seed, r, count) for r in range(n)], axis=0
    )
    for out in results:
        assert np.allclose(out, expect)


@given(world_sizes, st.integers(0, 64), seeds)
@settings(**_SETTINGS)
def test_bcast_delivers_root_payload(n, nbytes, seed):
    rng = np.random.default_rng(seed)
    payload = bytes(rng.integers(0, 256, nbytes, dtype=np.uint8))
    root = seed % n

    def work(comm):
        return comm.bcast_bytes(
            payload if comm.rank == root else None, root
        )

    for out in run_on_threads(n, work):
        assert out == payload


@given(world_sizes, st.integers(1, 32), seeds)
@settings(**_SETTINGS)
def test_allgather_roundtrip(n, nbytes, seed):
    rng = np.random.default_rng(seed)
    blocks = [
        bytes(rng.integers(0, 256, nbytes, dtype=np.uint8))
        for _ in range(n)
    ]

    def work(comm):
        return comm.allgather_bytes(blocks[comm.rank])

    for out in run_on_threads(n, work):
        assert out == blocks


@given(world_sizes, st.integers(1, 16), seeds)
@settings(**_SETTINGS)
def test_alltoall_is_transpose(n, nbytes, seed):
    rng = np.random.default_rng(seed)
    matrix = [
        [bytes(rng.integers(0, 256, nbytes, dtype=np.uint8))
         for _ in range(n)]
        for _ in range(n)
    ]

    def work(comm):
        return comm.alltoall_bytes(matrix[comm.rank])

    results = run_on_threads(n, work)
    for r, out in enumerate(results):
        assert out == [matrix[i][r] for i in range(n)]


@given(world_sizes, elem_counts, seeds)
@settings(**_SETTINGS)
def test_scan_prefix_property(n, count, seed):
    def work(comm):
        return comm.scan_array(_rank_data(seed, comm.rank, count), ops.SUM)

    results = run_on_threads(n, work)
    running = np.zeros(count)
    for r in range(n):
        running = running + _rank_data(seed, r, count)
        assert np.allclose(results[r], running)


@given(world_sizes, st.integers(1, 8), seeds)
@settings(**_SETTINGS)
def test_reduce_scatter_equals_reduce_then_slice(n, per_rank, seed):
    def work(comm):
        send = _rank_data(seed, comm.rank, per_rank * comm.size)
        return comm.reduce_scatter_array(
            send, [per_rank] * comm.size, ops.SUM
        )

    results = run_on_threads(n, work)
    total = np.sum(
        [_rank_data(seed, r, per_rank * n) for r in range(n)], axis=0
    )
    for r in range(n):
        assert np.allclose(
            results[r], total[r * per_rank:(r + 1) * per_rank]
        )


@given(world_sizes, seeds)
@settings(**_SETTINGS)
def test_gatherv_concatenation_order(n, seed):
    rng = np.random.default_rng(seed)
    lengths = [int(rng.integers(0, 10)) + 1 for _ in range(n)]
    blocks = [
        bytes(rng.integers(0, 256, lengths[r], dtype=np.uint8))
        for r in range(n)
    ]

    def work(comm):
        return comm.gatherv_bytes(blocks[comm.rank], None, 0)

    results = run_on_threads(n, work)
    assert results[0] == blocks
    for r in range(1, n):
        assert results[r] is None


# ---------------------------------------------------------------------------
# Runtime == schedule.  Every algorithm written in
# repro.mpi.collectives.schedule, forced, at p = 1..17: the result is
# bitwise equal to a NumPy oracle, and the messages the runtime sends
# (comm.msgs_sent) are exactly the messages the simulator's engine
# delivers when it runs the same schedule.
# ---------------------------------------------------------------------------

SCHEDULED = [
    ("bcast", "binomial"), ("bcast", "scatter_allgather"),
    ("reduce", "binomial"), ("reduce", "rabenseifner"),
    ("allreduce", "recursive_doubling"), ("allreduce", "ring"),
    ("gather", "binomial"),
    ("allgather", "ring"), ("allgather", "recursive_doubling"),
    ("alltoall", "pairwise"), ("barrier", "dissemination"),
]
_EXACT = {"SUM": np.add, "MAX": np.maximum, "BXOR": np.bitwise_xor}


def _runtime(op, comm, d):
    r = comm.rank
    if op == "bcast":
        return comm.bcast_bytes(d.blks[r] if r == d.root else None, d.root)
    if op == "reduce":
        return comm.reduce_array(d.xs[r], d.op, d.root)
    if op == "allreduce":
        return comm.allreduce_array(d.xs[r], d.op)
    if op == "gather":
        return comm.gather_bytes(d.blks[r], d.root)
    if op == "allgather":
        return comm.allgather_bytes(d.blks[r])
    if op == "alltoall":
        return comm.alltoall_bytes(d.matrix[r])
    return comm.barrier()


def _bcast_with_header(body, members, me, root, payload, nbytes):
    # bcast() first broadcasts the payload length on a binomial tree.
    hdr = struct.pack("<q", nbytes) if me == root else None
    yield from s.binomial_bcast(members, me, root, hdr, 8)
    yield from body(members, me, root, payload, nbytes)


def _schedule(op, alg, r, d):
    m = range(d.p)
    if op == "bcast":
        body = {"binomial": s.binomial_bcast,
                "scatter_allgather": s.scatter_allgather_bcast}[alg]
        payload = d.blks[d.root]
        return _bcast_with_header(
            body, m, r, d.root, payload if r == d.root else None,
            len(payload),
        )
    if op == "reduce":
        fn = {"binomial": s.binomial_reduce,
              "rabenseifner": s.rabenseifner_reduce}[alg]
        return fn(m, r, d.root, d.xs[r], d.op)
    if op == "allreduce":
        fn = {"recursive_doubling": s.recursive_doubling_allreduce,
              "ring": s.ring_allreduce}[alg]
        return fn(m, r, d.xs[r], d.op)
    if op == "gather":
        return s.binomial_gather(m, r, d.root, d.blks[r])
    if op == "allgather":
        if alg == "recursive_doubling" and d.p & (d.p - 1) == 0:
            return s.recursive_doubling_allgather(m, r, d.blks[r])
        # The runtime runs the ring when doubling needs a power of two.
        blocks = [None] * d.p
        blocks[r] = d.blks[r]
        return s.ring_allgather(m, r, blocks, [len(d.blks[r])] * d.p)
    if op == "alltoall":
        return s.pairwise_alltoall(m, r, d.matrix[r], len(d.blks[0]))
    return s.dissemination_barrier(m, r)


def _oracle(op, r, d):
    if op == "bcast":
        return d.blks[d.root]
    if op in ("reduce", "allreduce"):
        if op == "reduce" and r != d.root:
            return None
        return _EXACT[d.opname].reduce(np.stack(d.xs), axis=0)
    if op == "gather":
        return d.blks if r == d.root else None
    if op == "allgather":
        return d.blks
    if op == "alltoall":
        return [d.matrix[i][r] for i in range(d.p)]
    return None


@pytest.mark.parametrize("op, alg", SCHEDULED)
@given(
    st.integers(1, 17), st.sampled_from(sorted(_EXACT)),
    st.integers(0, 40), seeds,
)
@settings(max_examples=10, deadline=None)
def test_runtime_runs_the_schedule(op, alg, p, opname, extra, seed):
    rng = np.random.default_rng(seed)
    # count >= p keeps ring/rabenseifner from falling back to trees.
    count = p + extra % 8
    d = SimpleNamespace(
        p=p, root=seed % p, opname=opname, op=getattr(ops, opname),
        xs=[rng.integers(-2**40, 2**40, count).astype("i8")
            for _ in range(p)],
        blks=[rng.bytes(extra) for _ in range(p)],
        matrix=[[rng.bytes(extra) for _ in range(p)] for _ in range(p)],
    )

    def work(comm):
        def sent():
            counters = comm.endpoint.telemetry.snapshot()["metrics"]
            return counters["counters"].get("comm.msgs_sent", 0)

        before = sent()
        out = _runtime(op, comm, d)
        return out, sent() - before

    selector.force(op, alg)
    try:
        with mock.patch.dict(os.environ, {"OMBPY_METRICS": "1"}):
            results = run_on_threads(p, work, timeout=60)
    finally:
        selector.force(op, None)

    for r, (out, _) in enumerate(results):
        expect = _oracle(op, r, d)
        if isinstance(expect, np.ndarray):
            assert out.dtype == expect.dtype
            assert out.tobytes() == expect.tobytes()
        else:
            assert out == expect
    tally = simulate(
        [_schedule(op, alg, r, d) for r in range(p)],
        NetworkModel(alpha_us=1.0, beta_us_per_byte=0.0),
    )
    assert sum(n for _, n in results) == tally.msgs
