"""Property-based collective tests: semantics match a NumPy reference for
arbitrary payloads, ops, and world sizes."""

import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import ops
from repro.mpi.collectives import schedule as s
from repro.mpi.collectives import selector
from repro.mpi.collectives.hierarchy import hierarchical_bcast
from repro.mpi.topology import parse_groups
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
# Runtime == schedule.  Every flat algorithm in the selector's table,
# forced, at p = 1..17: the result is bitwise equal to a NumPy oracle,
# and the messages the runtime sends (comm.msgs_sent) are exactly the
# messages the simulator's engine delivers when it runs the schedule the
# table names for the same arguments.
# ---------------------------------------------------------------------------

SCHEDULED = [
    (op, alg)
    for op in sorted(selector.ALGORITHMS)
    for alg in selector.available(op)
    if alg != "hierarchical"
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
    if op == "scatter":
        return comm.scatter_bytes(d.blks if r == d.root else None, d.root)
    if op == "allgather":
        return comm.allgather_bytes(d.blks[r])
    if op == "alltoall":
        return comm.alltoall_bytes(d.matrix[r])
    if op == "reduce_scatter":
        return comm.reduce_scatter_array(d.rs[r], d.counts, d.op)
    if op == "scan":
        return comm.scan_array(d.xs[r], d.op)
    return comm.barrier()


def _args(op, r, d):
    """The table's schedule arguments for rank r (after the comm's
    ``members, me``)."""
    n = len(d.blks[0])
    if op == "bcast":
        return d.root, d.blks[d.root] if r == d.root else None, n
    if op == "reduce":
        return d.root, d.xs[r], d.op
    if op in ("allreduce", "scan"):
        return d.xs[r], d.op
    if op == "gather":
        return d.root, d.blks[r]
    if op == "scatter":
        return d.root, d.blks if r == d.root else None, [n] * d.p
    if op == "allgather":
        return (d.blks[r],)
    if op == "alltoall":
        return d.matrix[r], n
    if op == "reduce_scatter":
        return d.rs[r], d.counts, d.op
    return ()


def _program(op, r, d, part=None):
    # The selector's eligibility fallbacks decide what a forced
    # algorithm really runs at these arguments.
    alg = selector.pick(op, 0, d.p, part, count=len(d.xs[0]))
    members = part if alg == "hierarchical" else range(d.p)
    body = selector.ALGORITHMS[op][alg](members, r, *_args(op, r, d))
    if op in ("bcast", "scatter"):
        # Non-roots learn the size from a length header first, which
        # rides the hierarchy on a grouped communicator.
        n = len(d.blks[0])
        hdr = s.LEN.pack(n) if r == d.root else None
        if part is not None and op in selector.HIERARCHICAL_OPS:
            yield from hierarchical_bcast(part, r, d.root, hdr, s.LEN.size)
        else:
            yield from s.binomial_bcast(
                range(d.p), r, d.root, hdr, s.LEN.size
            )
    return (yield from body)


def _oracle(op, r, d):
    reduce = _EXACT[d.opname].reduce
    if op == "bcast":
        return d.blks[d.root]
    if op in ("reduce", "allreduce"):
        if op == "reduce" and r != d.root:
            return None
        return reduce(np.stack(d.xs), axis=0)
    if op == "gather":
        return d.blks if r == d.root else None
    if op == "scatter":
        return d.blks[r]
    if op == "allgather":
        return d.blks
    if op == "alltoall":
        return [d.matrix[i][r] for i in range(d.p)]
    if op == "reduce_scatter":
        lo = sum(d.counts[:r])
        return reduce(np.stack(d.rs), axis=0)[lo:lo + d.counts[r]]
    if op == "scan":
        return reduce(np.stack(d.xs[:r + 1]), axis=0)
    return None


def _data(p, opname, extra, seed):
    rng = np.random.default_rng(seed)
    # count >= p keeps ring/rabenseifner from falling back to trees.
    count = p + extra % 8
    counts = [int(c) for c in rng.integers(0, 4, p)]
    return SimpleNamespace(
        p=p, root=seed % p, opname=opname, op=getattr(ops, opname),
        xs=[rng.integers(-2**40, 2**40, count).astype("i8")
            for _ in range(p)],
        counts=counts,
        rs=[rng.integers(-2**40, 2**40, sum(counts)).astype("i8")
            for _ in range(p)],
        blks=[rng.bytes(extra) for _ in range(p)],
        matrix=[[rng.bytes(extra) for _ in range(p)] for _ in range(p)],
    )


@pytest.mark.parametrize("op, alg", SCHEDULED)
@given(
    st.integers(1, 17), st.sampled_from(sorted(_EXACT)),
    st.integers(0, 40), seeds,
)
@settings(max_examples=10, deadline=None)
def test_runtime_runs_the_schedule(op, alg, p, opname, extra, seed):
    d = _data(p, opname, extra, seed)

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
        tally = simulate(
            [_program(op, r, d) for r in range(p)],
            NetworkModel(alpha_us=1.0, beta_us_per_byte=0.0),
        )
    finally:
        selector.force(op, None)

    for r, (out, _) in enumerate(results):
        expect = _oracle(op, r, d)
        if isinstance(expect, np.ndarray):
            assert out.dtype == expect.dtype
            assert out.tobytes() == expect.tobytes()
        else:
            assert out == expect
    assert sum(n for _, n in results) == tally.msgs


# ---------------------------------------------------------------------------
# The rendezvous guard.  Every schedule in the table completes when a
# blocking send waits for its receiver, and delivers the same messages as
# under eager sends: flat ones at p = 1..17, the two-level ones at the
# group shapes tools/collective_digest.py runs.
# ---------------------------------------------------------------------------

HIERARCHICAL = [
    (op, shape)
    for op in sorted(selector.HIERARCHICAL_OPS)
    for shape in ((4, "2x2"), (8, "3,2,3"), (8, "auto"), (17, "auto"))
]


def _completes_under_rendezvous(op, alg, p, part=None):
    net = NetworkModel(alpha_us=1.0, beta_us_per_byte=0.0)
    selector.force(op, alg)
    try:
        for extra in (0, 5, 40):
            d = _data(p, "SUM", extra, seed=p * 41 + extra)
            eager = simulate([_program(op, r, d, part) for r in range(p)], net)
            strict = simulate(
                [_program(op, r, d, part) for r in range(p)], net,
                rendezvous=True,
            )
            assert strict.msgs == eager.msgs, (p, extra)
    finally:
        selector.force(op, None)


@pytest.mark.parametrize("op, alg", SCHEDULED)
def test_flat_schedule_completes_under_rendezvous(op, alg):
    for p in range(1, 18):
        _completes_under_rendezvous(op, alg, p)


@pytest.mark.parametrize("op, shape", HIERARCHICAL)
def test_hierarchical_schedule_completes_under_rendezvous(op, shape):
    p, spec = shape
    groups = parse_groups(spec, p)
    part = [list(groups.members(g)) for g in range(groups.n_groups)]
    _completes_under_rendezvous(op, "hierarchical", p, part)
