#!/usr/bin/env python
"""Print one digest per forced collective algorithm, for parity checks.

Runs every algorithm ``selector.available`` lists for every blocking
collective (flat ones at p = 1..17, hierarchical ones at a few group
shapes) plus the four v-variants, on seeded input (float64 SUM, int64
SUM, int64 MAX and a non-commutative user op on both dtypes for the
reductions), and prints a SHA-256 of every rank's result per case.  Run
it against two source trees and diff the output to show a refactor
changed no result byte::

    PYTHONPATH=src python tools/collective_digest.py > new.txt
    PYTHONPATH=/path/to/other/src python tools/collective_digest.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.mpi import ops
from repro.mpi.collectives import selector
from repro.mpi.world import run_on_threads

# Not commutative (and not associative either), so any change in the
# order contributions are combined in changes the digest.
NONCOMM = ops.create(lambda a, b: 3 * a - b, commute=False, name="NONCOMM")
REDUCTIONS = (
    ("f8", "SUM"), ("i8", "SUM"), ("i8", "MAX"),
    ("f8", "NONCOMM"), ("i8", "NONCOMM"),
)
COUNT = 37  # elements per rank: not a multiple of most p, so padding shows


def _values(dtype: str, rank: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + rank)
    if dtype == "f8":
        return rng.standard_normal(COUNT)
    return rng.integers(-10**6, 10**6, COUNT).astype("i8")


def _bytes(rank: int, n: int) -> bytes:
    return np.random.default_rng(2000 + rank).bytes(n)


def _ragged(rank: int, i: int) -> bytes:
    return _bytes(rank * 100 + i, (3 * rank + 5 * i) % 11)


def _calls(p: int):
    """(name, op, algorithm, body) for every case at size p; ``op`` None
    for the v-variants, which have no algorithm choice."""
    root = p - 1
    for dtype, opname in REDUCTIONS:
        op = NONCOMM if opname == "NONCOMM" else getattr(ops, opname)
        tag = f"{dtype}-{opname}"
        for alg in selector.available("allreduce"):
            yield (f"allreduce {tag}", "allreduce", alg,
                   lambda c, d=dtype, o=op: c.allreduce_array(
                       _values(d, c.rank), o))
        for alg in selector.available("reduce"):
            for r in (0, root):
                yield (f"reduce root={r} {tag}", "reduce", alg,
                       lambda c, d=dtype, o=op, r=r: c.reduce_array(
                           _values(d, c.rank), o, r))
        for alg in selector.available("reduce_scatter"):
            yield (f"reduce_scatter {tag}", "reduce_scatter", alg,
                   lambda c, d=dtype, o=op: c.reduce_scatter_array(
                       np.tile(_values(d, c.rank), p), [COUNT] * p, o))
        for alg in selector.available("scan"):
            yield (f"scan {tag}", "scan", alg,
                   lambda c, d=dtype, o=op: c.scan_array(
                       _values(d, c.rank), o))
    for n in (100, 40000):
        for alg in selector.available("bcast"):
            for r in (0, root):
                yield (f"bcast n={n} root={r}", "bcast", alg,
                       lambda c, n=n, r=r: c.bcast_bytes(
                           _bytes(r, n) if c.rank == r else None, r))
    for alg in selector.available("gather"):
        for r in (0, root):
            yield (f"gather root={r}", "gather", alg,
                   lambda c, r=r: c.gather_bytes(_bytes(c.rank, 24), r))
    for alg in selector.available("scatter"):
        for r in (0, root):
            yield (f"scatter root={r}", "scatter", alg,
                   lambda c, r=r: c.scatter_bytes(
                       [_bytes(100 + i, 24) for i in range(p)]
                       if c.rank == r else None, r))
    for alg in selector.available("allgather"):
        yield ("allgather", "allgather", alg,
               lambda c: c.allgather_bytes(_bytes(c.rank, 24)))
    for n in (5, 300):
        for alg in selector.available("alltoall"):
            yield (f"alltoall n={n}", "alltoall", alg,
                   lambda c, n=n: c.alltoall_bytes(
                       [_bytes(c.rank * 100 + i, n) for i in range(c.size)]))
    for alg in selector.available("barrier"):
        yield ("barrier", "barrier", alg, lambda c: c.barrier())
    yield ("allgatherv", None, "ring",
           lambda c: c.allgatherv_bytes(
               _bytes(c.rank, 3 + c.rank), [3 + r for r in range(p)]))
    for r in (0, root):
        for counts in (None, [(3 * i + 5 * r) % 11 for i in range(p)]):
            yield (f"gatherv root={r} counts={counts is not None}", None,
                   "linear",
                   lambda c, r=r, k=counts: c.gatherv_bytes(
                       _ragged(c.rank, r), k, r))
        yield (f"scatterv root={r}", None, "linear",
               lambda c, r=r: c.scatterv_bytes(
                   [_ragged(i, r) for i in range(p)] if c.rank == r
                   else None, r))
    yield ("alltoallv", None, "pairwise",
           lambda c: c.alltoallv_bytes(
               [_ragged(c.rank, i) for i in range(c.size)]))


def _digest(results) -> str:
    h = hashlib.sha256()
    for out in results:
        if isinstance(out, np.ndarray):
            h.update(out.dtype.str.encode() + out.tobytes())
        elif isinstance(out, list):
            h.update(b"|".join(out))
        else:
            h.update(repr(out).encode() if out is None else out)
        h.update(b"/")
    return h.hexdigest()[:16]


def main() -> int:
    shapes = [(p, None) for p in range(1, 18)] + [
        (4, "2x2"), (8, "3,2,3"), (8, "auto"), (17, "auto"),
    ]
    for p, groups in shapes:
        for name, op, alg, body in _calls(p):
            if (alg == "hierarchical") != (groups is not None):
                continue
            if op is not None:
                selector.force(op, alg)
            try:
                results = run_on_threads(p, body, timeout=60, groups=groups)
            finally:
                if op is not None:
                    selector.force(op, None)
            print(f"p={p} groups={groups} {alg} {name} {_digest(results)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
