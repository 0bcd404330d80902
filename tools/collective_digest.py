#!/usr/bin/env python
"""Print one digest per forced collective algorithm, for parity checks.

Runs every flat tree/ring/doubling/pairwise algorithm (and allgatherv,
which shares the ring) at p = 1..17 and the hierarchical collectives at a
few group shapes, on seeded input (float64 SUM, int64 SUM and int64 MAX
for the reductions), and prints a SHA-256 of every rank's result per
case.  Run it against two source
trees and diff the output to show a refactor changed no result byte::

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

REDUCTIONS = (("f8", "SUM"), ("i8", "SUM"), ("i8", "MAX"))
COUNT = 37  # elements per rank: not a multiple of most p, so padding shows


def _values(dtype: str, rank: int) -> np.ndarray:
    rng = np.random.default_rng(1000 + rank)
    if dtype == "f8":
        return rng.standard_normal(COUNT)
    return rng.integers(-10**6, 10**6, COUNT).astype("i8")


def _bytes(rank: int, n: int) -> bytes:
    return np.random.default_rng(2000 + rank).bytes(n)


def _calls(p: int):
    """(name, op, algorithm, body) for every case at size p."""
    root = p - 1
    for dtype, opname in REDUCTIONS:
        op = getattr(ops, opname)
        tag = f"{dtype}-{opname}"
        for alg in ("recursive_doubling", "ring", "hierarchical"):
            yield (f"allreduce {tag}", "allreduce", alg,
                   lambda c, d=dtype, o=op: c.allreduce_array(
                       _values(d, c.rank), o))
        for alg in ("binomial", "rabenseifner"):
            for r in (0, root):
                yield (f"reduce root={r} {tag}", "reduce", alg,
                       lambda c, d=dtype, o=op, r=r: c.reduce_array(
                           _values(d, c.rank), o, r))
        yield (f"reduce_scatter {tag}", "reduce_scatter", "pairwise",
               lambda c, d=dtype, o=op: c.reduce_scatter_array(
                   np.tile(_values(d, c.rank), p), [COUNT] * p, o))
        for alg in ("recursive_doubling", "linear"):
            yield (f"scan {tag}", "scan", alg,
                   lambda c, d=dtype, o=op: c.scan_array(
                       _values(d, c.rank), o))
    for n in (100, 40000):
        for alg in ("binomial", "scatter_allgather", "hierarchical"):
            for r in (0, root):
                yield (f"bcast n={n} root={r}", "bcast", alg,
                       lambda c, n=n, r=r: c.bcast_bytes(
                           _bytes(r, n) if c.rank == r else None, r))
    for alg in ("binomial", "hierarchical"):
        for r in (0, root):
            yield (f"gather root={r}", "gather", alg,
                   lambda c, r=r: c.gather_bytes(_bytes(c.rank, 24), r))
    for alg in ("ring", "recursive_doubling", "hierarchical"):
        yield ("allgather", "allgather", alg,
               lambda c: c.allgather_bytes(_bytes(c.rank, 24)))
    yield ("allgatherv", "allgather", "ring",
           lambda c: c.allgatherv_bytes(
               _bytes(c.rank, 3 + c.rank), [3 + r for r in range(p)]))
    yield ("alltoall", "alltoall", "pairwise",
           lambda c: c.alltoall_bytes(
               [_bytes(c.rank * 100 + i, 300) for i in range(c.size)]))
    for alg in ("dissemination", "hierarchical"):
        yield ("barrier", "barrier", alg, lambda c: c.barrier())


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
            selector.force(op, alg)
            try:
                results = run_on_threads(p, body, timeout=60, groups=groups)
            finally:
                selector.force(op, None)
            print(f"p={p} groups={groups} {alg} {name} {_digest(results)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
