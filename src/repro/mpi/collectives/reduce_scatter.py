"""Reduce-scatter: elementwise reduce, then scatter result segments.

Algorithms:

* ``recursive_halving`` — log2(p) rounds exchanging halves of the remaining
  range (power-of-two sizes, commutative ops);
* ``pairwise`` — p-1 rounds; every rank sends each peer its contribution to
  that peer's segment and folds incoming contributions in rank order, which
  also makes it safe for non-commutative operations.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..comm import Comm
from ..exceptions import CountError
from ..ops import Op
from . import selector
from .base import csendrecv, ctag, is_power_of_two, to_bytes
from .schedule import flat, pairwise_reduce_scatter


def _segment_bounds(counts: Sequence[int]) -> list[tuple[int, int]]:
    bounds = []
    off = 0
    for c in counts:
        bounds.append((off, off + c))
        off += c
    return bounds


def _recursive_halving(
    comm: Comm,
    send: np.ndarray,
    counts: Sequence[int],
    op: Op,
    tag: int,
) -> np.ndarray:
    """Recursive halving (requires power-of-two communicator size)."""
    rank, size = comm.rank, comm.size
    bounds = _segment_bounds(counts)
    itemsize = send.dtype.itemsize
    work = send.copy()

    # Active range of *ranks* whose segments I still accumulate.
    lo_rank, hi_rank = 0, size  # [lo, hi)
    mask = size // 2
    while mask >= 1:
        mid_rank = lo_rank + (hi_rank - lo_rank) // 2
        partner = rank ^ mask
        if rank < mid_rank:
            keep_lo, keep_hi = lo_rank, mid_rank
            send_lo, send_hi = mid_rank, hi_rank
        else:
            keep_lo, keep_hi = mid_rank, hi_rank
            send_lo, send_hi = lo_rank, mid_rank
        s_lo, s_hi = bounds[send_lo][0], bounds[send_hi - 1][1]
        k_lo, k_hi = bounds[keep_lo][0], bounds[keep_hi - 1][1]
        got = csendrecv(
            comm, to_bytes(work[s_lo:s_hi]), partner, partner, tag,
            (k_hi - k_lo) * itemsize,
        )
        part = np.frombuffer(got, dtype=send.dtype)
        work[k_lo:k_hi] = op(work[k_lo:k_hi], part)
        lo_rank, hi_rank = keep_lo, keep_hi
        mask //= 2

    my_lo, my_hi = bounds[rank]
    return work[my_lo:my_hi].copy()


def reduce_scatter(
    comm: Comm,
    send: np.ndarray,
    counts: Sequence[int],
    op: Op,
) -> np.ndarray:
    """Reduce elementwise, then return this rank's ``counts[rank]`` slice."""
    send = np.ascontiguousarray(send)
    size = comm.size
    if len(counts) != size:
        raise CountError(
            f"reduce_scatter needs {size} counts, got {len(counts)}"
        )
    if any(c < 0 for c in counts):
        raise CountError("negative count in reduce_scatter")
    total = sum(counts)
    if send.shape[0] != total:
        raise CountError(
            f"send array has {send.shape[0]} elements, counts sum to {total}"
        )
    if size == 1:
        return send.copy()

    alg = selector.pick("reduce_scatter", send.nbytes, size)
    if alg == "recursive_halving" and (
        not is_power_of_two(size) or not op.Is_commutative()
    ):
        alg = "pairwise"
    tag = ctag(comm)
    if alg == "recursive_halving":
        return _recursive_halving(comm, send, counts, op, tag)
    return flat(comm, tag, pairwise_reduce_scatter, send, counts, op)
