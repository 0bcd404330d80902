"""Inclusive prefix reduction (MPI_Scan).

Algorithms:

* ``recursive_doubling`` — log2(p) rounds; each rank forwards its running
  window reduction and folds windows arriving from lower ranks.  Preserves
  rank order, so it is safe for non-commutative operations too;
* ``linear`` — a chain through the ranks (baseline/ablation only).
"""

from __future__ import annotations

import numpy as np

from ..comm import Comm
from ..ops import Op
from . import selector
from .base import crecv, csend, ctag, to_bytes


def _recursive_doubling(
    comm: Comm, send: np.ndarray, op: Op, tag: int
) -> np.ndarray:
    rank, size = comm.rank, comm.size
    nbytes = send.nbytes
    dtype = send.dtype
    result = send.copy()   # reduction over ranks [?..rank] -> goal [0..rank]
    window = send.copy()   # reduction over a contiguous trailing window

    dist = 1
    while dist < size:
        # Ship my window up; fold the window arriving from below.  Sends are
        # buffered (eager), so same-round send+recv cannot deadlock.
        if rank + dist < size:
            csend(comm, rank + dist, tag, to_bytes(window))
        if rank - dist >= 0:
            part = np.frombuffer(
                crecv(comm, rank - dist, tag, nbytes), dtype=dtype
            )
            # part covers ranks [rank - dist - (dist-1) .. rank - dist];
            # prepending keeps contributions in ascending rank order.
            window = op(part, window)
            result = op(part, result)
        dist <<= 1
    return result


def _linear(comm: Comm, send: np.ndarray, op: Op, tag: int) -> np.ndarray:
    rank, size = comm.rank, comm.size
    if rank == 0:
        acc = send.copy()
    else:
        part = np.frombuffer(
            crecv(comm, rank - 1, tag, send.nbytes), dtype=send.dtype
        )
        acc = op(part, send)
    if rank + 1 < size:
        csend(comm, rank + 1, tag, to_bytes(acc))
    return acc


_ALGORITHMS = {
    "recursive_doubling": _recursive_doubling,
    "linear": _linear,
}


def scan(comm: Comm, send: np.ndarray, op: Op) -> np.ndarray:
    """Return the inclusive prefix reduction over ranks 0..rank."""
    send = np.ascontiguousarray(send)
    if comm.size == 1:
        return send.copy()
    alg = selector.pick("scan", send.nbytes, comm.size)
    tag = ctag(comm)
    return _ALGORITHMS[alg](comm, send, op, tag)
