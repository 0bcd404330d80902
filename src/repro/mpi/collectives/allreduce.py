"""Allreduce.

Algorithms:

* ``recursive_doubling`` — latency-optimal: log2(p) exchange rounds after
  folding non-power-of-two remainders (Rabenseifner's standard trick);
* ``ring`` — bandwidth-optimal: ring reduce-scatter of p segments followed
  by a ring allgather (this is the algorithm behind large-message allreduce
  in MVAPICH2 and in ML collective libraries);
* ``reduce_bcast`` — reduce to rank 0 then broadcast; also the fallback for
  non-commutative operations because reduce preserves rank order there.
"""

from __future__ import annotations

import numpy as np

from ..comm import Comm
from ..ops import Op
from . import selector
from .base import ctag, to_bytes
from .hierarchy import hier_allreduce, partition
from .schedule import flat, recursive_doubling_allreduce, ring_allreduce


def _recursive_doubling(
    comm: Comm, send: np.ndarray, op: Op, tag: int
) -> np.ndarray:
    return flat(comm, tag, recursive_doubling_allreduce, send, op)


def _ring(comm: Comm, send: np.ndarray, op: Op, tag: int) -> np.ndarray:
    return flat(comm, tag, ring_allreduce, send, op)


def _reduce_bcast(
    comm: Comm, send: np.ndarray, op: Op, tag: int
) -> np.ndarray:
    from .bcast import bcast
    from .reduce import reduce as reduce_to_root

    result = reduce_to_root(comm, send, op, root=0)
    payload = bcast(comm, to_bytes(result) if result is not None else None, 0)
    return np.frombuffer(payload, dtype=send.dtype).copy()


_ALGORITHMS = {
    "recursive_doubling": _recursive_doubling,
    "ring": _ring,
    "reduce_bcast": _reduce_bcast,
    "hierarchical": hier_allreduce,
}


def allreduce(comm: Comm, send: np.ndarray, op: Op) -> np.ndarray:
    """Elementwise reduce; every rank returns the full result."""
    send = np.ascontiguousarray(send)
    if comm.size == 1:
        return send.copy()
    if not op.Is_commutative():
        # Order-preserving path; the two-level tree reorders, so it is
        # never eligible here.
        alg = "reduce_bcast"
    else:
        alg = selector.pick(
            "allreduce", send.nbytes, comm.size, groups=partition(comm)
        )
        if alg == "ring" and send.shape[0] < comm.size:
            alg = "recursive_doubling"
    tag = ctag(comm)
    return _ALGORITHMS[alg](comm, send, op, tag)
