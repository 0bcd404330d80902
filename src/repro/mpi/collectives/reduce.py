"""Reduce to a root.

Algorithms:

* ``binomial`` — partial results flow up a binomial tree (commutative ops);
* ``rabenseifner`` — pairwise reduce-scatter followed by a binomial
  gather of result segments to the root; bandwidth-optimal for long
  messages;
* ``linear`` — every rank sends to the root, which folds contributions in
  rank order.  Used automatically for non-commutative operations, where
  combining order must match ``x0 op x1 op ... op x(p-1)``.
"""

from __future__ import annotations

import numpy as np

from ..comm import Comm
from ..ops import Op
from . import selector
from .base import crecv, csend, ctag, to_bytes
from .schedule import binomial_reduce, flat, rabenseifner_reduce


def _binomial(
    comm: Comm, send: np.ndarray, op: Op, root: int, tag: int
) -> np.ndarray | None:
    return flat(comm, tag, binomial_reduce, root, send, op)


def _linear(
    comm: Comm, send: np.ndarray, op: Op, root: int, tag: int
) -> np.ndarray | None:
    """Rank-ordered fold at the root — valid for non-commutative ops."""
    rank, size = comm.rank, comm.size
    if rank != root:
        csend(comm, root, tag, to_bytes(send))
        return None
    parts: list[np.ndarray] = []
    for src in range(size):
        if src == root:
            parts.append(send)
        else:
            parts.append(
                np.frombuffer(
                    crecv(comm, src, tag, send.nbytes), dtype=send.dtype
                )
            )
    acc = parts[0].copy()
    for part in parts[1:]:
        acc = op(acc, part)
    return acc


def _rabenseifner(
    comm: Comm, send: np.ndarray, op: Op, root: int, tag: int
) -> np.ndarray | None:
    return flat(comm, tag, rabenseifner_reduce, root, send, op)


_ALGORITHMS = {
    "binomial": _binomial,
    "rabenseifner": _rabenseifner,
    "linear": _linear,
}


def reduce(
    comm: Comm, send: np.ndarray, op: Op, root: int
) -> np.ndarray | None:
    """Elementwise reduce to ``root``; non-roots return None."""
    send = np.ascontiguousarray(send)
    if comm.size == 1:
        return send.copy()
    tag = ctag(comm)
    if not op.Is_commutative():
        alg = "linear"
    else:
        alg = selector.pick("reduce", send.nbytes, comm.size)
        if alg == "rabenseifner" and send.shape[0] < comm.size:
            alg = "binomial"  # too few elements to segment
    return _ALGORITHMS[alg](comm, send, op, root, tag)
