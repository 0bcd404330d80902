"""Gather of equal-size blocks to a root.

Algorithms:

* ``binomial`` — subtree blocks flow up a binomial tree; each internal node
  forwards a contiguous range of blocks, so messages stay single-copy;
* ``linear`` — every rank sends straight to the root.
"""

from __future__ import annotations

from ..comm import Comm
from . import selector
from .base import crecv, csend, ctag
from .hierarchy import hier_gather, partition
from .schedule import binomial_gather, flat


def _binomial(
    comm: Comm, payload: bytes, root: int, tag: int
) -> list[bytes] | None:
    return flat(comm, tag, binomial_gather, root, payload)


def _linear(
    comm: Comm, payload: bytes, root: int, tag: int
) -> list[bytes] | None:
    rank, size = comm.rank, comm.size
    if rank != root:
        csend(comm, root, tag, payload)
        return None
    out: list[bytes] = [b""] * size
    out[root] = payload
    block = len(payload)
    for src in range(size):
        if src != root:
            out[src] = crecv(comm, src, tag, block)
    return out


_ALGORITHMS = {
    "binomial": _binomial,
    "linear": _linear,
    "hierarchical": hier_gather,
}


def gather(comm: Comm, payload: bytes, root: int) -> list[bytes] | None:
    """Gather every rank's equal-size block to ``root`` (None elsewhere)."""
    if comm.size == 1:
        return [payload]
    tag = ctag(comm)
    alg = selector.pick(
        "gather", len(payload), comm.size, groups=partition(comm)
    )
    return _ALGORITHMS[alg](comm, payload, root, tag)
