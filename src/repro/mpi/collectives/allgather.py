"""Allgather of equal-size blocks.

Algorithms:

* ``recursive_doubling`` — log2(p) rounds exchanging doubling block ranges
  (power-of-two communicator sizes; others fall back to ring);
* ``ring`` — p-1 neighbour steps circulating one block at a time,
  bandwidth-optimal for long messages;
* ``linear`` — gather to rank 0 then broadcast (baseline/ablation only).
"""

from __future__ import annotations

from ..comm import Comm
from . import selector
from .base import ctag, is_power_of_two
from .hierarchy import hier_allgather, partition
from .schedule import flat, recursive_doubling_allgather, ring_allgather


def _recursive_doubling(
    comm: Comm, payload: bytes, tag: int
) -> list[bytes]:
    return flat(comm, tag, recursive_doubling_allgather, payload)


def _ring(comm: Comm, payload: bytes, tag: int) -> list[bytes]:
    blocks: list = [None] * comm.size
    blocks[comm.rank] = payload
    return flat(comm, tag, ring_allgather, blocks, [len(payload)] * comm.size)


def _linear(comm: Comm, payload: bytes, tag: int) -> list[bytes]:
    from .bcast import bcast
    from .gather import gather

    gathered = gather(comm, payload, root=0)
    joined = bcast(
        comm, b"".join(gathered) if gathered is not None else None, 0
    )
    block = len(payload)
    return [
        joined[i * block:(i + 1) * block] for i in range(comm.size)
    ]


_ALGORITHMS = {
    "recursive_doubling": _recursive_doubling,
    "ring": _ring,
    "linear": _linear,
    "hierarchical": hier_allgather,
}


def allgather(comm: Comm, payload: bytes) -> list[bytes]:
    """Every rank returns the ordered list of all ranks' blocks."""
    if comm.size == 1:
        return [payload]
    alg = selector.pick(
        "allgather", len(payload), comm.size, groups=partition(comm)
    )
    if alg == "recursive_doubling" and not is_power_of_two(comm.size):
        alg = "ring"
    tag = ctag(comm)
    return _ALGORITHMS[alg](comm, payload, tag)
