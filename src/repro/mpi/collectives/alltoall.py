"""Personalized all-to-all exchange of equal-size blocks.

Algorithms:

* ``bruck`` — log2(p) rounds; each round ships every block whose remaining
  forward distance has the round's bit set.  Latency-optimal for small
  blocks (O(log p) messages of up to n*p/2 bytes each);
* ``pairwise`` — p-1 rounds of direct sendrecv with rotating partners;
  bandwidth-optimal for large blocks.
"""

from __future__ import annotations

from typing import Sequence

from ..comm import Comm
from . import selector
from .base import check_equal_blocks, csendrecv, ctag
from .schedule import flat, pairwise_alltoall


def _pairwise(
    comm: Comm, blocks: Sequence[bytes], tag: int, block: int
) -> list[bytes]:
    return flat(comm, tag, pairwise_alltoall, blocks, block)


def _bruck(
    comm: Comm, blocks: Sequence[bytes], tag: int, block: int
) -> list[bytes]:
    rank, size = comm.rank, comm.size
    # Phase 1: index blocks by remaining forward distance to destination.
    # tmp[i] holds the block whose destination is (rank + i) % size.
    tmp: list[bytes] = [blocks[(rank + i) % size] for i in range(size)]

    # Phase 2: route by distance bits.  In round k every rank ships its
    # blocks with bit k of the distance set forward by 2^k; by symmetry
    # each rank receives exactly the replacement blocks for those slots.
    pof2 = 1
    while pof2 < size:
        dest = (rank + pof2) % size
        source = (rank - pof2) % size
        idxs = [i for i in range(size) if i & pof2]
        packed = b"".join(tmp[i] for i in idxs)
        got = csendrecv(comm, packed, dest, source, tag, len(packed))
        for j, i in enumerate(idxs):
            tmp[i] = got[j * block:(j + 1) * block]
        pof2 <<= 1

    # Phase 3: tmp[i] is now the block destined to me whose source is
    # (rank - i) % size — undo the rotation.
    out: list[bytes] = [b""] * size
    for i in range(size):
        out[(rank - i) % size] = tmp[i]
    return out


_ALGORITHMS = {"bruck": _bruck, "pairwise": _pairwise}


def alltoall(comm: Comm, blocks: Sequence[bytes]) -> list[bytes]:
    """Exchange block ``i`` with rank ``i``; returns blocks received."""
    block = check_equal_blocks(blocks, comm.size)
    if comm.size == 1:
        return [blocks[0]]
    alg = selector.pick("alltoall", block, comm.size)
    tag = ctag(comm)
    return _ALGORITHMS[alg](comm, blocks, tag, block)
