"""Vector (variable-block-size) collectives: Gatherv/Scatterv/Allgatherv/
Alltoallv.

Real MPI libraries mostly use linear/root-centric algorithms for the
v-variants because block-size irregularity defeats the packing tricks of
the equal-size algorithms; these implementations follow suit, except for
allgatherv which uses the ring (counts are global knowledge there).
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from ..comm import Comm
from ..exceptions import CountError
from .base import crecv, csend, csendrecv, ctag
from .schedule import flat, ring_allgather

_LEN = struct.Struct("<q")


def gatherv(
    comm: Comm,
    payload: bytes,
    counts: Sequence[int] | None,
    root: int,
) -> list[bytes] | None:
    """Gather variable-size blocks to ``root``.

    ``counts`` (expected byte counts per rank) is only significant at the
    root; None lets the root size receives from the incoming envelopes.
    """
    rank, size = comm.rank, comm.size
    tag = ctag(comm)
    if size == 1:
        return [payload]
    if rank != root:
        csend(comm, root, tag, payload)
        return None
    if counts is not None and len(counts) != size:
        raise CountError(f"gatherv needs {size} counts, got {len(counts)}")
    out: list[bytes] = [b""] * size
    out[root] = payload
    for src in range(size):
        if src == root:
            continue
        limit = counts[src] if counts is not None else 1 << 62
        out[src] = crecv(comm, src, tag, limit)
    return out


def scatterv(
    comm: Comm,
    blocks: Sequence[bytes] | None,
    root: int,
) -> bytes:
    """Scatter variable-size blocks from ``root``; returns the local block."""
    rank, size = comm.rank, comm.size
    tag = ctag(comm)
    if size == 1:
        assert blocks is not None
        return blocks[0]
    if rank == root:
        assert blocks is not None
        if len(blocks) != size:
            raise CountError(
                f"scatterv needs {size} blocks, got {len(blocks)}"
            )
        for dest in range(size):
            if dest != root:
                csend(comm, dest, tag, blocks[dest])
        return blocks[root]
    return crecv(comm, root, tag, 1 << 62)


def allgatherv(
    comm: Comm, payload: bytes, counts: Sequence[int]
) -> list[bytes]:
    """Ring allgather of variable-size blocks; ``counts`` known everywhere."""
    rank, size = comm.rank, comm.size
    if len(counts) != size:
        raise CountError(f"allgatherv needs {size} counts, got {len(counts)}")
    if len(payload) != counts[rank]:
        raise CountError(
            f"rank {rank} block is {len(payload)} bytes, counts says "
            f"{counts[rank]}"
        )
    if size == 1:
        return [payload]
    tag = ctag(comm)
    blocks: list = [None] * size
    blocks[rank] = payload
    return flat(comm, tag, ring_allgather, blocks, counts)


def alltoallv(comm: Comm, blocks: Sequence[bytes]) -> list[bytes]:
    """Pairwise personalized exchange of variable-size blocks.

    Peer block sizes need not be known in advance; a length header travels
    with each block (mirroring how MPI_Alltoallv callers exchange counts).
    """
    rank, size = comm.rank, comm.size
    if len(blocks) != size:
        raise CountError(f"alltoallv needs {size} blocks, got {len(blocks)}")
    if size == 1:
        return [bytes(blocks[0])]
    tag = ctag(comm)
    out: list[bytes] = [b""] * size
    out[rank] = bytes(blocks[rank])
    for step in range(1, size):
        dest = (rank + step) % size
        source = (rank - step) % size
        framed = _LEN.pack(len(blocks[dest])) + bytes(blocks[dest])
        got = csendrecv(comm, framed, dest, source, tag, 1 << 62)
        (n,) = _LEN.unpack(got[:_LEN.size])
        body = got[_LEN.size:]
        if len(body) != n:
            raise CountError(
                f"alltoallv frame from rank {source} declares {n} bytes "
                f"but carries {len(body)}"
            )
        out[source] = body
    return out


def gatherv_array(
    comm: Comm,
    send: np.ndarray,
    counts: Sequence[int] | None,
    root: int,
) -> np.ndarray | None:
    """Convenience: gatherv of 1-D arrays, concatenated at the root."""
    got = gatherv(
        comm,
        np.ascontiguousarray(send).tobytes(),
        [c * send.dtype.itemsize for c in counts] if counts else None,
        root,
    )
    if got is None:
        return None
    return np.frombuffer(b"".join(got), dtype=send.dtype).copy()
