"""Broadcast.

Algorithms:

* ``binomial`` — classic binomial tree, optimal for short messages;
* ``scatter_allgather`` — van de Geijn: binomial scatter of chunks followed
  by a ring allgather; bandwidth-optimal for long messages;
* ``linear`` — root sends to each rank in turn (baseline/ablation only).

The byte-level API does not assume non-roots know the payload size, so every
variant first runs a tiny binomial broadcast of an 8-byte length header —
mirroring how real implementations piggyback size in the rendezvous
protocol.
"""

from __future__ import annotations

import struct

from ..comm import Comm
from ..exceptions import RootError
from . import selector
from .base import crecv, csend, ctag
from .hierarchy import hier_bcast, partition
from .schedule import binomial_bcast, flat, scatter_allgather_bcast

_LEN = struct.Struct("<q")


def _binomial(
    comm: Comm,
    payload: bytes | None,
    root: int,
    tag: int,
    nbytes: int,
) -> bytes:
    return flat(comm, tag, binomial_bcast, root, payload, nbytes)


def _scatter_allgather(
    comm: Comm,
    payload: bytes | None,
    root: int,
    tag: int,
    nbytes: int,
) -> bytes:
    return flat(comm, tag, scatter_allgather_bcast, root, payload, nbytes)


def _linear(
    comm: Comm,
    payload: bytes | None,
    root: int,
    tag: int,
    nbytes: int,
) -> bytes:
    """Root sends the payload to every other rank directly."""
    rank, size = comm.rank, comm.size
    if rank == root:
        assert payload is not None
        for dest in range(size):
            if dest != root:
                csend(comm, dest, tag, payload)
        return payload
    return crecv(comm, root, tag, nbytes)


_ALGORITHMS = {
    "binomial": _binomial,
    "scatter_allgather": _scatter_allgather,
    "linear": _linear,
    "hierarchical": hier_bcast,
}


def bcast(comm: Comm, payload: bytes | None, root: int) -> bytes:
    """Broadcast ``payload`` from ``root``; every rank returns the bytes."""
    rank, size = comm.rank, comm.size
    if rank == root and payload is None:
        raise RootError("root must supply the broadcast payload")
    if size == 1:
        assert payload is not None
        return payload
    tag = ctag(comm)
    # Length header so non-roots can size buffers and pick the same
    # algorithm as the root.  On a grouped communicator the header rides
    # the hierarchy as well — a flat binomial here would open the very
    # cross-group connections the two-level algorithms avoid.
    part = partition(comm)
    if rank == root:
        assert payload is not None
        hdr = _LEN.pack(len(payload))
    else:
        hdr = None
    if part is not None:
        hdr = hier_bcast(comm, hdr, root, tag, _LEN.size)
    else:
        hdr = _binomial(comm, hdr, root, tag, _LEN.size)
    (nbytes,) = _LEN.unpack(hdr)

    alg = selector.pick("bcast", nbytes, size, groups=part)
    return _ALGORITHMS[alg](comm, payload, root, tag, nbytes)
