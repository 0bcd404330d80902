"""Blocking collectives: check the arguments, then drive one schedule.

Every entry point takes the instance's internal tag (reserved by
``Comm._collective``), validates its arguments, asks
:func:`.selector.pick` which algorithm runs
and drives that algorithm's schedule (:data:`.selector.ALGORITHMS`) on
the communicator.  The byte-level API does not assume non-roots know the
payload size, so bcast and scatter first broadcast an 8-byte length
header under the same tag — mirroring how real implementations piggyback
size in the rendezvous protocol.  The v-variants follow real MPI
libraries: root-centric linear gather/scatter, the ring for allgatherv
(counts are global knowledge there) and pairwise exchange of framed
blocks for alltoallv.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..comm import Comm
from ..exceptions import CountError, RootError
from ..ops import Op
from .base import check_equal_blocks
from .hierarchy import hierarchical_bcast, partition
from .schedule import (
    ANY_SIZE,
    LEN,
    binomial_bcast,
    drive,
    linear_gather,
    linear_scatter,
    pairwise_alltoallv,
    ring_allgather,
)
from .selector import ALGORITHMS, HIERARCHICAL_OPS, pick


def _collective(comm: Comm, tag: int, name: str, nbytes: int, args: tuple,
                count: int | None = None, commutative: bool = True):
    """Drive the algorithm :func:`.selector.pick` chooses for ``name`` with
    the schedule arguments ``args``."""
    part = partition(comm) if name in HIERARCHICAL_OPS else None
    alg = pick(
        name, nbytes, comm.size, part, count=count, commutative=commutative
    )
    members = part if alg == "hierarchical" else range(comm.size)
    return drive(comm, tag, ALGORITHMS[name][alg](members, comm.rank, *args))


def _length(comm: Comm, tag: int, name: str, root: int, n: int | None):
    """Broadcast the length ``n`` known at ``root``.  On a grouped
    communicator the header rides the hierarchy — a flat binomial here
    would open the very cross-group connections the two-level algorithms
    avoid."""
    part = partition(comm) if name in HIERARCHICAL_OPS else None
    hdr = None if n is None else LEN.pack(n)
    sched = (
        binomial_bcast(range(comm.size), comm.rank, root, hdr, LEN.size)
        if part is None
        else hierarchical_bcast(part, comm.rank, root, hdr, LEN.size)
    )
    return LEN.unpack(drive(comm, tag, sched))[0]


def barrier(comm: Comm, tag: int) -> None:
    """Block until all ranks of ``comm`` have entered."""
    if comm.size > 1:
        _collective(comm, tag, "barrier", 0, ())


def bcast(comm: Comm, tag: int, payload: bytes | None, root: int) -> bytes:
    """Broadcast ``payload`` from ``root``; every rank returns the bytes."""
    rank = comm.rank
    if rank == root and payload is None:
        raise RootError("root must supply the broadcast payload")
    if comm.size == 1:
        return payload
    if rank != root:
        payload = None
    nbytes = _length(
        comm, tag, "bcast", root, None if payload is None else len(payload)
    )
    return _collective(comm, tag, "bcast", nbytes, (root, payload, nbytes))


def reduce(
    comm: Comm, tag: int, send: np.ndarray, op: Op, root: int
) -> np.ndarray | None:
    """Elementwise reduce to ``root``; non-roots return None."""
    send = np.ascontiguousarray(send)
    if comm.size == 1:
        return send.copy()
    return _collective(
        comm, tag, "reduce", send.nbytes, (root, send, op),
        send.shape[0], op.Is_commutative(),
    )


def allreduce(comm: Comm, tag: int, send: np.ndarray, op: Op) -> np.ndarray:
    """Elementwise reduce; every rank returns the full result."""
    send = np.ascontiguousarray(send)
    if comm.size == 1:
        return send.copy()
    return _collective(
        comm, tag, "allreduce", send.nbytes, (send, op),
        send.shape[0], op.Is_commutative(),
    )


def gather(
    comm: Comm, tag: int, payload: bytes, root: int
) -> list[bytes] | None:
    """Gather every rank's equal-size block to ``root`` (None elsewhere)."""
    if comm.size == 1:
        return [payload]
    return _collective(
        comm, tag, "gather", len(payload), (root, payload)
    )


def scatter(
    comm: Comm, tag: int, blocks: Sequence[bytes] | None, root: int
) -> bytes:
    """Scatter one equal-size block to each rank; returns the local block."""
    rank, size = comm.rank, comm.size
    block = None
    if rank == root:
        if blocks is None:
            raise RootError("root must supply the scatter blocks")
        block = check_equal_blocks(blocks, size)
        if size == 1:
            return blocks[0]
    else:
        if size == 1:
            raise CountError("non-root rank in a size-1 scatter")
        blocks = None
    block = _length(comm, tag, "scatter", root, block)
    return _collective(
        comm, tag, "scatter", block, (root, blocks, [block] * size)
    )


def allgather(comm: Comm, tag: int, payload: bytes) -> list[bytes]:
    """Every rank returns the ordered list of all ranks' blocks."""
    if comm.size == 1:
        return [payload]
    return _collective(comm, tag, "allgather", len(payload), (payload,))


def alltoall(comm: Comm, tag: int, blocks: Sequence[bytes]) -> list[bytes]:
    """Exchange block ``i`` with rank ``i``; returns blocks received."""
    block = check_equal_blocks(blocks, comm.size)
    if comm.size == 1:
        return [blocks[0]]
    return _collective(comm, tag, "alltoall", block, (blocks, block))


def reduce_scatter(
    comm: Comm,
    tag: int,
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
    return _collective(
        comm, tag, "reduce_scatter", send.nbytes, (send, counts, op),
        commutative=op.Is_commutative(),
    )


def scan(comm: Comm, tag: int, send: np.ndarray, op: Op) -> np.ndarray:
    """Return the inclusive prefix reduction over ranks 0..rank."""
    send = np.ascontiguousarray(send)
    if comm.size == 1:
        return send.copy()
    return _collective(comm, tag, "scan", send.nbytes, (send, op))


def gatherv(
    comm: Comm,
    tag: int,
    payload: bytes,
    counts: Sequence[int] | None,
    root: int,
) -> list[bytes] | None:
    """Gather variable-size blocks to ``root``.

    ``counts`` (expected byte counts per rank) is only significant at the
    root; None lets the root size receives from the incoming envelopes.
    """
    rank, size = comm.rank, comm.size
    if size == 1:
        return [payload]
    if counts is None:
        counts = [ANY_SIZE] * size
    elif rank == root and len(counts) != size:
        raise CountError(f"gatherv needs {size} counts, got {len(counts)}")
    return drive(
        comm, tag,
        linear_gather(range(size), rank, root, payload, counts),
    )


def scatterv(
    comm: Comm,
    tag: int,
    blocks: Sequence[bytes] | None,
    root: int,
) -> bytes:
    """Scatter variable-size blocks from ``root``; returns the local block."""
    rank, size = comm.rank, comm.size
    if size == 1:
        assert blocks is not None
        return blocks[0]
    if rank == root:
        assert blocks is not None
        if len(blocks) != size:
            raise CountError(
                f"scatterv needs {size} blocks, got {len(blocks)}"
            )
    return drive(
        comm, tag,
        linear_scatter(range(size), rank, root, blocks, [ANY_SIZE] * size),
    )


def allgatherv(
    comm: Comm, tag: int, payload: bytes, counts: Sequence[int]
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
    return drive(
        comm, tag, ring_allgather(range(size), rank, payload, counts)
    )


def alltoallv(comm: Comm, tag: int, blocks: Sequence[bytes]) -> list[bytes]:
    """Pairwise personalized exchange of variable-size blocks.

    Peer block sizes need not be known in advance; a length header travels
    with each block (mirroring how MPI_Alltoallv callers exchange counts).
    """
    size = comm.size
    if len(blocks) != size:
        raise CountError(f"alltoallv needs {size} blocks, got {len(blocks)}")
    if size == 1:
        return [bytes(blocks[0])]
    return drive(
        comm, tag, pairwise_alltoallv(range(size), comm.rank, blocks)
    )
