"""Shared plumbing for collective algorithms.

Every collective instance runs under the one internal tag
``Comm._collective`` reserves for it and routes all of its traffic there;
consecutive collectives therefore cannot cross-match even when user code
overlaps them across sub-communicators.
"""

from __future__ import annotations

import numpy as np

from ..comm import Comm
from ..exceptions import CountError


def csend(comm: Comm, dest: int, tag: int, payload: bytes) -> None:
    """Internal blocking send under a collective tag."""
    comm.send_bytes(payload, dest, tag)


def crecv(comm: Comm, source: int, tag: int, max_bytes: int) -> bytes:
    """Internal blocking receive under a collective tag."""
    payload, _status = comm.recv_bytes(source, tag, max_bytes)
    return payload


def csendrecv(
    comm: Comm,
    payload: bytes,
    dest: int,
    source: int,
    tag: int,
    max_bytes: int,
) -> bytes:
    """Internal combined send/receive (deadlock-free pairwise exchange)."""
    got, _status = comm.sendrecv_bytes(
        payload, dest, tag, source, tag, max_bytes
    )
    return got


def as_array(payload: bytes, like: np.ndarray) -> np.ndarray:
    """View wire bytes as an array with ``like``'s dtype (writable copy)."""
    arr = np.frombuffer(payload, dtype=like.dtype)
    return arr.copy()


def to_bytes(arr: np.ndarray) -> bytes:
    """Serialize an array to contiguous wire bytes."""
    return np.ascontiguousarray(arr).tobytes()


def check_equal_blocks(blocks, size: int) -> int:
    """Validate an alltoall/scatter block list; return the block size."""
    if len(blocks) != size:
        raise CountError(
            f"expected {size} blocks, got {len(blocks)}"
        )
    n = len(blocks[0])
    for i, b in enumerate(blocks):
        if len(b) != n:
            raise CountError(
                f"block {i} has {len(b)} bytes, expected {n} (equal-size "
                "collective; use the v-variant for ragged blocks)"
            )
    return n


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def floor_pow2(n: int) -> int:
    """Largest power of two <= n (n >= 1)."""
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


def ceil_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1).

    This is the mask a binomial-tree *root* starts its fan-out from: after
    ``mask >>= 1`` the first child is the highest power of two below n.
    """
    p = 1
    while p < n:
        p *= 2
    return p
