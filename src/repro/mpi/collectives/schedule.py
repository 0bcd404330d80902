"""Collective algorithms written once, as schedules of point-to-point steps.

A *schedule* is a generator over an explicit ``members`` list (the comm
ranks taking part, in algorithm order) and the caller's index ``me`` in
it; roots are indices into ``members`` too.  It yields step tuples, is
resumed with each step's result, and returns the caller's share of the
collective:

* ``("send", peer, payload)`` — buffered send; resumes with ``None``;
* ``("recv", peer, nbytes)`` — receive at most ``nbytes``; resumes with
  the bytes;
* ``("sendrecv", dest, source, payload, nbytes)`` — both, deadlock-free;
  resumes with the received bytes;
* ``("reduce", op, a, b)`` — local combine; resumes with ``op(a, b)``.

The flat collective is a schedule over ``range(size)``; every phase of the
two-level collectives (:mod:`.hierarchy`) is the same schedule over a group
or the leader list.  Exactly two interpreters run these steps: the
discrete-event simulator (:mod:`repro.simulator.engine`), which prices them
on a network model and tallies every message they deliver, and
:func:`drive`, which is the only send path of these algorithms.
"""

from __future__ import annotations

import numpy as np

from ..comm import Comm
from .base import (
    as_array,
    ceil_pow2,
    crecv,
    csend,
    csendrecv,
    floor_pow2,
    to_bytes,
)


def drive(comm: Comm, tag: int, sched):
    """Run ``sched`` to completion on ``comm`` under ``tag``; return its
    result."""
    result = None
    while True:
        try:
            step = sched.send(result)
        except StopIteration as done:
            return done.value
        kind = step[0]
        if kind == "sendrecv":
            result = csendrecv(comm, step[3], step[1], step[2], tag, step[4])
        elif kind == "reduce":
            result = step[1](step[2], step[3])
        elif kind == "send":
            result = csend(comm, step[1], tag, step[2])
        elif kind == "recv":
            result = crecv(comm, step[1], tag, step[2])
        else:
            raise ValueError(f"unknown schedule step {step!r}")


def flat(comm: Comm, tag: int, algorithm, *args):
    """Drive ``algorithm`` over the whole communicator."""
    return drive(comm, tag, algorithm(range(comm.size), comm.rank, *args))


# ---------------------------------------------------------------------------
# Binomial trees.  In root-relative numbering v = (me - root) % m, member v
# receives from v - low(v) (low = its lowest set bit; the root's is the
# power of two >= m) and owns the children v + mask for mask < low(v).
# ---------------------------------------------------------------------------

def _low_bit(v: int, m: int) -> int:
    return v & -v if v else ceil_pow2(m)


def binomial_bcast(members, me, root, data, nbytes):
    """Broadcast ``data`` (``nbytes`` long) from ``members[root]``."""
    m = len(members)
    v = (me - root) % m
    mask = _low_bit(v, m)
    if v:
        data = yield ("recv", members[(me - mask) % m], nbytes)
    mask >>= 1
    while mask:
        if v + mask < m:
            yield ("send", members[(me + mask) % m], data)
        mask >>= 1
    return data


def binomial_reduce(members, me, root, acc, op):
    """Partial results flow up to ``members[root]`` (``None`` elsewhere).

    Every combine puts the lower comm rank on the left.
    """
    m = len(members)
    v = (me - root) % m
    top = _low_bit(v, m)
    nbytes, dtype = acc.nbytes, acc.dtype
    mask = 1
    while mask < top and v + mask < m:
        peer = members[(me + mask) % m]
        part = np.frombuffer((yield ("recv", peer, nbytes)), dtype=dtype)
        if peer < members[me]:
            acc = yield ("reduce", op, part, acc)
        else:
            acc = yield ("reduce", op, acc, part)
        mask <<= 1
    if v:
        yield ("send", members[(me - top) % m], to_bytes(acc))
        return None
    return acc


def binomial_gather(members, me, root, block):
    """Equal blocks flow up as contiguous subtree ranges; ``members[root]``
    returns them in member order, everyone else ``None``."""
    m = len(members)
    v = (me - root) % m
    top = _low_bit(v, m)
    size = len(block)
    held = [block]  # blocks of v, v + 1, ...
    mask = 1
    while mask < top and v + mask < m:
        span = min(mask, m - v - mask)
        data = yield ("recv", members[(me + mask) % m], span * size)
        held.extend(data[i * size:(i + 1) * size] for i in range(span))
        mask <<= 1
    if v:
        yield ("send", members[(me - top) % m], b"".join(held))
        return None
    return held[m - root:] + held[:m - root]


def scatter_allgather_bcast(members, me, root, data, nbytes):
    """Van de Geijn broadcast: binomial scatter of ``m`` chunks, then a
    ring allgather of the chunks."""
    m = len(members)
    v = (me - root) % m
    chunk = -(-nbytes // m)
    edge = [min(i * chunk, nbytes) for i in range(m + 1)]  # chunk i: [i, i+1)
    mask = _low_bit(v, m)
    lo = 0
    if v:
        lo = edge[v]
        data = yield (
            "recv", members[(me - mask) % m], edge[min(v + mask, m)] - lo
        )
    mask >>= 1
    while mask:
        c = v + mask
        if c < m:
            yield (
                "send", members[(me + mask) % m],
                data[edge[c] - lo:edge[min(c + mask, m)] - lo],
            )
        mask >>= 1
    chunks: list = [None] * m
    chunks[v] = data[edge[v] - lo:edge[v + 1] - lo]
    ring = [members[(root + i) % m] for i in range(m)]
    sizes = [edge[i + 1] - edge[i] for i in range(m)]
    chunks = yield from ring_allgather(ring, v, chunks, sizes)
    return b"".join(chunks)


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------

def ring_allgather(members, me, blocks, sizes, own=None):
    """``m - 1`` neighbour steps circulating ragged blocks.

    ``blocks[own]`` (default ``blocks[me]``) is held on entry; block ``i``
    is ``sizes[i]`` bytes.  Returns ``blocks``, now complete.
    """
    m = len(members)
    own = me if own is None else own
    right, left = members[(me + 1) % m], members[(me - 1) % m]
    for step in range(m - 1):
        r = (own - step - 1) % m
        blocks[r] = yield (
            "sendrecv", right, left, blocks[(own - step) % m], sizes[r]
        )
    return blocks


def ring_allreduce(members, me, values, op):
    """Ring reduce-scatter of ``m`` equal (zero-padded) segments, then a
    ring allgather of the reduced segments."""
    m = len(members)
    n = values.shape[0]
    work = np.zeros(-(-n // m) * m, dtype=values.dtype)
    work[:n] = values
    right, left = members[(me + 1) % m], members[(me - 1) % m]
    segs = np.split(work, m)
    for step in range(m - 1):
        seg = segs[(me - step - 1) % m]
        got = yield (
            "sendrecv", right, left, to_bytes(segs[(me - step) % m]),
            seg.nbytes,
        )
        part = np.frombuffer(got, dtype=seg.dtype)
        seg[...] = yield ("reduce", op, part, seg)
    # Segment me + 1 is now fully reduced here.
    own = (me + 1) % m
    blocks: list = [None] * m
    blocks[own] = to_bytes(segs[own])
    blocks = yield from ring_allgather(
        members, me, blocks, [segs[0].nbytes] * m, own
    )
    return as_array(b"".join(blocks), work)[:n]


# ---------------------------------------------------------------------------
# Recursive doubling, dissemination, pairwise exchange
# ---------------------------------------------------------------------------

def recursive_doubling_allreduce(members, me, acc, op):
    """log2 rounds of pairwise exchange after folding the remainder.

    The first ``2 * rem`` members pair up: evens hand their contribution
    to the odd neighbour, sit out the doubling rounds and get the result
    back at the end (Rabenseifner's fold).
    """
    m = len(members)
    nbytes, dtype = acc.nbytes, acc.dtype
    pof2 = floor_pow2(m)
    rem = m - pof2
    if me < 2 * rem:
        if me % 2 == 0:
            yield ("send", members[me + 1], to_bytes(acc))
            newrank = -1
        else:
            got = yield ("recv", members[me - 1], nbytes)
            part = np.frombuffer(got, dtype=dtype)
            acc = yield ("reduce", op, part, acc)
            newrank = me // 2
    else:
        newrank = me - rem
    if newrank != -1:
        mask = 1
        while mask < pof2:
            nr = newrank ^ mask
            peer = members[nr * 2 + 1 if nr < rem else nr + rem]
            got = yield ("sendrecv", peer, peer, to_bytes(acc), nbytes)
            part = np.frombuffer(got, dtype=dtype)
            if peer < members[me]:
                acc = yield ("reduce", op, part, acc)
            else:
                acc = yield ("reduce", op, acc, part)
            mask <<= 1
    if me < 2 * rem:
        if me % 2 == 0:
            got = yield ("recv", members[me + 1], nbytes)
            acc = np.frombuffer(got, dtype=dtype).copy()
        else:
            yield ("send", members[me - 1], to_bytes(acc))
    return acc


def recursive_doubling_allgather(members, me, block):
    """log2 m rounds exchanging doubling aligned block ranges (``m`` a
    power of two); returns the blocks in member order."""
    m = len(members)
    size = len(block)
    blocks: list = [None] * m
    blocks[me] = block
    mask = 1
    while mask < m:
        peer = me ^ mask
        mine, theirs = me // mask * mask, peer // mask * mask
        got = yield (
            "sendrecv", members[peer], members[peer],
            b"".join(blocks[mine:mine + mask]), mask * size,
        )
        blocks[theirs:theirs + mask] = [
            got[i * size:(i + 1) * size] for i in range(mask)
        ]
        mask <<= 1
    return blocks


def dissemination_barrier(members, me):
    """ceil(log2 m) rounds of zero-byte tokens to ``me + 2^k``."""
    m = len(members)
    dist = 1
    while dist < m:
        yield (
            "sendrecv", members[(me + dist) % m], members[(me - dist) % m],
            b"", 0,
        )
        dist <<= 1


def pairwise_alltoall(members, me, blocks, nbytes):
    """``m - 1`` rounds of direct exchange with rotating partners:
    ``blocks[i]`` goes to member ``i``; every block received is at most
    ``nbytes``.  Returns the received blocks in member order."""
    m = len(members)
    out: list = [None] * m
    out[me] = blocks[me]
    for step in range(1, m):
        dest, source = (me + step) % m, (me - step) % m
        out[source] = yield (
            "sendrecv", members[dest], members[source], blocks[dest], nbytes
        )
    return out


def pairwise_reduce_scatter(members, me, values, counts, op):
    """Pairwise exchange of segments (``counts`` elements each), then a
    fold in member order, so non-commutative ops see
    ``x0 op x1 op ... op x(m-1)``.  Returns my reduced segment."""
    edges = np.cumsum([0, *counts])
    blocks = [
        to_bytes(values[lo:hi]) for lo, hi in zip(edges[:-1], edges[1:])
    ]
    parts = yield from pairwise_alltoall(members, me, blocks, len(blocks[me]))
    acc = np.frombuffer(parts[0], dtype=values.dtype).copy()
    for got in parts[1:]:
        part = np.frombuffer(got, dtype=values.dtype)
        acc = yield ("reduce", op, acc, part)
    return acc


def rabenseifner_reduce(members, me, root, values, op):
    """Pairwise reduce-scatter of equal (zero-padded) segments, then a
    binomial gather of the reduced segments to ``members[root]``."""
    m = len(members)
    n = values.shape[0]
    seg = -(-n // m)
    padded = np.zeros(seg * m, dtype=values.dtype)
    padded[:n] = values
    mine = yield from pairwise_reduce_scatter(
        members, me, padded, [seg] * m, op
    )
    segs = yield from binomial_gather(members, me, root, to_bytes(mine))
    if segs is None:
        return None
    return as_array(b"".join(segs), values)[:n]
