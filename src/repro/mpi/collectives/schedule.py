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

Every blocking collective algorithm is one of these schedules; the
selector's ``ALGORITHMS`` table names them.  The flat collective is a
schedule over ``range(size)``; every phase of the two-level collectives
(:mod:`.hierarchy`) is the same schedule over a group or the leader list.
:func:`drive` runs them on a communicator, the collectives' only send
path; the one simulation engine (:mod:`repro.simulator.engine`) prices
them, tallies their messages and, with ``rendezvous=True``, checks they
complete when a blocking send waits for its receiver.
"""

from __future__ import annotations

import struct

import numpy as np

from ..comm import Comm
from ..exceptions import CountError
from .base import (
    as_array,
    ceil_pow2,
    crecv,
    csend,
    csendrecv,
    floor_pow2,
    to_bytes,
)

#: Length prefix: the size header of bcast/scatter and each alltoallv frame.
LEN = struct.Struct("<q")

#: Receive limit where the size is not known in advance.
ANY_SIZE = 1 << 62


def drive(comm: Comm, tag: int, sched):
    """Run ``sched`` to completion on ``comm`` under ``tag``; return its
    result."""
    hooks = comm.endpoint.hooks.on_coll_message
    result = None
    while True:
        try:
            step = sched.send(result)
        except StopIteration as done:
            return done.value
        kind = step[0]
        if hooks and kind in ("send", "sendrecv"):
            for hook in hooks:
                hook(len(step[2 if kind == "send" else 3]))
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


def _fold(op, parts, dtype):
    """Combine byte blocks in list order: ``x0 op x1 op ... op x(m-1)``."""
    acc = np.frombuffer(parts[0], dtype=dtype).copy()
    for got in parts[1:]:
        acc = yield ("reduce", op, acc, np.frombuffer(got, dtype=dtype))
    return acc


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


def binomial_scatter(members, me, root, blocks, sizes):
    """Mirror image of binomial gather: ``members[root]`` holds ``blocks``
    (one per member, ``sizes[i]`` bytes for member ``i``) and pushes
    contiguous subtree ranges down the tree.  Returns my block."""
    m = len(members)
    v = (me - root) % m
    edge = [0]  # the block of v is [edge[v], edge[v + 1])
    for i in range(m):
        edge.append(edge[-1] + sizes[(root + i) % m])
    mask = _low_bit(v, m)
    lo = edge[v]  # offset of the held range's first byte
    if v:
        data = yield (
            "recv", members[(me - mask) % m], edge[min(v + mask, m)] - lo
        )
    else:
        data = b"".join(blocks[(root + i) % m] for i in range(m))
    mask >>= 1
    while mask:
        c = v + mask
        if c < m:
            yield (
                "send", members[(me + mask) % m],
                data[edge[c] - lo:edge[min(c + mask, m)] - lo],
            )
        mask >>= 1
    return data[:edge[v + 1] - lo]


def scatter_allgather_bcast(members, me, root, data, nbytes):
    """Van de Geijn broadcast: binomial scatter of ``m`` chunks, then a
    ring allgather of the chunks."""
    m = len(members)
    v = (me - root) % m
    ring = [members[(root + i) % m] for i in range(m)]  # chunk i -> ring[i]
    chunk = -(-nbytes // m)
    edge = [min(i * chunk, nbytes) for i in range(m + 1)]
    sizes = [edge[i + 1] - edge[i] for i in range(m)]
    chunks = None
    if data is not None:
        view = memoryview(data)
        chunks = [view[edge[i]:edge[i + 1]] for i in range(m)]
    mine = yield from binomial_scatter(ring, v, 0, chunks, sizes)
    return b"".join((yield from ring_allgather(ring, v, mine, sizes)))


# ---------------------------------------------------------------------------
# Rings
# ---------------------------------------------------------------------------

def ring_allgather(members, me, block, sizes=None, own=None):
    """``m - 1`` neighbour steps circulating ragged blocks.

    ``block`` is block ``own`` (default ``me``); block ``i`` is
    ``sizes[i]`` bytes (default: all ``len(block)``).  Returns the blocks
    in order.
    """
    m = len(members)
    own = me if own is None else own
    sizes = [len(block)] * m if sizes is None else sizes
    blocks: list = [None] * m
    blocks[own] = block
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
    blocks = yield from ring_allgather(
        members, me, to_bytes(segs[own]), own=own
    )
    return as_array(b"".join(blocks), work)[:n]


# ---------------------------------------------------------------------------
# Recursive doubling and halving, dissemination
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


def recursive_doubling_scan(members, me, values, op):
    """Inclusive prefix reduction in log2 m rounds: every member ships its
    running window ``2^k`` members up and prepends the window arriving
    from below, so contributions combine in member order (safe for
    non-commutative ops)."""
    m = len(members)
    nbytes, dtype = values.nbytes, values.dtype
    result = values.copy()  # reduction over [?..me] -> goal [0..me]
    window = values.copy()  # reduction over a contiguous trailing window
    dist = 1
    while dist < m:
        if me + dist < m:
            yield ("send", members[me + dist], to_bytes(window))
        if me - dist >= 0:
            got = yield ("recv", members[me - dist], nbytes)
            part = np.frombuffer(got, dtype=dtype)
            window = yield ("reduce", op, part, window)
            result = yield ("reduce", op, part, result)
        dist <<= 1
    return result


def recursive_halving_reduce_scatter(members, me, values, counts, op):
    """log2 m rounds (``m`` a power of two, commutative ``op``): each
    hands the partner ``me ^ mask`` the half of the still-active segment
    range it gives up and folds in the half it keeps.  Member ``i`` ends
    with segment ``i`` (``counts[i]`` elements)."""
    m = len(members)
    edge = [0]
    for c in counts:
        edge.append(edge[-1] + c)
    work = values.copy()
    lo, hi = 0, m  # members whose segments I still accumulate
    mask = m // 2
    while mask:
        mid = (lo + hi) // 2
        if me < mid:
            keep, give = (lo, mid), (mid, hi)
        else:
            keep, give = (mid, hi), (lo, mid)
        kept = slice(edge[keep[0]], edge[keep[1]])
        peer = members[me ^ mask]
        got = yield (
            "sendrecv", peer, peer,
            to_bytes(work[edge[give[0]]:edge[give[1]]]),
            (kept.stop - kept.start) * values.itemsize,
        )
        part = np.frombuffer(got, dtype=values.dtype)
        work[kept] = yield ("reduce", op, work[kept], part)
        lo, hi = keep
        mask >>= 1
    return work[edge[me]:edge[me + 1]].copy()


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


# ---------------------------------------------------------------------------
# All-to-all
# ---------------------------------------------------------------------------

def bruck_alltoall(members, me, blocks, nbytes):
    """Bruck: ceil(log2 m) rounds; round k ships every block whose
    remaining forward distance has bit k set ``2^k`` members ahead.
    ``blocks[i]`` (``nbytes`` each) goes to member ``i``; returns the
    received blocks in member order."""
    m = len(members)
    tmp = [blocks[(me + i) % m] for i in range(m)]  # tmp[i] -> me + i
    dist = 1
    while dist < m:
        idxs = [i for i in range(m) if i & dist]
        got = yield (
            "sendrecv", members[(me + dist) % m], members[(me - dist) % m],
            b"".join(tmp[i] for i in idxs), len(idxs) * nbytes,
        )
        for j, i in enumerate(idxs):
            tmp[i] = got[j * nbytes:(j + 1) * nbytes]
        dist <<= 1
    # tmp[i] now came from member me - i.
    return [tmp[(me - i) % m] for i in range(m)]


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


def pairwise_alltoallv(members, me, blocks):
    """Pairwise exchange of ragged blocks, each framed with its length so
    receivers need not know the sizes in advance."""
    framed = [LEN.pack(len(b)) + bytes(b) for b in blocks]
    got = yield from pairwise_alltoall(members, me, framed, ANY_SIZE)
    out = []
    for i, frame in enumerate(got):
        (n,) = LEN.unpack(frame[:LEN.size])
        body = frame[LEN.size:]
        if len(body) != n:
            raise CountError(
                f"alltoallv frame from rank {members[i]} declares {n} "
                f"bytes but carries {len(body)}"
            )
        out.append(body)
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
    return (yield from _fold(op, parts, values.dtype))


# ---------------------------------------------------------------------------
# Linear (root-centric) algorithms: baselines, the non-commutative reduce
# and the v-variants
# ---------------------------------------------------------------------------

def linear_gather(members, me, root, block, limits=None):
    """Every member sends straight to ``members[root]``, which takes at most
    ``limits[i]`` bytes from member ``i`` (default ``len(block)``) and
    returns the blocks in member order; everyone else ``None``."""
    if me != root:
        yield ("send", members[root], block)
        return None
    out = [block] * len(members)
    for i, peer in enumerate(members):
        if i != root:
            out[i] = yield (
                "recv", peer, len(block) if limits is None else limits[i]
            )
    return out


def linear_scatter(members, me, root, blocks, sizes):
    """``members[root]`` sends ``blocks[i]`` straight to member ``i``;
    returns my block (at most ``sizes[me]`` bytes)."""
    if me != root:
        return (yield ("recv", members[root], sizes[me]))
    for i, peer in enumerate(members):
        if i != root:
            yield ("send", peer, blocks[i])
    return blocks[root]


def linear_bcast(members, me, root, data, nbytes):
    """Linear scatter of one payload."""
    m = len(members)
    blocks = None if data is None else [data] * m
    return (yield from linear_scatter(members, me, root, blocks, [nbytes] * m))


def linear_reduce(members, me, root, values, op):
    """Linear gather to ``members[root]``, which folds the contributions in
    member order — valid for non-commutative ops."""
    parts = yield from linear_gather(members, me, root, to_bytes(values))
    if parts is None:
        return None
    return (yield from _fold(op, parts, values.dtype))


def linear_scan(members, me, values, op):
    """A chain: member ``i`` prepends member ``i - 1``'s prefix to its own
    contribution and passes the result on."""
    if me:
        got = yield ("recv", members[me - 1], values.nbytes)
        acc = yield ("reduce", op, np.frombuffer(got, values.dtype), values)
    else:
        acc = values.copy()
    if me + 1 < len(members):
        yield ("send", members[me + 1], to_bytes(acc))
    return acc


# ---------------------------------------------------------------------------
# Composed algorithms
# ---------------------------------------------------------------------------

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


def reduce_bcast_allreduce(members, me, values, op):
    """Reduce to ``members[0]``, then a binomial broadcast.  A
    non-commutative ``op`` reduces linearly, in member order."""
    reduce = binomial_reduce if op.Is_commutative() else linear_reduce
    acc = yield from reduce(members, me, 0, values, op)
    data = yield from binomial_bcast(
        members, me, 0, None if acc is None else to_bytes(acc), values.nbytes
    )
    return as_array(data, values)


def gather_bcast_allgather(members, me, block):
    """Binomial gather to ``members[0]``, then a binomial broadcast of the
    concatenation (baseline/ablation only)."""
    m, size = len(members), len(block)
    blocks = yield from binomial_gather(members, me, 0, block)
    data = yield from binomial_bcast(
        members, me, 0, None if blocks is None else b"".join(blocks),
        m * size,
    )
    return [data[i * size:(i + 1) * size] for i in range(m)]
