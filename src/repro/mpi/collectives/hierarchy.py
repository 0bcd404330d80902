"""Topology-aware two-level ("hierarchical") collectives.

When the launch declares node groups (``--groups``/``OMBPY_GROUPS``,
exposed as :class:`repro.mpi.topology.GroupMap` on the endpoint), a flat
collective wastes the topology: a 32-rank dissemination barrier crosses
group boundaries ``O(p log p)`` times even though intra-group hops are
cheap (SHM rings, or at least warm lazy-fabric channels) and inter-group
hops are the expensive ones.  The two-level decomposition here is the
MVAPICH2 SMP-aware design the source paper benchmarks against:

* **allreduce** — intra-group reduce to the leader, leader-level
  allreduce, intra-group bcast of the result;
* **bcast** — group representatives (the root for its own group, the
  leader elsewhere) relay across groups, then fan out inside;
* **barrier** — intra-group fan-in, leader-level barrier, intra-group
  release;
* **gather** — intra-group gather to the representative, one message
  per group to the root;
* **allgather** — intra-group gather, leader ring over concatenated
  group blocks, intra-group bcast of the assembled result.

Inter-group traffic therefore flows only between leaders: on the lazy
stream fabric a non-leader rank establishes connections only inside its
group, and a leader adds one per peer group — the O(group_size +
n_groups) connection bound the scaling tests assert.

Every algorithm is *value-identical* to its flat counterpart for exact
(integer/bitwise) commutative operations and associativity-equivalent
for floats (reduction order differs, as it already does between the
flat algorithms themselves).  Non-commutative operations never route
here — the entry points fall back to their order-preserving flat paths
first.

All phases of one collective share the instance's single ``ctag``: the
phases are strictly ordered per rank pair and the transports guarantee
per-sender FIFO, so frames cannot cross-match.
"""

from __future__ import annotations

import numpy as np

from ..comm import Comm
from ..ops import Op
from .base import as_array, to_bytes
from .schedule import (
    binomial_bcast,
    binomial_gather,
    binomial_reduce,
    drive,
    ring_allgather,
)

_UNSET = object()


# ---------------------------------------------------------------------------
# Partition discovery
# ---------------------------------------------------------------------------

def partition(comm: Comm) -> list[list[int]] | None:
    """The communicator's group partition, or ``None`` when flat.

    Returns the comm ranks bucketed by node group (each bucket sorted,
    buckets in group order), identical on every member rank.  ``None``
    when no group map is attached, the map does not cover every member,
    or the partition is degenerate (a single group, or all singletons) —
    cases where two-level algorithms reduce to the flat ones with extra
    hops.  Cached per communicator: the group map is fixed at launch.
    """
    cached = getattr(comm, "_hier_partition", _UNSET)
    if cached is not _UNSET:
        return cached
    part = _compute_partition(comm)
    comm._hier_partition = part
    return part


def _compute_partition(comm: Comm) -> list[list[int]] | None:
    gmap = comm.endpoint.group_map
    if gmap is None:
        return None
    from ..topology import TopologyError

    buckets: dict[int, list[int]] = {}
    try:
        for r in range(comm.size):
            gid = gmap.group_of(comm._world_rank(r))
            buckets.setdefault(gid, []).append(r)
    except TopologyError:
        # A member outside the map (sub-communicator of a larger world
        # than the map covers, or a stale map): play it flat.
        return None
    if len(buckets) <= 1:
        return None
    part = [buckets[g] for g in sorted(buckets)]
    if all(len(g) == 1 for g in part):
        return None
    return part


def _my_group(part: list[list[int]], rank: int) -> list[int]:
    for members in part:
        if rank in members:
            return members
    raise AssertionError(f"rank {rank} missing from its own partition")


# ---------------------------------------------------------------------------
# Two-level collectives.  Each is one schedule whose phases are the flat
# schedules run over the caller's group, the leader list or the
# representative list.
# ---------------------------------------------------------------------------

def _phase(algorithm, members: list[int], rank: int, root: int, *args):
    """``algorithm`` over ``members``; caller and root given as comm ranks."""
    return algorithm(
        members, members.index(rank), members.index(root), *args
    )


def _allreduce(part, rank, send, op):
    members = _my_group(part, rank)
    leaders = [g[0] for g in part]
    leader = members[0]
    acc = yield from _phase(binomial_reduce, members, rank, leader, send, op)
    data = None
    if rank == leader:
        # Leader-level allreduce as reduce+bcast over the leader set:
        # 2·log2(G) rounds, every hop inter-group (unavoidable) and
        # leader-to-leader only (what keeps connection counts bounded).
        acc = yield from _phase(
            binomial_reduce, leaders, rank, leaders[0], acc, op
        )
        data = yield from _phase(
            binomial_bcast, leaders, rank, leaders[0],
            None if acc is None else to_bytes(acc), send.nbytes,
        )
    data = yield from _phase(
        binomial_bcast, members, rank, leader, data, send.nbytes
    )
    return as_array(data, send)


def _bcast(part, rank, root, data, nbytes):
    members = _my_group(part, rank)
    # One representative per group: the root speaks for its own group so
    # the payload never takes an extra intra-group hop there.
    reps = [root if root in g else g[0] for g in part]
    rep = root if root in members else members[0]
    if rank == rep:
        data = yield from _phase(
            binomial_bcast, reps, rank, root, data, nbytes
        )
    return (
        yield from _phase(binomial_bcast, members, rank, rep, data, nbytes)
    )


def _barrier(part, rank):
    members = _my_group(part, rank)
    leaders = [g[0] for g in part]
    yield from _phase(binomial_gather, members, rank, members[0], b"")
    if rank == members[0]:
        yield from _phase(binomial_gather, leaders, rank, leaders[0], b"")
        yield from _phase(binomial_bcast, leaders, rank, leaders[0], b"", 0)
    yield from _phase(binomial_bcast, members, rank, members[0], b"", 0)


def _gather(part, rank, root, block):
    members = _my_group(part, rank)
    rep = root if root in members else members[0]
    size = len(block)
    mine = yield from _phase(binomial_gather, members, rank, rep, block)
    if rank != root:
        if rank == rep:
            yield ("send", root, b"".join(mine))
        return None
    out: list[bytes] = [b""] * sum(map(len, part))
    for grp in part:
        if root in grp:
            blocks = mine
        else:
            data = yield ("recv", grp[0], len(grp) * size)
            blocks = [data[i * size:(i + 1) * size] for i in range(len(grp))]
        for member_rank, blk in zip(grp, blocks):
            out[member_rank] = blk
    return out


def _allgather(part, rank, block):
    members = _my_group(part, rank)
    leaders = [g[0] for g in part]
    leader = members[0]
    size = len(block)
    total = sum(map(len, part))
    mine = yield from _phase(binomial_gather, members, rank, leader, block)
    data = None
    if rank == leader:
        # Ring over leaders with ragged per-group chunks; n_groups - 1
        # inter-group steps moving each group's block exactly G-1 times
        # (vs the flat ring's p-1 inter-group crossings per block).
        gid = leaders.index(leader)
        chunks: list = [None] * len(part)
        chunks[gid] = b"".join(mine)
        chunks = yield from ring_allgather(
            leaders, gid, chunks, [len(g) * size for g in part]
        )
        # Assemble the result in comm-rank order.
        ordered = [b""] * total
        for grp, chunk in zip(part, chunks):
            for i, member_rank in enumerate(grp):
                ordered[member_rank] = chunk[i * size:(i + 1) * size]
        data = b"".join(ordered)
    data = yield from _phase(
        binomial_bcast, members, rank, leader, data, total * size
    )
    return [data[i * size:(i + 1) * size] for i in range(total)]


def hier_allreduce(
    comm: Comm, send: np.ndarray, op: Op, tag: int
) -> np.ndarray:
    """Intra-group reduce -> leader allreduce -> intra-group bcast."""
    return drive(comm, tag, _allreduce(partition(comm), comm.rank, send, op))


def hier_bcast(
    comm: Comm,
    payload: bytes | None,
    root: int,
    tag: int,
    nbytes: int,
) -> bytes:
    """Representative relay across groups, then intra-group fan-out."""
    return drive(
        comm, tag, _bcast(partition(comm), comm.rank, root, payload, nbytes)
    )


def hier_barrier(comm: Comm, tag: int) -> None:
    """Intra-group fan-in -> leader barrier -> intra-group release."""
    drive(comm, tag, _barrier(partition(comm), comm.rank))


def hier_gather(
    comm: Comm, payload: bytes, root: int, tag: int
) -> list[bytes] | None:
    """Intra-group gather to a representative, one message per group up."""
    return drive(comm, tag, _gather(partition(comm), comm.rank, root, payload))


def hier_allgather(
    comm: Comm, payload: bytes, tag: int
) -> list[bytes]:
    """Intra-group gather -> leader ring of group blocks -> fan-out."""
    return drive(comm, tag, _allgather(partition(comm), comm.rank, payload))
