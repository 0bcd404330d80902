"""Hybrid shm + stream transport for grouped (multi-node-style) launches.

The scale-out analogue of an MPI library's intra-node/inter-node split:
ranks inside a node group talk over shared-memory rings (the fast path),
while traffic that crosses a group boundary rides the lazy UDS stream
fabric.  A grouped ``shm`` launch therefore opens

* ``2 * (group_size - 1)`` ring mappings per rank (intra-group mesh),
* one UDS listener, and
* at most ``n_groups - 1`` streams (the leader's worst case — the
  hierarchical collectives route inter-group traffic through leaders,
  so non-leaders usually open none),

instead of the ``O(N)`` per-rank mesh a flat launch would need — the fd
and segment budget the launcher's :func:`~repro.mpi.fabric.budget.
check_fd_budget` guard plans for.

Selected automatically by :func:`repro.mpi.world.init` when the
launcher exported both ``OMBPY_TRANSPORT=shm`` and ``OMBPY_GROUPS``.
"""

from __future__ import annotations

from ..matching import Envelope
from ..transport.base import Transport
from ..transport.shm import ShmTransport
from ..transport.uds import UdsTransport


class HybridTransport(UdsTransport, ShmTransport):
    """Intra-group shm rings + lazy inter-group UDS streams.

    The UDS listener, dialer and stream body are inherited as they are;
    the overrides below only route ring peers (``self._out``) to the shm
    side and merge them into what the stream side reports.
    """

    label = "hybrid"

    def __init__(
        self, world_rank: int, world_size: int, job_id: str, group_map
    ) -> None:
        # The two bases take different constructor arguments, so each is
        # set up explicitly rather than through one cooperative chain:
        # rings first (attached eagerly), then the stream listener.
        ShmTransport.__init__(
            self, world_rank, world_size, job_id,
            peers=list(group_map.members(group_map.group_of(world_rank))),
        )
        self.group_map = group_map
        self._job_id = job_id
        self._open_streams()

    # -- data path -------------------------------------------------------
    def send(self, dest_world_rank: int, env: Envelope, payload: bytes) -> None:
        if dest_world_rank in self._out:
            ShmTransport.send(self, dest_world_rank, env, payload)
        else:
            super().send(dest_world_rank, env, payload)

    def send_control(
        self, dest_world_rank: int, kind: int, payload: bytes = b""
    ) -> None:
        if dest_world_rank in self._out:
            ShmTransport.send_control(self, dest_world_rank, kind, payload)
        else:
            # Inter-group control frames ride the stream like data; the
            # base implementation routes through self.send and never
            # raises.
            Transport.send_control(self, dest_world_rank, kind, payload)

    # -- fabric surface ---------------------------------------------------
    def ensure_peer(self, peer_world_rank: int) -> None:
        if peer_world_rank not in self._out:
            super().ensure_peer(peer_world_rank)

    def connected_peers(self) -> list[int]:
        return sorted(set(self._out) | set(super().connected_peers()))

    def connection_stats(self) -> dict[str, int]:
        """Stream-fabric counters plus the eager shm ring count."""
        stats = super().connection_stats()
        stats["shm_peers"] = len(self._out)
        return stats

    def close(self) -> None:
        UdsTransport.close(self)
        ShmTransport.close(self)
