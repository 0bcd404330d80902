"""TCP transport for multi-process runs, on the lazy stream fabric.

Each rank binds a listening socket; the launcher distributes the full
``rank -> port`` map; connections are then established *on first send*
by :class:`~repro.mpi.fabric.stream.StreamTransport` instead of the old
eager O(N²) mesh — ``establish_mesh`` just starts the acceptor and
returns.  TCP's in-order delivery per connection provides the per-sender
ordering the matching engine requires, and the fabric's reader chaining
preserves it across LRU eviction and re-dial.

Failure semantics are unchanged: an unexpected EOF / ``ECONNRESET`` on
an established connection is reported to the attached failure detector,
and a dial that stays refused is a dead peer (the port map is only
distributed after every rank reached ``listen``, so there is no
listener-startup race to wait out).
"""

from __future__ import annotations

import socket

from ..fabric.stream import StreamTransport

__all__ = ["TcpTransport"]


class TcpTransport(StreamTransport):
    """Localhost TCP transport for one rank (lazy connection cache)."""

    label = "tcp"

    def __init__(
        self,
        world_rank: int,
        world_size: int,
        listen_sock: socket.socket,
        port_map: dict[int, int],
        host: str = "127.0.0.1",
    ) -> None:
        super().__init__(world_rank, world_size)
        self._host = host
        self._port_map = port_map
        self._listen_sock = listen_sock
        self._open_streams()

    @staticmethod
    def bind_ephemeral(host: str = "127.0.0.1") -> socket.socket:
        """Bind a listening socket on an OS-assigned port."""
        s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        s.bind((host, 0))
        s.listen(128)
        return s

    def _listen(self) -> socket.socket:
        # Bound before construction: the port has to be in the launcher's
        # rendezvous map before any peer can be told about it.
        return self._listen_sock

    def _dial_peer(self, peer: int) -> socket.socket:
        addr = (self._host, self._port_map[peer])
        return socket.create_connection(addr, timeout=10.0)

    def _configure(self, sock: socket.socket) -> None:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
