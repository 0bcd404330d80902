"""Unix-domain-socket transport, on the lazy stream fabric.

Same framing and fabric as the TCP transport, but over ``AF_UNIX``
sockets — the lower-latency local path (no TCP/IP stack, no port
allocation), standing in for the shared-memory channels real MPI
libraries use intra-node.  Selected with ``ombpy-run --transport uds``.

UDS has no rendezvous step: a rank's address is its socket file, which
appears when the rank binds.  A dial can therefore race rank startup —
``ENOENT`` (file not there yet) is retried up to the full dial timeout,
while a *refused* connect keeps the short dead-peer patience the fabric
applies everywhere.
"""

from __future__ import annotations

import errno
import os
import socket
import tempfile

from ..fabric.stream import StreamTransport


def socket_dir(job_id: str) -> str:
    """Directory holding the job's rank sockets."""
    return os.path.join(tempfile.gettempdir(), f"ombpy-uds-{job_id}")


def socket_path(job_id: str, rank: int) -> str:
    return os.path.join(socket_dir(job_id), f"rank{rank}.sock")


class UdsTransport(StreamTransport):
    """AF_UNIX transport for one rank (lazy connection cache)."""

    label = "uds"
    startup_errnos = frozenset({errno.ENOENT})

    def __init__(self, world_rank: int, world_size: int, job_id: str) -> None:
        super().__init__(world_rank, world_size)
        self._job_id = job_id
        self._open_streams()

    def _listen(self) -> socket.socket:
        os.makedirs(socket_dir(self._job_id), exist_ok=True)
        self._path = socket_path(self._job_id, self.world_rank)
        try:
            os.unlink(self._path)
        except FileNotFoundError:
            pass
        listen = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listen.bind(self._path)
        listen.listen(max(self.world_size, 8))
        return listen

    def _dial_peer(self, peer: int) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.connect(socket_path(self._job_id, peer))
        except BaseException:
            sock.close()
            raise
        return sock

    def close(self) -> None:
        super().close()
        try:
            os.unlink(self._path)
        except OSError:
            pass
