"""Persistent communication requests (MPI_Send_init / MPI_Recv_init).

OSU's multi-iteration loops re-issue identical sends and receives; MPI's
persistent requests let an implementation hoist per-call setup out of the
loop — the same hoisting the native baseline (:mod:`repro.native`) does
ad hoc.  A persistent request is created once, then repeatedly
``Start()``-ed and waited.
"""

from __future__ import annotations

from typing import Any

from .comm import Comm
from .exceptions import RequestError
from .request import Request, pin


class PersistentRequest:
    """Base: a re-startable communication operation.

    Each started instance hands the buffer to its runtime request
    (:func:`~repro.mpi.request.pin`), so an attached race sanitizer
    checks it until that request completes.
    """

    #: The MPI call that created the request, as observers see it.
    _op = ""

    def __init__(self, comm: Comm, buf: Any) -> None:
        self._comm = comm
        self._view = memoryview(buf).cast("B")
        self._active: Request | None = None

    def Start(self) -> None:
        """Begin one instance of the operation."""
        if self._active is not None and not self._active.done():
            raise RequestError(
                "Start() while the previous instance is still active"
            )
        self._active = self._launch()
        pin(self._comm.endpoint, self._active, self._view, self._op)

    def _launch(self) -> Request:
        raise NotImplementedError

    def Wait(self) -> None:
        """Complete the active instance."""
        if self._active is None:
            raise RequestError("Wait() before Start()")
        self._active.wait()

    def Test(self) -> bool:
        if self._active is None:
            raise RequestError("Test() before Start()")
        return self._active.test()[0]


class PersistentSend(PersistentRequest):
    """Created by :func:`send_init`; snapshots the buffer at Start()."""

    _op = "Send_init"

    def __init__(self, comm: Comm, buf: Any, dest: int, tag: int) -> None:
        super().__init__(comm, buf)
        self._dest = dest
        self._tag = tag

    def _launch(self) -> Request:
        return self._comm.isend_bytes(
            bytes(self._view), self._dest, self._tag
        )


class PersistentRecv(PersistentRequest):
    """Created by :func:`recv_init`; fills the buffer at Wait()."""

    _op = "Recv_init"

    def __init__(self, comm: Comm, buf: Any, source: int, tag: int) -> None:
        super().__init__(comm, buf)
        if self._view.readonly:
            raise RequestError("persistent receive buffer must be writable")
        self._source = source
        self._tag = tag

    def _launch(self) -> Request:
        return self._comm.irecv_bytes(
            self._source, self._tag, self._view.nbytes, sink=self._view
        )


def send_init(comm: Comm, buf: Any, dest: int, tag: int) -> PersistentSend:
    """Create a persistent send of ``buf`` to ``dest``."""
    return PersistentSend(comm, buf, dest, tag)


def recv_init(comm: Comm, buf: Any, source: int, tag: int) -> PersistentRecv:
    """Create a persistent receive into ``buf`` from ``source``."""
    return PersistentRecv(comm, buf, source, tag)


def startall(requests: list[PersistentRequest]) -> None:
    """Start several persistent requests (MPI_Startall)."""
    for r in requests:
        r.Start()


def waitall_persistent(requests: list[PersistentRequest]) -> None:
    """Wait for all started persistent requests."""
    for r in requests:
        r.Wait()

