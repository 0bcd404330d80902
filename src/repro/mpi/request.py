"""Non-blocking operation handles, the analogue of ``MPI_Request``.

The runtime uses an eager/buffered send protocol, so send requests complete
at post time; receive requests wrap a matching-engine ticket and complete
when a message matches.
"""

from __future__ import annotations

from typing import Sequence

from .exceptions import RequestError
from .matching import RecvTicket
from .observer import UNOBSERVED
from .status import Status


class Request:
    """Base class for non-blocking operation handles."""

    def test(self) -> tuple[bool, Status | None]:
        """Non-blocking completion check; returns (done, status-or-None)."""
        raise NotImplementedError

    def wait(self, timeout: float | None = None) -> Status:
        """Block until complete; return the operation status."""
        raise NotImplementedError

    def done(self) -> bool:
        """Return whether the operation has completed."""
        raise NotImplementedError

    def cancel(self) -> bool:
        """Attempt to cancel; returns whether cancellation succeeded."""
        return False


class SendRequest(Request):
    """Handle for a buffered (eager) send — complete at creation.

    The wire-level send completes eagerly, but *MPI* semantics only hand
    the buffer back to the user at wait/test — which is where the
    request's completion event fires (the race sanitizer verifies the
    buffer it pinned there).
    """

    __slots__ = ("_status", "_endpoint")

    def __init__(self, dest: int, tag: int, nbytes: int,
                 endpoint=UNOBSERVED) -> None:
        self._status = Status()
        self._status._fill(dest, tag, nbytes)
        self._endpoint = endpoint

    def test(self) -> tuple[bool, Status]:
        return True, self.wait()

    def wait(self, timeout: float | None = None) -> Status:
        if self._endpoint.hooks.on_request_done:
            completed(self._endpoint, self)
        return self._status

    def done(self) -> bool:
        return True


class RecvRequest(Request):
    """Handle for a posted receive.

    ``wait`` completes the receive and (if a destination buffer was
    registered) copies the payload into it.
    """

    __slots__ = ("_ticket", "_sink", "_payload", "_waited", "_endpoint")

    def __init__(self, ticket: RecvTicket, sink=None,
                 endpoint=UNOBSERVED) -> None:
        self._ticket = ticket
        # Optional writable buffer (memoryview-able) to copy the payload into.
        self._sink = sink
        self._payload: bytes | None = None
        self._waited = False
        self._endpoint = endpoint

    def test(self) -> tuple[bool, Status | None]:
        if self._ticket.done():
            self._finish()
            return True, self._ticket.status
        return False, None

    def wait(self, timeout: float | None = None) -> Status:
        hooks = self._endpoint.hooks.on_wait
        if hooks:
            for hook in hooks:
                hook(self, timeout)
        self._ticket.wait(timeout)
        self._finish()
        return self._ticket.status

    def done(self) -> bool:
        return self._ticket.done()

    def payload(self) -> bytes:
        """Return the received bytes (valid after completion)."""
        if not self._ticket.done():
            raise RequestError("payload() before receive completed")
        self._finish()
        assert self._payload is not None
        return self._payload

    def _finish(self) -> None:
        if self._waited:
            return
        self._payload = self._ticket.payload or b""
        # The completion event fires before the payload reaches the sink,
        # so a buffer the sanitizer pinned is verified before the fill.
        if self._endpoint.hooks.on_request_done:
            completed(self._endpoint, self)
        if self._sink is not None and self._payload:
            view = memoryview(self._sink).cast("B")
            n = len(self._payload)
            view[:n] = self._payload
        self._waited = True


def pin(endpoint, request, buf, op: str) -> None:
    """Tell ``endpoint``'s observers that call ``op`` handed ``buf`` to
    ``request`` (the object standing for the operation) until
    :func:`completed`."""
    for hook in endpoint.hooks.on_pin:
        hook(request, buf, op)


def completed(endpoint, request) -> None:
    """Tell ``endpoint``'s observers that ``request`` completed."""
    for hook in endpoint.hooks.on_request_done:
        hook(request)


def waitall(requests: Sequence[Request]) -> list[Status]:
    """Wait for all requests; return their statuses in order."""
    return [r.wait() for r in requests]


def testall(requests: Sequence[Request]) -> tuple[bool, list[Status] | None]:
    """Test all requests; statuses only if every one is complete."""
    results = [r.test() for r in requests]
    if all(done for done, _ in results):
        return True, [st for _, st in results]  # type: ignore[misc]
    return False, None


def waitany(requests: Sequence[Request], poll_interval: float = 1e-5) -> int:
    """Wait until at least one request completes; return its index.

    A simple polling implementation — adequate for the benchmark suite,
    which never has more than a window's worth of outstanding requests.
    """
    import time

    if not requests:
        raise RequestError("waitany on empty request list")
    while True:
        for i, r in enumerate(requests):
            if r.done():
                r.wait()
                return i
        time.sleep(poll_interval)
