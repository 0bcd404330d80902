"""Client for the benchmark service: timeouts and reconnect backoff.

:class:`ServiceClient` speaks the newline-JSON protocol to an
``ombpy-serve`` daemon over UDS or TCP.  Every request carries a
client-side socket timeout, and the initial connect retries with
jittered exponential backoff — a client racing the daemon's startup
(the CI smoke test does exactly this) converges instead of crashing.
"""

from __future__ import annotations

import socket
import time

from ..backoff import backoff_s
from .protocol import TERMINAL_STATES, JobSpec, read_message, write_message

#: Connect/backoff defaults.
CONNECT_TRIES = 8
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0


class ServiceError(RuntimeError):
    """The daemon answered with an ERROR/REJECTED reply."""

    def __init__(self, reply: dict) -> None:
        super().__init__(reply.get("reason") or reply.get("reply") or "error")
        self.reply = reply


class ServiceClient:
    """One connection to the service; reconnects lazily on demand."""

    def __init__(
        self,
        socket_path: str | None = None,
        tcp: tuple[str, int] | None = None,
        timeout: float = 30.0,
        connect_tries: int = CONNECT_TRIES,
    ) -> None:
        if (socket_path is None) == (tcp is None):
            raise ValueError("give exactly one of socket_path or tcp")
        self._socket_path = socket_path
        self._tcp = tcp
        self.timeout = timeout
        self.connect_tries = max(1, connect_tries)
        self._sock: socket.socket | None = None
        self._fh = None

    # -- connection -------------------------------------------------------
    def _connect_once(self) -> socket.socket:
        if self._socket_path is not None:
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self._socket_path)
        else:
            sock = socket.create_connection(self._tcp, timeout=self.timeout)
        return sock

    def connect(self) -> None:
        """Connect with jittered exponential backoff."""
        if self._sock is not None:
            return
        last: Exception | None = None
        for attempt in range(self.connect_tries):
            try:
                self._sock = self._connect_once()
                self._fh = self._sock.makefile("rb")
                return
            except OSError as exc:
                last = exc
                time.sleep(backoff_s(
                    attempt + 1, BACKOFF_BASE_S, BACKOFF_CAP_S, (0.5, 1.5)
                ))
        target = self._socket_path or f"{self._tcp[0]}:{self._tcp[1]}"
        raise ConnectionError(
            f"could not reach benchmark service at {target} "
            f"after {self.connect_tries} tries: {last}"
        )

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        self.connect()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- request plumbing -------------------------------------------------
    def request(self, obj: dict, timeout: float | None = None) -> dict:
        """One request/reply round trip.  A broken connection is retried
        once on a fresh socket before giving up."""
        for attempt in (1, 2):
            self.connect()
            try:
                if timeout is not None:
                    self._sock.settimeout(timeout)
                try:
                    write_message(self._sock, obj)
                    reply = read_message(self._fh)
                finally:
                    if timeout is not None:
                        self._sock.settimeout(self.timeout)
                if reply is None:
                    raise ConnectionError("service closed the connection")
                return reply
            except (OSError, ConnectionError):
                self.close()
                if attempt == 2:
                    raise
        raise AssertionError("unreachable")

    def _checked(self, obj: dict, timeout: float | None = None) -> dict:
        reply = self.request(obj, timeout=timeout)
        if not reply.get("ok"):
            raise ServiceError(reply)
        return reply

    # -- operations -------------------------------------------------------
    def submit(self, spec: JobSpec) -> str:
        """Submit a job; returns its id.  Raises :class:`ServiceError`
        with the rejection reason when admission control says no."""
        reply = self._checked({"op": "SUBMIT", "job": spec.to_wire()})
        return reply["job_id"]

    def status(self) -> dict:
        return self._checked({"op": "STATUS"})

    def job(self, job_id: str) -> dict:
        return self._checked({"op": "JOB", "job_id": job_id})["job"]

    def result(self, job_id: str, wait: bool = True,
               timeout: float | None = None) -> dict:
        """Fetch a job's terminal record, optionally blocking until it
        finishes (server-side wait, client socket timeout padded)."""
        request = {"op": "RESULT", "job_id": job_id, "wait": wait}
        sock_timeout = None
        if wait:
            request["timeout_s"] = timeout
            if timeout is not None:
                sock_timeout = timeout + 10.0
        reply = self._checked(request, timeout=sock_timeout)
        return reply["job"]

    def cancel(self, job_id: str) -> dict:
        return self._checked({"op": "CANCEL", "job_id": job_id})["job"]

    def drain(self) -> None:
        self._checked({"op": "DRAIN"})

    def run(self, spec: JobSpec, timeout: float | None = None) -> dict:
        """Submit and wait: returns the terminal job record."""
        job_id = self.submit(spec)
        return self.result(job_id, wait=True, timeout=timeout)

    def wait_state(self, job_id: str, states=TERMINAL_STATES,
                   timeout: float = 30.0, poll: float = 0.05) -> dict:
        """Client-side poll until the job reaches one of ``states``."""
        deadline = time.monotonic() + timeout
        while True:
            job = self.job(job_id)
            if job["state"] in states:
                return job
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout}s"
                )
            time.sleep(poll)
