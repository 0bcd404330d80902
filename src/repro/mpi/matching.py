"""Message-matching engine.

Implements MPI receive-matching semantics for one rank:

* an incoming message matches the *earliest* posted receive whose
  ``(context, source, tag)`` pattern it satisfies;
* a newly posted receive matches the *earliest* unexpected message it
  satisfies;
* messages between the same (sender, receiver, context) pair are
  non-overtaking — transports must deliver in per-sender order, and both
  queues here are FIFO-scanned, which together preserve MPI ordering.

The engine is thread-safe: transports deliver from their reader threads
while application threads post receives and block in :meth:`RecvTicket.wait`.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field

from .constants import ANY_SOURCE, ANY_TAG
from .exceptions import CommRevokedError, TruncationError
from .observer import UNOBSERVED
from .status import Status


@dataclass(frozen=True)
class Envelope:
    """Wire-level message envelope."""

    context: int  # communicator context id
    source: int   # sender's rank within the communicator
    dest: int     # receiver's rank within the communicator
    tag: int
    nbytes: int


@dataclass
class _Unexpected:
    envelope: Envelope
    payload: bytes
    order: int


class RecvTicket:
    """Handle for one posted receive; completed by the matching engine."""

    __slots__ = (
        "context", "source", "tag", "max_bytes", "order",
        "_event", "payload", "status", "error", "cancelled",
    )

    def __init__(
        self, context: int, source: int, tag: int, max_bytes: int, order: int
    ) -> None:
        self.context = context
        self.source = source
        self.tag = tag
        self.max_bytes = max_bytes
        self.order = order
        self._event = threading.Event()
        self.payload: bytes | None = None
        self.status = Status()
        self.error: Exception | None = None
        self.cancelled = False

    def matches(self, env: Envelope) -> bool:
        """Return True if ``env`` satisfies this receive's pattern."""
        if env.context != self.context:
            return False
        if self.source != ANY_SOURCE and env.source != self.source:
            return False
        if self.tag != ANY_TAG and env.tag != self.tag:
            return False
        return True

    def complete(self, env: Envelope, payload: bytes) -> None:
        """Deliver a matched message into this ticket and wake the waiter."""
        if env.nbytes > self.max_bytes:
            self.error = TruncationError(
                f"message of {env.nbytes} bytes truncates receive buffer "
                f"of {self.max_bytes} bytes (source={env.source}, "
                f"tag={env.tag})"
            )
        self.payload = payload
        self.status._fill(env.source, env.tag, env.nbytes)
        self._event.set()

    def cancel(self) -> None:
        """Mark cancelled and wake the waiter (engine removes the ticket)."""
        self.cancelled = True
        self.status.cancelled = True
        self._event.set()

    def fail(self, error: Exception) -> None:
        """Complete the ticket with an error and wake the waiter."""
        self.error = error
        self._event.set()

    def describe(self) -> str:
        """One-line wait-state description (for failure diagnostics)."""
        src = "ANY_SOURCE" if self.source == ANY_SOURCE else self.source
        tag = "ANY_TAG" if self.tag == ANY_TAG else self.tag
        return f"recv(source={src}, tag={tag}, context={self.context:#x})"

    def done(self) -> bool:
        return self._event.is_set()

    def wait(self, timeout: float | None = None) -> bytes:
        """Block until matched; return the payload.

        Raises the recorded error (e.g. truncation) if one occurred.
        """
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"receive (source={self.source}, tag={self.tag}) timed out "
                f"after {timeout}s"
            )
        if self.error is not None:
            raise self.error
        if self.cancelled:
            return b""
        assert self.payload is not None
        return self.payload


class MatchingEngine:
    """Per-rank matching state: posted receives + unexpected messages."""

    def __init__(self, endpoint=None) -> None:
        # Whose observers see this engine's events (standalone: nobody's).
        self._seam = endpoint if endpoint is not None else UNOBSERVED
        self._lock = threading.Lock()
        self._posted: list[RecvTicket] = []
        self._unexpected: list[_Unexpected] = []
        self._order = itertools.count()
        # Probe waiters: condition signalled on every delivery.
        self._delivered = threading.Condition(self._lock)
        # Sticky endpoint failure (e.g. a peer rank died).  Once set, every
        # pending and future receive completes with this error: with a rank
        # gone the job cannot make progress, so fail fast everywhere rather
        # than hang survivors until the global timeout.  ULFM recovery
        # clears it via acknowledge_failure(); the per-rank record in
        # _failed_ranks is permanent.
        self._failure: Exception | None = None
        self._failed_ranks: dict[int, Exception] = {}
        # Revoked communicator contexts: permanently dead — posted
        # receives fail, queued and future messages are discarded.
        self._revoked: set[int] = set()

    # -- receiver side ---------------------------------------------------
    def post_recv(
        self, context: int, source: int, tag: int, max_bytes: int,
        source_world: int | None = None,
    ) -> RecvTicket:
        """Post a receive; match immediately against unexpected messages.

        ``source_world`` (the sender's world rank, when the caller knows
        it) lets a receive targeting an already-dead peer fail promptly
        even after the sticky failure has been acknowledged.
        """
        with self._lock:
            ticket = RecvTicket(
                context, source, tag, max_bytes, next(self._order)
            )
            if context in self._revoked:
                ticket.fail(CommRevokedError(
                    f"communicator context {context:#x} was revoked",
                    context=context,
                ))
                return ticket
            for i, um in enumerate(self._unexpected):
                if ticket.matches(um.envelope):
                    del self._unexpected[i]
                    ticket.complete(um.envelope, um.payload)
                    hooks = self._seam.hooks.on_match_queued
                    if hooks:
                        for hook in hooks:
                            hook(um.envelope)
                    return ticket
            if self._failure is not None:
                ticket.fail(self._failure)
                return ticket
            if source_world is not None and source_world in self._failed_ranks:
                ticket.fail(self._failed_ranks[source_world])
                return ticket
            self._posted.append(ticket)
            return ticket

    def cancel_recv(self, ticket: RecvTicket) -> bool:
        """Cancel a posted receive if it has not already matched."""
        with self._lock:
            try:
                self._posted.remove(ticket)
            except ValueError:
                return False
            ticket.cancel()
            return True

    # -- transport side --------------------------------------------------
    def deliver(self, env: Envelope, payload: bytes) -> None:
        """Deliver an incoming message (called from transport threads)."""
        with self._lock:
            if env.context in self._revoked:
                # Straggler on a revoked communicator (e.g. a frame a
                # dead rank sent before dying): discard, don't queue.
                return
            for i, ticket in enumerate(self._posted):
                if ticket.matches(env):
                    del self._posted[i]
                    ticket.complete(env, payload)
                    matched = True
                    break
            else:
                self._unexpected.append(
                    _Unexpected(env, payload, next(self._order))
                )
                matched = False
            hooks = self._seam.hooks.on_deliver
            if hooks:
                depth = len(self._unexpected)
                for hook in hooks:
                    hook(env, matched, depth)
            self._delivered.notify_all()

    # -- failure propagation ----------------------------------------------
    def set_failure(self, error: Exception) -> None:
        """Fail every pending and future receive with ``error``.

        Called by the failure detector (or a transport read loop) when a
        peer rank is declared dead.  Blocked waiters — point-to-point
        receives, collective-internal receives, probes — wake immediately
        and raise instead of waiting out their timeouts.
        """
        with self._lock:
            rank = getattr(error, "rank", -1)
            if isinstance(rank, int) and rank >= 0:
                self._failed_ranks.setdefault(rank, error)
            if self._failure is not None:
                return
            self._failure = error
            posted, self._posted = self._posted, []
            for ticket in posted:
                ticket.fail(error)
            self._delivered.notify_all()

    def acknowledge_failure(self) -> Exception | None:
        """Clear the sticky failure so survivors can keep communicating.

        ULFM's ``MPI_Comm_failure_ack`` analogue: the recorded failure
        (returned, or None) stops poisoning new operations, while the
        per-rank death record stays — receives addressed at a dead peer
        still fail promptly, and :meth:`failed_ranks` still reports it
        for ``shrink()`` to exclude.
        """
        with self._lock:
            failure, self._failure = self._failure, None
            return failure

    def failed_ranks(self) -> set[int]:
        """World ranks recorded dead (survives acknowledge_failure)."""
        with self._lock:
            return set(self._failed_ranks)

    def failure(self) -> Exception | None:
        """The sticky endpoint failure, if one was recorded."""
        with self._lock:
            return self._failure

    def check_failure(self) -> None:
        """Raise the recorded endpoint failure, if any."""
        failure = self.failure()
        if failure is not None:
            raise failure

    # -- revocation (ULFM) -------------------------------------------------
    def revoke_context(self, context: int) -> bool:
        """Kill one communicator context: fail posted, purge queued.

        Every posted receive on ``context`` completes with
        :class:`~repro.mpi.exceptions.CommRevokedError` (waking ranks
        parked inside the revoked communicator's collectives), queued
        unexpected messages on it are discarded, and any message that
        arrives later is dropped on delivery.  Returns False when the
        context was already revoked.
        """
        with self._lock:
            if context in self._revoked:
                return False
            self._revoked.add(context)
            error = CommRevokedError(
                f"communicator context {context:#x} was revoked",
                context=context,
            )
            keep: list[RecvTicket] = []
            for ticket in self._posted:
                if ticket.context != context:
                    keep.append(ticket)
                    continue
                ticket.fail(error)
            self._posted = keep
            self._unexpected = [
                um for um in self._unexpected
                if um.envelope.context != context
            ]
            self._delivered.notify_all()
            return True

    def is_revoked(self, context: int) -> bool:
        """Whether ``context`` has been revoked."""
        with self._lock:
            return context in self._revoked

    def purge_unexpected(self, context: int) -> int:
        """Drop queued unexpected messages on ``context`` (non-sticky).

        Unlike :meth:`revoke_context` this does not condemn the context:
        the ULFM consensus uses it to clear protocol stragglers from a
        context it will use again.
        """
        with self._lock:
            before = len(self._unexpected)
            self._unexpected = [
                um for um in self._unexpected
                if um.envelope.context != context
            ]
            return before - len(self._unexpected)

    def describe_pending(self) -> str:
        """Snapshot of the wait-state for failure diagnostics."""
        with self._lock:
            posted = [t.describe() for t in self._posted]
            unexpected = len(self._unexpected)
        if not posted and not unexpected:
            return "no pending operations"
        parts = []
        if posted:
            parts.append(f"{len(posted)} posted: " + "; ".join(posted))
        if unexpected:
            parts.append(f"{unexpected} unexpected message(s) queued")
        return ", ".join(parts)

    # -- probing ---------------------------------------------------------
    def iprobe(
        self, context: int, source: int, tag: int
    ) -> Status | None:
        """Non-blocking probe of the unexpected queue."""
        probe = RecvTicket(context, source, tag, 0, -1)
        with self._lock:
            for um in self._unexpected:
                if probe.matches(um.envelope):
                    st = Status()
                    st._fill(
                        um.envelope.source, um.envelope.tag,
                        um.envelope.nbytes,
                    )
                    return st
        return None

    def probe(
        self, context: int, source: int, tag: int,
        timeout: float | None = None,
    ) -> Status:
        """Blocking probe: wait until a matching message is unexpected."""
        probe = RecvTicket(context, source, tag, 0, -1)
        with self._delivered:
            while True:
                for um in self._unexpected:
                    if probe.matches(um.envelope):
                        st = Status()
                        st._fill(
                            um.envelope.source, um.envelope.tag,
                            um.envelope.nbytes,
                        )
                        return st
                if self._failure is not None:
                    raise self._failure
                if not self._delivered.wait(timeout):
                    raise TimeoutError(
                        f"probe (source={source}, tag={tag}) timed out"
                    )

    # -- introspection (tests / debugging) --------------------------------
    def pending_unexpected(self) -> int:
        """Number of queued unexpected messages."""
        with self._lock:
            return len(self._unexpected)

    def pending_posted(self) -> int:
        """Number of posted-but-unmatched receives."""
        with self._lock:
            return len(self._posted)
