"""Buffer-race sanitizer — happens-before tracking for non-blocking buffers.

MPI forbids touching a communication buffer while a non-blocking operation
is in flight: writing a buffer after ``Isend`` posts it, reading or writing
an ``Irecv`` buffer before its ``Wait``/``Test``, pinning overlapping
regions under two pending requests, or mutating a ``Bcast`` buffer while
the collective is executing all silently corrupt data (and, per Hunold &
Carpen-Amarie, corrupt *measurements*).  None of that is visible to the
syntactic linter or to the deadlock verifier.

Activated with::

    with repro.analysis.sanitize(comm) as s:
        ...   # any bindings-level traffic on this rank

or for benchmark runs via the driver's ``--sanitize`` flag.  While active,
the sanitizer is an observer on this rank's endpoint
(:class:`repro.mpi.observer.Observer`): every buffer handed to a pending
operation (``on_pin``: ``Isend``/``Irecv``, persistent ``Start``, a
``Bcast`` while it runs) gets an ownership record — a :class:`Pin`
holding the buffer's host address interval, an Adler-32 content
snapshot, and the posting rank's vector-clock epoch — kept in the
sanitizer's own request → pin map until the request completes
(``on_request_done``).  Blocking calls declare their buffers
(``on_access``).  Per-rank vector clocks advance at pin and completion
and at collective entry (``on_coll_enter``, merging every rank's clock
through the shared fabric state on the threads transport), so each
diagnostic can order the post and the conflicting access.

Detected hazards (runtime rule IDs, continuing the verifier's OMB1xx band):

* **OMB201** write-after-Isend — the send buffer's checksum changed
  between post and wait/test (:class:`WriteAfterPostError`).
* **OMB202** read-or-write-before-Wait — a blocking operation touches a
  buffer pinned by a pending ``Irecv``, or an ``Irecv`` buffer's contents
  changed before completion (:class:`ReadBeforeWaitError`).
* **OMB203** overlapping pins — two pending requests pin overlapping
  byte ranges with at least one writer (:class:`OverlappingPinError`).
  Two pending *sends* of one buffer are legal (concurrent reads) and
  deliberately not flagged — bandwidth tests post whole windows of the
  same source buffer.
* **OMB204** buffer mutated during a collective — e.g. a non-root rank's
  ``Bcast`` buffer changed while the collective executed
  (:class:`CollectiveBufferError`).
* **OMB205** pins still pending when the sanitized region exits
  (recorded as warning findings; never raises).

Content snapshots are exact on the threads transport, where ranks share an
address space; on process transports the same checks degrade gracefully to
rank-local epoch/checksum validation (each rank still catches its own
misuse, which is where these bugs live).
"""

from __future__ import annotations

import os
import sys
import threading
import weakref
import zlib
from contextlib import contextmanager
from dataclasses import dataclass

from ..mpi.observer import Observer
from .findings import Finding
from .verifier import _resolve_endpoint


class RaceError(RuntimeError):
    """Base class for buffer-race diagnostics."""


class WriteAfterPostError(RaceError):
    """An Isend buffer was modified while the send was in flight."""


class ReadBeforeWaitError(RaceError):
    """An Irecv buffer was read or written before Wait/Test completed it."""


class OverlappingPinError(RaceError):
    """Two pending non-blocking operations pin overlapping buffer bytes."""


class CollectiveBufferError(RaceError):
    """A buffer participating in a collective was mutated mid-collective."""


RULE_WRITE_AFTER_POST = "OMB201"
RULE_TOUCH_BEFORE_WAIT = "OMB202"
RULE_OVERLAPPING_PINS = "OMB203"
RULE_COLLECTIVE_MUTATION = "OMB204"
RULE_LEAKED_PIN = "OMB205"


class VectorClock:
    """One rank's logical clock over all ranks of the job.

    Ticks on every ownership event (post, completion, collective entry and
    exit); merges with every peer's clock at collective boundaries, which
    are the program's cross-rank synchronization points.  Two epochs are
    *concurrent* when neither dominates — exactly the situation in which a
    buffer access races a pending operation.
    """

    __slots__ = ("rank", "_v")

    def __init__(self, rank: int, size: int) -> None:
        self.rank = rank
        self._v = [0] * max(size, rank + 1)

    def tick(self) -> tuple:
        self._v[self.rank] += 1
        return tuple(self._v)

    def merge(self, other: tuple) -> None:
        for i, x in enumerate(other):
            if i < len(self._v) and x > self._v[i]:
                self._v[i] = x

    def snapshot(self) -> tuple:
        return tuple(self._v)

    @staticmethod
    def leq(a: tuple, b: tuple) -> bool:
        """Does epoch ``a`` happen-before-or-equal epoch ``b``?"""
        return len(a) == len(b) and all(x <= y for x, y in zip(a, b))

    @staticmethod
    def concurrent(a: tuple, b: tuple) -> bool:
        return not VectorClock.leq(a, b) and not VectorClock.leq(b, a)


class _RaceState:
    """Cross-rank sanitizer state, shared through the transport fabric.

    Mirrors the verifier's ``_SharedState``: on the threads transport all
    ranks resolve to one instance (anchored on the ``InprocFabric``) so
    collective boundaries can merge every rank's vector clock; process
    transports get a per-process instance and rank-local clocks.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.clocks: dict[int, VectorClock] = {}

    def register(self, rank: int, clock: VectorClock) -> None:
        with self.lock:
            self.clocks[rank] = clock

    def unregister(self, rank: int) -> None:
        with self.lock:
            self.clocks.pop(rank, None)

    def merge_peers_into(self, clock: VectorClock) -> None:
        """Collective boundary: absorb every registered peer's epoch."""
        with self.lock:
            snapshots = [
                c.snapshot() for r, c in self.clocks.items()
                if r != clock.rank
            ]
        for snap in snapshots:
            clock.merge(snap)


#: fabric/transport -> shared clock state for all ranks on it.
_STATES: "weakref.WeakKeyDictionary[object, _RaceState]" = \
    weakref.WeakKeyDictionary()
_STATES_LOCK = threading.Lock()


def _race_state_for(transport: object) -> _RaceState:
    anchor = getattr(transport, "_fabric", None)
    if anchor is None:
        anchor = transport
    with _STATES_LOCK:
        state = _STATES.get(anchor)
        if state is None:
            state = _RaceState()
            _STATES[anchor] = state
        return state


# -- locating the user's call site ----------------------------------------

_REPRO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Frames in these packages are plumbing, not the user's post/wait site.
_SKIP_DIRS = tuple(
    os.path.join(_REPRO_DIR, d) + os.sep
    for d in ("analysis", "bindings", "mpi")
)


def _user_location() -> str:
    """``file:line`` of the nearest stack frame outside the MPI plumbing."""
    frame = sys._getframe(1)
    fallback = None
    while frame is not None:
        fname = frame.f_code.co_filename
        where = f"{fname}:{frame.f_lineno}"
        if fallback is None:
            fallback = where
        if not os.path.abspath(fname).startswith(_SKIP_DIRS):
            return where
        frame = frame.f_back
    return fallback or "<unknown>"


#: Calls whose pin is a receive buffer the operation will write.
_RECEIVES = ("Irecv", "Recv_init")
#: Non-blocking point-to-point calls; any other pinning call is a
#: collective that owns its buffer only while it runs.
_POINT_TO_POINT = ("Isend", "Send_init") + _RECEIVES


@dataclass
class Pin:
    """Ownership record for one buffer under one pending operation."""

    op: str                     # "Isend" / "Irecv" / "bcast(root=0)" / ...
    lo: int                     # host address interval [lo, hi)
    hi: int
    nbytes: int
    view: memoryview            # live view, re-checksummed at release
    checksum: int               # Adler-32 snapshot taken at post time
    epoch: tuple                # poster's vector-clock epoch
    where: str                  # user source location of the post
    desc: str                   # human-readable buffer description
    writes: bool                # operation writes the buffer (Irecv family)

    @property
    def collective(self) -> bool:
        return self.op not in _POINT_TO_POINT

    def overlaps(self, lo: int, hi: int) -> bool:
        return self.nbytes > 0 and hi > self.lo and lo < self.hi

    def describe(self) -> str:
        return (
            f"{self.desc} pinned by '{self.op}' posted at {self.where} "
            f"(epoch {self.epoch})"
        )


class Sanitizer(Observer):
    """Per-rank sanitizer, attached to one endpoint's observers."""

    def __init__(self, endpoint, shared: _RaceState,
                 strict: bool = True) -> None:
        self.endpoint = endpoint
        self.rank: int = endpoint.world_rank
        self.shared = shared
        self.strict = strict
        self.findings: list[Finding] = []
        self.clock = VectorClock(self.rank, endpoint.world_size)
        #: id(request) -> (request, pin) until the request completes
        self._owned: dict[int, tuple] = {}
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------
    def attach(self) -> None:
        self.shared.register(self.rank, self.clock)
        self.endpoint.attach(self)

    def detach(self) -> None:
        self.endpoint.detach(self)
        self.shared.unregister(self.rank)

    def finish(self) -> None:
        """End-of-region check: report (never raise) still-pending pins."""
        with self._lock:
            owned, self._owned = self._owned, {}
        leaked = [pin for _req, pin in owned.values() if not pin.collective]
        for pin in leaked:
            self.findings.append(Finding(
                rule=RULE_LEAKED_PIN, severity="warning",
                path=f"rank {self.rank}", line=0, col=0,
                message=(
                    f"rank {self.rank}: {pin.describe()} was still pending "
                    "when the sanitized region exited — the operation was "
                    "never completed with wait/test"
                ),
            ))

    def _report(self, rule: str, message: str, exc_type) -> None:
        self.findings.append(Finding(
            rule=rule, severity="error", path=f"rank {self.rank}",
            line=0, col=0, message=message,
        ))
        if self.strict:
            raise exc_type(message)

    # -- events: pin lifecycle -------------------------------------------
    def on_pin(self, request, buf, op: str) -> None:
        """``request`` owns ``buf`` (a BufferSpec or any byte buffer)."""
        if not hasattr(buf, "addr_range"):
            from ..bindings.buffers import resolve_buffer

            buf = resolve_buffer(buf)
        lo, hi = buf.addr_range()
        pin = Pin(
            op=op, lo=lo, hi=hi, nbytes=buf.nbytes, view=buf.view,
            checksum=buf.checksum(), epoch=(), where=_user_location(),
            desc=buf.describe(), writes=op in _RECEIVES,
        )
        if pin.collective:
            # Entry is a synchronization event: absorb peer epochs.
            self.clock.tick()
            self.shared.merge_peers_into(self.clock)
            pin.epoch = self.clock.snapshot()
        else:
            self._check_overlap(pin)
            pin.epoch = self.clock.tick()
        with self._lock:
            self._owned[id(request)] = (request, pin)

    def _check_overlap(self, pin: Pin) -> None:
        # Two pending reads (send+send) of one buffer are legal; any
        # overlap involving a writer is not.
        for prev in self._pending_overlaps(pin.lo, pin.hi):
            if pin.writes or prev.writes:
                self._report(
                    RULE_OVERLAPPING_PINS,
                    f"rank {self.rank}: '{pin.op}' posted at {pin.where} "
                    f"pins bytes [{pin.lo:#x}, {pin.hi:#x}) of {pin.desc}, "
                    f"overlapping {prev.describe()} — two pending operations "
                    "may not share buffer bytes unless both are sends",
                    OverlappingPinError,
                )

    def on_request_done(self, request) -> None:
        """The owning operation completed (wait/test, or the collective
        returned); verify the buffer and unpin it."""
        with self._lock:
            entry = self._owned.pop(id(request), None)
            if entry is None:
                return
            pin = entry[1]
        if pin.collective:
            self.shared.merge_peers_into(self.clock)
        self.clock.tick()
        if pin.nbytes == 0 or zlib.adler32(pin.view) == pin.checksum:
            return
        here = _user_location()
        if pin.collective:
            self._report(
                RULE_COLLECTIVE_MUTATION,
                f"rank {self.rank}: {pin.desc} was mutated during "
                f"collective '{pin.op}' entered at {pin.where} "
                f"(detected at exit, {here}; entry epoch "
                f"{pin.epoch}) — all ranks' buffers must stay "
                "untouched while the collective executes",
                CollectiveBufferError,
            )
        elif pin.writes:
            self._report(
                RULE_TOUCH_BEFORE_WAIT,
                f"rank {self.rank}: {pin.desc} was written between the "
                f"'{pin.op}' post at {pin.where} and its completion at "
                f"{here} — receive-buffer contents are undefined until "
                "Wait/Test",
                ReadBeforeWaitError,
            )
        else:
            self._report(
                RULE_WRITE_AFTER_POST,
                f"rank {self.rank}: {pin.desc} was written while "
                f"'{pin.op}' posted at {pin.where} was in flight "
                f"(detected at completion, {here}) — MPI forbids "
                "modifying a send buffer before wait/test",
                WriteAfterPostError,
            )

    # -- events: blocking accesses and collectives -----------------------
    def on_access(self, spec, op: str, write: bool) -> None:
        """Blocking call ``op`` is about to read (or write) ``spec``."""
        lo, hi = spec.addr_range()
        for pin in self._pending_overlaps(lo, hi):
            if pin.writes:
                verb = "writes" if write else "reads"
                self._report(
                    RULE_TOUCH_BEFORE_WAIT,
                    f"rank {self.rank}: '{op}' at {_user_location()} "
                    f"{verb} {spec.describe()}, which overlaps "
                    f"{pin.describe()} — the receive buffer belongs to the "
                    "pending receive until Wait/Test completes it",
                    ReadBeforeWaitError,
                )
            elif write:
                self._report(
                    RULE_WRITE_AFTER_POST,
                    f"rank {self.rank}: '{op}' at {_user_location()} "
                    f"writes {spec.describe()}, which overlaps "
                    f"{pin.describe()} — MPI forbids modifying a send "
                    "buffer before wait/test",
                    WriteAfterPostError,
                )

    def _pending_overlaps(self, lo: int, hi: int) -> list[Pin]:
        with self._lock:
            return [
                pin for _req, pin in self._owned.values()
                if not pin.collective and pin.overlaps(lo, hi)
            ]

    def on_coll_enter(self, context, name, root, op, tag) -> None:
        """Collective entry is a vector-clock synchronization point."""
        self.clock.tick()
        self.shared.merge_peers_into(self.clock)


@contextmanager
def sanitize(target, *, strict: bool = True):
    """Sanitize all buffer traffic of this rank inside the ``with`` block.

    ``target`` is any communicator-bearing object (runtime ``Comm`` or
    ``World``, bindings ``Comm``/``CommWorld``, or an ``Endpoint``), the
    same resolution as :func:`repro.analysis.verify`.  ``strict=True``
    (default) raises a :class:`RaceError` subclass at the detection point;
    ``strict=False`` records findings on ``Sanitizer.findings`` instead.

    Composes freely with ``verify`` and telemetry — each is one more
    observer on the same endpoint.
    """
    endpoint = _resolve_endpoint(target)
    shared = _race_state_for(endpoint.transport)
    s = Sanitizer(endpoint, shared, strict=strict)
    s.attach()
    try:
        yield s
    except BaseException:
        raise
    else:
        s.finish()
    finally:
        s.detach()
