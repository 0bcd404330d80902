"""Communicators: the central runtime object.

A :class:`Comm` couples a :class:`~repro.mpi.group.Group` (which world ranks
participate and in what order), a *context id* (isolating its traffic from
every other communicator in the matching engine), and the per-process
endpoint (transport + matching engine).

The byte-level API here (``send_bytes``/``recv_bytes``/...) is what both the
mpi4py-workalike bindings layer and the "native" baseline build on; the
collectives in :mod:`repro.mpi.collectives` are implemented against it too.
"""

from __future__ import annotations

import itertools
import struct
import threading
import time
from typing import Sequence

import numpy as np

from . import constants as C
from .exceptions import (
    CommError, CommRevokedError, RankError, RootError, TagError,
)
from .group import Group
from .matching import Envelope, MatchingEngine, RecvTicket
from .observer import Hooks
from .request import Request, RecvRequest, SendRequest
from .status import Status
from .transport.base import CTRL_REVOKE, Transport

# Bits of context id consumed per derivation level.
_CTX_SHIFT = 16
_CTX_MASK = (1 << _CTX_SHIFT) - 1

# Payload layout of a CTRL_REVOKE frame: the revoked context id.
_REVOKE_FRAME = struct.Struct("<q")


class Endpoint:
    """Per-process communication endpoint: one transport + one engine,
    and the runtime's one interposition seam — tools :meth:`attach` to
    ``observers`` and see the events of :mod:`repro.mpi.observer`
    through ``hooks``."""

    def __init__(self, transport: Transport) -> None:
        self.transport = transport
        self.observers: tuple = ()
        self.hooks = Hooks()
        self._seam_lock = threading.Lock()
        self.engine = MatchingEngine(self)
        transport.attach(self.engine)
        # Non-liveness control frames (CTRL_REVOKE) carry communicator
        # state; the innermost transport routes them here rather than to
        # the failure detector.
        transport.innermost().control_listener = self
        self.world_rank = transport.world_rank
        self.world_size = transport.world_size
        # Node-group topology (repro.mpi.topology.GroupMap) when the
        # launch declared one (--groups / OMBPY_GROUPS); the collective
        # selector switches to hierarchical algorithms when present.
        self.group_map = None

    def attach(self, tool) -> None:
        """Start delivering this endpoint's events to ``tool``."""
        with self._seam_lock:
            self.observers = self.observers + (tool,)
            self.hooks = Hooks(self.observers)

    def detach(self, tool) -> None:
        """Stop delivering events to ``tool`` (a no-op if not attached)."""
        with self._seam_lock:
            self.observers = tuple(o for o in self.observers if o is not tool)
            self.hooks = Hooks(self.observers)

    @property
    def telemetry(self):
        """The attached :class:`~repro.telemetry.Telemetry`, or None."""
        from ..telemetry import Telemetry

        return next((o for o in self.observers if isinstance(o, Telemetry)),
                    None)

    def on_control(self, env: Envelope, payload: bytes) -> None:
        """Handle a non-liveness control frame from a peer."""
        if env.tag == CTRL_REVOKE and len(payload) >= 8:
            (context,) = _REVOKE_FRAME.unpack_from(payload)
            self.engine.revoke_context(context)

    def close(self) -> None:
        self.transport.close()


class Comm:
    """A communicator over a group of world ranks."""

    def __init__(
        self,
        endpoint: Endpoint,
        group: Group,
        context: int = 0,
        thread_level: int = C.THREAD_MULTIPLE,
    ) -> None:
        my_rank = group.rank_of(endpoint.world_rank)
        if my_rank == C.UNDEFINED:
            raise CommError(
                f"world rank {endpoint.world_rank} not in communicator group"
            )
        self._endpoint = endpoint
        self._group = group
        self._context = context
        self._rank = my_rank
        self._freed = False
        self.thread_level = thread_level
        # Per-communicator derived-context counter; creation operations are
        # collective, so this stays identical across all member ranks.
        self._derive_counter = itertools.count(1)
        # Per-communicator collective sequence number for internal tags.
        self._coll_seq = itertools.count()
        self._coll_lock = threading.Lock()
        # ULFM recovery attempt counter.  shrink()/agree() are collective,
        # so the counter stays aligned across member ranks and yields
        # matching recovery tags/contexts.
        self._ulfm_seq = itertools.count(1)

    # -- identity --------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rank

    @property
    def size(self) -> int:
        return self._group.size

    def Get_rank(self) -> int:
        """Return this process's rank within the communicator."""
        return self._rank

    def Get_size(self) -> int:
        """Return the number of processes in the communicator."""
        return self._group.size

    def Get_group(self) -> Group:
        """Return the communicator's process group."""
        return self._group

    @property
    def context(self) -> int:
        return self._context

    @property
    def endpoint(self) -> Endpoint:
        return self._endpoint

    def _check_alive(self) -> None:
        if self._freed:
            raise CommError("operation on freed communicator")
        if self._endpoint.engine.is_revoked(self._context):
            raise CommRevokedError(
                f"communicator context {self._context:#x} was revoked",
                context=self._context,
            )

    def _world_rank(self, comm_rank: int) -> int:
        return self._group.world_rank(comm_rank)

    # -- point-to-point (byte level) --------------------------------------
    def send_bytes(self, payload: bytes, dest: int, tag: int) -> None:
        """Blocking buffered send of raw bytes."""
        self.isend_bytes(payload, dest, tag).wait()

    def isend_bytes(self, payload: bytes, dest: int, tag: int) -> Request:
        """Non-blocking buffered send; returns a completed request."""
        self._check_alive()
        if dest == C.PROC_NULL:
            return SendRequest(dest, tag, 0, self._endpoint)
        if not 0 <= dest < self.size:
            raise RankError(
                f"destination rank {dest} out of range [0, {self.size})"
            )
        if not C.is_valid_user_tag(tag) and tag < C.INTERNAL_TAG_BASE:
            raise TagError(f"invalid send tag {tag}")
        # Fail fast once a peer has been declared dead: the job cannot
        # complete, so don't queue more traffic toward it.
        self._endpoint.engine.check_failure()
        env = Envelope(self._context, self._rank, dest, tag, len(payload))
        dst_world = self._world_rank(dest)
        hooks = self._endpoint.hooks.on_send
        if hooks:
            for hook in hooks:
                hook(self._endpoint.world_rank, dst_world, env)
        self._endpoint.transport.send(dst_world, env, payload)
        return SendRequest(dest, tag, len(payload), self._endpoint)

    def irecv_bytes(
        self, source: int, tag: int, max_bytes: int, sink=None
    ) -> RecvRequest:
        """Post a non-blocking receive for up to ``max_bytes`` bytes."""
        self._check_alive()
        if source == C.PROC_NULL:
            # Matches MPI semantics: completes immediately with zero bytes.
            # The ticket must never be posted to the matching engine — a
            # posted-then-cancelled wildcard could swallow a real message
            # arriving in between.
            ticket = RecvTicket(self._context, C.ANY_SOURCE, tag, 0, -1)
            ticket.cancel()
            return RecvRequest(ticket, sink, self._endpoint)
        if not C.is_valid_recv_source(source, self.size):
            raise RankError(f"receive source {source} out of range")
        if not C.is_valid_recv_tag(tag) and tag < C.INTERNAL_TAG_BASE:
            raise TagError(f"invalid receive tag {tag}")
        src_world = (
            None if source == C.ANY_SOURCE else self._world_rank(source)
        )
        if src_world is not None and src_world != self._endpoint.world_rank:
            # On lazy connection-cache fabrics the channel is how this
            # rank *observes* the sender (EOF on crash, refused dial on
            # death): hint the transport so a pure receiver is not blind
            # to a peer that dies before ever being dialed.
            self._endpoint.transport.ensure_peer(src_world)
        ticket = self._endpoint.engine.post_recv(
            self._context, source, tag, max_bytes, source_world=src_world
        )
        req = RecvRequest(ticket, sink, self._endpoint)
        hooks = self._endpoint.hooks.on_post
        if hooks:
            for hook in hooks:
                hook(req, src_world, tag, self._context)
        return req

    def recv_bytes(
        self,
        source: int,
        tag: int,
        max_bytes: int,
        timeout: float | None = None,
    ) -> tuple[bytes, Status]:
        """Blocking receive; returns (payload, status)."""
        req = self.irecv_bytes(source, tag, max_bytes)
        hooks = self._endpoint.hooks.on_recv_wait
        if not hooks:
            req.wait(timeout)
        else:
            t0 = time.time_ns()
            try:
                req.wait(timeout)
            finally:
                dur = time.time_ns() - t0
                for hook in hooks:
                    hook(t0, dur, source, tag)
        return req.payload(), req._ticket.status

    def sendrecv_bytes(
        self,
        payload: bytes,
        dest: int,
        sendtag: int,
        source: int,
        recvtag: int,
        max_bytes: int,
    ) -> tuple[bytes, Status]:
        """Combined send+receive; deadlock-free (recv posted first)."""
        req = self.irecv_bytes(source, recvtag, max_bytes)
        self.send_bytes(payload, dest, sendtag)
        req.wait()
        return req.payload(), req._ticket.status

    # -- probing -----------------------------------------------------------
    def probe(self, source: int, tag: int, timeout: float | None = None) -> Status:
        """Blocking probe for a matching unexpected message."""
        self._check_alive()
        return self._endpoint.engine.probe(self._context, source, tag, timeout)

    def iprobe(self, source: int, tag: int) -> Status | None:
        """Non-blocking probe; None if nothing is queued."""
        self._check_alive()
        return self._endpoint.engine.iprobe(self._context, source, tag)

    # -- collectives (delegate to the algorithms package) -------------------
    def _collective(self, name: str, *args, root: int | None = None,
                    op=None):
        """Run blocking collective ``name`` (``collectives.blocking.<name>``)
        under a fresh internal tag, between its enter and exit events.

        MPI requires every rank to call collectives on a communicator in
        the same order, so the per-communicator tag counter agrees across
        ranks; observers see ``(name, root, op, tag)``.
        """
        from .collectives import blocking

        if root is not None:
            self._check_root(root)
        with self._coll_lock:
            tag = C.INTERNAL_TAG_BASE + next(self._coll_seq) % (1 << 20)
        run = getattr(blocking, name)
        hooks = self._endpoint.hooks
        enter, leave = hooks.on_coll_enter, hooks.on_coll_exit
        if not enter and not leave:
            return run(self, tag, *args)
        event = (self._context, name, root, getattr(op, "name", None), tag)
        for hook in enter:
            hook(*event)
        try:
            return run(self, tag, *args)
        finally:
            for hook in leave:
                hook(*event)

    def barrier(self) -> None:
        """Block until all ranks have entered the barrier."""
        self._collective("barrier")

    def bcast_bytes(self, payload: bytes | None, root: int) -> bytes:
        """Broadcast raw bytes from ``root``; all ranks return the data."""
        return self._collective("bcast", payload, root, root=root)

    def reduce_array(
        self, send: np.ndarray, op, root: int
    ) -> np.ndarray | None:
        """Reduce arrays elementwise to ``root``; non-roots return None."""
        return self._collective("reduce", send, op, root, root=root, op=op)

    def allreduce_array(self, send: np.ndarray, op) -> np.ndarray:
        """Reduce arrays elementwise; every rank returns the result."""
        return self._collective("allreduce", send, op, op=op)

    def gather_bytes(self, payload: bytes, root: int) -> list[bytes] | None:
        """Gather equal-size byte blocks to ``root``."""
        return self._collective("gather", payload, root, root=root)

    def scatter_bytes(
        self, blocks: Sequence[bytes] | None, root: int
    ) -> bytes:
        """Scatter one byte block per rank from ``root``."""
        return self._collective("scatter", blocks, root, root=root)

    def allgather_bytes(self, payload: bytes) -> list[bytes]:
        """All ranks gather every rank's equal-size block."""
        return self._collective("allgather", payload)

    def alltoall_bytes(self, blocks: Sequence[bytes]) -> list[bytes]:
        """Personalized all-to-all exchange of byte blocks."""
        return self._collective("alltoall", blocks)

    def reduce_scatter_array(
        self, send: np.ndarray, counts: Sequence[int], op
    ) -> np.ndarray:
        """Reduce then scatter segments of ``counts`` elements per rank."""
        return self._collective("reduce_scatter", send, counts, op, op=op)

    def scan_array(self, send: np.ndarray, op) -> np.ndarray:
        """Inclusive prefix reduction over ranks."""
        return self._collective("scan", send, op, op=op)

    def gatherv_bytes(
        self, payload: bytes, counts: Sequence[int] | None, root: int
    ) -> list[bytes] | None:
        """Gather variable-size byte blocks to ``root``."""
        return self._collective("gatherv", payload, counts, root, root=root)

    def scatterv_bytes(
        self, blocks: Sequence[bytes] | None, root: int
    ) -> bytes:
        """Scatter variable-size byte blocks from ``root``."""
        return self._collective("scatterv", blocks, root, root=root)

    def allgatherv_bytes(
        self, payload: bytes, counts: Sequence[int]
    ) -> list[bytes]:
        """All-gather of variable-size byte blocks."""
        return self._collective("allgatherv", payload, counts)

    def alltoallv_bytes(self, blocks: Sequence[bytes]) -> list[bytes]:
        """Personalized all-to-all of variable-size byte blocks."""
        return self._collective("alltoallv", blocks)

    def _check_root(self, root: int) -> None:
        if not 0 <= root < self.size:
            raise RootError(f"root rank {root} out of range [0, {self.size})")

    # -- communicator management --------------------------------------------
    def _derive_context(self) -> int:
        ctr = next(self._derive_counter)
        if ctr > _CTX_MASK:
            raise CommError("derived-communicator counter overflow")
        new_ctx = (self._context << _CTX_SHIFT) | ctr
        if new_ctx >= 1 << 62:
            raise CommError("communicator derivation too deep")
        return new_ctx

    def Dup(self) -> "Comm":
        """Duplicate: same group, fresh context (collective)."""
        self._check_alive()
        ctx = self._derive_context()
        # Synchronize so no rank races ahead and sends on the new context
        # before peers have created it (harmless here — matching buffers
        # unexpected messages — but Barrier mirrors MPI's collective nature).
        self.barrier()
        return Comm(self._endpoint, self._group, ctx, self.thread_level)

    def Split(self, color: int, key: int = 0) -> "Comm | None":
        """Partition into sub-communicators by color, ordered by key.

        Returns None for ``color < 0`` (the MPI_UNDEFINED convention).
        """
        self._check_alive()
        ctx = self._derive_context()
        # Allgather (color, key, world_rank) triples over the parent comm.
        mine = np.array(
            [color, key, self._endpoint.world_rank], dtype="<i8"
        ).tobytes()
        gathered = self.allgather_bytes(mine)
        triples = [
            tuple(int(x) for x in np.frombuffer(b, dtype="<i8"))
            for b in gathered
        ]
        if color < 0:
            return None
        members = sorted(
            (
                (k, wr)
                for c, k, wr in triples
                if c == color
            ),
        )
        new_group = Group([wr for _k, wr in members])
        # Distinguish same-context color groups by folding color into ctx.
        sub_ctx = (ctx << _CTX_SHIFT) | (color & _CTX_MASK)
        return Comm(self._endpoint, new_group, sub_ctx, self.thread_level)

    def Create_from_group(self, group: Group) -> "Comm | None":
        """Create a sub-communicator from a subgroup (collective).

        Ranks outside ``group`` receive None.
        """
        self._check_alive()
        ctx = self._derive_context()
        self.barrier()
        if group.rank_of(self._endpoint.world_rank) == C.UNDEFINED:
            return None
        return Comm(self._endpoint, group, ctx, self.thread_level)

    def Free(self) -> None:
        """Mark the communicator freed; later operations raise CommError."""
        self._freed = True

    # -- fault tolerance (ULFM) ---------------------------------------------
    def revoke(self) -> None:
        """Revoke the communicator (ULFM ``MPI_Comm_revoke``).

        Non-collective: any member may call it after observing a
        failure.  Every operation on this communicator — here and, once
        the revocation notice arrives, on every other member —
        completes with :class:`~repro.mpi.exceptions.CommRevokedError`,
        flushing ranks parked in its collectives so they can join
        :meth:`shrink`.
        """
        from . import ulfm

        ulfm.revoke(self)

    def shrink(self, timeout: float | None = None) -> "Comm":
        """Build a working communicator from the survivors (collective).

        All surviving members must call this; they agree on the set of
        failed ranks and return a new, smaller communicator with a
        fresh context.  ULFM's ``MPI_Comm_shrink``.
        """
        from . import ulfm

        return ulfm.shrink(self, timeout=timeout)

    def agree(self, flag: bool = True, timeout: float | None = None) -> bool:
        """Fault-tolerant agreement (ULFM ``MPI_Comm_agree``).

        Returns the logical AND of every live member's ``flag``,
        tolerating rank failures during the agreement itself.
        """
        from . import ulfm

        return ulfm.agree(self, flag, timeout=timeout)

    def is_revoked(self) -> bool:
        """Whether this communicator has been revoked."""
        return self._endpoint.engine.is_revoked(self._context)

    def failed_ranks(self) -> set[int]:
        """Communicator-local ranks recorded dead by the failure layer."""
        dead = self._endpoint.engine.failed_ranks()
        return {
            self._group.rank_of(wr)
            for wr in dead
            if self._group.rank_of(wr) != C.UNDEFINED
        }

    def _next_ulfm_attempt(self) -> int:
        """Reserve one recovery-attempt number (aligned across ranks)."""
        with self._coll_lock:
            return next(self._ulfm_seq)

    # MPI-style capitalized aliases.
    Revoke = revoke
    Shrink = shrink
    Agree = agree
    Is_revoked = is_revoked

    def Compare(self, other: "Comm") -> int:
        """Compare with another communicator (IDENT/CONGRUENT/...)."""
        if self is other or (
            self._context == other._context and self._group == other._group
        ):
            return C.IDENT
        group_cmp = self._group.Compare(other._group)
        if group_cmp == C.IDENT:
            return C.CONGRUENT
        return group_cmp

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Comm(rank={self._rank}, size={self.size}, "
            f"context={self._context:#x})"
        )
