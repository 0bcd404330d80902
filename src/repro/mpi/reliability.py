"""Reliable delivery over an unreliable transport: ack + retransmit.

:class:`ReliableTransport` wraps any transport (typically one already
wrapped in the fault injector) and turns a lossy, duplicating,
reordering, truncating channel back into the ordered exactly-once
stream the matching engine requires — the same job TCP does for IP, or
an MPI library's eager protocol does over an unreliable NIC:

* every data frame gets a per-(sender, receiver) **sequence number**
  and a CRC32 **checksum** over the original payload;
* the receiver delivers strictly in sequence order, buffering
  out-of-order arrivals, dropping **duplicates**, and rejecting
  **corrupt/truncated** frames (header/length/CRC mismatch) as if they
  were lost;
* each delivery is confirmed with a **cumulative ACK** frame riding the
  reserved :data:`~repro.mpi.transport.base.ACK_CONTEXT`;
* unacknowledged frames are **retransmitted** with capped exponential
  backoff plus jitter; after ``max_retries`` attempts the peer is
  escalated to the failure detector (or straight to the matching
  engine's sticky failure when no detector runs) — a peer that is
  merely lossy is absorbed, a peer that is gone becomes a prompt
  :class:`~repro.mpi.exceptions.RankFailedError`.

Retransmissions and ACKs bypass the fault injector (via
:meth:`~repro.mpi.transport.base.Transport.send_unfaulted` and the
negative-context exemption respectively): they fire at wall-clock
times, so letting them consume fault-plan RNG draws would destroy
replay determinism, and a plan that could re-drop every retry would
let chaos starve the recovery it is meant to exercise.  Primary sends
still pass through the injector unchanged, so a reliable run consumes
the exact op/decision stream of an unreliable one.

Counters (:meth:`ReliableTransport.stats`) expose what was absorbed:
``sent``, ``delivered``, ``retransmits``, ``duplicates_dropped``,
``corrupt_dropped``, ``out_of_order``, ``acks_sent``,
``acks_received``, ``escalations``.

Knobs (rows of :mod:`repro.knobs`): ``OMBPY_RELIABLE=1`` arms the
layer under ``ombpy-run``/``init()``; ``OMBPY_REL_RTO_MS`` sets the
initial retransmit timeout (default 50 ms, doubling to 1 s max);
``OMBPY_REL_MAX_RETRIES`` the give-up threshold (default 8).
"""

from __future__ import annotations

import random
import struct
import threading
import time
import zlib

from ..backoff import backoff_s
from ..knobs import REL_MAX_RETRIES, REL_RTO_MS, read
from .exceptions import RankFailedError
from .matching import Envelope
from .transport.base import ACK_CONTEXT, Transport

DEFAULT_RTO_MAX = 1.0
DEFAULT_CLOSE_LINGER = 0.25

# Reliability frame header, prepended to every data payload:
# kind(u8) src_world(i32) seq(i64) orig_nbytes(i64) crc32(u32).
# src_world is needed because Envelope.source is communicator-local —
# sequencing and ACK addressing work on world ranks.
_FRAME = struct.Struct("<BiqqI")
FRAME_SIZE = _FRAME.size

_KIND_DATA = 1

_STAT_KEYS = (
    "sent", "delivered", "retransmits", "duplicates_dropped",
    "corrupt_dropped", "out_of_order", "acks_sent", "acks_received",
    "escalations",
)


class _Pending:
    """One sent-but-unacknowledged frame (sender side)."""

    __slots__ = ("env", "frame", "attempts", "next_retry")

    def __init__(self, env: Envelope, frame: bytes, next_retry: float) -> None:
        self.env = env
        self.frame = frame
        self.attempts = 1
        self.next_retry = next_retry


class _TxPeer:
    """Sender-side state toward one world rank."""

    __slots__ = ("next_seq", "unacked")

    def __init__(self) -> None:
        self.next_seq = 0
        self.unacked: dict[int, _Pending] = {}  # insertion-ordered by seq


class _RxPeer:
    """Receiver-side state from one world rank."""

    __slots__ = ("next_expected", "buffered")

    def __init__(self) -> None:
        self.next_expected = 0
        self.buffered: dict[int, tuple[Envelope, bytes]] = {}


class _RxShim:
    """Stands in for the matching engine on the inner transport.

    Concrete transports deliver straight into whatever ``attach()``
    gave them; this shim intercepts that path so frames pass through
    reliability processing first.  Everything else (``set_failure``,
    introspection...) proxies to the real engine, so callers that
    reach the engine through ``transport.engine`` keep working.
    """

    def __init__(self, rel: "ReliableTransport") -> None:
        self._rel = rel

    def deliver(self, env: Envelope, payload: bytes) -> None:
        self._rel._on_frame(env, payload)

    def __getattr__(self, name: str):
        return getattr(self._rel.engine, name)


class ReliableTransport(Transport):
    """Sequenced, acknowledged, checksummed delivery over ``inner``."""

    def __init__(
        self,
        inner: Transport,
        rto_initial: float | None = None,
        rto_max: float = DEFAULT_RTO_MAX,
        max_retries: int | None = None,
        close_linger: float = DEFAULT_CLOSE_LINGER,
    ) -> None:
        super().__init__(inner.world_rank, inner.world_size)
        self.inner = inner
        if rto_initial is None:
            rto_initial = read(REL_RTO_MS) / 1000.0
        if max_retries is None:
            max_retries = read(REL_MAX_RETRIES)
        if rto_initial <= 0:
            raise ValueError(f"rto_initial must be > 0, got {rto_initial}")
        REL_MAX_RETRIES.check(max_retries, what="max_retries")
        self.rto_initial = rto_initial
        self.rto_max = max(rto_max, rto_initial)
        self.max_retries = max_retries
        self.close_linger = close_linger
        self._tx: dict[int, _TxPeer] = {}
        self._rx: dict[int, _RxPeer] = {}
        self._tx_lock = threading.Lock()
        self._rx_lock = threading.Lock()
        self._stats = dict.fromkeys(_STAT_KEYS, 0)
        self._stats_lock = threading.Lock()
        # Telemetry mirror: when a registry is bound, every protocol
        # counter bump also lands in a "reliability.<key>" counter so
        # the job-level metrics agree with stats() exactly.
        self._tele_counters: dict | None = None
        # Jitter decorrelates retry storms; it is wall-clock-side only
        # and never touches the fault plan's decision stream.
        self._jitter = random.Random()
        self._closed = threading.Event()
        self._retransmitter: threading.Thread | None = None

    # -- plumbing ----------------------------------------------------------
    def attach(self, engine) -> None:
        self.engine = engine
        self.inner.attach(_RxShim(self))

    def report_peer_lost(self, peer_world_rank: int, reason: str) -> None:
        self.inner.report_peer_lost(peer_world_rank, reason)

    @property
    def name(self) -> str:
        return f"reliable({self.inner.name})"

    def bind_telemetry(self, tele) -> None:
        """Mirror protocol counters into a telemetry metrics registry.

        Called by :meth:`repro.telemetry.Telemetry.attach` while walking
        the transport stack.  The plain ``stats()`` snapshot keeps
        working either way.
        """
        if tele.metrics is None:
            self._tele_counters = None
            return
        self._tele_counters = {
            key: tele.metrics.counter(f"reliability.{key}")
            for key in _STAT_KEYS
        }

    def _count(self, key: str, n: int = 1) -> None:
        with self._stats_lock:
            self._stats[key] += n
        counters = self._tele_counters
        if counters is not None:
            counters[key].inc(n)

    def stats(self) -> dict[str, int]:
        """Snapshot of the protocol counters."""
        with self._stats_lock:
            return dict(self._stats)

    # -- send side ---------------------------------------------------------
    def send(self, dest_world_rank: int, env: Envelope, payload: bytes) -> None:
        if env.context < 0:
            # Control plane / ACKs: already ordered per-sender and
            # idempotent; sequencing them would deadlock ACKs on ACKs.
            self.inner.send(dest_world_rank, env, payload)
            return
        with self._tx_lock:
            peer = self._tx.setdefault(dest_world_rank, _TxPeer())
            seq = peer.next_seq
            peer.next_seq += 1
            frame = _FRAME.pack(
                _KIND_DATA, self.world_rank, seq, len(payload),
                zlib.crc32(payload),
            ) + payload
            wire_env = Envelope(
                env.context, env.source, env.dest, env.tag, len(frame)
            )
            pending = _Pending(
                wire_env, frame, time.monotonic() + self._rto(1)
            )
            peer.unacked[seq] = pending
        self._count("sent")
        self._ensure_retransmitter()
        try:
            self.inner.send(dest_world_rank, wire_env, frame)
        except Exception:
            # The peer is unreachable right now; forget the frame so the
            # retry loop doesn't re-report it, and let the caller see
            # the transport's own error (RankFailedError on TCP/UDS).
            with self._tx_lock:
                peer.unacked.pop(seq, None)
            raise

    def _rto(self, attempts: int) -> float:
        return backoff_s(
            attempts, self.rto_initial, self.rto_max, (0.9, 1.2),
            self._jitter,
        )

    def _ensure_retransmitter(self) -> None:
        if self._retransmitter is not None or self._closed.is_set():
            return
        with self._tx_lock:
            if self._retransmitter is not None:
                return
            self._retransmitter = threading.Thread(
                target=self._retransmit_loop,
                name=f"rel-retx-r{self.world_rank}", daemon=True,
            )
            self._retransmitter.start()

    def _retransmit_loop(self) -> None:
        tick = min(self.rto_initial / 2, 0.02)
        while not self._closed.wait(tick):
            now = time.monotonic()
            resend: list[tuple[int, Envelope, bytes]] = []
            escalate: list[int] = []
            failed = (
                self.engine.failed_ranks() if self.engine is not None
                else set()
            )
            with self._tx_lock:
                for rank, peer in self._tx.items():
                    if rank in failed:
                        # Declared dead elsewhere: stop retrying quietly.
                        peer.unacked.clear()
                        continue
                    for seq, pending in peer.unacked.items():
                        if pending.next_retry > now:
                            continue
                        if pending.attempts > self.max_retries:
                            escalate.append(rank)
                            break
                        pending.attempts += 1
                        pending.next_retry = now + self._rto(pending.attempts)
                        resend.append((rank, pending.env, pending.frame))
                for rank in escalate:
                    self._tx[rank].unacked.clear()
            for rank, env, frame in resend:
                self._count("retransmits")
                try:
                    self.inner.send_unfaulted(rank, env, frame)
                except Exception as exc:  # noqa: BLE001 - escalated below
                    self._escalate(rank, f"retransmit failed: {exc!r}")
            for rank in escalate:
                self._escalate(
                    rank,
                    f"no acknowledgement after {self.max_retries} "
                    f"retransmits (reliable-delivery timeout)",
                )

    def _escalate(self, peer: int, reason: str) -> None:
        self._count("escalations")
        if self.innermost().detector is not None:
            self.report_peer_lost(peer, reason)
        elif self.engine is not None:
            self.engine.set_failure(RankFailedError(
                f"rank {peer} failed: {reason} "
                f"(detected by rank {self.world_rank})",
                rank=peer,
            ))

    # -- receive side ------------------------------------------------------
    def _on_frame(self, env: Envelope, payload: bytes) -> None:
        if env.context == ACK_CONTEXT:
            self._on_ack(env.source, env.tag)
            return
        parsed = self._parse(env, payload)
        if parsed is None:
            # Truncated or corrupt: treat as lost; the sender's
            # retransmit timer recovers it.
            self._count("corrupt_dropped")
            return
        src_world, seq, data_env, data = parsed
        ack_to = -1
        deliveries: list[tuple[Envelope, bytes]] = []
        with self._rx_lock:
            peer = self._rx.setdefault(src_world, _RxPeer())
            if seq < peer.next_expected or seq in peer.buffered:
                # Duplicate (injected, or a retransmit whose ACK was
                # lost): drop, but re-ack so the sender stops resending.
                self._count("duplicates_dropped")
                ack_to = peer.next_expected - 1
            elif seq == peer.next_expected:
                deliveries.append((data_env, data))
                peer.next_expected += 1
                while peer.next_expected in peer.buffered:
                    deliveries.append(
                        peer.buffered.pop(peer.next_expected)
                    )
                    peer.next_expected += 1
                ack_to = peer.next_expected - 1
                # Deliver under the lock: per-peer arrival is already
                # serialized (one reader thread per peer), the lock
                # orders the rare cross-thread case (self-sends).
                for denv, dpayload in deliveries:
                    self.engine.deliver(denv, dpayload)
                    self._count("delivered")
            else:
                self._count("out_of_order")
                peer.buffered[seq] = (data_env, data)
                ack_to = peer.next_expected - 1
        if ack_to >= 0:
            self._send_ack(src_world, ack_to)

    def _parse(
        self, env: Envelope, payload: bytes
    ) -> tuple[int, int, Envelope, bytes] | None:
        if len(payload) < FRAME_SIZE:
            return None
        kind, src_world, seq, orig_nbytes, crc = _FRAME.unpack_from(payload)
        if kind != _KIND_DATA or seq < 0:
            return None
        data = payload[FRAME_SIZE:]
        if len(data) != orig_nbytes or zlib.crc32(data) != crc:
            return None
        restored = Envelope(
            env.context, env.source, env.dest, env.tag, orig_nbytes
        )
        return src_world, seq, restored, data

    def _send_ack(self, peer_world: int, cumulative_seq: int) -> None:
        # The ACK carries no payload: the cumulative sequence rides the
        # (64-bit) tag field and the sender's world rank rides source.
        ack = Envelope(
            ACK_CONTEXT, self.world_rank, peer_world, cumulative_seq, 0
        )
        self._count("acks_sent")
        try:
            self.inner.send(peer_world, ack, b"")
        except Exception:  # noqa: BLE001 - peer gone; retransmit escalates
            pass

    def _on_ack(self, peer_world: int, cumulative_seq: int) -> None:
        self._count("acks_received")
        with self._tx_lock:
            peer = self._tx.get(peer_world)
            if peer is None:
                return
            for seq in [
                s for s in peer.unacked if s <= cumulative_seq
            ]:
                del peer.unacked[seq]

    # -- teardown ----------------------------------------------------------
    def _has_unacked(self) -> bool:
        with self._tx_lock:
            return any(peer.unacked for peer in self._tx.values())

    def close(self) -> None:
        if self._closed.is_set():
            return
        # Linger briefly so in-flight frames (typically the final ACK
        # exchange) drain before the channel goes down.
        deadline = time.monotonic() + self.close_linger
        while self._has_unacked() and time.monotonic() < deadline:
            time.sleep(0.01)
        self._closed.set()
        if self._retransmitter is not None:
            self._retransmitter.join(timeout=1)
        self.inner.close()

