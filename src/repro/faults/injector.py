"""Fault-injecting transport wrapper.

:class:`FaultyTransport` wraps any concrete
:class:`~repro.mpi.transport.base.Transport` at the send boundary and
applies a :class:`~repro.faults.plan.FaultPlan` to the outgoing message
stream.  Faults are decided per send operation from the plan's per-rank
RNG with a fixed number of draws per op, so the schedule is
deterministic for a given (plan, rank, send sequence).

Injected fault taxonomy:

* **drop** — the message is never handed to the inner transport;
* **duplicate** — the message is sent twice back-to-back;
* **truncate** — the payload (and the envelope byte count) is cut short,
  modelling a corrupted/short message;
* **delay / reorder** — the message (and, to preserve per-sender
  non-overtaking, every subsequent message to the same destination) is
  held in a staging queue and released after ``delay_hold`` further send
  ops — reordering it relative to traffic to *other* destinations while
  keeping each destination's stream FIFO;
* **stall** — the sending thread sleeps ``stall_ms`` before the send
  (slow-rank emulation);
* **crash** — at the scheduled op index the rank dies: hard
  ``os._exit`` under process transports, :class:`InjectedCrash` raised
  in the sending thread under the threads transport.

Control-plane frames (heartbeats, goodbyes, revocations),
reliability-protocol ACKs, and ULFM recovery traffic pass through
untouched and consume no RNG draws: their timing is wall-clock driven,
and letting them perturb the decision stream would destroy replay
determinism — and the recovery machinery must not depend on the very
fault-absorption layer it reconfigures.  Reliability-layer
*retransmissions* likewise bypass injection via
:meth:`~repro.mpi.transport.base.Transport.send_unfaulted`.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass

from ..knobs import FAULT_BACKSTOP_MS, read
from ..mpi.matching import Envelope
from ..mpi.transport.base import Transport, fault_exempt
from .plan import FaultPlan


class InjectedCrash(RuntimeError):
    """A scheduled rank crash in ``raise`` mode (threads transport)."""

    def __init__(self, rank: int, op: int, exit_code: int) -> None:
        super().__init__(
            f"injected crash of rank {rank} at send op {op}"
        )
        self.rank = rank
        self.op = op
        self.exit_code = exit_code


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault, in replay-comparable form."""

    op: int
    kind: str
    source: int
    dest: int
    context: int
    tag: int
    nbytes: int
    detail: str = ""

    def line(self) -> str:
        """Stable one-line rendering (what the event log compares)."""
        text = (
            f"op={self.op:06d} {self.kind} src={self.source} "
            f"dest={self.dest} ctx={self.context:#x} tag={self.tag} "
            f"nbytes={self.nbytes}"
        )
        return f"{text} {self.detail}" if self.detail else text


class _HeldQueue:
    """Per-destination staging queue for delayed/reordered messages."""

    __slots__ = ("release_op", "created", "frames")

    def __init__(self, release_op: int) -> None:
        self.release_op = release_op
        self.created = time.monotonic()
        self.frames: list[tuple[Envelope, bytes]] = []


class FaultyTransport(Transport):
    """Wrap ``inner`` and inject faults per ``plan`` on the send path.

    Held (delayed) messages are normally released by op count, but a
    sender that simply stops sending would otherwise strand its last
    held messages forever — deadlocking the *receiver*, which is a
    hang the chaos layer caused rather than found.  A background reaper
    therefore force-releases any queue held longer than the plan's
    ``backstop_ms`` of wall time (``OMBPY_FAULT_BACKSTOP_MS`` overrides
    it at run time).  Reaper timing is inherently nondeterministic,
    which is why the event log records injection *decisions* only —
    those are a pure function of (plan, rank, op).
    """

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        log_path: str | None = None,
    ) -> None:
        super().__init__(inner.world_rank, inner.world_size)
        self.inner = inner
        self.plan = plan
        self.max_hold_seconds = self._resolve_backstop(plan)
        self.events: list[FaultEvent] = []
        self._rng = plan.rng_for(inner.world_rank)
        self._crash = plan.crashes(inner.world_rank)
        self._op = 0
        self._held: dict[int, _HeldQueue] = {}
        self._lock = threading.Lock()
        self._log_path = log_path
        self._closed = threading.Event()
        self._reaper: threading.Thread | None = None

    # -- passthrough plumbing ---------------------------------------------
    @staticmethod
    def _resolve_backstop(plan: FaultPlan) -> float:
        # The variable beats the plan so CI can tune slow hosts without
        # editing committed plan files.
        ms = read(FAULT_BACKSTOP_MS)
        return (plan.backstop_ms if ms is None else ms) / 1000.0

    def attach(self, engine) -> None:
        self.engine = engine
        self.inner.attach(engine)

    def report_peer_lost(self, peer_world_rank: int, reason: str) -> None:
        # The detector installs itself on the innermost transport.
        self.inner.report_peer_lost(peer_world_rank, reason)

    def send_unfaulted(
        self, dest_world_rank: int, env: Envelope, payload: bytes
    ) -> None:
        # Reliability-layer retransmissions: skip injection *and* the
        # RNG (see Transport.send_unfaulted).
        self.inner.send_unfaulted(dest_world_rank, env, payload)

    @property
    def name(self) -> str:
        return f"faulty({self.inner.name})"

    # -- event log --------------------------------------------------------
    def event_lines(self) -> list[str]:
        """The injected-event log (identical across same-plan replays)."""
        with self._lock:
            return [e.line() for e in self.events]

    def _write_log(self) -> None:
        if self._log_path is None:
            return
        path = f"{self._log_path}.rank{self.world_rank}"
        try:
            with open(path, "w", encoding="utf-8") as fh:
                for event in self.events:
                    fh.write(event.line() + "\n")
        except OSError:
            pass

    # -- send path --------------------------------------------------------
    def send(self, dest_world_rank: int, env: Envelope, payload: bytes) -> None:
        if fault_exempt(env.context):
            # Control plane, reliability ACKs, and ULFM recovery traffic
            # are exempt: no faults, no RNG draws.
            self.inner.send(dest_world_rank, env, payload)
            return

        with self._lock:
            op = self._op
            self._op += 1
            # Fixed draw count per op keeps the decision stream aligned
            # with the op index regardless of which faults fire.
            r = self._rng
            draws = {
                "drop": r.random(),
                "duplicate": r.random(),
                "delay": r.random(),
                "truncate": r.random(),
                "stall": r.random(),
                "fraction": r.random(),
            }
            actions = self._decide(op, dest_world_rank, env, payload, draws)
            # Held-frame releases happen under the lock: a direct send
            # deciding after us cannot start until these are on the wire,
            # so released traffic is never overtaken.
            self._release_due(op)

        # Execute this op's own actions outside the lock: sends may
        # block for flow control and stalls sleep.
        self._execute(op, dest_world_rank, actions)

    def _decide(self, op, dest, env, payload, draws):
        """Choose this op's actions (called under the lock)."""
        plan = self.plan
        if self._crash is not None and op == self._crash.at_op:
            self.events.append(FaultEvent(
                op, "crash", env.source, dest, env.context, env.tag,
                env.nbytes,
                f"mode={self._crash.mode} exit_code={self._crash.exit_code}",
            ))
            return [("crash", env, payload)]

        actions: list[tuple[str, Envelope, bytes]] = []
        if plan.stall > 0 and draws["stall"] < plan.stall:
            self.events.append(FaultEvent(
                op, "stall", env.source, dest, env.context, env.tag,
                env.nbytes, f"ms={plan.stall_ms}",
            ))
            actions.append(("stall", env, payload))

        if plan.drop > 0 and draws["drop"] < plan.drop:
            self.events.append(FaultEvent(
                op, "drop", env.source, dest, env.context, env.tag,
                env.nbytes,
            ))
            return actions  # message vanishes

        if plan.truncate > 0 and draws["truncate"] < plan.truncate \
                and env.nbytes > 0:
            keep = int(env.nbytes * draws["fraction"])
            payload = payload[:keep]
            env = Envelope(env.context, env.source, env.dest, env.tag, keep)
            self.events.append(FaultEvent(
                op, "truncate", env.source, dest, env.context, env.tag,
                env.nbytes, f"kept={keep}",
            ))

        copies = 1
        if plan.duplicate > 0 and draws["duplicate"] < plan.duplicate:
            copies = 2
            self.events.append(FaultEvent(
                op, "duplicate", env.source, dest, env.context, env.tag,
                env.nbytes,
            ))

        held = self._held.get(dest)
        delay_hit = plan.delay > 0 and draws["delay"] < plan.delay
        if held is None and delay_hit:
            held = self._held[dest] = _HeldQueue(op + plan.delay_hold)
            self.events.append(FaultEvent(
                op, "delay", env.source, dest, env.context, env.tag,
                env.nbytes, f"hold={plan.delay_hold}",
            ))
            self._ensure_reaper()
        if held is not None:
            # Per-sender non-overtaking: while a destination has held
            # traffic, everything to it queues behind the held message.
            held.frames.extend([(env, payload)] * copies)
            return actions

        actions.extend([("send", env, payload)] * copies)
        return actions

    def _release_due(self, op: int) -> None:
        """Send held queues whose release point has passed (under lock).

        The queue key is the transport-level destination (``env.dest``
        is communicator-local, so it cannot be used here).  Releases are
        not logged: the wall-clock reaper makes release *timing*
        nondeterministic, and the log must stay a pure function of the
        plan.
        """
        for dest in sorted(self._held):
            queue = self._held[dest]
            if queue.release_op <= op:
                del self._held[dest]
                for denv, dpayload in queue.frames:
                    self.inner.send(dest, denv, dpayload)

    def _ensure_reaper(self) -> None:
        """Start the wall-clock backstop thread (called under lock)."""
        if self._reaper is not None or self._closed.is_set():
            return
        self._reaper = threading.Thread(
            target=self._reap_loop,
            name=f"fault-reaper-r{self.world_rank}", daemon=True,
        )
        self._reaper.start()

    def _reap_loop(self) -> None:
        while not self._closed.wait(self.max_hold_seconds / 4):
            now = time.monotonic()
            with self._lock:
                for dest in sorted(self._held):
                    queue = self._held[dest]
                    if now - queue.created >= self.max_hold_seconds:
                        del self._held[dest]
                        for denv, dpayload in queue.frames:
                            try:
                                self.inner.send(dest, denv, dpayload)
                            except Exception:  # noqa: BLE001
                                break  # peer gone; drop the rest

    def _execute(self, op, dest, actions) -> None:
        for kind, env, payload in actions:
            if kind == "stall":
                time.sleep(self.plan.stall_ms / 1000.0)
            elif kind == "send":
                self.inner.send(dest, env, payload)
            elif kind == "crash":
                self._write_log()
                if self._crash.mode == "raise":
                    raise InjectedCrash(
                        self.world_rank, op, self._crash.exit_code
                    )
                os._exit(self._crash.exit_code)

    def flush(self) -> None:
        """Release every held message immediately (in FIFO order)."""
        with self._lock:
            held, self._held = self._held, {}
            for dest in sorted(held):
                for env, payload in held[dest].frames:
                    self.inner.send(dest, env, payload)

    def close(self) -> None:
        if self._closed.is_set():
            return
        self._closed.set()
        if self._reaper is not None:
            self._reaper.join(timeout=1)
        try:
            self.flush()
        except Exception:  # noqa: BLE001 - peers may already be gone
            pass
        self._write_log()
        self.inner.close()
