"""Failure detection and fail-fast propagation for process transports.

A :class:`FailureDetector` watches every peer of one rank through two
complementary signals:

* **passive** — transport data-path threads report EOF / ``ECONNRESET`` /
  broken-pipe observations via :meth:`on_peer_lost`.  On localhost
  TCP/UDS meshes the kernel closes a dead process's sockets immediately,
  so a crashed rank is detected within milliseconds;
* **active** — a heartbeat thread sends tiny control frames
  (:data:`~repro.mpi.transport.base.CTRL_HEARTBEAT`) to every *connected*
  peer (``transport.connected_peers()`` — all of them on eager fabrics,
  only established channels on the lazy stream fabric) over
  the existing channels and declares a peer dead after
  ``heartbeat_timeout`` seconds of silence.  This catches ranks that are
  alive at the socket level but wedged (``SIGSTOP``, runaway GC, a stuck
  native call) — and it is the only signal on the shared-memory
  transport, where there is no EOF.

A transport that closes cleanly first sends a
:data:`~repro.mpi.transport.base.CTRL_GOODBYE` frame to each peer, so the
EOF that follows a *clean* departure is not misread as a crash.

On detection the peer's death is converted into a
:class:`~repro.mpi.exceptions.RankFailedError` (naming the dead rank and
carrying this rank's matching-engine wait-state) which is installed as
the endpoint's sticky failure: every blocked receive, collective, and
probe wakes and raises promptly instead of hanging until the launcher's
global timeout.  The endpoint's observers see ``on_rank_failed`` first,
so an attached verifier's cross-rank diagnostics name the dead peer too.

Tuning knobs: ``OMBPY_HB_INTERVAL``, ``OMBPY_HB_TIMEOUT`` and
``OMBPY_HB_DISABLE`` (rows of :mod:`repro.knobs`; ``docs/resilience.md``
has the table).
"""

from __future__ import annotations

import threading
import time

from ..knobs import HB_DISABLE, HB_INTERVAL, HB_TIMEOUT, flag, read
from .exceptions import RankFailedError
from .matching import Envelope, MatchingEngine
from .transport.base import CTRL_GOODBYE, CTRL_HEARTBEAT, Transport


class FailureDetector:
    """Per-rank peer-liveness monitor over one transport."""

    def __init__(
        self,
        transport: Transport,
        engine: MatchingEngine,
        interval: float = HB_INTERVAL.default,
        heartbeat_timeout: float = HB_TIMEOUT.default,
        endpoint=None,
    ) -> None:
        HB_INTERVAL.check(interval, what="heartbeat interval")
        self.transport = transport
        self.engine = engine
        self.interval = interval
        self.heartbeat_timeout = heartbeat_timeout
        self.endpoint = endpoint
        self.rank = transport.world_rank
        # Peers currently under active heartbeat watch.  On eager fabrics
        # this converges to every peer immediately; on lazy fabrics
        # (repro.mpi.fabric) it tracks transport.connected_peers(), so
        # the detector never dials the very O(N) mesh the fabric avoids.
        self._watched: set[int] = set()
        self._lock = threading.Lock()
        self._last_seen: dict[int, float] = {}
        self._departed: set[int] = set()
        self._failed: dict[int, str] = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    # -- lifecycle --------------------------------------------------------
    def start(self) -> None:
        """Install on the transport and start the heartbeat thread."""
        self.transport.detector = self
        now = time.monotonic()
        with self._lock:
            for peer in self.transport.connected_peers():
                if peer != self.rank:
                    self._watched.add(peer)
                    self._last_seen.setdefault(peer, now)
        self._thread = threading.Thread(
            target=self._loop, name=f"hb-r{self.rank}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop monitoring (clean shutdown path). Idempotent."""
        self._stop.set()
        if self.transport.detector is self:
            self.transport.detector = None
        if self._thread is not None:
            self._thread.join(timeout=2 * self.interval)

    # -- signal intake ----------------------------------------------------
    def on_control(self, env: Envelope) -> None:
        """A control frame arrived from ``env.source`` (reader threads)."""
        if env.tag == CTRL_HEARTBEAT:
            with self._lock:
                self._last_seen[env.source] = time.monotonic()
        elif env.tag == CTRL_GOODBYE:
            with self._lock:
                self._departed.add(env.source)

    def on_peer_lost(self, peer: int, reason: str) -> None:
        """A data-path thread observed a dead peer connection."""
        self._declare(peer, reason)

    # -- state ------------------------------------------------------------
    def failed_ranks(self) -> dict[int, str]:
        """Ranks declared dead so far (rank -> reason)."""
        with self._lock:
            return dict(self._failed)

    def departed_ranks(self) -> set[int]:
        """Ranks that announced a clean departure."""
        with self._lock:
            return set(self._departed)

    # -- internals --------------------------------------------------------
    def _declare(self, peer: int, reason: str) -> None:
        if self._stop.is_set():
            return
        with self._lock:
            if peer in self._departed or peer in self._failed:
                return
            self._failed[peer] = reason
        error = RankFailedError(
            f"rank {peer} failed: {reason} (detected by rank {self.rank})",
            rank=peer,
            wait_state=self.engine.describe_pending(),
        )
        # Tell the observers first, so an attached verifier's cross-rank
        # diagnostics (PeerFailedError, deadlock snapshots) name the dead
        # rank rather than reporting a bare timeout.
        if self.endpoint is not None:
            for hook in self.endpoint.hooks.on_rank_failed:
                hook(peer, reason)
        self.engine.set_failure(error)

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            # Heartbeat only peers we actually hold a channel to: on a
            # lazy fabric, probing everyone would eagerly dial the whole
            # mesh.  An unestablished peer is still observable — the
            # first send or ensure_peer() dial fails fast if it is dead.
            active = {
                p for p in self.transport.connected_peers()
                if p != self.rank
            }
            now = time.monotonic()
            with self._lock:
                departed = set(self._departed)
                failed = set(self._failed)
                # A peer (re-)entering the watch set gets a fresh clock:
                # silence accumulated while unconnected (e.g. across an
                # LRU eviction) is absence of traffic, not of life.
                for peer in active - self._watched:
                    self._last_seen[peer] = now
                self._watched = active
                last_seen = dict(self._last_seen)
            gone = departed | failed
            for peer in active - gone:
                self.transport.send_control(peer, CTRL_HEARTBEAT)
            if self.heartbeat_timeout <= 0:
                continue
            now = time.monotonic()
            for peer in active - gone:
                silence = now - last_seen.get(peer, now)
                if silence > self.heartbeat_timeout:
                    self._declare(
                        peer,
                        f"no heartbeat for {silence:.1f}s "
                        f"(timeout {self.heartbeat_timeout}s)",
                    )


def detector_from_env(
    transport: Transport, engine: MatchingEngine, endpoint=None
) -> FailureDetector | None:
    """Build (but do not start) a detector per the ``OMBPY_HB_*`` env."""
    if flag(HB_DISABLE):
        return None
    return FailureDetector(
        transport, engine, interval=read(HB_INTERVAL),
        heartbeat_timeout=read(HB_TIMEOUT), endpoint=endpoint,
    )
