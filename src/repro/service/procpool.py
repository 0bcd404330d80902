"""Process-backed rank pool: true rank processes spawned once, kept warm.

:class:`ProcessRankPool` presents the same event-queue surface as
:class:`~repro.service.pool.ThreadRankPool`, but its ranks are real
processes from :func:`repro.mpi.launcher.spawn_ranks` running
:mod:`repro.service.worker`.  The pool leader dials back on a private
control socket; job directives flow leader-ward and fan out inside the
worker world.  A dead process is detected both ways — the survivors
shrink and report ``SHRUNK``, and the monitor thread, blocked in
``wait()`` on the worker processes, sees the exit — so the server
learns of degradation even if the whole worker world is lost, as soon
as the last worker exits.

Teardown always runs :meth:`SpawnedRanks.cleanup`, the idempotent
resource sweep shared with ``ombpy-run``: a service that drains and
relaunches its pool many times in one process must never leak UDS
socket dirs or SHM segments.
"""

from __future__ import annotations

import os
import queue
import socket
import tempfile
import threading
import sys

from ..knobs import ENV_SERVICE_CTRL
from ..mpi.launcher import spawn_ranks
from .pool import JobRun
from .protocol import read_message, write_message


class ProcessRankPool:
    """N warm rank processes serving jobs one at a time."""

    #: Process ranks block in collectives between directives, so jobs
    #: are serialized; the server queues behind the single slot.
    concurrent = False

    def __init__(
        self,
        size: int,
        transport: str = "tcp",
        env_extra: dict[str, str] | None = None,
        startup_timeout: float = 60.0,
    ) -> None:
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self.events: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._live = 0              # 0 until HELLO arrives
        self._dead: set[int] = set()
        self._busy_job: str | None = None
        self._stopping = False
        self._hello = threading.Event()
        self._exited = threading.Event()    # every worker process reaped
        self._ctrl_dir = tempfile.mkdtemp(prefix="ombpy-service-")
        self._ctrl_path = os.path.join(self._ctrl_dir, "ctrl.sock")
        self._listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._listener.bind(self._ctrl_path)
        self._listener.listen(4)
        self._listener.settimeout(0.2)
        self._conn: socket.socket | None = None
        env = dict(env_extra or {})
        env[ENV_SERVICE_CTRL] = self._ctrl_path
        self._handle = spawn_ranks(
            size,
            [sys.executable, "-m", "repro.service.worker"],
            transport=transport,
            env_extra=env,
        )
        self._threads = [
            threading.Thread(target=self._accept_loop,
                             name="procpool-accept", daemon=True),
            threading.Thread(target=self._monitor_loop,
                             name="procpool-monitor", daemon=True),
        ]
        for t in self._threads:
            t.start()
        if self._hello.wait(startup_timeout):
            return
        self.stop()
        raise TimeoutError(
            f"worker pool did not report HELLO within {startup_timeout}s"
        )

    # -- server-facing surface -------------------------------------------
    def live_count(self) -> int:
        with self._lock:
            return self._live if self._live else self.size

    def can_dispatch(self, nranks: int) -> bool:
        with self._lock:
            return (
                self._conn is not None
                and self._busy_job is None
                and nranks <= self._live
            )

    def dispatch(self, run: JobRun) -> None:
        with self._lock:
            if self._conn is None or self._busy_job is not None:
                raise RuntimeError("dispatch on a busy or headless pool")
            self._busy_job = run.job_id
            conn = self._conn
        run.members = list(range(run.spec.ranks))
        run.pending = set(run.members)
        try:
            write_message(conn, {
                "op": "RUN",
                "job_id": run.job_id,
                "spec": run.spec.to_wire(),
            })
        except OSError as exc:
            with self._lock:
                self._busy_job = None
            self.events.put({
                "type": "job_failed", "job_id": run.job_id,
                "error": f"control channel lost: {exc}",
                "kinds": ["rank_failed"], "dead_member": True,
            })

    def kill(self, job_id: str) -> bool:
        """No mid-job preemption across the process boundary: the server
        marks the outcome and folds the late result when it arrives."""
        return False

    def describe(self) -> dict:
        with self._lock:
            return {
                "substrate": "processes",
                "size": self.size,
                "live": self._live,
                "free": 0 if self._busy_job is not None else self._live,
                "failed_ranks": sorted(self._dead),
            }

    def telemetry_snapshots(self) -> dict[int, dict]:
        return {}

    def stop(self, timeout: float = 10.0) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            conn = self._conn
        if conn is not None:
            try:
                write_message(conn, {"op": "SHUTDOWN"})
            except OSError:
                pass
        self._exited.wait(timeout)
        # cleanup() kills stragglers and sweeps UDS/SHM artifacts; it is
        # idempotent, so a drain-then-atexit double call is harmless.
        self._handle.cleanup()
        try:
            self._listener.close()
        except OSError:
            pass
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        try:
            os.unlink(self._ctrl_path)
        except OSError:
            pass
        try:
            os.rmdir(self._ctrl_dir)
        except OSError:
            pass

    # -- control-channel plumbing ----------------------------------------
    def _accept_loop(self) -> None:
        while True:
            with self._lock:
                if self._stopping:
                    return
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            with self._lock:
                old = self._conn
                self._conn = conn
            if old is not None:
                try:
                    old.close()
                except OSError:
                    pass
            threading.Thread(
                target=self._reader_loop, args=(conn,),
                name="procpool-reader", daemon=True,
            ).start()

    def _reader_loop(self, conn: socket.socket) -> None:
        fh = conn.makefile("rb")
        while True:
            try:
                msg = read_message(fh)
            except (ValueError, OSError):
                msg = None
            if msg is None:
                return
            self._handle_worker_message(msg)

    def _handle_worker_message(self, msg: dict) -> None:
        op = msg.get("op")
        if op == "HELLO":
            with self._lock:
                self._live = int(msg.get("size", self.size))
            self._hello.set()
            return
        if op == "SHRUNK":
            with self._lock:
                self._live = int(msg.get("size", 0))
                new_dead = [
                    r for r in msg.get("failed", []) if r not in self._dead
                ]
                self._dead.update(new_dead)
                victim = self._busy_job
                self._busy_job = None
            for rank in new_dead:
                self.events.put({
                    "type": "rank_dead", "rank": rank,
                    "reason": "worker process died",
                })
            if victim is not None:
                self.events.put({
                    "type": "job_failed", "job_id": victim,
                    "error": f"rank process died mid-job "
                             f"(failed ranks: {sorted(self._dead)})",
                    "kinds": ["crash"], "dead_member": True,
                })
            return
        if op == "RESULT":
            with self._lock:
                if self._busy_job == msg.get("job_id"):
                    self._busy_job = None
            self.events.put({
                "type": "job_done", "job_id": msg.get("job_id"),
                "result": msg.get("result"),
            })
            return
        if op == "JOB_FAILED":
            with self._lock:
                if self._busy_job == msg.get("job_id"):
                    self._busy_job = None
            self.events.put({
                "type": "job_failed", "job_id": msg.get("job_id"),
                "error": msg.get("error") or "job failed",
                "kinds": ["error"], "dead_member": False,
            })

    def _monitor_loop(self) -> None:
        codes = [proc.wait() for proc in self._handle.procs]
        self._exited.set()
        with self._lock:
            stopping = self._stopping
        if not stopping:
            self.events.put({
                "type": "pool_lost",
                "reason": f"all worker ranks exited (codes {codes})",
            })
