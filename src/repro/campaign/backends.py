"""Cell execution backends: warm service pool or supervised cold launch.

The scheduler hands a :class:`~repro.campaign.spec.CellSpec` plus a
wall-clock timeout to a backend and gets a :class:`CellOutcome` back —
never an exception for an ordinary cell failure, because the scheduler
must keep the campaign alive through hung, crashing, and OOMing cells.

* :class:`WarmServiceBackend` submits cells to a reachable
  ``ombpy-serve`` rank pool, reusing its admission control and
  per-job deadlines (``docs/service.md``); a warm submit skips process
  spawn + rendezvous + import per cell, which is where campaign
  throughput comes from (``perf/``: workload ``sweep_warm_16c`` against
  the layer metric ``campaign.cold_cells_per_s``).
* :class:`ColdLaunchBackend` runs each cell as a supervised subprocess:
  ``ombpy --threads`` for the in-process fabric, or ``ombpy-run`` for
  the tcp/uds/shm transports with ``--exit-report`` so the failure
  *mode* (rank crash vs application error vs timeout) survives the
  process boundary.
* :class:`DualBackend` prefers warm when the cell is eligible and the
  service answers, and falls back to cold otherwise — a dying daemon
  degrades the campaign to cold launches instead of failing it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

from .spec import CellSpec

#: Outcome kinds (``CellOutcome.kind``).
OK = "ok"
TIMEOUT = "timeout"
RANK_FAILURE = "rank_failure"
APP_ERROR = "app_error"
REJECTED = "rejected"
DEADLINE = "deadline"
CANCELLED = "cancelled"
BACKEND_ERROR = "backend_error"
INTERRUPTED = "interrupted"

#: Seconds of slack the subprocess watchdog allows past the cell
#: timeout before killing: the launcher's own --timeout should win so
#: its cleanup (reaping, UDS/SHM sweep) runs.
_KILL_SLACK_S = 15.0


@dataclass
class CellOutcome:
    """What happened to one cell attempt."""

    ok: bool
    kind: str
    backend: str
    elapsed_s: float
    table: dict | None = None       # wire-form result table when ok
    error: str | None = None
    detail: dict = field(default_factory=dict)


def _python_env() -> dict:
    """Child environment with this runtime importable."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = os.environ.copy()
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class ColdLaunchBackend:
    """One supervised subprocess per cell attempt."""

    name = "cold"

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._procs: set[subprocess.Popen] = set()
        self._interrupted = threading.Event()

    def supports(self, cell: CellSpec) -> bool:  # noqa: ARG002 - interface
        return True

    def interrupt(self) -> None:
        """Checkpoint-and-stop: terminate every in-flight cell process."""
        self._interrupted.set()
        with self._lock:
            procs = list(self._procs)
        for proc in procs:
            if proc.poll() is None:
                try:
                    proc.terminate()
                except OSError:
                    pass

    def run(self, cell: CellSpec, timeout_s: float) -> CellOutcome:
        start = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="ombpy-cell-") as workdir:
            out_path = os.path.join(workdir, "table.json")
            report_path = os.path.join(workdir, "exit-report.json")
            cmd = self._command(cell, timeout_s, out_path, report_path)
            env = _python_env()
            if cell.groups is not None:
                # The threads path reads the topology from the
                # environment; the launcher path also gets --groups.
                env["OMBPY_GROUPS"] = cell.groups
            try:
                proc = subprocess.Popen(
                    cmd, env=env, stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True,
                )
            except OSError as exc:
                return CellOutcome(
                    ok=False, kind=BACKEND_ERROR, backend=self.name,
                    elapsed_s=time.monotonic() - start,
                    error=f"could not launch cell: {exc}",
                )
            with self._lock:
                self._procs.add(proc)
            try:
                try:
                    _, stderr = proc.communicate(
                        timeout=timeout_s + _KILL_SLACK_S
                    )
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    return CellOutcome(
                        ok=False, kind=TIMEOUT, backend=self.name,
                        elapsed_s=time.monotonic() - start,
                        error=f"cell exceeded {timeout_s}s (killed)",
                    )
            finally:
                with self._lock:
                    self._procs.discard(proc)
            elapsed = time.monotonic() - start
            report = self._read_json(report_path)
            if proc.returncode == 0:
                table = self._read_json(out_path)
                if table is None:
                    return CellOutcome(
                        ok=False, kind=APP_ERROR, backend=self.name,
                        elapsed_s=elapsed,
                        error="cell exited 0 but wrote no result table",
                    )
                return CellOutcome(
                    ok=True, kind=OK, backend=self.name, elapsed_s=elapsed,
                    table=table, detail={"report": report} if report else {},
                )
            return self._failure(cell, proc.returncode, stderr, report,
                                 elapsed)

    def _command(self, cell: CellSpec, timeout_s: float, out_path: str,
                 report_path: str) -> list[str]:
        bench_cmd = [
            sys.executable, "-m", "repro.core.cli", cell.benchmark,
            "-m", f"{cell.min_size}:{cell.max_size}",
            "-i", str(cell.iterations), "-x", str(cell.warmup),
            "-b", cell.buffer, "--api", cell.api,
            "--output", out_path,
        ]
        if cell.validate:
            bench_cmd.append("--validate")
        if cell.transport == "threads":
            bench_cmd += ["--threads", str(cell.ranks)]
            if cell.reliable:
                bench_cmd.append("--reliable")
            if cell.fault_seed is not None:
                bench_cmd += ["--fault-seed", str(cell.fault_seed)]
            return bench_cmd
        launcher_cmd = [
            sys.executable, "-m", "repro.mpi.launcher",
            "-n", str(cell.ranks), "--transport", cell.transport,
            "--timeout", str(timeout_s), "--exit-report", report_path,
        ]
        if cell.groups is not None:
            launcher_cmd += ["--groups", cell.groups]
        if cell.reliable:
            launcher_cmd.append("--reliable")
        if cell.fault_seed is not None:
            launcher_cmd += ["--fault-seed", str(cell.fault_seed)]
        return launcher_cmd + bench_cmd

    @staticmethod
    def _read_json(path: str) -> dict | None:
        try:
            with open(path, encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def _failure(self, cell: CellSpec, rc: int, stderr: str,
                 report: dict | None, elapsed: float) -> CellOutcome:
        tail = (stderr or "").strip()[-400:]
        detail = {"exit_code": rc}
        if report:
            detail["report"] = report
        if self._interrupted.is_set() or rc in (130, -2, -15):
            kind = INTERRUPTED
        elif rc == 124 or (report and report.get("timeout")):
            kind = TIMEOUT
        elif report and report.get("first_failure") and cell.ranks > 1:
            # A launcher-supervised rank exited non-zero: a rank-level
            # failure as far as the campaign is concerned.
            kind = RANK_FAILURE
        else:
            kind = APP_ERROR
        return CellOutcome(
            ok=False, kind=kind, backend=self.name, elapsed_s=elapsed,
            error=f"cell exited {rc}: {tail}" if tail
            else f"cell exited {rc}",
            detail=detail,
        )


class WarmServiceBackend:
    """Submit eligible cells to a running ``ombpy-serve`` rank pool."""

    name = "warm"

    def __init__(self, socket_path: str | None = None,
                 tcp: tuple[str, int] | None = None) -> None:
        self._socket_path = socket_path
        self._tcp = tcp
        self._broken = threading.Event()

    @classmethod
    def probe(cls, socket_path: str | None = None,
              tcp: tuple[str, int] | None = None,
              ) -> "WarmServiceBackend | None":
        """Return a backend iff a healthy service answers the address."""
        backend = cls(socket_path=socket_path, tcp=tcp)
        try:
            status = backend._request(
                lambda client: client.status(), timeout=5.0, tries=2,
            )
        except Exception:  # noqa: BLE001 - probe: any failure means cold
            return None
        if status.get("state") not in ("SERVING", "DEGRADED"):
            return None
        return backend

    def supports(self, cell: CellSpec) -> bool:
        """Warm pools serve the in-process fabric; fault-injected cells
        must not poison a shared long-lived pool, and grouped cells need
        a per-cell topology the pool's ranks were not launched with."""
        return (
            not self._broken.is_set()
            and cell.transport == "threads"
            and cell.fault_seed is None
            and not cell.reliable
            and cell.groups is None
        )

    def interrupt(self) -> None:
        """Nothing to kill locally; in-flight jobs are bounded by their
        service-side deadline."""

    def healthy(self) -> bool:
        return not self._broken.is_set()

    def _request(self, fn, timeout: float, tries: int = 2):
        from ..service.client import ServiceClient

        client = ServiceClient(
            socket_path=self._socket_path, tcp=self._tcp,
            timeout=timeout, connect_tries=tries,
        )
        with client:
            return fn(client)

    def run(self, cell: CellSpec, timeout_s: float) -> CellOutcome:
        from ..service.client import ServiceError
        from ..service.protocol import JobSpec

        spec = JobSpec(
            benchmark=cell.benchmark, ranks=cell.ranks,
            options=cell.options(), deadline_s=timeout_s,
            validate=cell.validate, label=cell.cell_id,
        )
        start = time.monotonic()
        try:
            job = self._request(
                lambda client: client.run(spec, timeout=timeout_s),
                timeout=timeout_s + 10.0,
            )
        except ServiceError as exc:
            elapsed = time.monotonic() - start
            reply = getattr(exc, "reply", {}) or {}
            kind = REJECTED if reply.get("reply") == "REJECTED" \
                else BACKEND_ERROR
            return CellOutcome(
                ok=False, kind=kind, backend=self.name, elapsed_s=elapsed,
                error=str(exc),
            )
        except (OSError, ConnectionError, TimeoutError) as exc:
            # The daemon is gone or unreachable: mark the backend broken
            # so DualBackend stops offering it, and let the scheduler
            # retry this cell (it will fall back to cold).
            self._broken.set()
            return CellOutcome(
                ok=False, kind=BACKEND_ERROR, backend=self.name,
                elapsed_s=time.monotonic() - start,
                error=f"benchmark service unreachable: {exc}",
            )
        return self._from_job(job, time.monotonic() - start)

    def _from_job(self, job: dict, elapsed: float) -> CellOutcome:
        state = job.get("state")
        if state == "DONE":
            return CellOutcome(
                ok=True, kind=OK, backend=self.name, elapsed_s=elapsed,
                table=job.get("result") or {},
                detail={"attempts": job.get("attempts")},
            )
        kind = {
            "DEADLINE": DEADLINE,
            "CANCELLED": CANCELLED,
        }.get(state, APP_ERROR)
        if state == "FAILED" and job.get("failure_kind") in (
            "rank_failure", "pool_degraded", "pool_lost", "collateral",
        ):
            kind = RANK_FAILURE
        return CellOutcome(
            ok=False, kind=kind, backend=self.name, elapsed_s=elapsed,
            error=job.get("error") or f"job ended {state}",
            detail={"state": state,
                    "failure_kind": job.get("failure_kind")},
        )


class DualBackend:
    """Warm when possible, cold otherwise — per cell, per attempt."""

    name = "dual"

    def __init__(self, warm: WarmServiceBackend | None,
                 cold: ColdLaunchBackend | None = None) -> None:
        self.warm = warm
        self.cold = cold or ColdLaunchBackend()

    def supports(self, cell: CellSpec) -> bool:  # noqa: ARG002 - interface
        return True

    def interrupt(self) -> None:
        self.cold.interrupt()
        if self.warm is not None:
            self.warm.interrupt()

    def run(self, cell: CellSpec, timeout_s: float) -> CellOutcome:
        if self.warm is not None and self.warm.healthy() \
                and self.warm.supports(cell):
            outcome = self.warm.run(cell, timeout_s)
            if outcome.kind != BACKEND_ERROR:
                return outcome
            # Warm path collapsed mid-campaign: degrade to cold for this
            # attempt rather than charging the cell for our problem.
        return self.cold.run(cell, timeout_s)
