"""Rank program for the process-backed pool (``--pool process``).

``ombpy-serve --pool process`` spawns ``python -m repro.service.worker``
once per rank via :func:`repro.mpi.launcher.spawn_ranks`.  The ranks
build a world, and the **leader** (rank 0 of the current base
communicator) connects back to the daemon's control socket
(``OMBPY_SERVICE_CTRL``) to receive job directives, which it broadcasts
to the other ranks over the base communicator itself:

    HELLO {size}            worker → server   pool is up
    RUN {job_id, spec}      server → worker   run one job
    RESULT {job_id, ...}    worker → server   job outcome
    SHRUNK {size, failed}   worker → server   a rank died; pool shrank
    SHUTDOWN                server → worker   exit cleanly

A job runs on the ``spec.ranks`` lowest base ranks inside a
sub-communicator from ``base.Split`` — fresh context, no tag collisions
with pool control traffic.  When any rank dies, the survivors follow the
ULFM recovery recipe (revoke → shrink), the new leader re-dials the
control socket, reports ``SHRUNK``, and the pool keeps serving jobs that
fit the smaller world.  Jobs run one at a time: process ranks block in
collectives, so this substrate trades concurrency for true
process-death fault coverage.
"""

from __future__ import annotations

import json
import os
import socket
import sys

from ..knobs import ENV_SERVICE_CTRL
from ..mpi import world as mpi_world
from ..mpi.exceptions import CommRevokedError, RankFailedError
from .protocol import JobSpec, KIND_SLEEP, encode, read_message, table_to_wire

_RECOVERABLE = (RankFailedError, CommRevokedError)


def _connect_ctrl(path: str) -> tuple[socket.socket, object]:
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(path)
    return sock, sock.makefile("rb")


def _run_job(base, spec: JobSpec) -> tuple[dict | None, str | None]:
    """Run one job on the lowest ``spec.ranks`` base ranks.  Returns
    ``(result, error)`` as seen by *this* rank (result only on the job
    lead).  Collective over the whole base communicator."""
    color = 0 if base.rank < spec.ranks else -1
    sub = base.Split(color, base.rank)
    if sub is None:
        return None, None
    try:
        if spec.kind == KIND_SLEEP:
            import time

            time.sleep(spec.seconds)
            result = {"slept_s": spec.seconds} if sub.rank == 0 else None
            return result, None
        from ..core.options import Options
        from ..core.runner import run_benchmark

        options = Options(**spec.options)
        if spec.validate:
            from ..analysis import verify

            with verify(sub):
                table = run_benchmark(spec.benchmark, sub, options)
        else:
            table = run_benchmark(spec.benchmark, sub, options)
        return (table_to_wire(table) if sub.rank == 0 else None), None
    except _RECOVERABLE:
        raise
    except Exception as exc:  # noqa: BLE001 - reported to the server
        return None, f"{type(exc).__name__}: {exc}"


def main() -> int:
    ctrl_path = os.environ.get(ENV_SERVICE_CTRL)
    if not ctrl_path:
        print(f"repro.service.worker: {ENV_SERVICE_CTRL} not set",
              file=sys.stderr)
        return 2
    world = mpi_world.init()
    base = world.comm
    ctrl = fh = None
    try:
        if base.rank == 0:
            ctrl, fh = _connect_ctrl(ctrl_path)
            ctrl.sendall(encode({"op": "HELLO", "size": base.size}))
        while True:
            try:
                # Leader pulls the next directive and fans it out over
                # the base communicator; everyone blocks here between
                # jobs, so a directive is a pool-wide synchronization.
                if base.rank == 0:
                    directive = read_message(fh)
                    if directive is None:
                        directive = {"op": "SHUTDOWN"}
                    payload = json.dumps(directive).encode()
                    base.bcast_bytes(payload, 0)
                else:
                    payload = base.bcast_bytes(None, 0)
                    directive = json.loads(payload.decode())
                op = directive.get("op")
                if op == "SHUTDOWN":
                    return 0
                if op != "RUN":
                    continue
                spec = JobSpec.from_wire(directive["spec"])
                result, error = _run_job(base, spec)
                # Fold per-rank outcomes so the leader reports app
                # errors from any member, not just its own.
                statuses = base.allgather_bytes(
                    (error or "").encode("utf-8")
                )
                if base.rank == 0:
                    errors = [s.decode() for s in statuses if s]
                    if errors:
                        ctrl.sendall(encode({
                            "op": "JOB_FAILED",
                            "job_id": directive["job_id"],
                            "error": "; ".join(errors),
                        }))
                    else:
                        ctrl.sendall(encode({
                            "op": "RESULT",
                            "job_id": directive["job_id"],
                            "result": result,
                        }))
            except _RECOVERABLE:
                # ULFM recovery: agree the old communicator is dead,
                # shrink to the survivors, and let the new leader
                # re-dial the daemon.
                try:
                    base.revoke()
                except _RECOVERABLE:
                    pass
                shrunken = base.shrink()
                failed = sorted(base.failed_ranks())
                base = shrunken
                if ctrl is not None:
                    try:
                        ctrl.close()
                    except OSError:
                        pass
                    ctrl = fh = None
                if base.rank == 0:
                    ctrl, fh = _connect_ctrl(ctrl_path)
                    ctrl.sendall(encode({
                        "op": "SHRUNK",
                        "size": base.size,
                        "failed": failed,
                    }))
    finally:
        if ctrl is not None:
            try:
                ctrl.close()
            except OSError:
                pass
        world.finalize()


if __name__ == "__main__":
    sys.exit(main())
