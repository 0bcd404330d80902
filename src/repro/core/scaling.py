"""Collective-time-vs-rank-count measurement (the scaling sweep core).

OSU-style methodology at growing communicator sizes: for one collective
at a fixed message size, time ``iterations`` back-to-back calls after
``warmup`` untimed ones, on every rank, and report the slowest rank's
mean — a collective is only as fast as its last finisher.  Two harness
paths share the timing loop:

* :func:`measure_threads` — ranks-as-threads over the inproc fabric
  (optionally under the runtime verifier), with or without a node-group
  map; the CI smoke path.
* :func:`measure_process` — true process ranks under the launcher on a
  stream transport; each rank also reports its transport connection
  statistics, which is how the sweep demonstrates the O(group + groups)
  connection scaling of the fabric.

The module doubles as the per-rank child program of the process path::

    python -m repro.core.scaling --op allreduce --size 1024 --out base
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

#: Collectives the sweep knows how to drive (the hierarchical set).
SCALING_OPS = ("allreduce", "bcast", "barrier", "gather", "allgather")


def _one_call(comm, op: str, nbytes: int, payload: bytes, arr) -> None:
    if op == "allreduce":
        from ..mpi.ops import SUM

        comm.allreduce_array(arr, SUM)
    elif op == "bcast":
        comm.bcast_bytes(payload if comm.rank == 0 else None, 0)
    elif op == "barrier":
        comm.barrier()
    elif op == "gather":
        comm.gather_bytes(payload, 0)
    elif op == "allgather":
        comm.allgather_bytes(payload)
    else:
        raise ValueError(
            f"unknown scaling op {op!r}; available: {SCALING_OPS}"
        )


def time_collective(
    comm, op: str, nbytes: int, iterations: int, warmup: int
) -> float:
    """This rank's mean time per call, in microseconds."""
    payload = b"\0" * nbytes
    arr = np.zeros(max(1, nbytes // 8), dtype=np.float64)
    for _ in range(warmup):
        _one_call(comm, op, nbytes, payload, arr)
    comm.barrier()
    start = time.perf_counter()
    for _ in range(iterations):
        _one_call(comm, op, nbytes, payload, arr)
    elapsed = time.perf_counter() - start
    return elapsed / iterations * 1e6


def established_connections(transport) -> int | None:
    """Open channels of a fabric-backed transport (streams + shm rings)."""
    stats_fn = getattr(transport, "connection_stats", None)
    if stats_fn is None:
        return None
    stats = stats_fn()
    return stats.get("open_peers", 0) + stats.get("shm_peers", 0)


# ---------------------------------------------------------------------------
# Threads path
# ---------------------------------------------------------------------------

def measure_threads(
    op: str,
    ranks: int,
    nbytes: int,
    *,
    groups: str | None = None,
    iterations: int = 20,
    warmup: int = 3,
    verify: bool = False,
    timeout: float = 300.0,
) -> dict:
    """One (op, N, size) point on the inproc fabric; returns a record
    with the slowest-rank mean latency in microseconds."""
    from ..mpi.world import run_on_threads

    def fn(comm):
        if verify:
            from ..analysis.verifier import verify as verify_ctx

            with verify_ctx(comm, op_timeout=timeout):
                return time_collective(comm, op, nbytes, iterations, warmup)
        return time_collective(comm, op, nbytes, iterations, warmup)

    per_rank = run_on_threads(ranks, fn, timeout=timeout, groups=groups)
    return {
        "op": op,
        "transport": "threads",
        "ranks": ranks,
        "size": nbytes,
        "groups": groups,
        "iterations": iterations,
        "latency_us": max(per_rank),
        "latency_us_per_rank": [round(v, 3) for v in per_rank],
        "connections": None,
    }


# ---------------------------------------------------------------------------
# Process path (launcher children)
# ---------------------------------------------------------------------------

def measure_process(
    op: str,
    ranks: int,
    nbytes: int,
    *,
    transport: str = "uds",
    groups: str | None = None,
    iterations: int = 20,
    warmup: int = 3,
    timeout: float = 300.0,
    workdir: str | None = None,
) -> dict:
    """One (op, N, size) point with real process ranks under the
    launcher; each rank reports its timing and connection statistics."""
    import tempfile

    from ..mpi.launcher import launch

    own_dir = workdir is None
    if own_dir:
        workdir = tempfile.mkdtemp(prefix="ombpy-scaling-")
    base = os.path.join(workdir, f"{op}-n{ranks}-s{nbytes}")
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = {
        "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", ""),
    }
    try:
        rc = launch(
            ranks,
            [sys.executable, "-m", "repro.core.scaling",
             "--op", op, "--size", str(nbytes),
             "--iterations", str(iterations), "--warmup", str(warmup),
             "--out", base],
            timeout=timeout, transport=transport, groups=groups,
            env_extra=env,
        )
        if rc != 0:
            raise RuntimeError(
                f"scaling child job failed (exit {rc}): "
                f"{op} n={ranks} size={nbytes} transport={transport} "
                f"groups={groups}"
            )
        records = [
            _read_rank_record(f"{base}.rank{rank}.json")
            for rank in range(ranks)
        ]
    finally:
        if own_dir:
            import shutil

            shutil.rmtree(workdir, ignore_errors=True)
    conns = [r["connections"] for r in records]
    return {
        "op": op,
        "transport": transport,
        "ranks": ranks,
        "size": nbytes,
        "groups": groups,
        "iterations": iterations,
        "latency_us": max(r["latency_us"] for r in records),
        "latency_us_per_rank": [round(r["latency_us"], 3) for r in records],
        "connections": conns,
        "max_connections": max(c for c in conns if c is not None)
        if any(c is not None for c in conns) else None,
    }


def _read_rank_record(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _child_main(argv: list[str] | None = None) -> int:
    """Per-rank body of the process path (run under ``ombpy-run``)."""
    parser = argparse.ArgumentParser(prog="repro.core.scaling")
    parser.add_argument("--op", required=True, choices=SCALING_OPS)
    parser.add_argument("--size", type=int, required=True)
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    from ..mpi import world as world_mod

    w = world_mod.init()
    try:
        latency = time_collective(
            w.comm, args.op, args.size, args.iterations, args.warmup
        )
        # Connections are sampled *after* the timed loop, while every
        # channel the collective needed is still open.
        record = {
            "rank": w.rank,
            "latency_us": latency,
            "connections": established_connections(w.endpoint.transport),
        }
        # One final sync so no rank tears down while a peer still has
        # collective traffic in flight.
        w.comm.barrier()
    finally:
        w.finalize()
    with open(f"{args.out}.rank{record['rank']}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(_child_main())
