"""Entry point of every child process the benchmark starts.

``child.py '<job json>'`` — the job's ``mode`` says what this process
is: a pinned process hosting all ranks as threads, the launcher of a
process workload, one rank of it, a direct (service) body, or a layer
probe.  Results leave as ``PERF_RESULT`` lines on stdout.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402


def _body(name: str):
    """A rank body by name: a workload loop or a layer probe's."""
    from workloads import BODIES

    if name in BODIES:
        return BODIES[name]
    import layers

    return layers.RANK_BODIES[name]


def _finish(job: dict, result: dict, span_lists=()) -> dict:
    """Add set-up time (spawn stamp → first timed operation) and spans."""
    result["setup_s"] = (result.pop("t_first_ns") - job["t_spawn_ns"]) / 1e9
    spans = [s for exported in span_lists for s in exported]
    if spans:
        result["spans"] = spans
    return result


def _recorder(rt):
    """A span recorder interposed on this rank's endpoint."""
    import spans
    from workloads import TAG_DATA

    rec = spans.SpanRecorder(rt.rank)
    spans.interpose(rt, rec, TAG_DATA)
    return rec


def _run_body(job: dict, rt, recorders: list):
    """The rank's workload loop.  A traced job runs it twice in this
    process — tracing off, then on — so the tracing overhead compares
    two loops that share their scheduling luck."""
    body = _body(job["body"])
    if not job.get("trace"):
        return body(rt, job, None)
    plain = body(rt, job, None)
    rec = _recorder(rt)
    recorders.append(rec)
    traced = body(rt, dict(job, budget_s=job["budget_s"] / 2), rec)
    if traced is not None:
        traced["plain"] = {k: plain[k] for k in ("samples_ns", "ops", "failed",
                                                 "verified", "rep_value_ns")
                           if k in plain}
        traced["t_first_ns"] = plain["t_first_ns"]
    return traced


def run_threads(job: dict) -> None:
    """All ranks as threads of this process, pinned to one core."""
    from repro.mpi.world import run_on_threads

    core = harness.pin()
    recorders: list = []
    results = run_on_threads(
        job["ranks"], lambda rt: _run_body(job, rt, recorders),
        timeout=job["timeout_s"])
    recorders.sort(key=lambda rec: rec.rank)
    if results[0] is not None:
        exported = [rec.export() for rec in recorders]
        harness.emit(dict(_finish(job, results[0], exported), core=core))


def run_launch(job: dict) -> None:
    """Start the rank processes under the runtime's own launcher."""
    from repro.mpi.launcher import launch

    rank_job = dict(job, mode="rank")
    rc = launch(
        job["ranks"], [sys.executable, harness.CHILD, json.dumps(rank_job)],
        timeout=job["timeout_s"], transport=job["transport"],
        failfast_grace=1.0,
    )
    sys.exit(rc)


def run_rank(job: dict) -> None:
    """One rank process.  Every rank is pinned to the *same* core: with
    a rank per core, an 8-byte round trip is mostly the hypervisor waking
    an idle vCPU, which moved 67 -> 92 us between identical runs here.
    Only the shm probes ask for a core per rank (``pin: split``): on one
    core the shm ring tears within a few hundred round trips."""
    from repro.bindings.comm_api import Comm
    from repro.mpi import world

    if job.get("pin") == "split":
        allowed = harness.cores()
        core = allowed[int(os.environ["OMBPY_RANK"]) % len(allowed)]
        os.sched_setaffinity(0, {core})
    else:
        core = harness.pin()
    w = world.init()
    try:
        recorders: list = []
        result = _run_body(job, w.comm, recorders)
        # One writer: every rank's spans travel to rank 0.
        exported = [r for rec in recorders for r in Comm(w.comm).gather(
            rec.export(), root=0) or ()]
        if result is not None:
            harness.emit(dict(_finish(job, result, exported), core=core))
    finally:
        w.finalize()


def run_direct(job: dict) -> None:
    core = harness.pin()
    harness.emit(dict(_finish(job, _body(job["body"])(job)), core=core))


def run_layer(job: dict) -> None:
    """A layer probe that is its own child (not a rank body)."""
    import layers

    layers.CHILDREN[job["fn"]](job)


MODES = {
    "threads": run_threads, "launch": run_launch, "rank": run_rank,
    "direct": run_direct, "layer": run_layer,
}

if __name__ == "__main__":
    job = json.loads(sys.argv[1])
    MODES[job["mode"]](job)
