"""The workload loops, as run by every rank (thread or process).

Each body takes the rank's runtime communicator and the job dict, warms
up, sizes its timed phase from the warm-up so it fills the repetition's
time budget, verifies what it receives, and returns a result dict on
rank 0 (None elsewhere).  All loops are closed: a rank's next operation
starts only after the previous one completed.

The end-to-end path uses only the stable user surface: the runtime
communicator handed out by ``world.init`` / ``run_on_threads``,
``repro.bindings.comm_api.Comm`` on top of it, ``repro.native.api``,
``repro.service`` and ``repro.campaign.cli.main``.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import zlib
from time import perf_counter_ns as now

import inputs
import quant

#: Tag of the timed traffic — the only tag the traced pass records.
TAG_DATA = 7
TAG_CTL = 3
TAG_ACK = 5

MIB = 1 << 20


def _fit(budget_s: float, warm_ns: int, warm_ops: int, lo: int, hi: int) -> int:
    """How many operations fill ``budget_s`` at the warm-up's pace."""
    per_op = max(1.0, warm_ns / max(1, warm_ops))
    return max(lo, min(hi, int(budget_s * 1e9 / per_op)))


def _traced(rec, name, fn):
    """``fn(buf, peer, tag)``, under a span when a recorder is given."""
    return fn if rec is None else rec.wrap_p2p(name, fn)


# -- ping-pong ---------------------------------------------------------------
def pingpong(rt, job, rec=None):
    """8-byte blocking ping-pong through the bindings, 1 in flight.

    Every payload is the iteration's stamp; rank 0 checks each echo.
    A sample is one round trip (ns); one round trip is two operations
    (two one-way messages).
    """
    from repro.bindings.comm_api import Comm

    comm = Comm(rt)
    rank, peer = comm.rank, 1 - comm.rank
    base = inputs.stamp_base(job["seed"])
    send = _traced(rec, "bindings.Send", comm.Send)
    recv = _traced(rec, "bindings.Recv", comm.Recv)
    sbuf, rbuf = bytearray(8), bytearray(8)
    warm = job["warmup"]
    rt.barrier()

    if rank == 1:
        for _ in range(warm):
            comm.Recv(rbuf, peer, TAG_CTL)
            comm.Send(rbuf, peer, TAG_CTL)
        n = comm.recv(peer, TAG_CTL)
        for _ in range(n):
            recv(rbuf, peer, TAG_DATA)
            send(rbuf, peer, TAG_DATA)
        return None

    t0 = now()
    for i in range(warm):
        sbuf[:] = inputs.stamp8(base, -1 - i)
        comm.Send(sbuf, peer, TAG_CTL)
        comm.Recv(rbuf, peer, TAG_CTL)
    n = _fit(job["budget_s"], now() - t0, warm, job["min_ops"] // 2,
             job["max_ops"] // 2)
    comm.send(n, peer, TAG_CTL)
    samples = []
    bad = 0
    t_first = now()
    for i in range(n):
        sbuf[:] = inputs.stamp8(base, i)
        t = now()
        send(sbuf, peer, TAG_DATA)
        recv(rbuf, peer, TAG_DATA)
        samples.append(now() - t)
        if rbuf != sbuf:
            bad += 1
    wall = now() - t_first
    return {
        "t_first_ns": t_first, "wall_ns": wall, "samples_ns": samples,
        "ops_per_sample": 2, "ops": 2 * n, "failed": 2 * bad,
        "verified": bad == 0,
    }


# -- windowed stream ------------------------------------------------------------
def stream(rt, job, rec=None):
    """osu_bw shape: a window of ``window`` non-blocking 1 MiB sends,
    then a 4-byte ack.  The first 8 bytes of every message carry its
    sequence stamp; the receiver counts completions and checksums its
    buffers against the seeded payloads after the loop.
    A sample is one window (ns); one window is ``window`` operations.
    """
    from repro.bindings.comm_api import Comm

    comm = Comm(rt)
    rank, peer = comm.rank, 1 - comm.rank
    seed, window, size = job["seed"], job["window"], job["msg_bytes"]
    base = inputs.stamp_base(seed)
    isend = _traced(rec, "bindings.Isend", comm.Isend)
    irecv = _traced(rec, "bindings.Irecv", comm.Irecv)
    ack = bytearray(4)
    seeded = [inputs.payload(seed, f"stream{j}", size) for j in range(window)]
    rt.barrier()

    if rank == 1:
        rbufs = [bytearray(size) for _ in range(window)]

        def recv_windows(count, tag, post, span):
            for _ in range(count):
                reqs = [post(rbufs[j], peer, tag) for j in range(window)]
                for req in reqs:
                    (req.wait if span is None
                     else span.wrap("bindings.Wait", req.wait))()
                comm.Send(ack, peer, TAG_ACK)
            return count * window

        recv_windows(job["warmup"], TAG_CTL, comm.Irecv, None)
        n = comm.recv(peer, TAG_CTL)
        got = recv_windows(n, TAG_DATA, irecv, rec)
        ok = got == n * window
        for j in range(window):
            expect = bytearray(seeded[j])
            expect[:8] = inputs.stamp8(base, (n - 1) * window + j)
            ok = ok and zlib.crc32(rbufs[j]) == zlib.crc32(expect) \
                and rbufs[j][:8] == expect[:8]
        comm.send(ok, peer, TAG_CTL)
        return None

    sbufs = [bytearray(p) for p in seeded]

    def send_window(w, tag, post):
        for j in range(window):
            sbufs[j][:8] = inputs.stamp8(base, w * window + j)
        t = now()
        reqs = [post(sbufs[j], peer, tag) for j in range(window)]
        for req in reqs:
            req.wait()
        comm.Recv(ack, peer, TAG_ACK)
        return now() - t

    t0 = now()
    for w in range(job["warmup"]):
        send_window(-1 - w, TAG_CTL, comm.Isend)
    n = _fit(job["budget_s"], now() - t0, job["warmup"],
             job["min_ops"] // window, job["max_ops"] // window)
    comm.send(n, peer, TAG_CTL)
    samples = []
    t_first = now()
    for w in range(n):
        samples.append(send_window(w, TAG_DATA, isend))
    wall = now() - t_first
    ok = bool(comm.recv(peer, TAG_CTL))
    return {
        "t_first_ns": t_first, "wall_ns": wall, "samples_ns": samples,
        "ops_per_sample": window, "ops": n * window,
        "failed": 0 if ok else n * window, "verified": ok,
        "bytes_per_op": size,
    }


# -- tag storm --------------------------------------------------------------------
def tagstorm(rt, job, rec=None):
    """Deep matching queues: K distinct tags per round, two phases.

    Phase U — the sender sends tags 0..K-1, then the receiver drains
    them in a seeded permutation (deep *unexpected* queue).  Phase P —
    the receiver pre-posts K receives, then the sender sends in a seeded
    permutation (deep *posted* queue).  Buffer k must end up holding
    tag k's stamp in both phases.
    A sample is one round (ns); one round is 2K operations (messages).
    """
    from repro.bindings.comm_api import Comm

    comm = Comm(rt)
    rank, peer = comm.rank, 1 - comm.rank
    seed, k_tags = job["seed"], job["tags"]
    base = inputs.stamp_base(seed)
    tag_go, tag_ready, tag_start, tag_done = (k_tags + i for i in range(4))
    stamps = [bytearray(inputs.stamp8(base, k)) for k in range(k_tags)]
    ctl = bytearray(8)
    rt.barrier()

    if rank == 1:
        rbufs = [bytearray(8) for _ in range(k_tags)]
        zero = bytes(8)
        bad_total = 0

        def check_and_clear():
            bad = 0
            for k in range(k_tags):
                if rbufs[k] != stamps[k]:
                    bad += 1
                rbufs[k][:] = zero
            return bad

        r = 0
        while True:
            go = comm.Irecv(ctl, peer, tag_go)
            comm.Send(ctl, peer, tag_start)
            go.wait()
            if ctl[0]:            # sender says: no more rounds
                break
            for k in inputs.tag_permutation(seed, k_tags, r, "U"):
                comm.Recv(rbufs[k], peer, k)
            bad = check_and_clear()
            reqs = [comm.Irecv(rbufs[k], peer, k) for k in range(k_tags)]
            comm.Send(ctl, peer, tag_ready)
            for req in reqs:
                req.wait()
            comm.Send(ctl, peer, tag_done)
            bad_total += bad + check_and_clear()
            r += 1
        comm.send(bad_total, peer, TAG_CTL)
        return None

    go = bytearray(8)

    def one_round(r):
        order = inputs.tag_permutation(seed, k_tags, r, "P")
        comm.Recv(ctl, peer, tag_start)
        t = now()
        for k in range(k_tags):
            comm.Send(stamps[k], peer, k)
        comm.Send(go, peer, tag_go)
        comm.Recv(ctl, peer, tag_ready)
        for k in order:
            comm.Send(stamps[k], peer, k)
        comm.Recv(ctl, peer, tag_done)
        return now() - t

    t0 = now()
    for r in range(job["warmup"]):
        one_round(r)
    per_round = 2 * k_tags
    n = _fit(job["budget_s"], now() - t0, job["warmup"],
             max(1, job["min_ops"] // per_round), job["max_ops"] // per_round)
    samples = []
    t_first = now()
    for r in range(job["warmup"], job["warmup"] + n):
        samples.append(one_round(r))
    wall = now() - t_first
    comm.Recv(ctl, peer, tag_start)
    go[0] = 1
    comm.Send(go, peer, tag_go)
    bad = comm.recv(peer, TAG_CTL)
    return {
        "t_first_ns": t_first, "wall_ns": wall, "samples_ns": samples,
        "ops_per_sample": per_round, "ops": n * per_round, "failed": bad,
        "verified": bad == 0,
    }


# -- allreduce ------------------------------------------------------------------------
def allreduce(rt, job, rec=None):
    """``allreduce_array`` of ``count`` float64 on every rank, each call
    checked against a NumPy oracle.  A sample is one call (ns) on this
    rank; the repetition's value is the slowest rank's quiet-time median.
    """
    import numpy as np

    from repro.bindings.comm_api import Comm
    from repro.mpi import ops

    comm = Comm(rt)
    rank, size = rt.rank, rt.size
    vec = inputs.float_vector(job["seed"], job["count"])
    send = vec * (rank + 1)
    oracle = vec * (size * (size + 1) // 2)
    warm = job["warmup"]
    t0 = now()
    for _ in range(warm):
        rt.allreduce_array(send, ops.SUM)
    n = comm.bcast(
        _fit(job["budget_s"], now() - t0, warm, job["min_ops"],
             job["max_ops"]) if rank == 0 else None, root=0)
    rt.barrier()
    samples = []
    bad = 0
    t_first = now()
    for i in range(n):
        send[0] = i
        t = now()
        out = rt.allreduce_array(send, ops.SUM)
        samples.append(now() - t)
        oracle[0] = i * size
        if not np.array_equal(out, oracle):
            bad += 1
    wall = now() - t_first
    p50s = comm.gather(quant.quiet_median(samples), root=0)
    bads = comm.gather(bad, root=0)
    if rank != 0:
        return None
    return {
        "t_first_ns": t_first, "wall_ns": wall, "samples_ns": samples,
        "ops_per_sample": 1, "ops": n, "failed": max(bads),
        "verified": sum(bads) == 0, "rep_value_ns": max(p50s),
    }


# -- service / campaign ---------------------------------------------------------------
TINY_JOB = {"min_size": 8, "max_size": 8, "iterations": 5, "warmup": 1}


@contextlib.contextmanager
def service(workdir):
    from repro.service import BenchmarkService

    svc = BenchmarkService(
        pool_size=2, socket_path=os.path.join(workdir, "svc.sock"))
    svc.start()
    try:
        yield svc
    finally:
        svc.stop()


def campaign_doc(seed: int, cells: int) -> dict:
    sizes = [f"{1 << i}:{1 << i}" for i in range(cells)]
    inputs.rng(seed, "cells").shuffle(sizes)
    return {
        "name": f"perf-{seed}",
        "sweep": [{
            "benchmarks": ["osu_latency"], "transports": ["threads"],
            "ranks": [2], "sizes": sizes, "iterations": 5, "warmup": 1,
        }],
    }


def run_campaign(args: list[str]) -> tuple[int, int]:
    """``ombpy-campaign`` in-process with its chatter sent to stderr;
    returns (exit code, elapsed ns)."""
    from repro.campaign import cli as campaign_cli

    t = now()
    with contextlib.redirect_stdout(sys.stderr):
        rc = campaign_cli.main(args)
    return rc, now() - t


def campaign_ok(rc: int, out: str, cells: int) -> bool:
    """rc 0 and the manifest lists every cell completed, none missed."""
    try:
        with open(os.path.join(out, "MANIFEST.json"), encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return False
    return (rc == 0 and len(manifest.get("completed", ())) == cells
            and not manifest.get("missed"))


def sweep_warm(job):
    """Campaign cells through a warm in-process service.

    A sample is one whole ``ombpy-campaign run --backend warm`` of
    ``cells`` cells, divided by the cell count (ns per cell); one
    operation is one cell.
    """
    cells, workdir = job["cells"], job["workdir"]
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(campaign_doc(job["seed"], cells), fh)
    with service(workdir) as svc:
        def campaign(i):
            out = os.path.join(workdir, f"run-{i}")
            rc, ns = run_campaign([
                "run", spec_path, "--out", out, "--backend", "warm",
                "--service-socket", svc.address, "--concurrency", "1",
                "--cell-timeout", "60",
            ])
            return campaign_ok(rc, out, cells), ns

        for i in range(job["warmup"]):
            campaign(f"warm{i}")
        samples, bad = [], 0
        deadline = now() + int(job["budget_s"] * 1e9)
        t_first = now()
        i = ns = 0
        # Start another campaign only while at least half of one fits.
        while i < job["min_ops"] // cells or now() + ns // 2 < deadline:
            ok, ns = campaign(i)
            samples.append(ns // cells)
            bad += 0 if ok else cells
            i += 1
        wall = now() - t_first
    return {
        "t_first_ns": t_first, "wall_ns": wall, "samples_ns": samples,
        "ops_per_sample": 1, "ops": i * cells, "failed": bad,
        "verified": bad == 0,
    }


def submit_warm(job):
    """Sequential ``ServiceClient.run`` of one tiny job on a warm pool.
    A sample is one submit-and-wait (ns); one operation is one job."""
    from repro.service import JobSpec, ServiceClient

    spec = JobSpec(benchmark="osu_latency", ranks=2, options=dict(TINY_JOB))

    def done(record):
        table = record.get("result") or {}
        return record.get("state") == "DONE" and bool(table.get("rows"))

    with service(job["workdir"]) as svc:
        with ServiceClient(socket_path=svc.address, timeout=60.0) as client:
            for _ in range(job["warmup"]):
                client.run(spec, timeout=60)
            samples, bad = [], 0
            deadline = now() + int(job["budget_s"] * 1e9)
            t_first = now()
            while len(samples) < job["min_ops"] or now() < deadline:
                t = now()
                record = client.run(spec, timeout=60)
                samples.append(now() - t)
                bad += 0 if done(record) else 1
            wall = now() - t_first
    return {
        "t_first_ns": t_first, "wall_ns": wall, "samples_ns": samples,
        "ops_per_sample": 1, "ops": len(samples), "failed": bad,
        "verified": bad == 0,
    }


# -- registry ----------------------------------------------------------------------------------
#: name -> how to run one repetition.  ``mode``: "threads" (ranks as
#: threads in one pinned process), "launch" (pinned rank processes under
#: ``repro.mpi.launcher.launch``), "direct" (the body is the child).
#: ``reps``: fresh-process repetitions sharing the run's seconds — one and
#: a half to two seconds each at the default ``run_seconds``: long enough
#: that a repetition usually sees a quiet moment between the host's slow
#: spells (``quant.quiet_median``), and enough fresh processes to average
#: over their own differences (quiet levels 1-5 % apart; widest for two
#: uds ranks, hence eight repetitions there; the stream keeps six so that
#: a block still holds a dozen windows).  ``min_ops``: the
#: floor a repetition measures even on a tiny budget, and what a crashed
#: repetition is charged as attempted-and-failed.
WORKLOADS = {
    "pingpong_threads_8b": dict(
        body="pingpong", mode="threads", ranks=2, reps=8, warmup=300,
        min_ops=400, max_ops=400_000,
        why="no wire and no bytes: bindings, Comm checks, matching and the "
            "completion wake-up are the whole one-way time",
    ),
    "pingpong_threads_8b_metrics": dict(
        body="pingpong", mode="threads", ranks=2, reps=8, warmup=300,
        min_ops=400, max_ops=400_000, env={"OMBPY_METRICS": "1"},
        why="same loop with OMBPY_METRICS=1: the telemetry hooks are the "
            "only difference from pingpong_threads_8b",
    ),
    "pingpong_uds_8b": dict(
        body="pingpong", mode="launch", transport="uds", ranks=2, reps=8,
        warmup=300, min_ops=400, max_ops=400_000,
        why="two pinned processes over AF_UNIX: most of the time sits below "
            "the transport boundary (frame encode, socket, reader wake-up)",
    ),
    "stream_uds_1m": dict(
        body="stream", mode="launch", transport="uds", ranks=2, reps=6,
        warmup=50, window=4, msg_bytes=MIB, min_ops=40, max_ops=40_000,
        why="windowed 1 MiB Isend/Irecv: bytes dominate, so copies in the "
            "data path show here and not in the 8-byte workloads",
    ),
    "tagstorm_threads_1k": dict(
        body="tagstorm", mode="threads", ranks=2, reps=8, warmup=1,
        tags=1024, min_ops=2048, max_ops=2_000_000,
        why="1024 distinct tags in seeded order: queue depth is the load, "
            "so matching cost shows here and only costs on the ping-pongs",
    ),
    "allreduce_threads4_1k": dict(
        body="allreduce", mode="threads", ranks=4, reps=8, warmup=200,
        count=128, min_ops=100, max_ops=200_000,
        why="4 thread ranks, 128 float64: the collective algorithm and its "
            "~10 one-way hops do the work, checked against a NumPy oracle",
    ),
    "sweep_warm_16c": dict(
        body="sweep_warm", mode="direct", reps=3, warmup=1, cells=16,
        min_ops=16, max_ops=16_000,
        why="16-cell campaign on a warm service: campaign, service and "
            "config code are the cost, messaging is ~1% of a cell",
    ),
    "submit_warm_tiny": dict(
        body="submit_warm", mode="direct", reps=3, warmup=5,
        min_ops=10, max_ops=10_000,
        why="sequential ServiceClient.run of a ~0.3 ms job: the service's "
            "fixed per-job cost is everything a caller waits for",
    ),
}

BODIES = {
    "pingpong": pingpong, "stream": stream, "tagstorm": tagstorm,
    "allreduce": allreduce, "sweep_warm": sweep_warm,
    "submit_warm": submit_warm,
}
