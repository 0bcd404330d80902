"""Per-layer probes and the traced pass (``--trace 1``).

Every probe is one function that times one layer through its *public*
functions, runs behind its own try/except and timeout, and reports
``null`` plus a reason when the API it needs is gone — a refactor this
yardstick is meant to judge must not be able to break the yardstick.
Layer names are the repository's module names.

In-process probes run together in one pinned child (one interpreter
start, one import); probes that need rank processes get their own
launches.  Counts scale with ``--seconds`` (``scale`` = seconds / 10).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import threading
import time
from time import perf_counter_ns as now

import harness
import inputs
import measure
import quant
import spans
import workloads
from workloads import MIB, TAG_CTL

#: name -> unit of every per-layer metric (BENCHMARK.json lists the same).
#: The shm transport's own numbers (``transport.shm.lat_us_p50``,
#: ``.slow_share``, ``.bw_mbs_*``, ``.cpu_per_wall``,
#: ``runtime.threads_per_rank.shm``, ``launcher.cold_noop_s.shm``) are
#: measured and printed as ``# info`` lines but are not listed: the shm
#: probe dies in most runs (see README, "shm control-word tear"), and a
#: listed metric has to be a number every time.
UNITS = {
    # floors: no repro code, same run, same pinning
    "baseline.thread_handoff_us": "us",
    "baseline.uds_rtt_us": "us",
    "baseline.memcpy_mbs_1m": "MB/s",
    "baseline.threads_lat_over_floor": "ratio",
    "baseline.uds_lat_over_floor": "ratio",
    "baseline.bw_share_of_memcpy": "ratio",
    # bindings / native: the paper's differencing
    "native.lat_us_p50": "us",
    "bindings.lat_us_p50": "us",
    "bindings.overhead_us": "us",
    "bindings.pickle_overhead_us": "us",
    "bindings.resolve_ns": "ns",
    "bindings.resolve_numpy_ns": "ns",
    "bindings.pickle_roundtrip_us_64k": "us",
    "native.snapshot_us_1m": "us",
    "native.fill_us_1m": "us",
    "datapath.peak_copies_1m": "copies",
    # mpi.matching
    "matching.pair_ns_depth1": "ns",
    "matching.post_ns_unexpected1k": "ns",
    "matching.deliver_ns_posted1k": "ns",
    "matching.wildcard_ns_depth1k": "ns",
    "matching.tagstorm_us_per_msg_k1024": "us",
    "matching.tagstorm_us_per_msg_k32": "us",
    "matching.scan_share": "ratio",
    # mpi.request
    "request.wake_us_p50": "us",
    "request.window64_kmsgs_per_s": "kmsg/s",
    # mpi.transport.base
    "framing.pack_ns": "ns",
    "framing.unpack_ns": "ns",
    # transports
    "transport.uds.lat_us_p50": "us",
    "transport.tcp.lat_us_p50": "us",
    "transport.uds.wire_us": "us",
    "transport.tcp.wire_us": "us",
    "transport.inproc.bw_mbs_64k": "MB/s",
    "transport.uds.bw_mbs_64k": "MB/s",
    "transport.tcp.bw_mbs_64k": "MB/s",
    "transport.inproc.bw_mbs_1m": "MB/s",
    "transport.uds.bw_mbs_1m": "MB/s",
    "transport.tcp.bw_mbs_1m": "MB/s",
    "transport.uds.mrate_kmsgs_per_s_8b": "kmsg/s",
    "transport.shm.flood_fail_share": "ratio",
    "transport.uds.cpu_per_wall": "ratio",
    "fabric.first_send_ms": "ms",
    "runtime.threads_per_rank.uds": "count",
    "runtime.fds_per_rank.uds": "count",
    "runtime.maxrss_mb": "MB",
    # mpi.collectives
    "collectives.allreduce_us_p50_n2_1k": "us",
    "collectives.allreduce_us_p50_n4_1k": "us",
    "collectives.allreduce_us_p50_n4_64k": "us",
    "collectives.barrier_us_p50_n4": "us",
    "collectives.bcast_us_p50_n4_1k": "us",
    "collectives.msgs_per_allreduce_n4": "count",
    "collectives.hops_n4": "ratio",
    # telemetry / reliability
    "telemetry.metrics_on_pct": "%",
    "telemetry.trace_on_pct": "%",
    "reliability.on_overhead_us": "us",
    # launcher + world
    "launcher.cold_noop_s.uds": "s",
    "launcher.cold_noop_s.tcp": "s",
    "launcher.import_s": "s",
    "launcher.teardown_s": "s",
    # core / service / campaign / analysis
    "core.reported_vs_external_pct": "%",
    "core.sweep_overhead_ms": "ms",
    "service.start_s": "s",
    "service.submit_ms_p50": "ms",
    "service.submit_floor_ms": "ms",
    "campaign.cell_overhead_ms": "ms",
    "campaign.noop_resume_s": "s",
    "campaign.cold_cells_per_s": "1/s",
    "analysis.lint_src_s": "s",
    # span-derived (traced pass)
    "span.send_call_us": "us",
    "span.above_transport_us": "us",
    "span.transport_send_us": "us",
    "span.wire_wake_us": "us",
    "span.match_us": "us",
    "span.complete_wake_us": "us",
    "span.recv_call_us": "us",
    "span.coverage_pct": "%",
    "trace.overhead_pct": "%",
    "trace.untraced_op_us_p50": "us",
    "tail.op_us": "us",
}


#: Per-layer metrics where more is better; for all others less is.
HIGHER_IS_BETTER = frozenset({
    "baseline.memcpy_mbs_1m", "baseline.bw_share_of_memcpy",
    "request.window64_kmsgs_per_s", "transport.inproc.bw_mbs_64k",
    "transport.uds.bw_mbs_64k", "transport.tcp.bw_mbs_64k",
    "transport.inproc.bw_mbs_1m", "transport.uds.bw_mbs_1m",
    "transport.tcp.bw_mbs_1m", "transport.uds.mrate_kmsgs_per_s_8b",
    "campaign.cold_cells_per_s", "span.coverage_pct",
})


def better(name: str) -> str:
    return "higher" if name in HIGHER_IS_BETTER else "lower"


# =============================================================================
# helpers shared by the probes
# =============================================================================
_p50 = quant.median


def _timeit(fn, n: int, batch: int = 1) -> float:
    """Median ns per call of ``fn`` over ``n`` timed batches."""
    samples = []
    for _ in range(n):
        t = now()
        for _ in range(batch):
            fn()
        samples.append((now() - t) / batch)
    return _p50(samples)


@contextlib.contextmanager
def _environ(**values):
    old = {k: os.environ.get(k) for k in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for k, v in old.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v


def _threads(n, fn, **kwargs):
    from repro.mpi.world import run_on_threads

    return run_on_threads(n, fn, timeout=30.0, **kwargs)


def _fixed(job: dict, ops: int, warmup: int, **extra) -> dict:
    """A workload job that measures exactly ``ops`` operations."""
    return dict(job, budget_s=0.0, min_ops=ops, max_ops=ops, warmup=warmup,
                **extra)


def _api_pingpong(api: str, rts: int, warm: int = 100):
    """A 2-rank body measuring 8-byte round trips through one API family;
    rank 0 returns the round-trip samples (ns)."""
    def body(rt):
        from repro.bindings.comm_api import Comm

        rank, peer = rt.rank, 1 - rt.rank
        if api == "native":
            from repro.native.api import NativeComm, RegisteredBuffer

            comm = NativeComm(rt)
            sbuf = RegisteredBuffer(bytearray(8))
            rbuf = RegisteredBuffer(bytearray(8))

            def send():
                comm.send(sbuf, 8, peer, 1)

            def recv():
                comm.recv(rbuf, 8, peer, 1)
        elif api == "pickle":
            import numpy as np

            comm = Comm(rt)
            obj = np.zeros(8, dtype=np.uint8)    # what osu_latency pickles

            def send():
                comm.send(obj, peer, 1)

            def recv():
                comm.recv(peer, 1)
        else:
            comm = Comm(rt)
            sbuf, rbuf = bytearray(8), bytearray(8)

            def send():
                comm.Send(sbuf, peer, 1)

            def recv():
                comm.Recv(rbuf, peer, 1)

        rt.barrier()
        samples = []
        for i in range(warm + rts):
            if rank == 0:
                t = now()
                send()
                recv()
                if i >= warm:
                    samples.append(now() - t)
            else:
                recv()
                send()
        return samples

    return body


def _lat_us(api: str, rts: int, **kwargs) -> float:
    """One-way µs of one fresh thread-pair ping-pong."""
    return _p50(_threads(2, _api_pingpong(api, rts), **kwargs)[0]) / 2e3


# =============================================================================
# in-process probes: fn(ctx) -> {metric: value}
# =============================================================================
def probe_baseline(ctx):
    """Floors with no repro code: thread hand-off and memcpy."""
    n = ctx["n"](3000)
    ping, pong = threading.Event(), threading.Event()

    def echo():
        for _ in range(n):
            ping.wait()
            ping.clear()
            pong.set()

    t = threading.Thread(target=echo, daemon=True)
    t.start()
    samples = []
    for _ in range(n):
        t0 = now()
        ping.set()
        pong.wait()
        pong.clear()
        samples.append(now() - t0)
    t.join(10)
    src, dst = bytearray(inputs.payload(ctx["seed"], "memcpy", MIB)), bytearray(MIB)

    def copy():
        dst[:] = src

    copy_ns = _timeit(copy, ctx["n"](200))
    return {
        "baseline.thread_handoff_us": _p50(samples) / 2e3,
        "baseline.memcpy_mbs_1m": MIB / (copy_ns / 1e3),
    }


def probe_bindings_vs_native(ctx):
    """The paper's differencing on the threads fabric, interleaved so
    drift hits all three API families alike."""
    rts = ctx["n"](800)
    runs = {"native": [], "buffer": [], "pickle": []}
    for _ in range(3):
        for api in runs:
            runs[api].append(_lat_us(api, rts))
    native, buffer, pickle = (_p50(runs[a]) for a in ("native", "buffer", "pickle"))
    return {
        "native.lat_us_p50": native,
        "bindings.lat_us_p50": buffer,
        "bindings.overhead_us": buffer - native,
        "bindings.pickle_overhead_us": pickle - buffer,
    }


def probe_bindings_micro(ctx):
    import numpy as np

    from repro.bindings.buffers import resolve_buffer
    from repro.bindings.pickle_codec import PickleCodec
    from repro.native.api import RegisteredBuffer

    small, arr = bytearray(8), np.zeros(8, dtype="u1")
    codec = PickleCodec()
    obj = np.frombuffer(inputs.payload(ctx["seed"], "pickle", 65536), dtype="u1")
    reg = RegisteredBuffer(bytearray(inputs.payload(ctx["seed"], "reg", MIB)))
    wire = reg.snapshot()
    n = ctx["n"](300)
    return {
        "bindings.resolve_ns": _timeit(lambda: resolve_buffer(small), n, 20),
        "bindings.resolve_numpy_ns": _timeit(lambda: resolve_buffer(arr), n, 20),
        "bindings.pickle_roundtrip_us_64k":
            _timeit(lambda: codec.loads(codec.dumps(obj)), n) / 1e3,
        "native.snapshot_us_1m": _timeit(reg.snapshot, ctx["n"](100)) / 1e3,
        "native.fill_us_1m": _timeit(lambda: reg.fill_from(wire), ctx["n"](100)) / 1e3,
    }


def probe_datapath_copies(ctx):
    """Peak extra bytes ÷ message bytes around one 1 MiB Send/Recv on the
    threads fabric: an exact count of simultaneous materialisations."""
    import tracemalloc

    def body(rt):
        from repro.bindings.comm_api import Comm

        comm = Comm(rt)
        buf = bytearray(MIB)
        for measured in (False, True):    # first pass warms allocator pools
            rt.barrier()
            if rt.rank == 0 and measured:
                tracemalloc.start()
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            if rt.rank == 0:
                comm.Send(buf, 1, 1)
                comm.Recv(buf, 1, 2)
            else:
                comm.Recv(buf, 0, 1)
                comm.Send(buf, 0, 2)
            if rt.rank == 0 and measured:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                return (peak - base) / MIB
        return None

    return {"datapath.peak_copies_1m": _threads(2, body)[0]}


def _engine_at_depth(depth: int, posted: bool):
    """A MatchingEngine holding ``depth`` distinct tags, posted or
    unexpected; returns (engine, Envelope class)."""
    from repro.mpi.matching import Envelope, MatchingEngine

    engine = MatchingEngine()
    for tag in range(depth):
        if posted:
            engine.post_recv(0, 0, tag, 8)
        else:
            engine.deliver(Envelope(0, 0, 1, tag, 8), b"12345678")
    return engine, Envelope


def probe_matching(ctx):
    from repro.mpi.constants import ANY_SOURCE, ANY_TAG

    n = ctx["n"](400)
    payload = b"12345678"
    out = {}

    engine, Envelope = _engine_at_depth(0, False)
    env = Envelope(0, 0, 1, 5, 8)

    def pair():
        engine.deliver(env, payload)
        engine.post_recv(0, 0, 5, 8)

    out["matching.pair_ns_depth1"] = _timeit(pair, n, 10)

    # Depth stays 1024: every removal is refilled at the tail, and the
    # seeded tag order puts the target at a uniformly random position.
    order = inputs.tag_permutation(ctx["seed"], 1024, 0, "probe")
    engine, Envelope = _engine_at_depth(1024, posted=False)
    samples = []
    for tag in order[:n]:
        t = now()
        ticket = engine.post_recv(0, 0, tag, 8)
        samples.append(now() - t)
        if not ticket.done():
            raise AssertionError(f"tag {tag} did not match at depth 1024")
        engine.deliver(Envelope(0, 0, 1, tag, 8), payload)
    out["matching.post_ns_unexpected1k"] = _p50(samples)

    engine, Envelope = _engine_at_depth(1024, posted=True)
    samples = []
    for tag in order[:n]:
        env = Envelope(0, 0, 1, tag, 8)
        t = now()
        engine.deliver(env, payload)
        samples.append(now() - t)
        engine.post_recv(0, 0, tag, 8)
    if engine.pending_unexpected():
        raise AssertionError("a delivery missed its posted receive")
    out["matching.deliver_ns_posted1k"] = _p50(samples)

    # A wildcard must take the *earliest* queued message.
    engine, Envelope = _engine_at_depth(1024, posted=False)
    samples = []
    for i in range(n):
        t = now()
        ticket = engine.post_recv(0, ANY_SOURCE, ANY_TAG, 8)
        samples.append(now() - t)
        earliest = i % 1024
        if ticket.status.tag != earliest:
            raise AssertionError(
                f"wildcard took tag {ticket.status.tag}, earliest queued "
                f"was {earliest}")
        engine.deliver(Envelope(0, 0, 1, earliest, 8), payload)
    out["matching.wildcard_ns_depth1k"] = _p50(samples)
    return out


def probe_tagstorm_depth(ctx):
    """The tagstorm loop at K=1024 and at K=32: the difference is what
    queue depth costs per message."""
    out = {}
    for k, rounds in ((1024, ctx["n"](3)), (32, ctx["n"](60))):
        job = _fixed({"seed": ctx["seed"], "tags": k}, rounds * 2 * k, 1)
        res = _threads(2, lambda rt, job=job: workloads.tagstorm(rt, job))[0]
        if not res["verified"]:
            raise AssertionError(f"tagstorm K={k} delivered a wrong buffer")
        out[f"matching.tagstorm_us_per_msg_k{k}"] = (
            _p50(res["samples_ns"]) / (2 * k) / 1e3)
    return out


def probe_request(ctx):
    """Completion wake-up, and the non-blocking window rate."""
    from repro.mpi.matching import Envelope, MatchingEngine

    n = ctx["n"](2000)
    eng_a, eng_b = MatchingEngine(), MatchingEngine()
    env, payload = Envelope(0, 0, 1, 1, 8), b"12345678"
    stamp = [0]

    def side_b():
        for _ in range(n):
            eng_b.post_recv(0, 0, 1, 8).wait(10)
            stamp[0] = now()
            eng_a.deliver(env, payload)

    t = threading.Thread(target=side_b, daemon=True)
    t.start()
    samples = []
    for _ in range(n):
        ticket = eng_a.post_recv(0, 0, 1, 8)
        eng_b.deliver(env, payload)
        ticket.wait(10)
        samples.append(now() - stamp[0])
    t.join(10)

    windows = ctx["n"](60)
    job = _fixed({"seed": ctx["seed"], "window": 64, "msg_bytes": 8},
                 windows * 64, 5)
    res = _threads(2, lambda rt: workloads.stream(rt, job))[0]
    return {
        "request.wake_us_p50": _p50(samples) / 1e3,
        "request.window64_kmsgs_per_s": 64 / (_p50(res["samples_ns"]) / 1e9) / 1e3,
    }


def probe_framing(ctx):
    from repro.mpi.matching import Envelope
    from repro.mpi.transport.base import pack_header, unpack_header

    env = Envelope(0, 0, 1, 7, 8)
    data = pack_header(env)
    if unpack_header(data) != env:
        raise AssertionError("header does not round-trip")
    n = ctx["n"](300)
    return {
        "framing.pack_ns": _timeit(lambda: pack_header(env), n, 50),
        "framing.unpack_ns": _timeit(lambda: unpack_header(data), n, 50),
    }


def _bw_mbs(res: dict) -> float:
    per_msg_us = _p50(res["samples_ns"]) / res["ops_per_sample"] / 1e3
    return res["bytes_per_op"] / per_msg_us


def probe_inproc_bw(ctx):
    out = {}
    for label, size, windows in (("64k", 65536, ctx["n"](100)),
                                 ("1m", MIB, ctx["n"](30))):
        job = _fixed({"seed": ctx["seed"], "window": 4, "msg_bytes": size},
                     windows * 4, 5)
        res = _threads(2, lambda rt, job=job: workloads.stream(rt, job))[0]
        if not res["verified"]:
            raise AssertionError(f"inproc stream {label} failed its checksum")
        out[f"transport.inproc.bw_mbs_{label}"] = _bw_mbs(res)
    return out


def probe_collectives(ctx):
    import numpy as np

    from repro.mpi import ops

    def timed(n_ranks, calls, fn_of_rt):
        def body(rt):
            fn = fn_of_rt(rt)
            for _ in range(20):
                fn()
            rt.barrier()
            samples = []
            for _ in range(calls):
                t = now()
                fn()
                samples.append(now() - t)
            return _p50(samples)

        return max(_threads(n_ranks, body)) / 1e3

    def allreduce_of(count):
        vec = inputs.float_vector(ctx["seed"], count)
        return lambda rt: lambda: rt.allreduce_array(vec, ops.SUM)

    data = inputs.payload(ctx["seed"], "bcast", 1024)
    out = {
        "collectives.allreduce_us_p50_n2_1k":
            timed(2, ctx["n"](400), allreduce_of(128)),
        "collectives.allreduce_us_p50_n4_1k":
            timed(4, ctx["n"](300), allreduce_of(128)),
        "collectives.allreduce_us_p50_n4_64k":
            timed(4, ctx["n"](100), allreduce_of(8192)),
        "collectives.barrier_us_p50_n4":
            timed(4, ctx["n"](300), lambda rt: rt.barrier),
        "collectives.bcast_us_p50_n4_1k": timed(
            4, ctx["n"](300), lambda rt: lambda: rt.bcast_bytes(
                data if rt.rank == 0 else None, 0)),
    }

    # Exact message count of one allreduce, from the runtime's own counter.
    calls = 10
    vec = inputs.float_vector(ctx["seed"], 128)

    def counted(rt):
        def sent():
            counters = rt.endpoint.telemetry.snapshot()["metrics"]["counters"]
            return counters["comm.msgs_sent"]

        rt.barrier()
        before = sent()
        for _ in range(calls):
            out = rt.allreduce_array(vec, ops.SUM)
        after = sent()
        if not np.array_equal(out, vec * rt.size):
            raise AssertionError("allreduce disagrees with the NumPy oracle")
        rt.barrier()
        return after - before

    with _environ(OMBPY_METRICS="1"):
        sent = _threads(4, counted)
    out["collectives.msgs_per_allreduce_n4"] = sum(sent) / calls
    return out


def probe_telemetry(ctx):
    """Telemetry and reliability cost on the threads ping-pong, each
    interleaved with its own telemetry-off runs."""
    rts = ctx["n"](800)
    runs = {"off": [], "metrics": [], "trace": [], "reliable": []}
    for _ in range(3):
        runs["off"].append(_lat_us("buffer", rts))
        with _environ(OMBPY_METRICS="1"):
            runs["metrics"].append(_lat_us("buffer", rts))
        with _environ(OMBPY_METRICS="1", OMBPY_TRACE="1"):
            runs["trace"].append(_lat_us("buffer", rts))
        runs["reliable"].append(_lat_us("buffer", rts, reliable=True))
    off = _p50(runs["off"])
    return {
        "telemetry.metrics_on_pct": (_p50(runs["metrics"]) / off - 1) * 100,
        "telemetry.trace_on_pct": (_p50(runs["trace"]) / off - 1) * 100,
        "reliability.on_overhead_us": _p50(runs["reliable"]) - off,
    }


def probe_core(ctx):
    """Does our own tool agree with an outside clock on the same loop?"""
    from repro.core.options import Options
    from repro.core.runner import run_benchmark

    iters = ctx["n"](1500)
    opts = Options(min_size=8, max_size=8, iterations=iters, warmup=100,
                   buffer="bytearray")
    reported = _p50([
        _threads(2, lambda rt: run_benchmark("osu_latency", rt, opts))[0]
        .row_for(8).value for _ in range(3)
    ])
    # The harness's mean over the same loop (the tool reports a mean).
    external = _p50([
        (lambda s: sum(s) / len(s) / 2e3)(
            _threads(2, _api_pingpong("buffer", iters))[0])
        for _ in range(3)
    ])

    sweep = Options(min_size=1, max_size=64, iterations=5, warmup=1,
                    buffer="bytearray")
    overheads = []
    for _ in range(ctx["n"](10)):
        t = now()
        table = _threads(2, lambda rt: run_benchmark("osu_latency", rt, sweep))[0]
        wall_ms = (now() - t) / 1e6
        messaging_ms = sum(2 * 6 * row.value for row in table) / 1e3
        overheads.append(wall_ms - messaging_ms)
    return {
        "core.reported_vs_external_pct": abs(reported / external - 1) * 100,
        "core.sweep_overhead_ms": _p50(overheads),
    }


def probe_lint(ctx):
    from repro.analysis import lint

    t = now()
    with contextlib.redirect_stdout(sys.stderr):
        lint.main([harness.SRC])
    return {"analysis.lint_src_s": (now() - t) / 1e9}


INPROC_PROBES = (
    probe_baseline, probe_bindings_vs_native, probe_bindings_micro,
    probe_matching, probe_tagstorm_depth, probe_request, probe_framing,
    probe_inproc_bw, probe_collectives, probe_telemetry, probe_core,
    probe_lint, probe_datapath_copies,
)


def probe_service(ctx):
    """Service start, the per-job floor, and what a campaign adds."""
    t = now()       # a user starting ombpy-serve pays the imports too
    from repro.service import JobSpec, ServiceClient

    workdir, seed = ctx["workdir"], ctx["seed"]
    spec = JobSpec(benchmark="osu_latency", ranks=2,
                   options=dict(workloads.TINY_JOB))
    out = {}
    with workloads.service(workdir) as svc:
        with ServiceClient(socket_path=svc.address, timeout=60.0) as client:
            client.status()
            out["service.start_s"] = (now() - t) / 1e9
            client.run(spec, timeout=60)
            submits, own = [], []
            for _ in range(ctx["n"](12)):
                t = now()
                record = client.run(spec, timeout=60)
                submits.append((now() - t) / 1e6)
                own.append((record["finished_at"] - record["started_at"]) * 1e3)
            out["service.submit_ms_p50"] = _p50(submits)
            out["service.submit_floor_ms"] = _p50(submits) - _p50(own)

        cells = 4
        spec_path = os.path.join(workdir, "probe-spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(workloads.campaign_doc(seed, cells), fh)
        common = ["--concurrency", "1", "--cell-timeout", "60"]
        warm_out = os.path.join(workdir, "probe-warm")
        warm = ["--backend", "warm", "--service-socket", svc.address]
        rc, ns = workloads.run_campaign(
            ["run", spec_path, "--out", warm_out, *warm, *common])
        if not workloads.campaign_ok(rc, warm_out, cells):
            raise AssertionError(f"warm campaign failed (rc {rc})")
        out["campaign.cell_overhead_ms"] = (
            ns / cells / 1e6 - out["service.submit_ms_p50"])
        rc, ns = workloads.run_campaign(["resume", warm_out, *warm, *common])
        if rc != 0:
            raise AssertionError(f"no-op resume failed (rc {rc})")
        out["campaign.noop_resume_s"] = ns / 1e9

    cells = 2
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(workloads.campaign_doc(seed, cells), fh)
    cold_out = os.path.join(workdir, "probe-cold")
    rc, ns = workloads.run_campaign(
        ["run", spec_path, "--out", cold_out, "--backend", "cold", *common])
    if not workloads.campaign_ok(rc, cold_out, cells):
        raise AssertionError(f"cold campaign failed (rc {rc})")
    out["campaign.cold_cells_per_s"] = cells / (ns / 1e9)
    return out


def _isolated(probe, ctx, timeout_s: float) -> tuple[dict, str | None]:
    """Run one probe on its own thread behind try/except and a timeout."""
    box: dict = {}

    def guarded():
        try:
            box["metrics"] = probe(ctx)
        except BaseException as exc:  # noqa: BLE001 - reported as the reason
            box["error"] = f"{type(exc).__name__}: {exc}"

    t = threading.Thread(target=guarded, name=probe.__name__, daemon=True)
    t.start()
    t.join(timeout_s)
    if t.is_alive():
        return {}, f"timed out after {timeout_s:.0f}s"
    return box.get("metrics", {}), box.get("error")


def child_main(job: dict) -> None:
    """Host for the probes that run inside one pinned child."""
    core = harness.pin()
    scale = job["scale"]
    ctx = {
        "seed": job["seed"], "workdir": job["workdir"],
        "n": lambda count, floor=2: max(floor, int(count * scale)),
    }
    probes = INPROC_PROBES if job["fn"] == "inproc" else (probe_service,)
    metrics, errors = {}, {}
    for probe in probes:
        got, error = _isolated(probe, ctx, job["probe_timeout_s"])
        metrics.update(got)
        if error is not None:
            errors[probe.__name__] = error
    harness.emit({"layer": metrics, "errors": errors, "core": core})


# =============================================================================
# probes that need rank processes
# =============================================================================
def _file_barrier(workdir: str, rank: int, size: int) -> None:
    """Meet the peers without touching the transport under test."""
    open(os.path.join(workdir, f"ready.{rank}"), "w").close()
    deadline = time.monotonic() + 30
    for peer in range(size):
        path = os.path.join(workdir, f"ready.{peer}")
        while not os.path.exists(path):
            if time.monotonic() > deadline:
                raise TimeoutError(f"rank {peer} never got ready")
            time.sleep(0.0002)


def suite(rt, job, rec=None):
    """Rank body: one launch measures a transport's latency, bandwidth,
    message rate and footprint.  Partial results are published as they
    are measured so a later hang does not take the earlier ones along."""
    import resource

    from repro.bindings.comm_api import Comm

    kind, scale, seed = job["transport"], job["scale"], job["seed"]
    comm = Comm(rt)
    rank, peer = rt.rank, 1 - rt.rank
    n = lambda count: max(2, int(count * scale))  # noqa: E731

    def publish(metrics):
        if rank == 0:
            harness.emit({"layer": metrics})

    # First round trip after init, peers met out of band: the lazy dial.
    _file_barrier(job["workdir"], rank, rt.size)
    buf = bytearray(8)
    if rank == 0:
        time.sleep(0.003)           # let the peer reach its Recv
        t = now()
        comm.Send(buf, peer, TAG_CTL)
        comm.Recv(buf, peer, TAG_CTL)
        if kind == "uds":
            publish({"fabric.first_send_ms": (now() - t) / 1e6})
    else:
        comm.Recv(buf, peer, TAG_CTL)
        comm.Send(buf, peer, TAG_CTL)

    cpu0, wall0 = time.process_time(), now()
    res = workloads.pingpong(rt, _fixed(job, 2 * n(1000), 100))
    if rank == 0:
        if not res["verified"]:
            raise AssertionError(f"{kind}: ping-pong echo mismatch")
        rtts = res["samples_ns"]
        out = {f"transport.{kind}.lat_us_p50": _p50(rtts) / 2e3}
        if kind == "shm":
            out["transport.shm.slow_share"] = (
                sum(1 for s in rtts if s > 100_000) / len(rtts))
        publish(out)
    for label, size, windows in (("64k", 65536, n(100)), ("1m", MIB, n(30))):
        res = workloads.stream(
            rt, _fixed(job, windows * 4, 5, window=4, msg_bytes=size))
        if rank == 0:
            if not res["verified"]:
                raise AssertionError(f"{kind}: stream {label} checksum failed")
            publish({f"transport.{kind}.bw_mbs_{label}": _bw_mbs(res)})
    if kind == "uds":
        res = workloads.stream(
            rt, _fixed(job, n(60) * 64, 5, window=64, msg_bytes=8))
        if rank == 0:
            publish({"transport.uds.mrate_kmsgs_per_s_8b":
                     64 / (_p50(res["samples_ns"]) / 1e9) / 1e3})
    cpu_share = (time.process_time() - cpu0) / ((now() - wall0) / 1e9)
    shares = comm.gather(cpu_share, root=0)
    if rank == 0 and kind in ("uds", "shm"):
        out = {
            f"transport.{kind}.cpu_per_wall": sum(shares) / len(shares),
            f"runtime.threads_per_rank.{kind}": threading.active_count(),
        }
        if kind == "uds":
            out["runtime.fds_per_rank.uds"] = len(os.listdir("/proc/self/fd"))
            out["runtime.maxrss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        publish(out)
    return None


def flood(rt, job, rec=None):
    """Rank body: short 8 B × 64 windows — the shape that trips the shm
    ring's torn control-word store (see README)."""
    res = workloads.stream(
        rt, _fixed(job, job["windows"] * 64, 2, window=64, msg_bytes=8))
    if rt.rank == 0:
        harness.emit({"layer": {"flood_ok": 1.0 if res["verified"] else 0.0}})
    return None


def noop(rt, job, rec=None):
    """Rank body: init (done) + barrier + finalize; stamps teardown start."""
    rt.barrier()
    if rt.rank == 0:
        harness.emit({"t_finalize_ns": now()})
    return None


RANK_BODIES = {"suite": suite, "flood": flood, "noop": noop}


# =============================================================================
# parent side
# =============================================================================
class _Pass:
    """Collects metrics and null-reasons over the layer pass."""

    def __init__(self, args, scratch: str) -> None:
        self.seed = args.seed
        self.scale = max(0.02, args.seconds / 10.0)
        self.scratch = scratch
        self.metrics: dict[str, float] = {}
        self.reasons: dict[str, str] = {}
        self.probes = 0
        self.extra: dict = {}
        self._n = 0

    def job(self, **fields) -> dict:
        self._n += 1
        workdir = os.path.join(self.scratch, f"layer-{self._n}")
        os.makedirs(workdir, exist_ok=True)
        return dict(seed=self.seed, scale=self.scale, workdir=workdir,
                    trace=False, timeout_s=60.0, **fields)

    def child(self, label: str, job: dict, timeout_s: float,
              expect: tuple[str, ...] = ()) -> list[dict]:
        """Run one probe child; merge its ``layer`` records.  Metrics in
        ``expect`` that did not come back are null with the reason."""
        self.probes += 1
        t = time.monotonic()
        records, error = harness.run_child(job, self.scratch, timeout_s)
        for record in records:
            self.metrics.update(record.get("layer", {}))
            for probe, reason in record.get("errors", {}).items():
                self.reasons[probe] = reason
        if error is not None:
            self.reasons[label] = error
        for name in expect:
            if name not in self.metrics:
                self.reasons.setdefault(name, error or f"{label}: not reported")
        print(f"# layer {label}: {time.monotonic() - t:.1f}s"
              + (f" — {error}" if error else ""), file=sys.stderr)
        return records

    def derive(self, name: str, fn) -> None:
        """A metric computed from others; null if an input is missing."""
        try:
            self.metrics[name] = fn(self.metrics)
        except (KeyError, ZeroDivisionError, TypeError) as exc:
            self.reasons[name] = f"input missing: {exc!r}"


def _launch_job(p: _Pass, body: str, transport: str, **fields) -> dict:
    job = p.job(mode="launch", body=body, transport=transport, ranks=2,
                **fields)
    if transport == "shm":
        # A shm probe that hangs (see README) is ended by the launcher's
        # own timeout, well before the harness kills the process group,
        # so the launcher still unlinks its /dev/shm segments.
        job.update(pin="split", timeout_s=1.5 + 2.5 * min(1.0, p.scale))
    return job


def _baseline_uds_child(job: dict) -> None:
    """Raw AF_UNIX 8-byte echo between two processes pinned like the
    ranks of a process workload (same core)."""
    import socket

    n = max(200, int(3000 * job["scale"]))
    a, b = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            a.close()
            harness.pin()
            for _ in range(n + 100):
                b.sendall(b.recv(8, socket.MSG_WAITALL))
            status = 0
        finally:
            os._exit(status)
    b.close()
    harness.pin()
    samples = []
    msg = b"12345678"
    for i in range(n + 100):
        t = now()
        a.sendall(msg)
        a.recv(8, socket.MSG_WAITALL)
        if i >= 100:
            samples.append(now() - t)
    a.close()
    os.waitpid(pid, 0)
    harness.emit({"layer": {"baseline.uds_rtt_us": _p50(samples) / 1e3}})


def _import_child(job: dict) -> None:
    """Interpreter start + the imports every rank pays, minus a bare
    interpreter start."""
    import subprocess

    def spawn(code):
        t = now()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=60)
        return (now() - t) / 1e9

    full = "import repro.mpi.world, repro.bindings.comm_api, repro.mpi.launcher"
    harness.emit({"layer": {"launcher.import_s": _p50(
        [spawn(full) - spawn("pass") for _ in range(3)])}})


def _cold_noop_child(job: dict) -> None:
    """``launch`` of a no-op job from outside: wall, and the part after
    the last rank began to finalize."""
    from repro.mpi.launcher import launch

    kind = job["transport"]
    rank_job = dict(job, mode="rank", body="noop")
    read_fd, write_fd = os.pipe()
    saved = os.dup(1)
    os.dup2(write_fd, 1)            # capture the rank's stamp line
    try:
        t = now()
        rc = launch(2, [sys.executable, harness.CHILD, json.dumps(rank_job)],
                    timeout=job["timeout_s"], transport=kind,
                    failfast_grace=1.0)
        done = now()
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(write_fd)
    # Not read-to-EOF: on shm the launcher's resource tracker inherits
    # the pipe and outlives the job.
    os.set_blocking(read_fd, False)
    try:
        lines = os.read(read_fd, 1 << 16).decode().splitlines()
    except BlockingIOError:
        lines = []
    finally:
        os.close(read_fd)
    if rc != 0:
        raise RuntimeError(f"no-op launch on {kind} exited {rc}")
    out = {f"launcher.cold_noop_s.{kind}": (done - t) / 1e9}
    stamps = [json.loads(line[len(harness.RESULT_MARK):])["t_finalize_ns"]
              for line in lines if line.startswith(harness.RESULT_MARK)]
    if kind == "uds" and stamps:
        out["launcher.teardown_s"] = (done - max(stamps)) / 1e9
    harness.emit({"layer": out})


CHILDREN = {
    "inproc": child_main, "service": child_main,
    "baseline_uds": _baseline_uds_child, "import": _import_child,
    "cold_noop": _cold_noop_child,
}


def _floods(p: _Pass) -> None:
    """Three short floods on shm, side by side; the share that die."""
    results: list[bool] = []

    def one():
        job = _launch_job(p, "flood", "shm", windows=max(5, int(20 * p.scale)))
        records, error = harness.run_child(job, p.scratch, 10.0)
        results.append(error is None and any(
            r.get("layer", {}).get("flood_ok") == 1.0 for r in records))

    threads = [threading.Thread(target=one) for _ in range(3)]
    t = time.monotonic()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    p.probes += 3
    p.metrics["transport.shm.flood_fail_share"] = (
        sum(1 for ok in results if not ok) / len(results))
    print(f"# layer floods: {time.monotonic() - t:.1f}s "
          f"({results.count(False)}/3 died)", file=sys.stderr)


def _traced_pass(p: _Pass, name: str, args) -> tuple[int, int, bool]:
    """One repetition of the workload that runs its loop twice — tracing
    off, then on (``pingpong_threads_8b`` stands in for a workload that
    cannot be followed message by message); returns (attempted, failed,
    correct)."""
    target = name if name in measure.TRACEABLE else "pingpong_threads_8b"
    budget = max(0.05, args.seconds / 10.0)
    rep = measure.run_reps(target, args.seed, budget, p.scratch, args.quick,
                           1, trace=True)[0]
    p.extra["traced_workload"] = target
    if "error" in rep:
        for key in UNITS:
            if key.startswith(("span.", "trace.", "tail.")):
                p.reasons[key] = f"traced pass failed: {rep['error']}"
        return measure.account(target, [rep])
    plain = dict(rep, **rep["plain"])
    attempted, failed, correct = measure.account(target, [rep, plain])
    plain_us = measure.rep_op_ns(plain) / 1e3
    p.metrics["trace.untraced_op_us_p50"] = plain_us
    p.metrics["trace.overhead_pct"] = (
        measure.rep_op_ns(rep) / 1e3 / plain_us - 1) * 100
    pooled = sorted(s / plain["ops_per_sample"] / 1e3
                    for s in plain["samples_ns"])
    tail_p = quant.tail_percentile(len(pooled))
    if tail_p is None:
        p.reasons["tail.op_us"] = f"only {len(pooled)} samples"
    else:
        p.metrics["tail.op_us"] = quant.percentile(pooled, tail_p)
        p.extra["tail_percentile"] = tail_p

    stream = workloads.WORKLOADS[target]["body"] == "stream"
    linked = spans.link(
        rep["spans"], workloads.WORKLOADS[target].get("window", 1))
    os.makedirs(measure.OUT_DIR, exist_ok=True)
    trace_path = os.path.join(
        measure.OUT_DIR, f"{target}.seed{args.seed}.trace.json")
    spans.write_chrome_trace(trace_path, linked)
    p.extra["chrome_trace"] = os.path.relpath(trace_path, harness.ROOT)
    names = dict(send_name="bindings.Isend" if stream else "bindings.Send",
                 recv_name="bindings.Wait" if stream else "bindings.Recv")
    # A ping-pong carries a message each way per iteration, and the two
    # directions are not alike (who gets the core first): average them.
    ways = [spans.message_budget(linked, 0, 1, **names)]
    if not stream:
        ways.append(spans.message_budget(linked, 1, 0, **names))
    p.extra["traced_messages"] = sum(w["messages"] for w in ways)
    for key in spans.SEGMENTS:
        p.metrics[f"span.{key}_us"] = sum(w[key] for w in ways) / len(ways) / 1e3
    path_us = sum(w["path"] for w in ways) / len(ways) / 1e3
    p.metrics["span.coverage_pct"] = path_us / plain_us * 100
    return attempted, failed, correct


#: Metric-name prefixes the traced pass owns; the probes own the rest.
TRACED_PREFIXES = ("span.", "trace.", "tail.")


def _run_probes(p: _Pass, seconds: float) -> None:
    """Every layer probe, then the metrics derived from several."""
    per_probe = max(20.0, 3.0 * seconds)
    p.child("inproc", p.job(mode="layer", fn="inproc",
                            probe_timeout_s=per_probe), 150.0)
    p.child("service", p.job(mode="layer", fn="service",
                             probe_timeout_s=per_probe), 90.0)
    p.child("baseline_uds", p.job(mode="layer", fn="baseline_uds"), 30.0)
    p.child("import", p.job(mode="layer", fn="import"), 60.0)
    for kind in ("uds", "tcp", "shm"):
        p.child(f"suite.{kind}", _launch_job(p, "suite", kind),
                20.0 + 20.0 * p.scale)
        noop_job = _launch_job(p, "noop", kind)
        p.child(f"cold_noop.{kind}",
                dict(noop_job, mode="layer", fn="cold_noop"), 30.0)
    _floods(p)

    lat = "bindings.lat_us_p50"
    p.derive("transport.uds.wire_us", lambda m: m["transport.uds.lat_us_p50"] - m[lat])
    p.derive("transport.tcp.wire_us", lambda m: m["transport.tcp.lat_us_p50"] - m[lat])
    p.derive("matching.scan_share", lambda m: 1 - (
        m["matching.tagstorm_us_per_msg_k32"] / m["matching.tagstorm_us_per_msg_k1024"]))
    p.derive("collectives.hops_n4", lambda m: m["collectives.allreduce_us_p50_n4_1k"] / m[lat])
    p.derive("baseline.threads_lat_over_floor", lambda m: m[lat] / m["baseline.thread_handoff_us"])
    p.derive("baseline.uds_lat_over_floor", lambda m: (
        m["transport.uds.lat_us_p50"] / (m["baseline.uds_rtt_us"] / 2)))
    p.derive("baseline.bw_share_of_memcpy", lambda m: (
        m["transport.uds.bw_mbs_1m"] / m["baseline.memcpy_mbs_1m"]))


def layer_pass(name: str, args, scratch: str, probes: bool = True,
               traced: bool = True) -> dict:
    """``--trace 1``: the layer probes and the traced pass of workload
    ``name`` (either can be left out when several workloads share one
    set of probes); returns the contract result plus detail."""
    p = _Pass(args, scratch)
    attempted, failed, correct = 0, 0, True
    if probes:
        _run_probes(p, args.seconds)
    if traced:
        attempted, failed, correct = _traced_pass(p, name, args)

    metrics = {}
    for key, unit in UNITS.items():
        if not (traced if key.startswith(TRACED_PREFIXES) else probes):
            continue
        value = p.metrics.get(key)
        if value is None:
            p.reasons.setdefault(key, "not measured (see probe reasons)")
        metrics[key] = {"value": value, "unit": unit}
    measure.print_metrics(f"{name}.", {k: v["value"] for k, v in metrics.items()},
                          UNITS, {})
    info = {k: v for k, v in p.metrics.items() if k not in UNITS}
    for key, value in sorted(info.items()):
        print(f"# info {key} = {value:.6g}")
    for key, reason in sorted(p.reasons.items()):
        print(f"# null/reason {key}: {reason}")
    for key, value in sorted(p.extra.items()):
        print(f"# {key}: {value}")
    return {
        "correct": correct, "attempted": attempted + p.probes,
        "failed": failed, "metrics": metrics,
        "detail": {"reasons": p.reasons, "info": info, **p.extra},
    }
