"""``ombpy`` — the OMB-Py command-line driver.

Run a benchmark under the multi-process launcher::

    ombpy-run -n 2 ombpy osu_latency -b numpy
    ombpy-run -n 4 ombpy osu_allreduce --api buffer -m 4:65536

or self-hosted on ranks-as-threads (no launcher needed)::

    ombpy osu_latency --threads 2 -b bytearray
    ombpy osu_allreduce --threads 4 -d gpu -b cupy

``--validate`` runs the sweep under the runtime MPI verifier
(:mod:`repro.analysis`): deadlocks, cross-rank collective mismatches,
count mismatches, and leaked requests raise bounded diagnostics instead
of hanging the run or corrupting results.  ``--sanitize`` adds the
buffer-race sanitizer (write-after-Isend, read/write-before-Wait,
overlapping pinned buffers, mid-collective mutation; see docs/race.md);
the two flags compose.  The companion static checker is ``ombpy-lint``.
"""

from __future__ import annotations

import argparse
import os
import sys

from ..mpi import init as runtime_init
from ..mpi.world import run_on_threads
from . import options as opt_mod
from .output import print_table
from .registry import available_benchmarks, get_benchmark
from .runner import BenchContext


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ombpy",
        description="OMB-Py: MPI micro-benchmarks for Python.",
    )
    parser.add_argument(
        "benchmark",
        help="benchmark name (use 'list' to enumerate)",
    )
    parser.add_argument(
        "--threads", type=int, default=None, metavar="N",
        help="self-host on N ranks-as-threads instead of the launcher",
    )
    parser.add_argument(
        "--faults", default=None, metavar="PLAN.json",
        help="with --threads: run the sweep under the deterministic "
        "fault injector using this FaultPlan (see docs/resilience.md); "
        "for process runs pass the flag to ombpy-run instead",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None, metavar="SEED",
        help="with --threads: shorthand for the default survivable "
        "chaos mix (message delays + slow-rank stalls) derived from "
        "SEED",
    )
    parser.add_argument(
        "--reliable", action="store_true",
        help="with --threads: stack the ack/retransmit reliable-delivery "
        "layer over the (possibly faulty) transport; for process runs "
        "pass --reliable to ombpy-run instead",
    )
    parser.add_argument(
        "--recover", action="store_true",
        help="survive rank failures: on RankFailedError the survivors "
        "revoke + shrink the communicator (ULFM-style) and re-run the "
        "sweep; pair with ombpy-run --recover for process runs",
    )
    parser.add_argument(
        "--output", default=None, metavar="FILE",
        help="also write the result table to FILE (.csv or .json by "
        "extension)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect per-rank metrics during the sweep and write the "
        "merged job view to --metrics-out (plus a per-rank summary "
        "table on stderr)",
    )
    parser.add_argument(
        "--metrics-out", default="metrics.json", metavar="FILE",
        help="where to write the merged job metrics (default: "
        "metrics.json)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="record per-rank MPI spans and message events and write "
        "the merged trace to FILE: Chrome trace JSON, or JSONL when "
        "FILE ends in .jsonl (implies --metrics)",
    )
    parser.add_argument(
        "--simulate", default=None, metavar="CLUSTER",
        help="instead of running live, project the benchmark onto a "
        "modelled cluster (Frontera, Stampede2, RI2, RI2-GPU); "
        "--simulate-nodes/--simulate-ppn control the layout",
    )
    parser.add_argument("--simulate-nodes", type=int, default=2)
    parser.add_argument("--simulate-ppn", type=int, default=1)
    opt_mod.add_arguments(parser)
    return parser


_SIM_COLLECTIVES = {
    "osu_allreduce": "allreduce",
    "osu_allgather": "allgather",
    "osu_alltoall": "alltoall",
    "osu_bcast": "bcast",
    "osu_reduce": "reduce",
    "osu_gather": "gather",
    "osu_scatter": "scatter",
    "osu_reduce_scatter": "reduce_scatter",
    "osu_barrier": "barrier",
}


def _simulate(args, options) -> int:
    """Project a benchmark onto a modelled cluster (no live ranks)."""
    from ..simulator import CLUSTERS, simulate_collective, simulate_pt2pt

    try:
        cluster = CLUSTERS[args.simulate]
    except KeyError:
        print(
            f"ombpy: unknown cluster {args.simulate!r}; choose from "
            f"{', '.join(CLUSTERS)}", file=sys.stderr,
        )
        return 2
    sizes = [
        s for s in _power_sizes(options.min_size, options.max_size)
    ]
    api = options.api if options.api != "native" else "native"
    buffer = options.buffer
    if args.benchmark == "osu_latency":
        placement = "intra" if args.simulate_nodes <= 1 else "inter"
        table = simulate_pt2pt(
            cluster, placement, api=api, buffer=buffer, sizes=sizes
        )
    elif args.benchmark in ("osu_bw", "osu_bibw"):
        placement = "intra" if args.simulate_nodes <= 1 else "inter"
        table = simulate_pt2pt(
            cluster, placement, api=api, buffer=buffer,
            metric="bandwidth", sizes=sizes,
        )
        if args.benchmark == "osu_bibw":
            table.rows = [r.scaled(2.0) for r in table.rows]
    elif args.benchmark in _SIM_COLLECTIVES:
        table = simulate_collective(
            _SIM_COLLECTIVES[args.benchmark], cluster,
            nodes=args.simulate_nodes, ppn=args.simulate_ppn,
            api=api, buffer=buffer, sizes=sizes,
        )
    else:
        print(
            f"ombpy: {args.benchmark} has no simulation mapping",
            file=sys.stderr,
        )
        return 2
    print_table(table, options.full_stats)
    if args.output:
        _write_output(table, args.output, options.full_stats)
    return 0


def _power_sizes(lo: int, hi: int):
    size = max(lo, 1)
    # Round up to a power of two, as the live sweep does.
    while size & (size - 1):
        size += 1
    while size <= hi:
        yield size
        size <<= 1


def _write_output(table, path: str, full_stats: bool) -> None:
    from pathlib import Path

    from .export import table_to_csv, table_to_json

    target = Path(path)
    if target.suffix == ".json":
        target.write_text(table_to_json(table))
    else:
        target.write_text(table_to_csv(table, full_stats))


def _write_job_telemetry(dumps: dict, args) -> None:
    """Write merged metrics/trace files + the stderr summary (rank 0)."""
    from ..telemetry.export import render_summary, write_job_files

    if not dumps:
        return
    write_job_files(dumps, args.metrics_out, args.trace_out)
    print(render_summary(dumps), end="", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tele_env: list[str] = []
    if args.metrics or args.trace_out:
        from ..knobs import METRICS, TRACE

        # The flags travel as environment so the world bootstrap (both
        # the threads fabric and launcher-spawned processes) arms every
        # rank's telemetry uniformly.
        tele_env.append(METRICS.name)
        if args.trace_out:
            tele_env.append(TRACE.name)
        for key in tele_env:
            os.environ[key] = "1"
    try:
        return _run(args)
    finally:
        for key in tele_env:
            os.environ.pop(key, None)


def _run(args) -> int:
    if args.benchmark == "list":
        for name in available_benchmarks():
            print(name)
        return 0

    try:
        bench = get_benchmark(args.benchmark)
        options = opt_mod.from_args(args)
    except (KeyError, ValueError) as exc:
        print(f"ombpy: {exc}", file=sys.stderr)
        return 2

    if args.simulate is not None:
        return _simulate(args, options)

    fault_plan = None
    if args.faults is not None or args.fault_seed is not None:
        from ..faults import FaultPlan

        if args.threads is None:
            print(
                "ombpy: --faults/--fault-seed apply to --threads runs; "
                "for process runs use ombpy-run --faults/--fault-seed",
                file=sys.stderr,
            )
            return 2
        fault_plan = (
            FaultPlan.from_file(args.faults) if args.faults is not None
            else FaultPlan.chaos(args.fault_seed)
        )

    if args.threads is not None:
        tele_dumps: dict[int, dict] = {}

        def sweep(comm):
            table = bench.run(BenchContext(comm, options))
            tele = comm.endpoint.telemetry
            if tele is not None:
                tele_dumps[comm.endpoint.world_rank] = tele.dump()
            return table

        if args.recover:
            from ..mpi import ulfm

            def worker(comm):
                table, _final = ulfm.run_with_recovery(comm, sweep)
                return table
        else:
            worker = sweep
        tables = run_on_threads(
            args.threads, worker, fault_plan=fault_plan,
            reliable=args.reliable, tolerate_crashes=args.recover,
        )
        # Under --recover a crashed rank leaves a None result; print the
        # first survivor's table.
        table = next(t for t in tables if t is not None)
        print_table(table, options.full_stats)
        if args.output:
            _write_output(table, args.output, options.full_stats)
        if args.metrics or args.trace_out:
            _write_job_telemetry(tele_dumps, args)
        return 0

    from ..mpi.exceptions import (
        RANK_FAILED_EXIT, CommRevokedError, RankFailedError,
    )

    world = runtime_init()
    comm = world.comm
    try:
        if args.recover and comm.size > 1:
            from ..mpi import ulfm

            table, comm = ulfm.run_with_recovery(
                comm, lambda c: bench.run(BenchContext(c, options))
            )
        else:
            table = bench.run(BenchContext(comm, options))
        # Rank 0 of the *final* communicator prints: under --recover the
        # original rank 0 may be the one that died.
        if comm.rank == 0:
            print_table(table, options.full_stats)
            if args.output:
                _write_output(table, args.output, options.full_stats)
        tele = world.endpoint.telemetry
        if tele is not None and (args.metrics or args.trace_out):
            # Collective gather of every rank's dump over the control
            # plane; rank 0 of the (possibly shrunk) communicator
            # writes the job files.
            from ..telemetry.export import collect_job

            job_dumps = collect_job(comm, tele)
            if job_dumps is not None:
                _write_job_telemetry(job_dumps, args)
    except (RankFailedError, CommRevokedError) as exc:
        # A peer died mid-run (and recovery, if enabled, ran out of
        # ranks).  Exit with the dedicated cascade code so the launcher
        # attributes the job failure to the dead rank, not this survivor.
        print(f"ombpy: rank {world.rank}: {exc}", file=sys.stderr)
        return RANK_FAILED_EXIT
    finally:
        stats = world.reliability_stats()
        if stats is not None and world.endpoint.telemetry is None:
            # Plain-stderr fallback; with telemetry on the same counters
            # arrive in the job metrics via the registry mirror.
            rendered = " ".join(f"{k}={v}" for k, v in stats.items())
            print(
                f"ombpy: rank {world.rank}: reliability {rendered}",
                file=sys.stderr,
            )
        world.finalize()
    return 0


if __name__ == "__main__":
    sys.exit(main())
