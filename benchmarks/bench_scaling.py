#!/usr/bin/env python
"""osu-style scaling sweep: collective time vs rank count.

For each rank count N the sweep measures one collective at fixed
message sizes twice — flat (no topology) and hierarchical (with a
``--groups`` node-group map) — and reports the measured speedup.  On process
transports the per-rank connection counts are recorded too, which is
where the fabric's O(group + groups) scaling shows up.

Examples (repo root)::

    python benchmarks/bench_scaling.py --ranks 2,8,32 --transport threads
    python benchmarks/bench_scaling.py --ranks 4,16 --transport uds \
        --collective allgather --sizes 8,1024 --groups auto
    python benchmarks/bench_scaling.py --ranks 2,8,32 --transport threads \
        --verify --json /tmp/scaling.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.core.scaling import (                              # noqa: E402
    SCALING_OPS, measure_process, measure_threads,
)


def _measure(args, ranks: int, size: int, groups: str | None) -> dict:
    if args.transport == "threads":
        return measure_threads(
            args.collective, ranks, size, groups=groups,
            iterations=args.iterations, warmup=args.warmup,
            verify=args.verify, timeout=args.timeout,
        )
    return measure_process(
        args.collective, ranks, size, transport=args.transport,
        groups=groups, iterations=args.iterations, warmup=args.warmup,
        timeout=args.timeout,
    )


def run_sweep(args) -> dict:
    points = []
    header = (
        f"{'N':>4} {'size':>8} {'flat_us':>10} {'hier_us':>10} "
        f"{'speedup':>8} {'conns flat':>10} {'hier':>6}"
    )
    print(f"# {args.collective} on {args.transport} "
          f"(groups={args.groups}, {args.iterations} iters)")
    print(header)
    for ranks in args.ranks:
        for size in args.sizes:
            flat = _measure(args, ranks, size, None)
            hier = _measure(args, ranks, size, args.groups) \
                if ranks > 2 else None
            measured = (
                hier["latency_us"] / flat["latency_us"]
                if hier and flat["latency_us"] > 0 else None
            )
            point = {
                "ranks": ranks,
                "size": size,
                "flat_us": round(flat["latency_us"], 3),
                "hier_us": None if hier is None
                else round(hier["latency_us"], 3),
                "measured_ratio": None if measured is None
                else round(measured, 4),
                "flat_connections": flat.get("max_connections"),
                "hier_connections": None if hier is None
                else hier.get("max_connections"),
            }
            points.append(point)
            hier_s = "-" if point["hier_us"] is None \
                else f"{point['hier_us']:.2f}"
            speedup_s = f"{1 / measured:.2f}x" if measured else "-"
            print(
                f"{ranks:>4} {size:>8} {point['flat_us']:>10.2f} "
                f"{hier_s:>10} {speedup_s:>8} "
                f"{str(point['flat_connections'] or '-'):>10} "
                f"{str(point['hier_connections'] or '-'):>6}"
            )
    return {
        "schema": "ombpy-bench-scaling/1",
        "collective": args.collective,
        "transport": args.transport,
        "groups": args.groups,
        "iterations": args.iterations,
        "warmup": args.warmup,
        "verify": args.verify,
        "points": points,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ranks", default="2,8,32",
        help="comma-separated rank counts to sweep (default 2,8,32)",
    )
    parser.add_argument(
        "--sizes", default="8,1024",
        help="comma-separated message sizes in bytes (default 8,1024)",
    )
    parser.add_argument(
        "--collective", default="allreduce", choices=SCALING_OPS,
        help="collective to sweep (default allreduce)",
    )
    parser.add_argument(
        "--transport", default="threads",
        choices=("threads", "tcp", "uds", "shm"),
        help="threads = in-process fabric; tcp/uds/shm = real process "
        "ranks under the launcher",
    )
    parser.add_argument(
        "--groups", default="auto",
        help="node-group spec for the hierarchical leg (default auto)",
    )
    parser.add_argument("--iterations", type=int, default=20)
    parser.add_argument("--warmup", type=int, default=3)
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="per-measurement timeout in seconds",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="run every rank under the runtime verifier "
        "(threads transport only)",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the sweep as JSON to FILE",
    )
    args = parser.parse_args(argv)
    args.ranks = [int(v) for v in str(args.ranks).split(",") if v]
    args.sizes = [int(v) for v in str(args.sizes).split(",") if v]
    if args.verify and args.transport != "threads":
        parser.error("--verify needs --transport threads")

    doc = run_sweep(args)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
