#!/usr/bin/env python3
"""A/A check: is the yardstick steadier than the bounds it enforces?

    python3 perf/selfcheck.py [--runs 10] [--workload W ...] [--seconds S]

Runs two full sets (A then B) of the *same* tree: ``--runs`` invocations
of ``perf/run.py`` per workload and set, each with another seed.  For
every workload × end-to-end metric it prints both medians, both
inter-quartile spreads as a share of the median
(``statistics.quantiles(values, n=4)``), and how much worse B's median
is than A's, each against the bound declared in ``BENCHMARK.json``.
Exits non-zero if a spread (``setup_s`` excepted) or a gap exceeds its
bound, or if any operation failed.  ``--runs 10`` is the acceptance
check; a later PR runs it on its parent to see the noise floor it has to
beat.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import quant  # noqa: E402

RUN = os.path.join(harness.PERF, "run.py")


def one_run(workload: str, seed: int, seconds: float | None) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--trace", "0"]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True,
                          text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed}: exit {proc.returncode}: "
            f"{proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of
    ``first`` (negative when it is better)."""
    delta = second - first if better == "lower" else first - second
    return delta / first


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload and set (default 10)")
    parser.add_argument("--workload", action="append", default=None,
                        help="limit to these workloads (repeatable)")
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--seed", type=int, default=1,
                        help="first seed; set A uses seed..seed+runs-1, "
                        "set B the next runs")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have a spread")

    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    values: dict[tuple[str, str, str], list[float]] = {}
    failed_ops = 0
    for which, first_seed in (("A", args.seed), ("B", args.seed + args.runs)):
        for workload in workloads:
            for i in range(args.runs):
                result = one_run(workload, first_seed + i, args.seconds)
                failed_ops += result["failed"] + (not result["correct"])
                for name, m in result["metrics"].items():
                    values.setdefault((workload, name, which), []).append(
                        m["value"])
                print(f"# set {which} {workload} seed {first_seed + i}: "
                      + ", ".join(f"{k}={v['value']:.5g}"
                                  for k, v in result["metrics"].items()),
                      flush=True)

    breaches = 0
    print(f"{'workload':30s} {'metric':10s} {'median A':>11s} {'median B':>11s}"
          f" {'iqr A':>6s} {'iqr B':>6s} {'B worse':>8s} {'bound':>6s}")
    for workload in workloads:
        for name, m in metrics.items():
            a = values[(workload, name, "A")]
            b = values[(workload, name, "B")]
            spread_a, spread_b = quant.spread_share(a), quant.spread_share(b)
            gap = worse_by(quant.median(a), quant.median(b), m["better"])
            bad = gap > m["bound"] or (
                name != "setup_s" and max(spread_a, spread_b) > m["bound"])
            breaches += bad
            print(f"{workload:30s} {name:10s} {quant.median(a):11.5g} "
                  f"{quant.median(b):11.5g} {spread_a:6.1%} {spread_b:6.1%} "
                  f"{gap:+8.1%} {m['bound']:6.0%}{'  BREACH' if bad else ''}")
    print(f"# {breaches} breach(es), {failed_ops} failed operation(s)")
    return 1 if breaches or failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
