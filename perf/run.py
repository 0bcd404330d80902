#!/usr/bin/env python3
"""The repository's one performance yardstick.

    python3 perf/run.py --seed N [--workload W] [--seconds S] [--trace [0|1]] [--quick]

Prints every metric by name with its unit, verifies the outputs of what
it ran, and ends with one JSON object on the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
(the default) the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` they are the per-layer ones (layer probes plus a
traced pass that records spans from these files only).  Without
``--workload`` every workload runs end to end — with ``--trace`` followed
by the layer probes and the traced passes — and metric names are prefixed
with the workload's name (``layers.`` for the probes).

Measurement rules: closed loops; every repetition in a fresh child
process pinned to one core; warm-up before timing; each metric is the
first quartile over repetitions of the repetition's quiet-time median
(the noise here is one-sided, see ``quant.quiet_median``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import harness  # noqa: E402
import measure  # noqa: E402
from measure import E2E_UNITS, OUT_DIR  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC_PATH = os.path.join(harness.ROOT, "BENCHMARK.json")


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(name: str, args, scratch: str) -> dict:
    """One workload with tracing off: a contract result object plus
    ``detail`` for the written report."""
    reps = measure.run_reps(name, args.seed, args.seconds, scratch, args.quick)
    attempted, failed, correct = measure.account(name, reps)
    metrics, detail = measure.end_to_end(name, reps)
    measure.print_metrics(f"{name}.", metrics, E2E_UNITS, detail)
    for key, value in detail["derived"].items():
        print(f"{name}.{key} = {value:.6g}  (derived, not gated)")
    print(f"{name}.fail_share = {failed / attempted:.6g}  "
          f"({failed} failed / {attempted} attempted)")
    return {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": E2E_UNITS[k]}
                    for k, v in metrics.items()},
        "detail": detail,
    }


def run_everything(names: list[str], args, scratch: str) -> dict:
    """Every workload end to end; with ``--trace`` also the layer probes
    (once, reported as ``layers.*``) and the traced pass of each
    workload it can follow."""
    results = {name: end_to_end(name, args, scratch) for name in names}
    if args.trace:
        import layers

        results["layers"] = layers.layer_pass(
            "layers", args, scratch, traced=False)
        for name in measure.TRACEABLE:
            traced = layers.layer_pass(name, args, scratch, probes=False)
            into = results[name]
            into["metrics"].update(traced["metrics"])
            into["attempted"] += traced["attempted"]
            into["failed"] += traced["failed"]
            into["correct"] = into["correct"] and traced["correct"]
            into["detail"]["traced"] = traced["detail"]
    return results


def write_report(args, results: dict, prov: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    which = args.workload or "all"
    path = os.path.join(
        OUT_DIR, f"{which}.trace{int(args.trace)}.seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "results": results}, fh, indent=1)
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="drives payload bytes, tag order, cell order")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time measured per workload "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: layer probes + traced pass, per-layer "
                        "metrics; 0: end-to-end metrics, tracing off")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one repetition, tiny counts")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(harness.SRC, "repro")):
        print(f"perf/run.py: no program to measure at {harness.SRC}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = 0.4 if args.quick else float(spec["run_seconds"])
    names = [args.workload] if args.workload else [
        w["name"] for w in spec["workloads"]]
    prov = harness.provenance(
        args.seed, {n: measure.rep_count(n, args.quick) for n in names}, args.seconds)
    print(f"# provenance {json.dumps(prov)}")
    scratch = harness.Scratch()
    started = time.monotonic()
    results = {}
    try:
        if not args.workload:
            results = run_everything(names, args, scratch.path)
        elif args.trace:
            import layers

            results[args.workload] = layers.layer_pass(
                args.workload, args, scratch.path)
        else:
            results[args.workload] = end_to_end(
                args.workload, args, scratch.path)
    finally:
        scratch.close()
    report = write_report(args, results, prov)
    print(f"# report {os.path.relpath(report, harness.ROOT)} "
          f"({time.monotonic() - started:.1f}s)")
    if args.workload:
        final = {k: results[args.workload][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
