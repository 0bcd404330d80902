"""Running a workload's repetitions and reducing them to metrics.

Shared by the end-to-end path (``run.py``) and the traced pass
(``layers.py``), so both measure a workload the same way.
"""

from __future__ import annotations

import os
import sys

import harness
import quant
from workloads import WORKLOADS

OUT_DIR = os.path.join(harness.ROOT, ".perf_out")

#: The gated end-to-end metrics; every workload reports all of them.
#: One *operation* is a one-way message (ping-pongs, stream, tagstorm),
#: a collective call, a campaign cell or a submitted job.
E2E_UNITS = {"setup_s": "s", "op_us_p50": "us"}

#: Workload fields that configure the parent, not the child.
_PARENT_KEYS = ("why", "env", "reps")

#: Workloads whose loops the traced pass can follow message by message.
TRACEABLE = ("pingpong_threads_8b", "pingpong_uds_8b", "stream_uds_1m")

#: A traced repetition keeps every span in memory and ships them as
#: JSON, so it measures at most this many operations.
TRACED_MAX_OPS = 6000


def make_job(name: str, seed: int, budget_s: float, scratch: str, rep: int,
             quick: bool, trace: bool = False) -> dict:
    w = WORKLOADS[name]
    job = {k: v for k, v in w.items() if k not in _PARENT_KEYS}
    workdir = os.path.join(scratch, f"{name}-{int(trace)}-{rep}")
    os.makedirs(workdir, exist_ok=True)
    job.update(
        workload=name, seed=seed, budget_s=budget_s, trace=trace,
        workdir=workdir, timeout_s=60.0 + 4.0 * budget_s,
    )
    if trace:
        job["max_ops"] = min(job["max_ops"], TRACED_MAX_OPS)
    if quick:
        job["warmup"] = max(1, job["warmup"] // 10)
    return job


def rep_count(name: str, quick: bool) -> int:
    return 1 if quick else WORKLOADS[name]["reps"]


def run_reps(name: str, seed: int, seconds: float, scratch: str,
             quick: bool, reps: int | None = None, trace: bool = False,
             ) -> list[dict]:
    """Run the workload's repetitions; one record per repetition, each
    either a child result or ``{"error": reason}``."""
    reps = reps or rep_count(name, quick)
    budget_s = seconds / reps
    out = []
    for rep in range(reps):
        job = make_job(name, seed, budget_s, scratch, rep, quick, trace)
        records, error = harness.run_child(
            job, scratch, job["timeout_s"] + 15.0, WORKLOADS[name].get("env"))
        main = next((r for r in records if "samples_ns" in r), None)
        if error is not None or main is None:
            out.append({"error": error or "no result record"})
            print(f"# {name} rep {rep}: FAILED — {out[-1]['error']}",
                  file=sys.stderr)
        else:
            out.append(main)
    return out


def rep_op_ns(rep: dict) -> float:
    """The median time per operation over the repetition's whole loop,
    ns: what the traced pass sets its spans against, since they cover
    the whole loop too."""
    return quant.median(rep["samples_ns"]) / rep["ops_per_sample"]


def rep_quiet_ns(rep: dict) -> float:
    """The repetition's quiet-time median per operation, ns: what the
    end-to-end metric is made of (``quant.quiet_median``)."""
    value = rep.get("rep_value_ns")
    if value is None:
        value = quant.quiet_median(rep["samples_ns"])
    return value / rep["ops_per_sample"]


def account(name: str, reps: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over the repetitions.  A crashed or
    timed-out repetition is charged the workload's floor as attempted and
    failed: its unfinished operations are failures, never retried."""
    attempted = failed = 0
    correct = True
    for rep in reps:
        if "error" in rep:
            attempted += WORKLOADS[name]["min_ops"]
            failed += WORKLOADS[name]["min_ops"]
            correct = False
        else:
            attempted += rep["ops"]
            failed += rep["failed"]
            correct = correct and rep["verified"] and rep["failed"] == 0
    return attempted, failed, correct


def end_to_end(name: str, reps: list[dict]) -> tuple[dict, dict]:
    """(metrics, detail) of one workload's untraced repetitions."""
    good = [r for r in reps if "error" not in r]
    if not good:
        raise RuntimeError(f"{name}: every repetition failed")
    op_ns = [rep_quiet_ns(r) for r in good]
    pooled = [s / r["ops_per_sample"] / 1e3 for r in good
              for s in r["samples_ns"]]
    detail = {
        "setup_s": quant.summarize([r["setup_s"] for r in good]),
        "op_us_p50": quant.summarize([v / 1e3 for v in op_ns], pooled),
    }
    metrics = {k: detail[k]["value"] for k in E2E_UNITS}
    detail["derived"] = derived_names(name, good, metrics)
    # Mean-based, so it sees the tails the median ignores; too noisy on
    # this box to gate (spread 3-8 % between identical runs).
    detail["derived"]["ops_per_s"] = quant.median(
        [r["ops"] / (r["wall_ns"] / 1e9) for r in good])
    return metrics, detail


#: body -> (the name a reader of OSU output expects, value from us/op).
_OSU_NAMES = {
    "pingpong": ("lat_us_p50", lambda us, rep: us),
    "stream": ("bw_mbs_p50", lambda us, rep: rep["bytes_per_op"] / us),
    "tagstorm": ("msgs_per_s_p50", lambda us, rep: 1e6 / us),
    "allreduce": ("coll_us_p50", lambda us, rep: us),
    "sweep_warm": ("cells_per_s", lambda us, rep: 1e6 / us),
    "submit_warm": ("submit_ms_p50", lambda us, rep: us / 1e3),
}


def derived_names(name: str, good: list[dict], metrics: dict) -> dict:
    """The same measurement under its OSU name."""
    osu_name, convert = _OSU_NAMES[WORKLOADS[name]["body"]]
    return {osu_name: convert(metrics["op_us_p50"], good[0])}


def print_metrics(prefix: str, metrics: dict, units: dict, detail: dict) -> None:
    for key, value in metrics.items():
        d = detail.get(key, {})
        extra = ""
        if "iqr" in d:
            extra = (f"  (median {d['median']:.4g}, iqr {d['iqr']:.4g} "
                     f"over {d['reps']} reps")
        if d.get("samples"):
            extra += f", {d['samples']} samples"
        if d.get("tail") is not None:
            extra += f", p{d['tail_p']:g} {d['tail']:.4g}"
        if extra:
            extra += ")"
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{prefix}{key} = {shown} {units.get(key, '')}{extra}")
