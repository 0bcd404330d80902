"""``--quick``: every workload and the traced pass, end to end."""

import json
import os
import subprocess
import sys
import time

import harness

RUN = os.path.join(harness.PERF, "run.py")


def _run(*args):
    start = time.monotonic()
    proc = subprocess.run([sys.executable, RUN, *args], cwd=harness.ROOT,
                          capture_output=True, text=True, timeout=170)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed


def _spec():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_quick_runs_every_workload_and_the_traced_pass():
    spec = _spec()
    result, elapsed = _run("--quick", "--seed", "3", "--trace", "1")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            value = result["metrics"][f"{w['name']}.{m['name']}"]
            assert value["unit"] == m["unit"] and value["value"] > 0
    for name in ("pingpong_threads_8b", "pingpong_uds_8b", "stream_uds_1m"):
        assert result["metrics"][f"{name}.span.coverage_pct"]["value"] > 0
        assert f"{name}.trace.overhead_pct" in result["metrics"]
        trace = os.path.join(harness.ROOT, ".perf_out",
                             f"{name}.seed3.trace.json")
        with open(trace, encoding="utf-8") as fh:
            events = json.load(fh)["traceEvents"]
        assert any(e["name"] == "engine.deliver" for e in events)
    assert elapsed < 30, f"--quick took {elapsed:.1f}s"


def test_one_workload_emits_exactly_the_declared_metrics():
    spec = _spec()
    e2e, _ = _run("--workload", "tagstorm_threads_1k", "--seed", "4",
                  "--seconds", "0.5", "--trace", "0")
    assert set(e2e["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert e2e["correct"] and e2e["failed"] == 0
    per_layer, _ = _run("--workload", "tagstorm_threads_1k", "--seed", "4",
                        "--seconds", "0.5", "--trace", "1")
    assert set(per_layer["metrics"]) == {m["name"] for m in spec["per_layer"]}
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, value in per_layer["metrics"].items():
        assert value["unit"] == units[name]
        assert isinstance(value["value"], (int, float)), name


def test_a_directory_without_the_program_is_refused(tmp_path):
    """Only BENCHMARK.json and perf/: exit non-zero, print no result."""
    import shutil

    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.PERF, tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "pingpong_threads_8b",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    assert "correct" not in proc.stdout
