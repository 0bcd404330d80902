"""BENCHMARK.json and the code must name the same things."""

import json
import os
import re

import harness
import layers
import measure
from workloads import BODIES, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spec():
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_keys_and_limits():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert spec["command"] == ["python3", "perf/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    runs = 4 + 22 * len(spec["workloads"])
    assert runs * (spec["run_seconds"] + 6) <= 3420, "no slack for set-up"


def test_names_units_and_bounds_are_well_formed():
    spec = _spec()
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names)), "a name is used twice"
    for name in names:
        assert NAME.fullmatch(name), name
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_spec_and_code_name_the_same_workloads_and_metrics():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == \
        {name: w["why"] for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS
    assert all(w["body"] in BODIES for w in WORKLOADS.values())
    assert set(measure.TRACEABLE) <= set(WORKLOADS)
