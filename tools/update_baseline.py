#!/usr/bin/env python
"""Regenerate the perf-lint baseline (``tools/perf_lint_baseline.json``).

The CI ``perf-lint`` job runs ``ombpy-lint --perf --protocol --scale``
with ``--baseline tools/perf_lint_baseline.json``: findings whose fingerprint
(path::rule::message) is in the baseline are grandfathered; anything new
fails the build.  After deliberately fixing (or accepting) hot-path
sites, refresh the baseline with::

    python tools/update_baseline.py

Run from anywhere; paths are resolved against the repo root so the
fingerprints stay stable.  The tool prints the delta vs the previous
baseline so a shrinking copy-site inventory is visible in review.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.analysis.lint import (                            # noqa: E402
    BASELINE_SCHEMA,
    fingerprint,
    lint_paths,
)

#: The self-host target set (must match the CI perf-lint job).
LINT_PATHS = ["src", "benchmarks", "examples"]
DEFAULT_OUT = os.path.join("tools", "perf_lint_baseline.json")


def build_baseline(paths: list[str]) -> dict[str, int]:
    findings = lint_paths(paths, perf=True, protocol=True, scale=True)
    counts: dict[str, int] = {}
    for f in findings:
        fp = fingerprint(f)
        counts[fp] = counts.get(fp, 0) + 1
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=DEFAULT_OUT,
        help=f"baseline file to write (default: {DEFAULT_OUT})",
    )
    args = parser.parse_args(argv)

    os.chdir(REPO)  # repo-root-relative paths keep fingerprints stable
    counts = build_baseline(LINT_PATHS)

    previous: dict[str, int] = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            previous = json.load(fh).get("fingerprints", {})

    payload = {
        "schema": BASELINE_SCHEMA,
        "paths": LINT_PATHS,
        "count": sum(counts.values()),
        "fingerprints": dict(sorted(counts.items())),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    added = sorted(set(counts) - set(previous))
    removed = sorted(set(previous) - set(counts))
    print(
        f"wrote {args.out}: {sum(counts.values())} grandfathered "
        f"finding(s) ({len(added)} new, {len(removed)} burned down)"
    )
    for fp in added:
        print(f"  + {fp}")
    for fp in removed:
        print(f"  - {fp}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
