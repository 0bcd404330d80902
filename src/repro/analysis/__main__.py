"""``python -m repro.analysis`` — subsystem usage summary."""

from __future__ import annotations

import sys

USAGE = """\
repro.analysis — MPI correctness tooling for OMB-Py

Static linter (mpi4py-API misuse; see `ombpy-lint --list-rules`):
    ombpy-lint [paths...] [--format text|json|sarif] [--select IDs]
               [--ignore IDs]
    python -m repro.analysis.lint examples/ benchmarks/

Whole-program analysis: hot-path performance (copies, blocking calls
in loops; docs/perf-lint.md), send/recv matching and deadlocks proven
per job size, scalability debt (docs/protocol-lint.md):
    ombpy-lint --perf --protocol --scale src/ benchmarks/ examples/
    ombpy-lint --perf --protocol --scale \\
               --baseline tools/perf_lint_baseline.json \\
               --inventory results/perf_lint.json src/

Runtime verifier (deadlock / collective-mismatch / leak detection):
    with repro.analysis.verify(comm):          # in user code
        ...
    ombpy <benchmark> --threads N --validate   # in the benchmark driver

Buffer-race sanitizer (write-after-Isend, touch-before-Wait, overlapping
pins, mid-collective mutation; see docs/race.md):
    with repro.analysis.sanitize(comm):        # in user code
        ...
    ombpy <benchmark> --threads N --sanitize   # in the benchmark driver

Documentation: docs/analysis.md, docs/race.md
"""


def main() -> int:
    print(USAGE, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
