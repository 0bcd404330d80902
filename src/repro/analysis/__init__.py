"""Correctness analysis for MPI programs written against :mod:`repro`.

Two complementary halves, mirroring how MPI-Checker (static, clang-based)
and MUST (dynamic, PMPI-based) divide the problem for C MPI codes:

* :mod:`repro.analysis.lint` — an AST linter (``ombpy-lint``) that flags
  mpi4py-API misuse *before* a program runs: buffer-capable objects sent
  through the pickle path (the paper's ~4x latency trap), leaked
  non-blocking requests, case-mismatched send/recv pairs, reserved tags,
  deprecated constants, and recv-before-send deadlock shapes.
* :mod:`repro.analysis.verifier` — a runtime verifier
  (``with repro.analysis.verify(comm): ...`` or the benchmark driver's
  ``--validate`` flag) that hooks the matching engine and collectives to
  detect real-time deadlock, cross-rank collective mismatches, count
  mismatches, and operations still pending at finalize.
* :mod:`repro.analysis.race` — a buffer-race sanitizer
  (``with repro.analysis.sanitize(comm): ...`` or the driver's
  ``--sanitize`` flag) that pins every buffer posted to a non-blocking
  operation and, with per-rank vector clocks and content snapshots,
  detects write-after-Isend, read/write-before-Wait, overlapping pinned
  regions, and mid-collective buffer mutation.

On top of the linter sits a whole-program engine
(:mod:`repro.analysis.interproc`) with three opt-in rule families:
``--perf`` (:mod:`.perf`, OMB3xx hot-path waste), ``--protocol``
(:mod:`.protocol`, OMB50x — the send/recv matching pass: a
rank-symbolic verifier that proves collective-order and deadlock
properties parametrically in the job size, using the :mod:`.rankdom`
symbolic-rank domain), and ``--scale``
(:mod:`.scale`, OMB51x — scalability debt priced with LogGP cost
estimates from :mod:`repro.simulator`).
"""

from __future__ import annotations

from .findings import Finding, findings_to_json, findings_to_sarif

# Submodules are imported lazily: eagerly importing ``lint`` here would
# trip runpy's double-import warning for ``python -m repro.analysis.lint``.
_LINT_NAMES = {"lint_file", "lint_paths", "lint_source"}
_VERIFIER_NAMES = {
    "CollectiveMismatchError",
    "CountMismatchError",
    "DeadlockError",
    "PeerFailedError",
    "PendingOperationError",
    "Verifier",
    "VerifyError",
    "verify",
}
_RACE_NAMES = {
    "CollectiveBufferError",
    "OverlappingPinError",
    "RaceError",
    "ReadBeforeWaitError",
    "Sanitizer",
    "VectorClock",
    "WriteAfterPostError",
    "sanitize",
}


def __getattr__(name: str):
    if name in _LINT_NAMES:
        from . import lint

        return getattr(lint, name)
    if name in _VERIFIER_NAMES:
        from . import verifier

        return getattr(verifier, name)
    if name in _RACE_NAMES:
        from . import race

        return getattr(race, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Finding",
    "findings_to_json",
    "findings_to_sarif",
    "lint_file",
    "lint_paths",
    "lint_source",
    "verify",
    "Verifier",
    "VerifyError",
    "DeadlockError",
    "CollectiveMismatchError",
    "CountMismatchError",
    "PendingOperationError",
    "PeerFailedError",
    "sanitize",
    "Sanitizer",
    "VectorClock",
    "RaceError",
    "WriteAfterPostError",
    "ReadBeforeWaitError",
    "OverlappingPinError",
    "CollectiveBufferError",
]
