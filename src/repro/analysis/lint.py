"""``ombpy-lint`` — the AST-based MPI-misuse linter.

Usage::

    ombpy-lint [paths...] [--format text|json|sarif] [--select IDs]
               [--ignore IDs] [--perf] [--protocol] [--scale]
               [--inventory FILE] [--baseline FILE]
    python -m repro.analysis.lint examples/ benchmarks/

Exit status: 0 clean, 1 findings reported, 2 usage error.

Suppression: append ``# ombpy-lint: ignore`` to a line to silence every
rule on it, or ``# ombpy-lint: ignore[OMB001,OMB004]`` for specific rules
(``# ombpy: disable[...]`` is accepted as an alias).  A pragma anywhere
in a statement continued across lines (backslash or open parentheses)
applies to the whole statement.

``--perf`` adds the whole-program performance family (OMB301-310),
documented in ``docs/perf-lint.md``.  ``--protocol`` runs the
rank-symbolic protocol verifier (OMB501-506), the one send/recv
matching pass, and ``--scale`` the scalability-debt rules with LogGP
cost annotations (OMB510-515); see ``docs/protocol-lint.md``.
``--inventory`` writes the machine-readable finding inventory
(``results/perf_lint.json``); ``--baseline`` filters findings already
grandfathered in a baseline file (``tools/perf_lint_baseline.json``),
so only *new* sites fail.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

from .dataflow import statement_spans
from .findings import (
    Finding,
    findings_to_json,
    findings_to_sarif,
    sort_findings,
)
from .rules import RULES, run_rules

_PRAGMA = re.compile(
    r"#\s*ombpy(?:-lint)?:\s*(?:ignore|disable)(?:\[([A-Z0-9,\s]+)\])?"
)

#: Baseline file schema marker (tools/perf_lint_baseline.json).
BASELINE_SCHEMA = "ombpy-lint-baseline/1"
#: Inventory file schema marker (results/perf_lint.json).
INVENTORY_SCHEMA = "ombpy-perf-lint/1"


def _pragma_rules(line: str) -> set[str] | None:
    """Rule IDs suppressed by a pragma on ``line``.

    ``None`` means no pragma; an empty set means "suppress everything".
    """
    match = _PRAGMA.search(line)
    if match is None:
        return None
    if match.group(1) is None:
        return set()
    return {r.strip() for r in match.group(1).split(",")}


def _suppressed(
    finding: Finding,
    lines: list[str],
    spans: dict[int, tuple[int, int]] | None = None,
) -> bool:
    """Honour suppression pragmas over the finding's full statement span.

    A finding on any line of a multi-line statement is suppressed by a
    pragma on *any* line of that statement — the historical gap where
    ``# ombpy-lint: ignore`` after a backslash/paren continuation was
    silently dropped.
    """
    if not 1 <= finding.line <= len(lines):
        return False
    start, end = (spans or {}).get(
        finding.line, (finding.line, finding.line)
    )
    end = min(end, len(lines))
    for lineno in range(start, end + 1):
        rules = _pragma_rules(lines[lineno - 1])
        if rules is None:
            continue
        if not rules or finding.rule in rules:
            return True
    return False


def lint_source(
    source: str,
    path: str = "<string>",
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    """Lint one source string; returns the (pragma-filtered) findings."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(
            rule="OMB000",
            severity="error",
            path=path,
            line=exc.lineno or 0,
            col=(exc.offset or 0),
            message=f"syntax error: {exc.msg}",
        )]
    findings = run_rules(tree, path, select=select, ignore=ignore)
    lines = source.splitlines()
    spans = statement_spans(tree)
    return [f for f in findings if not _suppressed(f, lines, spans)]


def lint_file(
    path: str | Path,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    """Lint one file on disk."""
    p = Path(path)
    return lint_source(
        p.read_text(encoding="utf-8"), str(p), select=select, ignore=ignore
    )


def _filter_program_findings(findings: list[Finding]) -> list[Finding]:
    """Apply suppression pragmas to whole-program (perf/protocol/scale)
    findings, which are produced outside :func:`lint_source`."""
    by_path: dict[str, list[Finding]] = {}
    for f in findings:
        by_path.setdefault(f.path, []).append(f)
    kept: list[Finding] = []
    for path, group in by_path.items():
        try:
            source = Path(path).read_text(encoding="utf-8")
            spans = statement_spans(ast.parse(source))
        except (OSError, SyntaxError):
            kept.extend(group)
            continue
        lines = source.splitlines()
        kept.extend(
            f for f in group if not _suppressed(f, lines, spans)
        )
    return kept


def lint_paths(
    paths: list[str | Path],
    select: set[str] | None = None,
    ignore: set[str] | None = None,
    perf: bool = False,
    protocol: bool = False,
    scale: bool = False,
) -> list[Finding]:
    """Lint files and directories (recursing into ``*.py``).

    With ``perf``/``protocol``/``scale``, the whole-program engine loads
    every file under ``paths`` into one
    :class:`~repro.analysis.interproc.Program` and runs the OMB3xx/OMB5xx
    families on top of the per-file rules.
    """
    findings: list[Finding] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                findings.extend(lint_file(f, select=select, ignore=ignore))
        else:
            findings.extend(lint_file(p, select=select, ignore=ignore))
    if perf or protocol or scale:
        from .interproc import load_program

        program = load_program(list(paths))
        extra: list[Finding] = []
        if perf:
            from .perf import run_perf_rules

            extra.extend(run_perf_rules(program, select, ignore))
        if protocol:
            from .protocol import run_protocol_rules

            extra.extend(run_protocol_rules(program, select, ignore))
        if scale:
            from .scale import run_scale_rules

            extra.extend(run_scale_rules(program, select, ignore))
        findings.extend(_filter_program_findings(extra))
    return sort_findings(findings)


def _all_rule_docs() -> dict[str, str]:
    """Every rule ID -> one-line description, across all families."""
    from .perf import PERF_RULES
    from .protocol import PROTOCOL_RULES
    from .scale import SCALE_RULES

    docs = {rule_id: doc for rule_id, (_fn, doc) in RULES.items()}
    docs.update({r: doc for r, (_fn, doc) in PERF_RULES.items()})
    docs.update({r: doc for r, (_fn, doc) in PROTOCOL_RULES.items()})
    docs.update({r: doc for r, (_fn, doc) in SCALE_RULES.items()})
    return docs


def _parse_rule_set(spec: str | None) -> set[str] | None:
    if spec is None:
        return None
    rules = {r.strip() for r in spec.split(",") if r.strip()}
    unknown = rules - set(_all_rule_docs()) - {"OMB000"}
    if unknown:
        raise ValueError(f"unknown rule ID(s): {', '.join(sorted(unknown))}")
    return rules


# -- baseline / inventory --------------------------------------------------

def fingerprint(finding: Finding) -> str:
    """Stable identity for baseline matching.

    Line numbers are deliberately excluded so unrelated edits above a
    grandfathered site do not churn the baseline; messages avoid
    embedding positions for the same reason.
    """
    return f"{finding.path}::{finding.rule}::{finding.message}"


def load_baseline(path: str | Path) -> dict[str, int]:
    """Read a baseline file -> fingerprint multiset (fingerprint: count)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"unrecognized baseline schema {data.get('schema')!r} "
            f"(expected {BASELINE_SCHEMA!r})"
        )
    counts = data.get("fingerprints", {})
    if not isinstance(counts, dict):
        raise ValueError("baseline 'fingerprints' must be an object")
    return {str(k): int(v) for k, v in counts.items()}


def apply_baseline(
    findings: list[Finding], baseline: dict[str, int],
) -> tuple[list[Finding], int]:
    """Drop findings covered by the baseline (as a multiset).

    Returns ``(new_findings, grandfathered_count)``: each fingerprint
    absorbs up to its baseline count, so *adding* a second copy at an
    already-grandfathered site still fails.
    """
    budget = dict(baseline)
    fresh: list[Finding] = []
    grandfathered = 0
    for f in sort_findings(findings):
        fp = fingerprint(f)
        if budget.get(fp, 0) > 0:
            budget[fp] -= 1
            grandfathered += 1
        else:
            fresh.append(f)
    return fresh, grandfathered


def write_inventory(
    path: str | Path,
    findings: list[Finding],
    lint_paths_arg: list[str],
) -> None:
    """Write the machine-readable inventory (``results/perf_lint.json``)
    the zero-copy refactor burns down."""
    ordered = sort_findings(findings)
    by_rule: dict[str, int] = {}
    for f in ordered:
        by_rule[f.rule] = by_rule.get(f.rule, 0) + 1
    payload = {
        "schema": INVENTORY_SCHEMA,
        "paths": [str(p) for p in lint_paths_arg],
        "count": len(ordered),
        "by_rule": dict(sorted(by_rule.items())),
        "findings": [asdict(f) for f in ordered],
    }
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ombpy-lint",
        description=(
            "Static checker for mpi4py-API misuse: pickle-path buffer "
            "sends, leaked requests, case-mismatched pairs, reserved "
            "tags, deprecated constants, deadlock shapes, and "
            "non-blocking buffer hazards (mutate/read before wait, "
            "unconsumed request lists, concurrent posts on one buffer)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (directories recurse into *.py)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text); sarif emits a SARIF 2.1.0 "
        "log for code-scanning upload",
    )
    parser.add_argument(
        "--select", default=None, metavar="IDS",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore", default=None, metavar="IDS",
        help="comma-separated rule IDs to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--perf", action="store_true",
        help="also run the whole-program performance rules (OMB301-310): "
        "hot-path copies, pickle fallbacks, loop hazards",
    )
    parser.add_argument(
        "--protocol", action="store_true",
        help="also run the rank-symbolic protocol verifier (OMB501-506): "
        "collective-order mismatches and rank-dependent deadlocks, proven "
        "parametrically across job sizes",
    )
    parser.add_argument(
        "--scale", action="store_true",
        help="also run the scalability rules (OMB510-515): O(N²) meshes, "
        "linear collectives, per-peer threads/fds, unbounded hold buffers "
        "— each priced with a LogGP cost estimate at N=1024",
    )
    parser.add_argument(
        "--inventory", default=None, metavar="FILE",
        help="write the machine-readable finding inventory to FILE "
        "(e.g. results/perf_lint.json)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="drop findings grandfathered in FILE "
        "(tools/perf_lint_baseline.json); only new findings remain",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, doc in sorted(_all_rule_docs().items()):
            print(f"{rule_id}  {doc}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("ombpy-lint: error: no paths given", file=sys.stderr)
        return 2

    try:
        select = _parse_rule_set(args.select)
        ignore = _parse_rule_set(args.ignore)
    except ValueError as exc:
        print(f"ombpy-lint: error: {exc}", file=sys.stderr)
        return 2

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(
            f"ombpy-lint: error: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    findings = lint_paths(
        args.paths, select=select, ignore=ignore,
        perf=args.perf, protocol=args.protocol, scale=args.scale,
    )
    if args.inventory:
        write_inventory(args.inventory, findings, args.paths)

    grandfathered = 0
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"ombpy-lint: error: bad baseline: {exc}", file=sys.stderr)
            return 2
        findings, grandfathered = apply_baseline(findings, baseline)

    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "sarif":
        print(findings_to_sarif(findings, _all_rule_docs()))
    else:
        for finding in findings:
            print(finding.format())
        errors = sum(1 for f in findings if f.severity == "error")
        warnings = len(findings) - errors
        suffix = (
            f", {grandfathered} grandfathered by baseline"
            if grandfathered else ""
        )
        print(
            f"ombpy-lint: {len(findings)} finding(s) "
            f"({errors} error(s), {warnings} warning(s){suffix})"
        )
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
