"""``ombpy-campaign`` — run | resume | status | report.

The campaign driver CLI.  ``run`` expands a spec, journals the plan,
and executes it; after a crash (or a SIGINT checkpoint-and-stop),
``resume`` replays the journal and runs only the cells that never
completed; ``status`` summarizes a campaign directory; ``report``
renders the results store, exports CSV, and applies the regression
gate.

Exit codes: 0 — campaign complete (including *degraded*: every cell
resolved, failures listed in the manifest's ``missed``); 1 — campaign
aborted or the regression gate failed; 2 — usage, spec, or
fingerprint-mismatch errors; 130 — interrupted (checkpoint written;
resume to continue).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from .backends import ColdLaunchBackend, DualBackend, WarmServiceBackend
from .config import CampaignConfig
from .journal import (
    CAMPAIGN_BEGIN, CAMPAIGN_RESUMED, CELL_PLANNED, Journal, replay,
)
from .scheduler import CampaignScheduler, INTERRUPTED
from .spec import CampaignSpec
from .store import JOURNAL_FILE, SPEC_FILE, ResultsStore
from . import gate as gate_mod

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_INTERRUPTED = 130


def _tcp_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _add_knob_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--concurrency", type=int, default=None,
                        help="cells run concurrently "
                        "(overrides OMBPY_CAMPAIGN_CONCURRENCY)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell wall-clock timeout "
                        "(overrides OMBPY_CAMPAIGN_CELL_TIMEOUT_S)")
    parser.add_argument("--retry-max", type=int, default=None,
                        help="retries per cell within one run "
                        "(overrides OMBPY_CAMPAIGN_RETRY_MAX)")
    parser.add_argument("--retry-backoff-ms", type=float, default=None,
                        help="initial retry backoff "
                        "(overrides OMBPY_CAMPAIGN_RETRY_BACKOFF_MS)")
    parser.add_argument("--quarantine-after", type=int, default=None,
                        help="cumulative failures before quarantine "
                        "(overrides OMBPY_CAMPAIGN_QUARANTINE_AFTER)")
    parser.add_argument("--backend", choices=("auto", "cold", "warm"),
                        default="auto",
                        help="cell execution backend: auto probes a warm "
                        "ombpy-serve pool and falls back to supervised "
                        "cold launches (default)")
    parser.add_argument("--service-socket", default=None, metavar="PATH",
                        help="ombpy-serve UDS path for the warm backend")
    parser.add_argument("--service-tcp", type=_tcp_addr, default=None,
                        metavar="HOST:PORT",
                        help="ombpy-serve TCP address for the warm backend")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ombpy-campaign",
        description="crash-safe benchmark campaign driver: journaled "
        "sweeps with retry, quarantine, and resume",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a campaign spec")
    p_run.add_argument("spec", help="campaign spec file (YAML or JSON)")
    p_run.add_argument("--out", default=None, metavar="DIR",
                       help="campaign directory (default: "
                       "campaign-<name>)")
    _add_knob_args(p_run)

    p_resume = sub.add_parser(
        "resume", help="resume an interrupted or crashed campaign",
    )
    p_resume.add_argument("dir", help="campaign directory")
    p_resume.add_argument("--spec", default=None,
                          help="re-read the spec from this file instead "
                          "of the directory's copy (fingerprint-checked)")
    _add_knob_args(p_resume)

    p_status = sub.add_parser("status", help="summarize a campaign dir")
    p_status.add_argument("dir", help="campaign directory")

    p_report = sub.add_parser(
        "report", help="render results, export CSV, apply the gate",
    )
    p_report.add_argument("dir", help="campaign directory")
    p_report.add_argument("--csv", default=None, metavar="FILE",
                          help="export the flattened results store to FILE")
    p_report.add_argument("--gate", default=None, metavar="BASELINE",
                          help="regression-gate against a prior "
                          "campaign's results.jsonl")
    p_report.add_argument("--gate-threshold", type=float,
                          default=gate_mod.DEFAULT_THRESHOLD,
                          help="mean slowdown that fails the gate "
                          f"(default {gate_mod.DEFAULT_THRESHOLD})")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "resume":
            return _cmd_resume(args)
        if args.command == "status":
            return _cmd_status(args)
        if args.command == "report":
            return _cmd_report(args)
    except ValueError as exc:
        print(f"ombpy-campaign: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"ombpy-campaign: {exc}", file=sys.stderr)
        return EXIT_ERROR
    raise AssertionError(f"unhandled command {args.command!r}")


# ---------------------------------------------------------------------------
# run / resume
# ---------------------------------------------------------------------------
def _config_from_args(args) -> CampaignConfig:
    return CampaignConfig.from_env(
        concurrency=args.concurrency,
        cell_timeout_s=args.cell_timeout,
        retry_max=args.retry_max,
        retry_backoff_ms=args.retry_backoff_ms,
        quarantine_after=args.quarantine_after,
    )


def _backend_from_args(args):
    if args.backend == "cold":
        return ColdLaunchBackend()
    socket_path = args.service_socket
    tcp = args.service_tcp
    if socket_path is None and tcp is None:
        from ..service.cli import DEFAULT_SOCKET

        socket_path = DEFAULT_SOCKET
    warm = WarmServiceBackend.probe(socket_path=socket_path, tcp=tcp)
    if args.backend == "warm":
        if warm is None:
            target = socket_path or f"{tcp[0]}:{tcp[1]}"
            raise ValueError(
                f"--backend warm: no healthy ombpy-serve at {target}"
            )
        return DualBackend(warm)    # warm-first; cold only as last resort
    return DualBackend(warm)        # auto: warm iff the probe succeeded


def _drive(scheduler: CampaignScheduler) -> int:
    """Run the scheduler under SIGINT/SIGTERM checkpoint-and-stop."""
    old_handlers: dict[int, object] = {}

    def _stop(signum, frame):  # noqa: ARG001 - signal signature
        print("ombpy-campaign: checkpoint-and-stop requested; finishing "
              "journal writes (resume to continue)", file=sys.stderr)
        scheduler.request_stop()

    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            old_handlers[signum] = signal.signal(signum, _stop)
    except ValueError:
        old_handlers = {}   # not the main thread (tests)
    try:
        result = scheduler.run()
    finally:
        for signum, handler in old_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
    done = len(result.completed)
    total = len(scheduler.spec.cells)
    if result.status == INTERRUPTED:
        print(f"ombpy-campaign: interrupted at {done}/{total} cells; "
              f"journal is consistent — resume to continue")
        return EXIT_INTERRUPTED
    missed = len(result.missed)
    print(f"ombpy-campaign: {result.status} — {done}/{total} cells done"
          + (f", {missed} missed (see MANIFEST.json)" if missed else ""))
    for entry in result.missed:
        print(f"  missed {entry['cell']}: {entry['reason']}")
    return EXIT_OK


def _cmd_run(args) -> int:
    config = _config_from_args(args)
    spec = CampaignSpec.load(args.spec)
    out = args.out or f"campaign-{spec.name}"
    journal_path = os.path.join(out, JOURNAL_FILE)
    if os.path.exists(journal_path):
        print(f"ombpy-campaign: {out} already has a journal; use "
              f"'ombpy-campaign resume {out}' to continue it",
              file=sys.stderr)
        return EXIT_USAGE
    store = ResultsStore(out)
    with open(os.path.join(out, SPEC_FILE), "w", encoding="utf-8") as fh:
        json.dump(spec.document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for line in spec.skipped:
        print(f"ombpy-campaign: skipping {line}", file=sys.stderr)
    backend = _backend_from_args(args)
    with Journal(journal_path) as journal:
        journal.append(
            CAMPAIGN_BEGIN, schema="ombpy-campaign-journal/1",
            name=spec.name, fingerprint=spec.fingerprint(),
            cells=len(spec.cells),
        )
        for cell in spec.cells:
            journal.append(CELL_PLANNED, cell=cell.cell_id)
        state = replay(journal_path)
        print(f"ombpy-campaign: {spec.name}: {len(spec.cells)} cells, "
              f"concurrency {config.concurrency}, backend "
              f"{getattr(backend, 'name', '?')} -> {out}")
        scheduler = CampaignScheduler(
            spec, journal, store, backend, config=config, state=state,
        )
        return _drive(scheduler)


def _cmd_resume(args) -> int:
    out = args.dir
    journal_path = os.path.join(out, JOURNAL_FILE)
    spec_path = args.spec or os.path.join(out, SPEC_FILE)
    if not os.path.exists(journal_path):
        print(f"ombpy-campaign: {out} has no journal to resume",
              file=sys.stderr)
        return EXIT_USAGE
    spec = CampaignSpec.load(spec_path)
    state = replay(journal_path)
    if state.fingerprint is None:
        print(f"ombpy-campaign: {journal_path} has no CAMPAIGN_BEGIN "
              "record; nothing to resume", file=sys.stderr)
        return EXIT_USAGE
    if state.fingerprint != spec.fingerprint():
        print(
            f"ombpy-campaign: spec fingerprint mismatch — the journal "
            f"was begun for {state.fingerprint} but the spec expands to "
            f"{spec.fingerprint()}; resuming a *different* sweep against "
            f"this journal would corrupt it (start a fresh run instead)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    config = _config_from_args(args)
    backend = _backend_from_args(args)
    store = ResultsStore(out)
    if state.torn_tail:
        print("ombpy-campaign: journal had a torn trailing record "
              "(crash mid-append); ignored", file=sys.stderr)
    with Journal(journal_path) as journal:
        journal.append(CAMPAIGN_RESUMED, fingerprint=state.fingerprint)
        pending = state.pending()
        print(f"ombpy-campaign: resuming {spec.name}: "
              f"{len(state.done)} done, {len(state.quarantined)} "
              f"quarantined, {len(pending)} pending")
        scheduler = CampaignScheduler(
            spec, journal, store, backend, config=config, state=state,
        )
        return _drive(scheduler)


# ---------------------------------------------------------------------------
# status / report
# ---------------------------------------------------------------------------
def _cmd_status(args) -> int:
    journal_path = os.path.join(args.dir, JOURNAL_FILE)
    if not os.path.exists(journal_path):
        print(f"ombpy-campaign: {args.dir} has no journal",
              file=sys.stderr)
        return EXIT_USAGE
    state = replay(journal_path)
    pending = state.pending()
    print(f"campaign: {state.name or '?'} fingerprint={state.fingerprint}")
    print(f"  planned={len(state.planned)} done={len(state.done)} "
          f"quarantined={len(state.quarantined)} pending={len(pending)}")
    print(f"  records={state.records} resumes={state.resumes} "
          f"ended={state.ended or 'in progress / crashed'}")
    if state.inflight:
        print(f"  in flight at last record: {sorted(state.inflight)}")
    if state.torn_tail:
        print("  journal tail torn (crash mid-append); last record ignored")
    for cell_id in sorted(state.quarantined):
        print(f"  quarantined {cell_id} "
              f"({state.failures.get(cell_id, 0)} failures): "
              f"{state.last_error.get(cell_id, '?')}")
    return EXIT_OK


def _cmd_report(args) -> int:
    store = ResultsStore(args.dir)
    records = store.load()
    manifest = store.read_manifest()
    if manifest is not None:
        print(f"campaign {manifest['name']}: {manifest['status']} — "
              f"{len(manifest['completed'])} completed, "
              f"{len(manifest['missed'])} missed")
        for entry in manifest["missed"]:
            print(f"  missed {entry.get('cell')}: {entry.get('reason')}")
    else:
        print(f"campaign {args.dir}: no manifest yet "
              f"({len(records)} result record(s) so far)")
    for record in records:
        rows = record.get("rows", [])
        print(f"  {record['cell']}: {len(rows)} sizes, "
              f"{record.get('metric')}, backend={record.get('backend')}, "
              f"{record.get('elapsed_s')}s")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(store.to_csv(records))
        print(f"wrote {args.csv}")
    if args.gate:
        baseline = gate_mod.load_baseline(args.gate)
        result = gate_mod.check(records, baseline,
                                threshold=args.gate_threshold)
        print(result.format())
        if not result.ok:
            return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
