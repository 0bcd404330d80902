"""The campaign results store: merged per-cell results + manifest.

One campaign directory holds everything a sweep produces::

    <dir>/spec.json       canonical copy of the expanded spec
    <dir>/journal.jsonl   the write-ahead journal (see .journal)
    <dir>/results.jsonl   one record per completed cell (this module)
    <dir>/MANIFEST.json   completion manifest: done + missed cells

``results.jsonl`` is append-only and fsynced like the journal, so a
crash never loses a completed cell's data; records carry a schema
version for downstream tooling.  :meth:`ResultsStore.to_csv` flattens
the store into one row per (cell, message size) for plotting scripts —
the same post-processing shape the OSU suite's figures use.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
import time

RESULTS_SCHEMA = "ombpy-campaign-results/1"
MANIFEST_SCHEMA = "ombpy-campaign-manifest/1"

RESULTS_FILE = "results.jsonl"
MANIFEST_FILE = "MANIFEST.json"
SPEC_FILE = "spec.json"
JOURNAL_FILE = "journal.jsonl"

#: Flattened CSV columns (one row per cell x size).
CSV_COLUMNS = (
    "cell", "benchmark", "transport", "ranks", "metric", "backend",
    "attempt", "size", "value", "min", "max", "iterations",
)


class ResultsStore:
    """Append-only results for one campaign directory."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.results_path = os.path.join(root, RESULTS_FILE)
        self.manifest_path = os.path.join(root, MANIFEST_FILE)
        self._lock = threading.Lock()

    # -- results ----------------------------------------------------------
    def append(self, cell, table: dict, attempt: int, backend: str,
               elapsed_s: float) -> dict:
        """Record one completed cell.  ``table`` is the wire-form result
        (``benchmark``/``metric``/``rows`` as produced by
        :func:`repro.service.protocol.table_to_wire` or the CLI's JSON
        output)."""
        record = {
            "schema": RESULTS_SCHEMA,
            "cell": cell.cell_id,
            "benchmark": cell.benchmark,
            "transport": cell.transport,
            "ranks": cell.ranks,
            "metric": table.get("metric"),
            "rows": table.get("rows", []),
            "attempt": attempt,
            "backend": backend,
            "elapsed_s": round(elapsed_s, 4),
            "ts": round(time.time(), 3),
        }
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        with self._lock:
            with open(self.results_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
        return record

    def load(self) -> list[dict]:
        """All durable result records (a torn tail line is dropped, as
        in the journal — it never became durable)."""
        records: list[dict] = []
        try:
            with open(self.results_path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return records
        for index, line in enumerate(lines):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                records.append(json.loads(stripped))
            except ValueError:
                if index == len(lines) - 1:
                    break
                raise ValueError(
                    f"{self.results_path}:{index + 1}: corrupt result "
                    f"record"
                ) from None
        return records

    def completed_cells(self) -> set[str]:
        return {r["cell"] for r in self.load() if "cell" in r}

    def to_csv(self, records: list[dict] | None = None) -> str:
        """Flatten the store to CSV text (one row per cell x size)."""
        if records is None:
            records = self.load()
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(CSV_COLUMNS)
        for record in records:
            for row in record.get("rows", ()):
                writer.writerow([
                    record.get("cell"), record.get("benchmark"),
                    record.get("transport"), record.get("ranks"),
                    record.get("metric"), record.get("backend"),
                    record.get("attempt"), row.get("size"),
                    row.get("value"), row.get("min"), row.get("max"),
                    row.get("iterations"),
                ])
        return out.getvalue()

    # -- manifest ---------------------------------------------------------
    def write_manifest(self, name: str, fingerprint: str, status: str,
                       completed: list[str], missed: list[dict],
                       skipped: list[str] | None = None) -> dict:
        """Atomically (tmp + rename) publish the completion manifest."""
        doc = {
            "schema": MANIFEST_SCHEMA,
            "name": name,
            "fingerprint": fingerprint,
            "status": status,
            "cells": len(completed) + len(missed),
            "completed": sorted(completed),
            "missed": sorted(missed, key=lambda m: m.get("cell", "")),
            "skipped": skipped or [],
            "ts": round(time.time(), 3),
        }
        tmp = self.manifest_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.manifest_path)
        return doc

    def read_manifest(self) -> dict | None:
        try:
            with open(self.manifest_path, encoding="utf-8") as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None
