"""The regression gate: campaign results vs a prior campaign's.

``ombpy-campaign report --gate BASELINE`` compares the campaign's
results store against a prior campaign's ``results.jsonl`` and fails
(non-zero exit) when any benchmark slowed down past a configurable
threshold (cf. *MPI Benchmarking Revisited*: results that are not gated
regress silently).  Cells are matched by ``(benchmark, transport,
ranks)``.  The repository's own performance trajectory is not kept by
this gate but by ``perf/`` (``BENCHMARK.json``, ``perf/README.md``).

Metric direction is honoured: for latency-like metrics a regression is
``new/old > threshold``; for bandwidth/rate metrics it is
``old/new > threshold``.  Cells or sizes absent from the baseline are
skipped (reported, not failed): a gate must never punish widening the
sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: Metrics where larger is better.
_HIGHER_BETTER_MARKERS = ("bandwidth", "rate", "mbs", "msg")

DEFAULT_THRESHOLD = 1.25


def _higher_is_better(metric: str | None, benchmark: str) -> bool:
    text = f"{metric or ''} {benchmark}".lower()
    return any(marker in text for marker in _HIGHER_BETTER_MARKERS)


@dataclass
class Regression:
    """One benchmark series that slowed down past the threshold."""

    cell: str
    benchmark: str
    slowdown: float
    worst_size: int
    worst_slowdown: float

    def format(self) -> str:
        return (
            f"{self.cell}: {self.slowdown:.2f}x mean slowdown "
            f"(worst {self.worst_slowdown:.2f}x at {self.worst_size} B)"
        )


@dataclass
class GateResult:
    """Outcome of one gate evaluation."""

    threshold: float
    checked: int = 0
    skipped: list[str] = field(default_factory=list)
    regressions: list[Regression] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def format(self) -> str:
        lines = [
            f"regression gate: {self.checked} series checked against "
            f"baseline (threshold {self.threshold:.2f}x), "
            f"{len(self.regressions)} regression(s)"
        ]
        lines.extend("  REGRESSION " + r.format() for r in self.regressions)
        lines.extend(f"  skipped: {s}" for s in self.skipped)
        return "\n".join(lines)


def load_baseline(path: str) -> dict[str, dict[int, float]]:
    """Read a prior ``results.jsonl`` into ``{series_key: {size: value}}``.

    Series keys are ``benchmark/transport/nRANKS``.
    """
    series: dict[str, dict[int, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            key = (
                f"{record.get('benchmark')}/{record.get('transport')}"
                f"/n{record.get('ranks')}"
            )
            # Cells with different size ranges share a key: merge their
            # size maps rather than keeping only the last record's.
            series.setdefault(key, {}).update({
                row["size"]: row["value"]
                for row in record.get("rows", ())
                if "size" in row and "value" in row
            })
    return series


def check(records: list[dict], baseline: dict[str, dict[int, float]],
          threshold: float = DEFAULT_THRESHOLD) -> GateResult:
    """Gate the campaign ``records`` against a loaded ``baseline``."""
    if threshold <= 1.0:
        raise ValueError(
            f"gate threshold must be > 1.0, got {threshold}"
        )
    result = GateResult(threshold=threshold)
    for record in records:
        benchmark = record.get("benchmark", "")
        key = (
            f"{benchmark}/{record.get('transport')}/n{record.get('ranks')}"
        )
        reference = baseline.get(key)
        cell = record.get("cell", key)
        if reference is None:
            result.skipped.append(f"{cell} (no baseline series)")
            continue
        higher_better = _higher_is_better(record.get("metric"), benchmark)
        slowdowns: list[tuple[float, int]] = []
        for row in record.get("rows", ()):
            size, value = row.get("size"), row.get("value")
            old = reference.get(size)
            if old is None or not old or value is None or value <= 0:
                continue
            ratio = (old / value) if higher_better else (value / old)
            slowdowns.append((ratio, size))
        if not slowdowns:
            result.skipped.append(f"{cell} (no common sizes)")
            continue
        result.checked += 1
        mean = sum(r for r, _ in slowdowns) / len(slowdowns)
        if mean > threshold:
            worst_slowdown, worst_size = max(slowdowns)
            result.regressions.append(Regression(
                cell=cell, benchmark=benchmark, slowdown=mean,
                worst_size=worst_size, worst_slowdown=worst_slowdown,
            ))
    result.regressions.sort(key=lambda r: -r.slowdown)
    return result
