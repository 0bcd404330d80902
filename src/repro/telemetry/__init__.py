"""``repro.telemetry`` — per-rank tracing, metrics, and job observability.

The measurement layer the benchmarks (and every runtime subsystem —
matching, collectives, reliability, ULFM recovery) report into:

* :mod:`repro.telemetry.metrics` — counters, gauges, log2-bucket latency
  histograms in a mergeable per-rank registry;
* :mod:`repro.telemetry.tracer` — span + message-event tracer exporting
  Chrome ``chrome://tracing`` JSON (one pid per rank) and compact JSONL;
* :mod:`repro.telemetry.runtime` — the per-rank :class:`Telemetry`
  facade the runtime hooks call, plus endpoint install/uninstall and the
  ``OMBPY_METRICS``/``OMBPY_TRACE`` switches (:mod:`repro.knobs`);
* :mod:`repro.telemetry.export` — whole-job assembly: control-plane
  gather to rank 0, launcher-side per-rank dump merge, ``metrics.json``
  / ``trace.json`` writers, and the end-of-job summary table.

Everything is off (and free, beyond a ``None`` check per hook site)
until ``ombpy --metrics/--trace-out`` or ``ombpy-run --metrics/--trace-out``
switches it on.  See ``docs/observability.md``.
"""

from .metrics import (
    Counter, Gauge, Histogram, MetricsRegistry, merge_snapshots,
    snapshot_from_bytes, snapshot_to_bytes,
)
from .runtime import (
    SCHEMA, Telemetry, install_on_endpoint, telemetry_from_env,
    uninstall_from_endpoint,
)
from .tracer import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SCHEMA",
    "Telemetry",
    "Tracer",
    "install_on_endpoint",
    "merge_snapshots",
    "snapshot_from_bytes",
    "snapshot_to_bytes",
    "telemetry_from_env",
    "uninstall_from_endpoint",
]
