"""``repro.faults`` — deterministic fault injection for the MPI runtime.

Chaos engineering for the transport layer: a :class:`FaultPlan` (a seed
plus per-fault rates, serializable to JSON) drives a
:class:`FaultyTransport` wrapper that injects message drop, delay,
duplication, reordering, payload truncation, slow-rank stalls, and rank
crashes at deterministic points in the send stream.  Every injected
event is recorded in an event log, so any failure a chaos run uncovers
reproduces exactly from its seed.

Wire a plan into a run with ``ombpy-run --faults plan.json`` /
``--fault-seed N`` (process transports) or
``run_on_threads(..., fault_plan=plan)`` (threads transport).
See ``docs/resilience.md`` for the fault taxonomy and JSON schema.
"""

from .injector import FaultEvent, FaultyTransport, InjectedCrash
from .plan import CrashSpec, FaultPlan

__all__ = [
    "CrashSpec",
    "FaultEvent",
    "FaultPlan",
    "FaultyTransport",
    "InjectedCrash",
]
