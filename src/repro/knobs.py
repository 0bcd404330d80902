"""Every ``OMBPY_*`` environment variable the runtime knows, in one table.

The paper attributes a delta to a layer, which only works when every
factor of the experiment is stated and controlled (Hunold &
Carpen-Amarie, *MPI Benchmarking Revisited*).  This module is where the
factors are stated: each tuning variable is one :class:`Knob` row —
name, type, default, accepted range, unit — and :func:`read` /
:func:`flag` are the only code in ``src/repro`` that parses one.  A
malformed or out-of-range value fails fast with a ``ValueError`` naming
the variable and the range it accepts; an unset or empty variable means
the default.  Variables are read when the component they tune is built
(never cached here), so a harness may set one around a single call.

:data:`TABLE` is what a *user* may set; :data:`WIRING` is what
``ombpy-run`` / ``ombpy-serve`` export to the rank processes they spawn
— an interface between our own processes, read by
:func:`repro.mpi.world.init`, not for hand-setting.  What each variable
means is documented in ``docs/configuration.md``; a tier-1 test fails
when a name is documented but unknown here, or known here but
documented nowhere.

Stdlib-only on purpose: every layer (bindings, telemetry, faults, mpi,
service, campaign) imports this module, so it imports none of them.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
from dataclasses import dataclass

#: Every user-settable tuning variable, by environment name.
TABLE: dict[str, "Knob"] = {}


@dataclass(frozen=True)
class Knob:
    """One tuning variable: its name, type, default and accepted range."""

    name: str
    kind: type                  # int, float, str, or bool (an on/off flag)
    default: object = None      # None: "no override" (the caller decides)
    gt: float | None = None     # accepted range: value > gt,
    ge: float | None = None     # value >= ge,
    le: float | None = None     # value <= le
    unit: str = ""

    def accepted(self) -> str:
        """The accepted values, as the phrase an error message uses."""
        bounds = " and ".join(
            f"{op} {bound}"
            for op, bound in ((">", self.gt), (">=", self.ge), ("<=", self.le))
            if bound is not None
        )
        text = f"{'an integer' if self.kind is int else 'a number'} {bounds}"
        return f"{text.strip()} ({self.unit})" if self.unit else text.strip()

    def error(self, got: object, accepted: str | None = None,
              what: str | None = None) -> ValueError:
        """The one message shape: variable, accepted range, offender."""
        return ValueError(
            f"{what or self.name} must be {accepted or self.accepted()}, "
            f"got {got!r}"
        )

    def check(self, value, what: str | None = None):
        """Range-check an already-typed ``value``; return it or raise.

        ``what`` names the value in the message when it did not come
        from the environment (a constructor argument or CLI flag).
        """
        if (
            (self.gt is not None and value <= self.gt)
            or (self.ge is not None and value < self.ge)
            or (self.le is not None and value > self.le)
        ):
            raise self.error(value, what=what)
        return value


def _knob(name: str, kind: type, default=None, **accepts) -> Knob:
    TABLE[name] = Knob(name, kind, default, **accepts)
    return TABLE[name]


def read(knob: Knob):
    """The knob's value from the environment, parsed and range-checked.

    Unset or empty means ``knob.default``.  Raises ``ValueError`` naming
    the variable on a value that does not parse, is not finite, or lies
    outside the accepted range.
    """
    raw = os.environ.get(knob.name, "").strip()
    if raw == "":
        return knob.default
    if knob.kind is str:
        return raw
    try:
        value = knob.kind(raw)
        if not math.isfinite(value):
            raise ValueError(raw)
    except ValueError:
        raise knob.error(raw) from None
    return knob.check(value)


def flag(knob: Knob) -> bool:
    """Whether an on/off variable is set (anything but empty or ``0``)."""
    return os.environ.get(knob.name, "") not in ("", "0")


# -- failure detection, reliable delivery, recovery, fault injection --------
HB_INTERVAL = _knob("OMBPY_HB_INTERVAL", float, 0.5, gt=0, unit="seconds")
HB_TIMEOUT = _knob("OMBPY_HB_TIMEOUT", float, 10.0, gt=0, unit="seconds")
HB_DISABLE = _knob("OMBPY_HB_DISABLE", bool, False)
RELIABLE = _knob("OMBPY_RELIABLE", bool, False)
REL_RTO_MS = _knob("OMBPY_REL_RTO_MS", float, 50.0, gt=0, unit="ms")
REL_MAX_RETRIES = _knob("OMBPY_REL_MAX_RETRIES", int, 8, ge=1)
ULFM_TIMEOUT = _knob("OMBPY_ULFM_TIMEOUT", float, 30.0, gt=0, unit="seconds")
#: Unset means the fault plan's own ``backstop_ms``.
FAULT_BACKSTOP_MS = _knob(
    "OMBPY_FAULT_BACKSTOP_MS", float, None, gt=0, unit="ms"
)

# -- fabric, topology, collectives ------------------------------------------
#: Open stream sockets per rank; 0 is unlimited.
FABRIC_MAX_CONNS = _knob("OMBPY_FABRIC_MAX_CONNS", int, 0, ge=0)
SHM_CAPACITY = _knob(
    "OMBPY_SHM_CAPACITY", int, 1 << 20, ge=1024, unit="bytes"
)
#: ``--groups``-style spec; parsed by :func:`repro.mpi.topology.parse_groups`.
GROUPS = _knob("OMBPY_GROUPS", str)
#: ``OMBPY_COLL_<OP>`` forces one collective's algorithm; the accepted
#: names are :func:`repro.mpi.collectives.selector.available`.
COLL = {
    op: _knob(f"OMBPY_COLL_{op.upper()}", str)
    for op in (
        "bcast", "allreduce", "allgather", "alltoall", "reduce",
        "reduce_scatter", "gather", "scatter", "barrier", "scan",
    )
}

# -- bindings, telemetry ----------------------------------------------------
PICKLE_PROTOCOL = _knob(
    "OMBPY_PICKLE_PROTOCOL", int, pickle.HIGHEST_PROTOCOL, ge=0,
    le=pickle.HIGHEST_PROTOCOL,
)
METRICS = _knob("OMBPY_METRICS", bool, False)
TRACE = _knob("OMBPY_TRACE", bool, False)
TRACE_MAX_EVENTS = _knob("OMBPY_TRACE_MAX_EVENTS", int, 200_000, ge=1)

# -- ombpy-serve ------------------------------------------------------------
SERVICE_QUEUE_DEPTH = _knob("OMBPY_SERVICE_QUEUE_DEPTH", int, 64, ge=1)
SERVICE_DEADLINE_S = _knob(
    "OMBPY_SERVICE_DEADLINE_S", float, 120.0, gt=0, unit="seconds"
)
SERVICE_RETRY_MAX = _knob("OMBPY_SERVICE_RETRY_MAX", int, 1, ge=0)
SERVICE_DRAIN_GRACE_S = _knob(
    "OMBPY_SERVICE_DRAIN_GRACE_S", float, 30.0, ge=0, unit="seconds"
)
SERVICE_RETRY_BACKOFF_MS = _knob(
    "OMBPY_SERVICE_RETRY_BACKOFF_MS", float, 100.0, gt=0, unit="ms"
)

# -- ombpy-campaign ---------------------------------------------------------
CAMPAIGN_CONCURRENCY = _knob("OMBPY_CAMPAIGN_CONCURRENCY", int, 2, ge=1)
CAMPAIGN_CELL_TIMEOUT_S = _knob(
    "OMBPY_CAMPAIGN_CELL_TIMEOUT_S", float, 120.0, gt=0, unit="seconds"
)
CAMPAIGN_RETRY_MAX = _knob("OMBPY_CAMPAIGN_RETRY_MAX", int, 2, ge=0)
CAMPAIGN_RETRY_BACKOFF_MS = _knob(
    "OMBPY_CAMPAIGN_RETRY_BACKOFF_MS", float, 250.0, gt=0, unit="ms"
)
CAMPAIGN_QUARANTINE_AFTER = _knob(
    "OMBPY_CAMPAIGN_QUARANTINE_AFTER", int, 3, ge=1
)

# -- launcher -> rank wiring --------------------------------------------------
ENV_RANK = "OMBPY_RANK"
ENV_SIZE = "OMBPY_SIZE"
#: ``host:port`` of the launcher's TCP port-map rendezvous.
ENV_COORD = "OMBPY_COORD"
#: ``tcp`` | ``uds`` | ``shm``.
ENV_TRANSPORT = "OMBPY_TRANSPORT"
#: Job id naming the UDS socket directory / SHM segments.
ENV_JOB = "OMBPY_JOB"
#: Fault-plan file, chaos seed and per-rank event-log base
#: (``ombpy-run --faults/--fault-seed/--fault-log``).
ENV_FAULTS = "OMBPY_FAULTS"
ENV_FAULT_SEED = "OMBPY_FAULT_SEED"
ENV_FAULT_LOG = "OMBPY_FAULT_LOG"
#: Path base for the per-rank telemetry dumps written at finalize —
#: rank r writes ``<base>.rank<r>.json`` and the launcher merges them.
ENV_TELEMETRY_OUT = "OMBPY_TELEMETRY_OUT"
#: Control socket a ``--pool process`` worker's leader dials back on.
ENV_SERVICE_CTRL = "OMBPY_SERVICE_CTRL"

WIRING = (
    ENV_RANK, ENV_SIZE, ENV_COORD, ENV_TRANSPORT, ENV_JOB, ENV_FAULTS,
    ENV_FAULT_SEED, ENV_FAULT_LOG, ENV_TELEMETRY_OUT, ENV_SERVICE_CTRL,
)


# -- config objects whose every field is one knob ---------------------------
def knob_field(knob: Knob):
    """A dataclass field that defaults to, and is validated as, ``knob``."""
    return dataclasses.field(default=knob.default, metadata={"knob": knob})


class KnobConfig:
    """Base of the frozen config dataclasses (service, campaign).

    Each field is declared with :func:`knob_field`, so its default and
    range are the table's and are written nowhere else.
    """

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            knob = f.metadata["knob"]
            knob.check(getattr(self, f.name), what=f"{f.name} ({knob.name})")

    @classmethod
    def from_env(cls, **overrides):
        """Build from the environment; ``overrides`` (CLI flags) win.

        An overridden field's variable is not consulted at all — a flag
        must beat even a malformed variable.  Raises ``ValueError``
        naming the offending variable on any malformed or out-of-range
        value that *is* consulted, and naming the field on an
        out-of-range override.
        """
        return cls(**{
            f.name: overrides[f.name]
            if overrides.get(f.name) is not None
            else read(f.metadata["knob"])
            for f in dataclasses.fields(cls)
        })
