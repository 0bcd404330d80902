"""Service configuration: the ``OMBPY_SERVICE_*`` knobs as one object.

Every field is one row of :mod:`repro.knobs` (default, range, unit);
``docs/service.md`` has the user-facing table.  The values are read
once at service start and a malformed one fails fast naming the
variable — a daemon must not come up half-configured.  The matching
``ombpy-serve`` flags win over the environment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import knobs

#: Ceiling of the job-retry backoff (see :func:`repro.backoff.backoff_s`).
RETRY_BACKOFF_CAP_S = 5.0


@dataclass(frozen=True)
class ServiceConfig(knobs.KnobConfig):
    """Validated service configuration (admission, deadlines, retries)."""

    queue_depth: int = knobs.knob_field(knobs.SERVICE_QUEUE_DEPTH)
    default_deadline_s: float = knobs.knob_field(knobs.SERVICE_DEADLINE_S)
    retry_max: int = knobs.knob_field(knobs.SERVICE_RETRY_MAX)
    drain_grace_s: float = knobs.knob_field(knobs.SERVICE_DRAIN_GRACE_S)
    retry_backoff_ms: float = knobs.knob_field(
        knobs.SERVICE_RETRY_BACKOFF_MS
    )
