"""Campaign configuration: the ``OMBPY_CAMPAIGN_*`` knobs as one object.

Every field is one row of :mod:`repro.knobs` (default, range, unit);
``docs/campaign.md`` has the user-facing table.  The values are read
once at driver start and a malformed one fails fast naming the
variable — a campaign must not come up half-configured and discover it
hours into a sweep.  The matching ``ombpy-campaign`` flags win over the
environment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import knobs

#: Ceiling of the cell-retry backoff (see :func:`repro.backoff.backoff_s`).
RETRY_BACKOFF_CAP_S = 10.0
#: +/-50 % jitter decorrelates retries of concurrently-failing cells.
RETRY_JITTER = (0.5, 1.5)


@dataclass(frozen=True)
class CampaignConfig(knobs.KnobConfig):
    """Validated campaign driver configuration."""

    concurrency: int = knobs.knob_field(knobs.CAMPAIGN_CONCURRENCY)
    cell_timeout_s: float = knobs.knob_field(knobs.CAMPAIGN_CELL_TIMEOUT_S)
    retry_max: int = knobs.knob_field(knobs.CAMPAIGN_RETRY_MAX)
    retry_backoff_ms: float = knobs.knob_field(
        knobs.CAMPAIGN_RETRY_BACKOFF_MS
    )
    quarantine_after: int = knobs.knob_field(knobs.CAMPAIGN_QUARANTINE_AFTER)
