"""Crash-safe benchmark campaigns: journaled sweeps with resume.

The paper's figures are products of large benchmark x library x ranks x
size sweeps.  :mod:`repro.campaign` turns those sweeps from ad-hoc
``ombpy-run`` invocations into a durable system: a declarative spec
expands into a grid of *cells*, every state transition is written to an
append-only journal **before** it happens, and ``ombpy-campaign
resume`` after a driver crash (SIGKILL included) re-runs only the cells
that never completed — exactly once each.

Pieces:

* :mod:`.spec` — declarative YAML/JSON campaign spec and its expansion
  into :class:`~repro.campaign.spec.CellSpec` cells with a stable
  fingerprint;
* :mod:`.journal` — the write-ahead journal (append-only JSONL,
  fsynced) and its crash-tolerant replay;
* :mod:`.config` — the ``OMBPY_CAMPAIGN_*`` environment knobs;
* :mod:`.scheduler` — concurrent cell execution with per-cell
  timeouts, capped-exponential retry with jittered backoff, and
  quarantine of repeat offenders;
* :mod:`.backends` — warm (``ombpy-serve`` pool) and cold (supervised
  ``ombpy-run``) execution backends behind one interface;
* :mod:`.store` — the merged results store (JSONL + CSV export) and
  the campaign manifest;
* :mod:`.gate` — the regression gate against a prior campaign's
  ``results.jsonl``;
* :mod:`.cli` — ``ombpy-campaign run | resume | status | report``.

See ``docs/campaign.md`` for the full format and semantics.
"""

from .config import CampaignConfig
from .journal import Journal, JournalState, replay
from .spec import CampaignSpec, CellSpec
from .store import ResultsStore

__all__ = [
    "CampaignConfig",
    "CampaignSpec",
    "CellSpec",
    "Journal",
    "JournalState",
    "ResultsStore",
    "replay",
]
