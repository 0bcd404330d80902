"""How long to wait before retry *n*: the one capped-exponential backoff.

Every retry loop in the tree — service job retries, campaign cell
retries, ``ServiceClient.connect``, the stream fabric's dial, the
reliable layer's retransmit timeout — computes its wait here and passes
its own constants; none doubles a delay by hand.
"""

from __future__ import annotations

import random


def backoff_s(
    attempt: int,
    base: float,
    cap: float,
    jitter: tuple[float, float] | None = None,
    rng: random.Random | None = None,
) -> float:
    """Seconds to wait before retry number ``attempt`` (1-based).

    ``base`` doubles per attempt up to ``cap``; with ``jitter=(lo, hi)``
    the capped delay is then scaled by a uniform draw from that band,
    which decorrelates retries of peers that failed together.  ``rng``
    makes the draw reproducible (default: the module-level generator).
    """
    # The exponent is clamped so attempt counts in the thousands cannot
    # overflow a float before ``min`` applies the cap.
    delay = min(cap, base * 2 ** min(max(0, attempt - 1), 64))
    if jitter is not None:
        delay *= (rng or random).uniform(*jitter)
    return delay
