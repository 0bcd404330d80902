"""Order statistics the benchmark reports: medians, quartiles, tails.

Each repetition yields its *quiet-time median* (:func:`quiet_median`).
A run reports the *first quartile* of those per-repetition values (see
:func:`run_value`), with their median and inter-quartile range beside
it, the pooled sample count, and the highest percentile that still has
at least ten samples beyond it (a percentile with fewer is one outlier's
opinion, not a statistic).
"""

from __future__ import annotations

import statistics

#: Percentiles considered for the tail, ascending.
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9, 99.99, 99.999)
#: A tail percentile needs this many samples beyond it.
MIN_BEYOND = 10
#: A repetition's samples are cut into this many consecutive blocks ...
QUIET_BLOCKS = 50
#: ... and its value is the block median at this percentile.
QUIET_PERCENTILE = 10.0


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)`` gives
    them (the rule the acceptance driver uses); a single value is its
    own quartiles."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def quiet_median(samples) -> float:
    """A repetition's median while the host was quiet.

    The samples, in the order they were taken, are cut into
    ``QUIET_BLOCKS`` consecutive blocks; each block yields its median and
    the repetition reports the block median at the 10th percentile
    (nearest rank: the sixth fastest of 50 blocks, the fastest one of
    fewer than ten).  Finer blocks or a lower percentile find shorter
    quiet moments, but a block of half a dozen samples has a loose
    median and the fastest of a hundred loose medians is an outlier, not
    a level: 100 blocks and the 5th percentile read the 1 MiB stream
    (600 windows a repetition) 604 ... 734 us between identical runs,
    where this rule reads 768 ... 790.

    Why not the median of all samples: this host has two speeds.  For a
    tenth of a second up to several seconds at a time *everything* on the
    core - a pure-Python spin loop as much as an 8-byte ping-pong - runs
    about 40 % slower, then returns to exactly the old level (27.5 <-> 40
    us, nothing in between, nothing ever faster).  A repetition's plain
    median reads the mix it happened to get, 27.5 ... 42; its slowest
    blocks say how busy the neighbours were, its fastest tenth what the
    code costs.  Of 60 repetitions taken while two in five blocks were
    slow, runs of six spanned 19 % of 28.6 us by the first quartile of
    their plain medians and 2.6 % of 27.5 us by the first quartile of
    their quiet-time medians.  A code change moves every block, so it still
    shows.
    """
    samples = list(samples)
    size = max(1, len(samples) // QUIET_BLOCKS)
    blocks = sorted(
        statistics.median(samples[i:i + size])
        for i in range(0, len(samples) - size + 1, size))
    return percentile(blocks, QUIET_PERCENTILE)


def run_value(per_rep) -> float:
    """What one run reports for a lower-is-better quantity: the first
    quartile of its per-repetition values.

    Not their median, because the noise is one-sided (see
    :func:`quiet_median`) and a slow spell can outlast a repetition:
    then that repetition has no quiet block to report and reads 40 %
    high with the rest.  The median needs half of the repetitions to
    have seen a quiet moment, the first quartile a quarter of them.
    Not their minimum either: fresh processes differ among themselves
    (two uds ranks settle anywhere in 53.5 ... 59 us), and the luckiest
    of eight is as far from the rest as a slow one.
    """
    return quartiles(per_rep)[0]


def spread_share(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("inf")


def tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` of ``n``
    samples beyond it; None when even the lowest has fewer."""
    best = None
    for p in TAIL_LADDER:
        if int(n * (100.0 - p) / 100.0 + 1e-9) >= MIN_BEYOND:
            best = p
    return best


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of no samples")
    rank = min(n - 1, max(0, int(n * p / 100.0 + 1e-9)))
    return float(sorted_values[rank])


def summarize(per_rep: list[float], pooled: list[float] | None = None) -> dict:
    """The run's value from per-repetition values, with their median
    and spread, plus the pooled tail."""
    q1, q3 = quartiles(per_rep)
    out = {
        "value": run_value(per_rep),
        "median": median(per_rep),
        "q1": q1,
        "q3": q3,
        "iqr": q3 - q1,
        "reps": len(per_rep),
        "per_rep": list(per_rep),
    }
    if pooled:
        ordered = sorted(pooled)
        out["samples"] = len(ordered)
        p = tail_percentile(len(ordered))
        out["tail_p"] = p
        out["tail"] = percentile(ordered, p) if p is not None else None
    return out
