#!/usr/bin/env python
"""Distributed Monte Carlo estimation of pi.

The workload the paper's related work (Wazir et al., Raspberry Pi
cluster) uses to compare mpi4py against sequential execution: each rank
samples points in the unit square independently; hit counts are combined
with a single Reduce.  Near-zero communication, so it scales almost
perfectly — the opposite end of the communication-intensity spectrum from
the micro-benchmarks.

Usage::

    python examples/monte_carlo_pi.py [--ranks 4] [--samples 2000000]
    ombpy-run -n 4 python examples/monte_carlo_pi.py --samples 2000000
"""

import argparse
import math
import os
import time

import numpy as np

from repro.knobs import ENV_RANK
from repro.mpi import init, ops
from repro.mpi.world import run_on_threads


def local_hits(samples: int, seed: int) -> int:
    """Count samples landing inside the quarter circle (vectorized)."""
    rng = np.random.default_rng(seed)
    hits = 0
    chunk = 1 << 20
    remaining = samples
    while remaining > 0:
        n = min(chunk, remaining)
        x = rng.random(n)
        y = rng.random(n)
        hits += int(np.count_nonzero(x * x + y * y <= 1.0))
        remaining -= n
    return hits


def estimate(comm, total_samples: int) -> float | None:
    """Distributed estimate; result on rank 0."""
    share = total_samples // comm.size
    if comm.rank == comm.size - 1:
        share += total_samples % comm.size
    hits = local_hits(share, seed=1234 + comm.rank)
    combined = comm.reduce_array(
        np.array([hits, share], dtype="i8"), ops.SUM, 0
    )
    if combined is None:
        return None
    return 4.0 * combined[0] / combined[1]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--samples", type=int, default=2_000_000)
    args = parser.parse_args()

    if ENV_RANK in os.environ:
        world = init()
        try:
            t0 = time.perf_counter()
            pi = estimate(world.comm, args.samples)
            if world.rank == 0:
                _report(pi, args.samples, world.size, time.perf_counter() - t0)
        finally:
            world.finalize()
        return

    t0 = time.perf_counter()
    results = run_on_threads(
        args.ranks, lambda c: estimate(c, args.samples)
    )
    _report(results[0], args.samples, args.ranks, time.perf_counter() - t0)


def _report(pi: float, samples: int, ranks: int, seconds: float) -> None:
    err = abs(pi - math.pi)
    print(f"pi ~= {pi:.6f} from {samples:,} samples on {ranks} ranks "
          f"({seconds:.2f} s); |error| = {err:.2e}")
    # Monte Carlo error scales ~1/sqrt(n); allow a wide safety factor.
    assert err < 20.0 / math.sqrt(samples), "estimate outside noise bounds"


if __name__ == "__main__":
    main()
