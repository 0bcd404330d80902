"""Analytic cost models of the collective algorithms.

Each function prices one collective call from the algorithm's
communication structure (the same algorithms :mod:`repro.mpi.collectives`
implements) on a given network model.  ``p`` is the total rank count; when
several ranks share a node (``ppn > 1``) the per-byte fabric terms are
scaled by the NIC-sharing factor, the standard first-order congestion
treatment.

The discrete-event engine (:mod:`repro.simulator.engine`) runs the
runtime's own schedules (:mod:`repro.mpi.collectives.schedule`), and
``tests/test_simulator_crossvalidation.py`` checks these formulas against
it.  The switch points are the runtime selector's.
"""

from __future__ import annotations

import math
from dataclasses import replace

from ..mpi.collectives.selector import (
    ALLGATHER_SHORT_MSG,
    ALLREDUCE_SHORT_MSG,
    ALLTOALL_SHORT_MSG,
    BCAST_SHORT_MSG,
)
from .loggp import NetworkModel


def _ceil_log2(p: int) -> int:
    return max(1, math.ceil(math.log2(max(p, 2))))


def congested(net: NetworkModel, ppn: int) -> NetworkModel:
    """Scale per-byte costs by the NIC-sharing factor for ppn ranks/node."""
    if ppn <= 1:
        return net
    f = float(ppn)
    return replace(
        net,
        beta_us_per_byte=net.beta_us_per_byte * f,
        rendezvous_beta_us_per_byte=(
            None if net.rendezvous_beta_us_per_byte is None
            else net.rendezvous_beta_us_per_byte * f
        ),
        gap_us_per_byte=(
            None if net.gap_us_per_byte is None
            else net.gap_us_per_byte * f
        ),
    )


# Reduction arithmetic: one float op per 4 bytes at a few GFLOP/s.
GAMMA_US_PER_BYTE = 2.5e-7


def barrier_us(net: NetworkModel, p: int) -> float:
    """Dissemination barrier: ceil(log2 p) zero-byte rounds."""
    if p <= 1:
        return 0.0
    return _ceil_log2(p) * net.latency_us(0)


def bcast_us(net: NetworkModel, p: int, n: int) -> float:
    """Binomial below the switch point, scatter+ring-allgather above."""
    if p == 1 or n == 0:
        return 0.0
    steps = _ceil_log2(p)
    binomial = steps * net.latency_us(n)
    if n <= BCAST_SHORT_MSG or p <= 2:
        return binomial
    chunk = -(-n // p)
    scatter = sum(
        net.latency_us(chunk * min(2 ** k, p)) for k in range(steps)
    ) / 2  # pipelined halving: each level moves half the previous volume
    ring = (p - 1) * net.latency_us(chunk)
    return min(binomial, scatter + ring)


def reduce_us(net: NetworkModel, p: int, n: int) -> float:
    """Binomial reduce: log rounds of message + local reduction."""
    if p == 1:
        return 0.0
    per_round = net.latency_us(n) + GAMMA_US_PER_BYTE * n
    return _ceil_log2(p) * per_round


def allreduce_us(net: NetworkModel, p: int, n: int) -> float:
    """Recursive doubling for small, ring for large (the runtime's split).

    Recursive doubling is priced in its power-of-two form, the one the
    paper's figures use.  For other ``p`` the runtime folds the remainder
    first, which adds a hop in and a hop out around this core.
    """
    if p == 1:
        return 0.0
    steps = _ceil_log2(p)
    rd = steps * (net.latency_us(n) + GAMMA_US_PER_BYTE * n)
    if n <= ALLREDUCE_SHORT_MSG or p <= 2:
        return rd
    seg = -(-n // p)
    ring = 2 * (p - 1) * (
        net.latency_us(seg) + GAMMA_US_PER_BYTE * seg / 2
    )
    return min(rd, ring)


def allgather_us(net: NetworkModel, p: int, n: int) -> float:
    """Recursive doubling (volume doubles per round) or ring.

    ``n`` is the per-rank block size.
    """
    if p == 1:
        return 0.0
    if n * p <= ALLGATHER_SHORT_MSG:
        return sum(
            net.latency_us(n * 2 ** k) for k in range(_ceil_log2(p))
        )
    return (p - 1) * net.latency_us(n)


def alltoall_us(net: NetworkModel, p: int, n: int) -> float:
    """Bruck for tiny blocks, pairwise exchange otherwise."""
    if p == 1:
        return 0.0
    if n <= ALLTOALL_SHORT_MSG and p > 2:
        return sum(
            net.latency_us(n * ((p + 1) // 2))
            for _ in range(_ceil_log2(p))
        )
    return (p - 1) * net.latency_us(n)


def gather_us(net: NetworkModel, p: int, n: int) -> float:
    """Binomial gather: round k moves 2^k blocks toward the root."""
    if p == 1:
        return 0.0
    return sum(
        net.latency_us(n * min(2 ** k, p - 2 ** k if p > 2 ** k else 1))
        for k in range(_ceil_log2(p))
    )


def scatter_us(net: NetworkModel, p: int, n: int) -> float:
    """Binomial scatter mirrors gather."""
    return gather_us(net, p, n)


def reduce_scatter_us(net: NetworkModel, p: int, n: int) -> float:
    """Recursive halving (total vector n, result n/p per rank)."""
    if p == 1:
        return 0.0
    total = 0.0
    vol = n / 2
    for _ in range(_ceil_log2(p)):
        total += net.latency_us(int(vol)) + GAMMA_US_PER_BYTE * vol
        vol /= 2
    return total


_COSTS = {
    "barrier": lambda net, p, n: barrier_us(net, p),
    "bcast": bcast_us,
    "reduce": reduce_us,
    "allreduce": allreduce_us,
    "allgather": allgather_us,
    "alltoall": alltoall_us,
    "gather": gather_us,
    "scatter": scatter_us,
    "reduce_scatter": reduce_scatter_us,
}


def collective_us(
    op: str, net: NetworkModel, p: int, n: int, ppn: int = 1
) -> float:
    """Baseline (C OMB) latency of one collective call."""
    try:
        fn = _COSTS[op]
    except KeyError:
        raise ValueError(
            f"unknown collective {op!r}; available: {sorted(_COSTS)}"
        ) from None
    return fn(congested(net, ppn), p, n)
