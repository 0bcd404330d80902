"""Which algorithm runs: the algorithm table and its selection.

Real MPI libraries (the paper uses MVAPICH2) switch collective algorithms
on message size and communicator size via tuning tables.  This module is a
small, inspectable version of such a table, with a global override hook the
ablation benchmarks use to force a particular algorithm across a sweep, and
the eligibility fallbacks that hand an algorithm which cannot run the
arguments over to one that can.
"""

from __future__ import annotations

import threading

from ...knobs import COLL, read
from . import hierarchy
from . import schedule as s
from .base import is_power_of_two

#: Every blocking collective algorithm, as the schedule that runs it.  A
#: flat schedule is called ``(range(size), rank, *args)``, a hierarchical
#: one ``(partition, rank, *args)``; ``args`` per op:
#:
#: ============== =============================
#: bcast          ``root, data, nbytes``
#: allreduce      ``values, op``
#: allgather      ``block``
#: alltoall       ``blocks, nbytes``
#: reduce         ``root, values, op``
#: reduce_scatter ``values, counts, op``
#: gather         ``root, block``
#: scatter        ``root, blocks, sizes``
#: barrier        (none)
#: scan           ``values, op``
#: ============== =============================
ALGORITHMS = {
    "bcast": {
        "binomial": s.binomial_bcast,
        "scatter_allgather": s.scatter_allgather_bcast,
        "linear": s.linear_bcast,
        "hierarchical": hierarchy.hierarchical_bcast,
    },
    "allreduce": {
        "recursive_doubling": s.recursive_doubling_allreduce,
        "ring": s.ring_allreduce,
        "reduce_bcast": s.reduce_bcast_allreduce,
        "hierarchical": hierarchy.hierarchical_allreduce,
    },
    "allgather": {
        "recursive_doubling": s.recursive_doubling_allgather,
        "ring": s.ring_allgather,
        "linear": s.gather_bcast_allgather,
        "hierarchical": hierarchy.hierarchical_allgather,
    },
    "alltoall": {"bruck": s.bruck_alltoall, "pairwise": s.pairwise_alltoall},
    "reduce": {
        "binomial": s.binomial_reduce,
        "rabenseifner": s.rabenseifner_reduce,
        "linear": s.linear_reduce,
    },
    "reduce_scatter": {
        "recursive_halving": s.recursive_halving_reduce_scatter,
        "pairwise": s.pairwise_reduce_scatter,
    },
    "gather": {
        "binomial": s.binomial_gather,
        "linear": s.linear_gather,
        "hierarchical": hierarchy.hierarchical_gather,
    },
    "scatter": {"binomial": s.binomial_scatter, "linear": s.linear_scatter},
    "barrier": {
        "dissemination": s.dissemination_barrier,
        "hierarchical": hierarchy.hierarchical_barrier,
    },
    "scan": {
        "recursive_doubling": s.recursive_doubling_scan,
        "linear": s.linear_scan,
    },
}

# Switch points (bytes), modelled on common MVAPICH2/MPICH defaults.
BCAST_SHORT_MSG = 16384          # binomial below, scatter+allgather above
ALLREDUCE_SHORT_MSG = 8192       # recursive doubling below, ring above
ALLGATHER_SHORT_MSG = 32768      # recursive doubling below, ring above
ALLTOALL_SHORT_MSG = 256         # Bruck below, pairwise above
REDUCE_SHORT_MSG = 16384         # binomial below, reduce-scatter+gather above
REDUCE_SCATTER_SHORT_MSG = 8192  # recursive halving below, pairwise above

_lock = threading.Lock()


def force(op: str, algorithm: str | None) -> None:
    """Force (or clear, with None) the algorithm used for ``op``.

    Used by ablation benchmarks; also settable via the environment as
    ``OMBPY_COLL_<OP>=<algorithm>``, which is read once when this module
    is imported and is what clearing falls back to.
    """
    with _lock:
        if algorithm is None:
            algorithm = _FROM_ENV.get(op)
        if algorithm is None:
            _forced.pop(op, None)
        else:
            _forced[op] = algorithm


def forced(op: str) -> str | None:
    """Return the forced algorithm for ``op`` if any.

    On the path of every collective call, so a plain dict lookup: writers
    (:func:`force`) replace whole entries under the lock.
    """
    return _forced.get(op)


#: Collectives with a topology-aware two-level implementation
#: (:mod:`repro.mpi.collectives.hierarchy`).
HIERARCHICAL_OPS = frozenset(
    op for op, algs in ALGORITHMS.items() if "hierarchical" in algs
)


def pick(
    op: str,
    nbytes: int,
    size: int,
    groups=None,
    *,
    count: int | None = None,
    commutative: bool = True,
) -> str:
    """Select the algorithm name for one collective invocation.

    ``groups`` is the communicator's effective group partition (from
    :func:`repro.mpi.collectives.hierarchy.partition`); when present and
    the op has a two-level implementation, the hierarchical algorithm
    wins over the size-based table — matching MVAPICH2, where SMP-aware
    collectives take precedence whenever the topology is known.  An
    explicit override (:func:`force` / ``OMBPY_COLL_<OP>``) still beats
    everything, so flat-vs-hierarchical ablations stay possible.

    The choice then has to run the arguments (``count`` elements per
    rank, ``commutative`` op), forced or not: a non-commutative reduce
    or allreduce keeps rank order (linear, reduce_bcast); recursive
    doubling allgather and recursive halving need a power-of-two size,
    and halving a commutative op (else ring, pairwise); ring allreduce
    and Rabenseifner need at least one element per rank (else recursive
    doubling, binomial).
    """
    if not commutative and op in ("allreduce", "reduce"):
        return "reduce_bcast" if op == "allreduce" else "linear"
    alg = _preferred(op, nbytes, size, groups)
    if alg == "recursive_doubling" and op == "allgather" \
            and not is_power_of_two(size):
        return "ring"
    if alg == "recursive_halving" \
            and not (is_power_of_two(size) and commutative):
        return "pairwise"
    if count is not None and count < size:
        if alg == "ring" and op == "allreduce":
            return "recursive_doubling"
        if alg == "rabenseifner":
            return "binomial"
    return alg


def _preferred(op: str, nbytes: int, size: int, groups) -> str:
    """The override, the two-level algorithm or the size-based table."""
    override = forced(op)
    if override is not None:
        if override == "hierarchical" and groups is None:
            # Forcing hierarchy without a usable group partition would
            # just crash in dispatch; fall through to the flat table.
            pass
        else:
            return override
    if groups is not None and op in HIERARCHICAL_OPS:
        return "hierarchical"
    if op == "bcast":
        if size <= 2 or nbytes <= BCAST_SHORT_MSG:
            return "binomial"
        return "scatter_allgather"
    if op == "allreduce":
        if nbytes <= ALLREDUCE_SHORT_MSG or size <= 2:
            return "recursive_doubling"
        return "ring"
    if op == "allgather":
        if nbytes * size <= ALLGATHER_SHORT_MSG:
            return "recursive_doubling"
        return "ring"
    if op == "alltoall":
        if nbytes <= ALLTOALL_SHORT_MSG and size > 2:
            return "bruck"
        return "pairwise"
    if op == "reduce":
        if nbytes <= REDUCE_SHORT_MSG or size <= 2:
            return "binomial"
        return "rabenseifner"
    if op == "reduce_scatter":
        if nbytes <= REDUCE_SCATTER_SHORT_MSG:
            return "recursive_halving"
        return "pairwise"
    if op == "gather":
        return "binomial"
    if op == "scatter":
        return "binomial"
    if op == "barrier":
        return "dissemination"
    if op == "scan":
        return "recursive_doubling"
    raise ValueError(f"unknown collective op {op!r}")


def available(op: str) -> tuple[str, ...]:
    """List the algorithms implemented for ``op`` (for ablations/tests)."""
    return tuple(ALGORITHMS[op])


def _forced_from_env() -> dict[str, str]:
    out = {}
    for op, knob in COLL.items():
        algorithm = read(knob)
        if algorithm is None:
            continue
        choices = available(op)
        if algorithm not in choices:
            raise knob.error(
                algorithm, accepted="one of " + ", ".join(choices)
            )
        out[op] = algorithm
    return out


_FROM_ENV = _forced_from_env()
_forced: dict[str, str] = dict(_FROM_ENV)
