"""Blocking collective algorithms.

Each module implements the textbook algorithms the MVAPICH2 family uses for
that operation (binomial trees, recursive doubling/halving, ring, Bruck,
pairwise exchange) plus a dispatch function that picks one via
:mod:`repro.mpi.collectives.selector`.  The tree, ring, doubling and
pairwise algorithms are written once, as step schedules in
:mod:`repro.mpi.collectives.schedule`, which the runtime drives and the
simulator prices.  All algorithms run over the byte-level point-to-point
API of :class:`repro.mpi.comm.Comm`, so they run unchanged on every
transport.
"""

from . import (  # noqa: F401
    allgather,
    allreduce,
    alltoall,
    barrier,
    base,
    bcast,
    gather,
    reduce,
    reduce_scatter,
    scan,
    schedule,
    scatter,
    selector,
    vector,
)
