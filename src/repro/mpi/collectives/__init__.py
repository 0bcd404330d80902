"""Blocking collective algorithms.

Every algorithm — the textbook set the MVAPICH2 family uses: binomial
trees, recursive doubling/halving, ring, Bruck, pairwise exchange, the
linear baselines and the two-level (:mod:`.hierarchy`) variants — is
written once, as a step schedule (:mod:`.schedule`) that the runtime
drives and the simulator prices.  :mod:`.selector` holds the table of
algorithms and picks one per call; :mod:`.blocking` holds the entry
points (argument checks, then one schedule driven).  All algorithms run
over the byte-level point-to-point API of :class:`repro.mpi.comm.Comm`,
so they run unchanged on every transport.
"""

from . import base, blocking, hierarchy, schedule, selector  # noqa: F401
