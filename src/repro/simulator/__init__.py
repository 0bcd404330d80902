"""``repro.simulator`` — calibrated HPC-cluster performance models.

The paper's evaluation ran on Frontera, Stampede2, and RI2 — 16-node
InfiniBand/Omni-Path clusters with up to 56 cores per node and V100 GPUs.
None of that hardware exists here, so the figures are reproduced through
this package:

* :mod:`repro.simulator.loggp` — Hockney/LogGP point-to-point cost models
  with eager/rendezvous regimes;
* :mod:`repro.simulator.machine`, :mod:`repro.simulator.clusters` — node
  and cluster descriptions with constants calibrated against the paper's
  reported average overheads (Table III and the per-figure numbers);
* :mod:`repro.simulator.mpilibs` — MVAPICH2 vs Intel MPI profile deltas;
* :mod:`repro.simulator.overheads` — the Python-binding overhead model
  (fixed per-call cost + per-byte touch cost + pickle + GPU-buffer-library
  access costs + THREAD_MULTIPLE full-subscription penalties);
* :mod:`repro.simulator.collective_cost` — analytic per-algorithm costs of
  the collectives;
* :mod:`repro.simulator.engine` — a discrete-event simulator that runs the
  runtime's own collective schedules
  (:mod:`repro.mpi.collectives.schedule`) and tallies their messages; the
  tests check the analytic costs against it;
* :mod:`repro.simulator.api` — ``simulate_pt2pt`` / ``simulate_collective``
  / ``simulate_ml``, the entry points the figure benchmarks call.
"""

from .api import simulate_collective, simulate_ml, simulate_pt2pt
from .clusters import CLUSTERS, FRONTERA, RI2, RI2_GPU, STAMPEDE2
from .mpilibs import INTEL_MPI, MVAPICH2

__all__ = [
    "CLUSTERS",
    "FRONTERA",
    "INTEL_MPI",
    "MVAPICH2",
    "RI2",
    "RI2_GPU",
    "STAMPEDE2",
    "simulate_collective",
    "simulate_ml",
    "simulate_pt2pt",
]
