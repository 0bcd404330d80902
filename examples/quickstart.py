#!/usr/bin/env python
"""Quickstart: run OMB-Py benchmarks in one process or many.

Single process (ranks as threads, no launcher needed)::

    python examples/quickstart.py

Real processes over the TCP mesh::

    ombpy-run -n 2 python examples/quickstart.py
    # or equivalently: python -m repro.mpi.launcher -n 2 examples/quickstart.py

The script measures point-to-point latency and Allreduce latency with the
mpi4py-workalike buffer API and prints OSU-style tables.
"""

import os

from repro.core import Options, get_benchmark
from repro.core.output import print_table
from repro.core.runner import BenchContext
from repro.knobs import ENV_RANK
from repro.mpi import init
from repro.mpi.world import run_on_threads

OPTS = Options(min_size=1, max_size=65536, iterations=50, warmup=5)


def run_under_launcher() -> None:
    world = init()
    try:
        for name in ("osu_latency", "osu_allreduce"):
            table = get_benchmark(name).run(BenchContext(world.comm, OPTS))
            if world.rank == 0:
                print_table(table)
                print()
    finally:
        world.finalize()


def run_self_hosted(ranks: int = 2) -> None:
    print(f"(no launcher detected: self-hosting {ranks} ranks as threads)\n")
    for name in ("osu_latency", "osu_allreduce"):
        bench = get_benchmark(name)
        tables = run_on_threads(
            ranks, lambda comm, b=bench: b.run(BenchContext(comm, OPTS))
        )
        print_table(tables[0])
        print()


if __name__ == "__main__":
    if ENV_RANK in os.environ:
        run_under_launcher()
    else:
        run_self_hosted()
