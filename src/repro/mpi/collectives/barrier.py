"""Barrier.

Algorithms:

* ``dissemination`` — ``ceil(log2 p)`` rounds; in round ``k`` each rank
  sends a zero-byte token to ``(rank + 2^k) mod p`` and waits for one
  from ``(rank - 2^k) mod p``.  After the last round every rank
  transitively depends on every other, which is the barrier property.
* ``hierarchical`` — intra-group fan-in, leader-level barrier,
  intra-group release (:mod:`.hierarchy`); selected automatically when
  the launch declared node groups.
"""

from __future__ import annotations

from ..comm import Comm
from . import selector
from .base import ctag
from .hierarchy import hier_barrier, partition
from .schedule import dissemination_barrier, flat


def barrier(comm: Comm) -> None:
    """Block until all ranks of ``comm`` have entered."""
    if comm.size == 1:
        return
    alg = selector.pick("barrier", 0, comm.size, groups=partition(comm))
    tag = ctag(comm)
    if alg == "hierarchical":
        hier_barrier(comm, tag)
        return
    flat(comm, tag, dissemination_barrier)
