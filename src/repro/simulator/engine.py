"""Discrete-event simulation engine for rank programs.

A *rank program* is a generator of the step vocabulary of
:mod:`repro.mpi.collectives.schedule`, so the runtime's collective
schedules run here unchanged:

* ``("send", dst, payload)`` — asynchronous send; the message arrives at
  ``dst`` after the network model's latency for ``len(payload)`` bytes;
* ``("recv", src, nbytes)`` — block until the next message from ``src``
  arrives; resumes with its payload;
* ``("sendrecv", dst, src, payload, nbytes)`` — both, completing at the
  max;
* ``("reduce", op, a, b)`` — resumes with ``op(a, b)`` and charges the
  analytic models' reduction cost (``GAMMA_US_PER_BYTE`` per result byte)
  to the local clock;

plus one simulator-only step, ``("compute", us)``, which advances the
local clock by a computation.

The engine advances per-rank virtual clocks under Hockney timing: a send
costs the sender nothing locally and is delivered at ``t_send +
latency(n)``, so a ping-pong one-way time equals ``latency(n)`` — the same
convention the analytic models in :mod:`collective_cost` use.  Every
delivery is tallied, which gives the exact message and byte counts of a
program alongside its finish times.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Generator

from .collective_cost import GAMMA_US_PER_BYTE
from .loggp import NetworkModel

Event = tuple
RankProgram = Generator[Event, object, object]


class SimulationError(RuntimeError):
    """Deadlock or protocol violation inside a simulated program."""


@dataclass
class Simulation:
    """Per-rank finish times (us) and the delivery tally of one run."""

    clocks: list[float]
    msgs: int = 0
    nbytes: int = 0


def simulate(
    programs: list[RankProgram],
    net: NetworkModel,
    per_send_overhead_us: float = 0.0,
) -> Simulation:
    """Run rank programs to completion.

    ``per_send_overhead_us`` charges the *sender's clock* per send — the
    knob that turns the baseline simulation into the "through Python
    bindings" simulation.
    """
    p = len(programs)
    sim = Simulation([0.0] * p)
    clocks = sim.clocks
    # inbox[dst][src] -> deque of (arrival time, payload)
    inbox: list[dict[int, deque]] = [dict() for _ in range(p)]
    # blocked[r] = (src, nbytes) the rank waits on, or None if runnable
    blocked: list[tuple | None] = [None] * p
    finished = [False] * p
    # Value to send into the generator on next resume; None also primes a
    # just-started generator.
    resume: list[object] = [None] * p

    def deliver(src: int, dst: int, payload) -> None:
        clocks[src] += per_send_overhead_us
        sim.msgs += 1
        sim.nbytes += len(payload)
        arrival = clocks[src] + net.latency_us(len(payload))
        inbox[dst].setdefault(src, deque()).append((arrival, payload))

    def try_recv(r: int, src: int, nbytes: int) -> bool:
        q = inbox[r].get(src)
        if not q:
            blocked[r] = (src, nbytes)
            return False
        arrival, payload = q.popleft()
        if len(payload) > nbytes:
            raise SimulationError(
                f"rank {r} received {len(payload)} bytes from {src} "
                f"into a {nbytes}-byte receive"
            )
        clocks[r] = max(clocks[r], arrival)
        blocked[r] = None
        resume[r] = payload
        return True

    def step(r: int) -> None:
        """Advance rank r until it finishes or blocks on an empty recv."""
        gen = programs[r]
        while True:
            try:
                event = gen.send(resume[r])
            except StopIteration:
                finished[r] = True
                return
            resume[r] = None
            kind = event[0]
            if kind == "send":
                deliver(r, event[1], event[2])
            elif kind == "recv":
                if not try_recv(r, event[1], event[2]):
                    return
            elif kind == "sendrecv":
                deliver(r, event[1], event[3])
                if not try_recv(r, event[2], event[4]):
                    return
            elif kind == "reduce":
                resume[r] = out = event[1](event[2], event[3])
                clocks[r] += GAMMA_US_PER_BYTE * out.nbytes
            elif kind == "compute":
                clocks[r] += float(event[1])
            else:
                raise SimulationError(f"unknown event {event!r} from rank {r}")

    for r in range(p):
        step(r)

    # Drain: repeatedly unblock ranks whose awaited message has arrived.
    progress = True
    while progress:
        progress = False
        for r in range(p):
            if not finished[r] and blocked[r] is not None \
                    and try_recv(r, *blocked[r]):
                step(r)
                progress = True
    if not all(finished):
        stuck = [r for r in range(p) if not finished[r]]
        raise SimulationError(
            f"simulation deadlocked; ranks {stuck} blocked on "
            f"{[blocked[r][0] for r in stuck]}"
        )
    return sim


def simulate_collective(
    make_program: Callable[[int, int], RankProgram],
    p: int,
    net: NetworkModel,
    per_send_overhead_us: float = 0.0,
) -> float:
    """Simulate one collective; return the max finish time across ranks."""
    programs = [make_program(r, p) for r in range(p)]
    return max(simulate(programs, net, per_send_overhead_us).clocks)
