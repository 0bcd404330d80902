"""Discrete-event simulation engine for rank programs.

A *rank program* is a generator of steps; the runtime's collective
schedules (:mod:`repro.mpi.collectives.schedule`) run here unchanged:

* ``("send", dst, payload[, tag])`` — the message arrives at ``dst``
  after the network model's latency for ``len(payload)`` bytes;
* ``("recv", src, nbytes[, tag])`` — resumes with the payload of the
  earliest matching message once it has arrived;
* ``("sendrecv", dst, src, payload, nbytes)`` — both halves posted at
  once, completing at the max;
* ``("reduce", op, a, b)`` — resumes with ``op(a, b)`` and charges
  ``GAMMA_US_PER_BYTE`` per result byte to the local clock;
* ``("compute", us)`` — advances the local clock;
* ``("isend", dst, payload[, tag])`` — a send that is always buffered;
  ``("irecv", src, nbytes[, tag])`` posts a receive, and ``("wait",)``
  blocks until every receive the rank posted has matched;
* ``("coll", name)`` — completes once every rank is at a ``coll`` of
  that name.

Tags default to 0; :data:`ANY` matches any source or tag.  A message
completes the earliest matching receive its destination posted, else the
receive the destination is blocked in, else it is buffered.  Elements
after a step's arguments are ignored, so a caller can carry its own
record of the step there.  Sends are buffered (eager), as the runtime's
are; with ``rendezvous=True`` a blocking send completes only against a
posted receive, which decides whether a program still completes (its
clocks then are not a rendezvous cost model).

Clocks follow Hockney timing: a send costs the sender nothing locally and
is delivered at ``t_send + latency(n)``, so a ping-pong one-way time
equals ``latency(n)`` — the convention the analytic models in
:mod:`collective_cost` use.  Every delivery is tallied, which gives the
exact message and byte counts of a program alongside its finish times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

from .collective_cost import GAMMA_US_PER_BYTE
from .loggp import NetworkModel

Event = tuple
RankProgram = Generator[Event, object, object]

#: Wildcard source or tag.
ANY = None


class SimulationError(RuntimeError):
    """Deadlock or protocol violation inside a simulated program.

    A deadlock carries the stuck run as ``sim``.
    """

    def __init__(self, message: str, sim: Simulation | None = None) -> None:
        super().__init__(message)
        self.sim = sim


@dataclass
class Simulation:
    """Per-rank finish times (us) and the delivery tally of one run."""

    clocks: list[float]
    msgs: int = 0
    nbytes: int = 0
    #: rank -> the step it is stuck in (empty unless deadlocked)
    blocked: dict[int, Event] = field(default_factory=dict)
    #: (source rank, send step) of every message never received
    unreceived: list[tuple[int, Event]] = field(default_factory=list)
    #: (rank, irecv step) of every posted receive never matched
    unmatched: list[tuple[int, Event]] = field(default_factory=list)


def _tag(step: Event):
    return step[3] if len(step) > 3 else 0


def _receive_half(step: Event | None):
    """(source, tag, nbytes) of the receive a step is blocked in, or None."""
    if step and step[0] == "recv":
        return step[1], _tag(step), step[2]
    if step and step[0] == "sendrecv":
        return step[2], 0, step[4]
    return None


def simulate(
    programs: list[RankProgram],
    net: NetworkModel,
    per_send_overhead_us: float = 0.0,
    rendezvous: bool = False,
) -> Simulation:
    """Run rank programs to completion.

    ``per_send_overhead_us`` charges the *sender's clock* per send — the
    knob that turns the baseline simulation into the "through Python
    bindings" simulation.  Raises :class:`SimulationError` when the
    programs deadlock.
    """
    p = len(programs)
    sim = Simulation([0.0] * p)
    clocks = sim.clocks
    # inbox[dst]: buffered (src, tag, payload, arrival, step), in send order
    inbox: list[list[tuple]] = [[] for _ in range(p)]
    # posted[r]: r's irecvs since its last wait, [src, tag, nbytes, step,
    # message or None while unmatched]
    posted: list[list[list]] = [[] for _ in range(p)]
    # blocked[r]: the step rank r waits in, or None if it can run
    blocked: list[Event | None] = [None] * p
    finished = [False] * p
    # Value to send into the generator on next resume; None also primes a
    # just-started generator.
    resume: list[object] = [None] * p

    def fits(r: int, want, msg: tuple) -> bool:
        """Does r's receive ``want`` match ``msg``?  Too short is an error."""
        src, tag, payload, _arrival, _step = msg
        if want[0] not in (ANY, src):
            return False
        if want[1] is not ANY and tag is not ANY and want[1] != tag:
            return False
        if len(payload) > want[2]:
            raise SimulationError(
                f"rank {r} received {len(payload)} bytes from {src} "
                f"into a {want[2]}-byte receive"
            )
        return True

    def take(r: int, want) -> tuple | None:
        """Pop the earliest buffered message for r that ``want`` matches."""
        box = inbox[r]
        for i, msg in enumerate(box):
            if fits(r, want, msg):
                return box.pop(i)
        return None

    def arrive(r: int, msg: tuple) -> None:
        clocks[r] = max(clocks[r], msg[3])
        resume[r] = msg[2]

    def deliver(src: int, dst: int, tag, payload, step: Event,
                buffered: bool) -> bool:
        """Send one message; False when it has no posted receive and may
        not be buffered."""
        n = len(payload)
        msg = (src, tag, payload,
               clocks[src] + per_send_overhead_us + net.latency_us(n), step)
        entry = next((e for e in posted[dst]
                      if e[4] is None and fits(dst, e, msg)), None)
        stuck = blocked[dst]
        half = _receive_half(stuck)
        handoff = entry is None and half is not None and fits(dst, half, msg)
        if entry is None and not handoff and not buffered:
            return False
        clocks[src] += per_send_overhead_us
        sim.msgs += 1
        sim.nbytes += n
        if entry is not None:
            entry[4] = msg
        elif handoff:
            arrive(dst, msg)
            # A sendrecv whose receive completes first still has to send.
            blocked[dst] = None if stuck[0] == "recv" else (
                "send", stuck[1], stuck[3], 0, *stuck[5:]
            )
        else:
            inbox[dst].append(msg)
        return True

    def attempt(r: int, step: Event) -> bool:
        """Try to complete rank r's step; otherwise r is blocked in what
        is left of it."""
        kind = step[0]
        done = True
        if kind == "send" or kind == "isend":
            done = deliver(r, step[1], _tag(step), step[2], step,
                           kind == "isend" or not rendezvous)
        elif kind == "recv":
            msg = take(r, _receive_half(step))
            done = msg is not None
            if done:
                arrive(r, msg)
        elif kind == "sendrecv":
            blocked[r] = step  # both halves are posted at once
            if not deliver(r, step[1], 0, step[3], step, not rendezvous):
                msg = take(r, _receive_half(step))
                if msg is not None:
                    arrive(r, msg)
                    blocked[r] = ("send", step[1], step[3], 0, *step[5:])
                return False
            if blocked[r] is not step:  # it received its own message
                blocked[r] = None
                return True
            return attempt(r, ("recv", step[2], step[4], 0, *step[5:]))
        elif kind == "irecv":
            want = (step[1], _tag(step), step[2])
            posted[r].append([*want, step, take(r, want)])
        elif kind == "wait":
            if any(e[4] is None for e in posted[r]):
                done = False
            else:
                clocks[r] = max([clocks[r]] + [e[4][3] for e in posted[r]])
                posted[r].clear()
        elif kind == "coll":
            blocked[r] = step
            if any(b is None or b[0] != "coll" or b[1] != step[1]
                   for b in blocked):
                return False
            clocks[:] = [max(clocks)] * p
            blocked[:] = [None] * p
            return True
        elif kind == "reduce":
            resume[r] = out = step[1](step[2], step[3])
            clocks[r] += GAMMA_US_PER_BYTE * out.nbytes
        elif kind == "compute":
            clocks[r] += float(step[1])
        else:
            raise SimulationError(f"unknown event {step!r} from rank {r}")
        blocked[r] = None if done else step
        return done

    # Run every runnable rank until it finishes or blocks, and retry every
    # blocked one, until no rank moves.
    progress = True
    while progress:
        progress = False
        for r in range(p):
            if finished[r] or (
                blocked[r] is not None and not attempt(r, blocked[r])
            ):
                continue
            progress = True
            while True:
                try:
                    event = programs[r].send(resume[r])
                except StopIteration:
                    finished[r] = True
                    break
                resume[r] = None
                if not attempt(r, event):
                    break
    sim.unreceived = [(msg[0], msg[4]) for box in inbox for msg in box]
    sim.unmatched = [
        (r, e[3]) for r in range(p) for e in posted[r] if e[4] is None
    ]
    sim.blocked = {r: blocked[r] for r in range(p) if not finished[r]}
    if sim.blocked:
        raise SimulationError(
            f"simulation deadlocked; ranks {list(sim.blocked)} blocked in "
            f"{[s[:2] for s in sim.blocked.values()]}", sim,
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
