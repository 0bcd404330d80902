"""World bootstrap: turning a process (or thread) into an MPI rank.

Three entry paths:

* :func:`init` — called inside a process started by ``ombpy-run``; reads the
  ``OMBPY_*`` environment, joins the TCP mesh, and returns a ``World`` whose
  ``comm`` is COMM_WORLD.  Without the environment it returns a single-rank
  world, exactly as ``mpiexec``-less MPI programs run as singletons.
* :func:`run_on_threads` — runs ``fn(comm)`` on N ranks-as-threads inside
  the current process over the inproc fabric.  This is the harness the test
  suite and single-process benchmarks use.
* :func:`run_on_processes` — convenience wrapper that shells out to the
  launcher for true multi-process execution.

All of them (and the service's warm thread pool) turn a wire transport
into an endpoint through :func:`build_endpoint` — the one place the
order of the transport stack is decided.
"""

from __future__ import annotations

import json
import os
import socket
import threading
from dataclasses import dataclass
from typing import Any, Callable

from ..knobs import (
    ENV_COORD, ENV_FAULT_LOG, ENV_FAULT_SEED, ENV_FAULTS, ENV_JOB, ENV_RANK,
    ENV_SIZE, ENV_TELEMETRY_OUT, ENV_TRANSPORT, RELIABLE, flag,
)
from . import constants as C
from .comm import Comm, Endpoint
from .exceptions import InternalError
from .group import Group
from .reliability import ReliableTransport
from .transport.inproc import InprocFabric
from .transport.tcp import TcpTransport


def reliability_stats(transport) -> dict[str, int] | None:
    """The reliable-delivery counters of a transport stack, if present."""
    t = transport
    while t is not None:
        stats = getattr(t, "stats", None)
        if callable(stats):
            return stats()
        t = getattr(t, "inner", None)
    return None


def _faults_from_env():
    """Build a FaultPlan from the launcher's chaos env, if one is set."""
    plan_path = os.environ.get(ENV_FAULTS)
    seed = os.environ.get(ENV_FAULT_SEED)
    if not plan_path and seed is None:
        return None
    from ..faults import FaultPlan

    if plan_path:
        return FaultPlan.from_file(plan_path)
    return FaultPlan.chaos(int(seed))


def build_endpoint(
    wire, *, fault_plan=None, fault_log: str | None = None,
    reliable: bool = False, group_map=None,
) -> Endpoint:
    """Assemble the transport stack over ``wire`` and attach an endpoint.

    The order is fixed here and nowhere else: app → reliable → faulty →
    wire, each decorator reaching the next through ``.inner``.  The
    fault injector (an active ``fault_plan``) wraps the wire *before*
    the endpoint attaches, so no inbound frame can race the engine
    attachment; the reliability layer stacks *outside* the injector, so
    injected drops/duplicates/truncations are absorbed before the
    matching engine sees the stream.  The endpoint then gets the
    node-group map and, when ``OMBPY_METRICS``/``OMBPY_TRACE`` are set,
    a telemetry object bound to every layer that reports into one.
    """
    transport = wire
    if fault_plan is not None and fault_plan.active:
        from ..faults import FaultyTransport

        transport = FaultyTransport(transport, fault_plan, log_path=fault_log)
    if reliable:
        transport = ReliableTransport(transport)
    endpoint = Endpoint(transport)
    endpoint.group_map = group_map
    # Imported here: the telemetry package builds on this one.
    from ..telemetry import telemetry_from_env

    tele = telemetry_from_env(wire.world_rank)
    if tele is not None:
        tele.attach(endpoint)
    return endpoint


def _dump_telemetry(endpoint: Endpoint) -> None:
    """Persist a rank's telemetry where the launcher asked for it."""
    base = os.environ.get(ENV_TELEMETRY_OUT)
    if endpoint.telemetry is not None and base:
        from ..telemetry.export import write_rank_dump

        write_rank_dump(base, endpoint.telemetry)


@dataclass
class World:
    """A live MPI world for this process: endpoint + COMM_WORLD."""

    comm: Comm
    endpoint: Endpoint
    _fabric: InprocFabric | None = None
    _detector: object | None = None

    @property
    def rank(self) -> int:
        return self.comm.rank

    @property
    def size(self) -> int:
        return self.comm.size

    def reliability_stats(self) -> dict[str, int] | None:
        """Reliable-delivery counters, or None when the layer is off."""
        return reliability_stats(self.endpoint.transport)

    def finalize(self) -> None:
        """Tear down transports.  Collective in spirit: call on all ranks."""
        # Persist this rank's telemetry before the channel goes down so
        # the launcher can merge the per-rank dumps after the job exits.
        _dump_telemetry(self.endpoint)
        # Stop liveness monitoring before sockets go down, so our own
        # teardown is not reported as a peer failure.
        if self._detector is not None:
            self._detector.stop()
        self.endpoint.close()
        if self._fabric is not None:
            self._fabric.close()

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.finalize()


def _assemble_world(transport, size: int, thread_level: int) -> World:
    """Common multi-process tail: stack, mesh, detector, comm.

    The stack (:func:`build_endpoint`) is configured from the launcher's
    environment.  The mesh is established after the endpoint attaches,
    so no inbound frame can race the engine attachment.  The failure
    detector binds to the *innermost* transport — heartbeats must not
    consume fault-plan RNG draws, or replay determinism dies.
    """
    from .topology import group_map_from_env

    endpoint = build_endpoint(
        transport, fault_plan=_faults_from_env(),
        fault_log=os.environ.get(ENV_FAULT_LOG), reliable=flag(RELIABLE),
        group_map=group_map_from_env(size),
    )
    # Stream transports start their acceptor here; shm segments are
    # created by the launcher before spawn, so attaching cannot race and
    # there is nothing to establish.
    establish = getattr(transport, "establish_mesh", None)
    if establish is not None:
        establish()
    from .resilience import detector_from_env

    detector = detector_from_env(transport, endpoint.engine, endpoint)
    if detector is not None:
        detector.start()
    comm = Comm(
        endpoint, Group(list(range(size))), context=0,
        thread_level=thread_level,
    )
    return World(comm, endpoint, _detector=detector)


def _wire_from_env(rank: int, size: int):
    """The wire transport the launcher's environment asks for."""
    fabric_kind = os.environ.get(ENV_TRANSPORT, "tcp")
    if fabric_kind == "uds":
        from .transport.uds import UdsTransport

        return UdsTransport(rank, size, os.environ[ENV_JOB])
    if fabric_kind == "shm":
        from .topology import group_map_from_env

        group_map = group_map_from_env(size)
        if group_map is not None and group_map.n_groups > 1:
            # Grouped launch: the launcher only created intra-group ring
            # segments — cross-group traffic rides lazy UDS streams.
            from .fabric.hybrid import HybridTransport

            return HybridTransport(rank, size, os.environ[ENV_JOB], group_map)
        from .transport.shm import ShmTransport

        return ShmTransport(rank, size, os.environ[ENV_JOB])

    coord_host, coord_port = os.environ[ENV_COORD].rsplit(":", 1)

    listen = TcpTransport.bind_ephemeral()
    my_port = listen.getsockname()[1]

    # Rendezvous with the launcher: report our port, get the full map.
    with socket.create_connection((coord_host, int(coord_port)), timeout=60) as cs:
        cs.sendall(f"{rank} {my_port}\n".encode())
        with cs.makefile("rb") as reader:
            line = reader.readline()
    if not line.endswith(b"\n"):
        listen.close()
        raise InternalError("coordinator closed during rendezvous")
    port_map = {int(k): int(v) for k, v in json.loads(line.decode()).items()}

    return TcpTransport(rank, size, listen, port_map)


def init(thread_level: int = C.THREAD_MULTIPLE) -> World:
    """Initialize this process as a rank (launcher env) or a singleton."""
    if ENV_RANK not in os.environ:
        fabric = InprocFabric(1)
        endpoint = build_endpoint(fabric.create_transport(0))
        comm = Comm(endpoint, Group([0]), context=0, thread_level=thread_level)
        return World(comm, endpoint, fabric)

    rank = int(os.environ[ENV_RANK])
    size = int(os.environ[ENV_SIZE])
    return _assemble_world(_wire_from_env(rank, size), size, thread_level)


def run_on_threads(
    n: int,
    fn: Callable[[Comm], Any],
    thread_level: int = C.THREAD_MULTIPLE,
    timeout: float | None = 120.0,
    fault_plan=None,
    reliable: bool = False,
    tolerate_crashes: bool = False,
    groups: str | None = None,
) -> list[Any]:
    """Run ``fn(comm)`` on ``n`` ranks-as-threads; return per-rank results.

    Any rank raising propagates the first exception (by rank order) to the
    caller after all threads have been joined, so failures in collective
    code surface as test failures rather than hangs.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) wraps every rank's
    transport in the deterministic fault injector — the chaos-test path
    for the threads fabric.  Scheduled crashes should use ``mode="raise"``
    here: a hard exit would take the whole test process down.

    ``reliable`` stacks the ack/retransmit layer outside the injector
    (app → reliable → faulty → fabric), absorbing injected drops,
    duplicates, and truncations.  ``tolerate_crashes`` makes an injected
    rank crash non-fatal to the harness: the crashed rank's peers see it
    via the fabric's failure notification (as they would see a process
    death), its own :class:`~repro.faults.InjectedCrash` is not
    re-raised, and its result stays ``None`` — the ULFM recovery path
    for the threads fabric.

    ``groups`` (a ``--groups``-style spec, or the ``OMBPY_GROUPS`` env
    as fallback) attaches a node-group map to every endpoint, switching
    eligible collectives to their hierarchical two-level algorithms —
    the threads-fabric way to exercise the topology layer.
    """
    from .topology import group_map_from_env, parse_groups

    group_map = (
        parse_groups(groups, n) if groups else group_map_from_env(n)
    )
    fabric = InprocFabric(n)
    endpoints = [
        build_endpoint(
            fabric.create_transport(r), fault_plan=fault_plan,
            reliable=reliable, group_map=group_map,
        )
        for r in range(n)
    ]
    group = Group(list(range(n)))
    comms = [
        Comm(ep, group, context=0, thread_level=thread_level)
        for ep in endpoints
    ]
    results: list[Any] = [None] * n
    errors: list[BaseException | None] = [None] * n

    def runner(r: int) -> None:
        try:
            results[r] = fn(comms[r])
        except BaseException as exc:  # noqa: BLE001 - propagated below
            errors[r] = exc
            if type(exc).__name__ == "InjectedCrash":
                # The thread analogue of a process death: peers find out
                # through the fabric, as they would through EOF.
                fabric.mark_rank_failed(
                    r, f"rank {r} crashed (injected fault: {exc})"
                )

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"rank-{r}", daemon=True)
        for r in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    alive = [t for t in threads if t.is_alive()]
    if alive:
        # A rank that raised leaves its peers blocked; the root cause is
        # that error, not the resulting timeout — surface it first.
        for err in errors:
            if err is not None:
                raise err
        raise TimeoutError(
            f"{len(alive)} rank thread(s) still running after {timeout}s: "
            f"{[t.name for t in alive]} (likely a collective mismatch)"
        )
    for ep in endpoints:
        _dump_telemetry(ep)
        ep.close()
    fabric.close()
    for err in errors:
        if err is not None:
            if tolerate_crashes and type(err).__name__ == "InjectedCrash":
                continue
            raise err
    return results


def run_on_processes(
    n: int,
    script: str,
    args: list[str] | None = None,
    timeout: float = 300.0,
) -> int:
    """Launch ``script`` under the process launcher; return its exit code."""
    from .launcher import launch

    return launch(n, [script] + (args or []), timeout=timeout)
