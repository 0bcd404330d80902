"""Console entry points: ``ombpy-serve`` (daemon) and ``ombpy-submit``.

``ombpy-serve`` brings up the warm rank pool and serves jobs until a
drain (SIGTERM/SIGINT or a client ``DRAIN``).  It prints one
machine-readable line once it is accepting connections::

    OMBPY-SERVE READY socket=/tmp/ombpy.sock pool=4 substrate=threads

so scripts (the CI smoke job, ``tools/chaos_smoke.py --service``) can
wait for readiness by watching stdout instead of sleeping.

``ombpy-submit`` is the client: ``submit`` a benchmark or sleep job,
``status`` (health probe), ``result`` (optionally blocking), ``cancel``,
``drain``.  Each failure mode gets a distinct, documented exit code
(table in ``docs/service.md``) so shell pipelines and the campaign
driver can branch on *why* a job died without parsing stderr:

====  =======================================================
code  meaning
====  =======================================================
0     success (``DONE`` for awaited jobs)
1     job failed (application error past the retry cap)
2     usage or connection error
3     rejected by admission control (queue full / draining /
      pool too degraded)
4     per-job wall-clock deadline exceeded
5     rank failure (pool lost ranks; includes collateral and
      pool-degraded failures)
6     cancelled
====  =======================================================
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from .client import ServiceClient, ServiceError
from .protocol import (
    CANCELLED, DEADLINE, DONE, FAILED, KIND_BENCHMARK, KIND_SLEEP,
    REJECTED, JobSpec, TERMINAL_STATES, table_from_wire,
)
from .config import ServiceConfig

DEFAULT_SOCKET = "/tmp/ombpy-service.sock"

#: ``ombpy-submit`` exit codes, one per failure mode (see module
#: docstring and docs/service.md).
EXIT_DONE = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_DEADLINE = 4
EXIT_RANK_FAILURE = 5
EXIT_CANCELLED = 6

#: Server-side failure kinds that count as rank failures for the exit
#: code: the pool (not the application) is what broke.
_RANK_FAILURE_KINDS = (
    "rank_failure", "collateral", "pool_degraded", "pool_lost",
)


def exit_code_for(job: dict) -> int:
    """Map a terminal job record to its documented exit code."""
    state = job.get("state")
    if state == DONE:
        return EXIT_DONE
    if state == DEADLINE:
        return EXIT_DEADLINE
    if state == CANCELLED:
        return EXIT_CANCELLED
    if state == FAILED and job.get("failure_kind") in _RANK_FAILURE_KINDS:
        return EXIT_RANK_FAILURE
    return EXIT_FAILED


def _tcp_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}"
        )
    return host, int(port)


# ---------------------------------------------------------------------------
# ombpy-serve
# ---------------------------------------------------------------------------
def serve_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ombpy-serve",
        description="benchmark-as-a-service daemon: a persistent warm "
        "rank pool with admission control, deadlines, and ULFM-backed "
        "degraded-mode serving",
    )
    parser.add_argument("--pool-size", type=int, default=4,
                        help="ranks in the warm pool (default 4)")
    parser.add_argument("--pool", choices=("threads", "process"),
                        default="threads",
                        help="pool substrate: in-process rank threads "
                        "(concurrent jobs) or spawned rank processes "
                        "(true process-death fault coverage)")
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help=f"UDS listen path (default {DEFAULT_SOCKET})")
    parser.add_argument("--tcp", type=_tcp_addr, default=None,
                        metavar="HOST:PORT", help="listen on TCP instead")
    parser.add_argument("--transport", choices=("tcp", "uds", "shm"),
                        default="tcp",
                        help="rank transport for --pool process")
    parser.add_argument("--faults", default=None, metavar="PLAN.json",
                        help="fault-plan file injected into the pool "
                        "transports (threads pool)")
    parser.add_argument("--fault-seed", type=int, default=None,
                        help="seeded chaos mix for the pool transports")
    parser.add_argument("--reliable", action="store_true",
                        help="stack the reliable-delivery layer on the "
                        "pool transports")
    parser.add_argument("--queue-depth", type=int, default=None,
                        help="max queued jobs before SUBMIT is rejected "
                        "(overrides OMBPY_SERVICE_QUEUE_DEPTH)")
    parser.add_argument("--default-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="default per-job wall-clock deadline "
                        "(overrides OMBPY_SERVICE_DEADLINE_S)")
    parser.add_argument("--retry-max", type=int, default=None,
                        help="retry cap for rank-failure jobs "
                        "(overrides OMBPY_SERVICE_RETRY_MAX)")
    parser.add_argument("--drain-grace", type=float, default=None,
                        metavar="SECONDS",
                        help="drain grace before forced shutdown "
                        "(overrides OMBPY_SERVICE_DRAIN_GRACE_S)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write merged service+pool telemetry JSON "
                        "here on shutdown")
    args = parser.parse_args(argv)

    try:
        config = ServiceConfig.from_env(
            queue_depth=args.queue_depth,
            default_deadline_s=args.default_deadline,
            retry_max=args.retry_max,
            drain_grace_s=args.drain_grace,
        )
    except ValueError as exc:
        print(f"ombpy-serve: {exc}", file=sys.stderr)
        return 2

    fault_plan = None
    if args.faults:
        from ..faults import FaultPlan

        try:
            with open(args.faults, encoding="utf-8") as fh:
                fault_plan = FaultPlan.from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"ombpy-serve: bad fault plan: {exc}", file=sys.stderr)
            return 2
    elif args.fault_seed is not None:
        from ..faults import FaultPlan

        fault_plan = FaultPlan.chaos(args.fault_seed)

    from .server import BenchmarkService

    pool = None
    if args.pool == "process":
        if fault_plan is not None:
            print("ombpy-serve: --faults/--fault-seed apply to the "
                  "threads pool; use OMBPY_FAULTS for process ranks",
                  file=sys.stderr)
            return 2
        from .procpool import ProcessRankPool

        env_extra = {}
        if args.reliable:
            from ..knobs import RELIABLE

            env_extra[RELIABLE.name] = "1"
        try:
            pool = ProcessRankPool(
                args.pool_size, transport=args.transport,
                env_extra=env_extra,
            )
        except (OSError, TimeoutError, ValueError) as exc:
            print(f"ombpy-serve: pool startup failed: {exc}",
                  file=sys.stderr)
            return 1

    socket_path = args.socket
    if args.tcp is None and socket_path is None:
        socket_path = DEFAULT_SOCKET
    try:
        service = BenchmarkService(
            pool_size=args.pool_size,
            config=config,
            socket_path=socket_path,
            tcp=args.tcp,
            pool=pool,
            fault_plan=fault_plan,
            reliable=args.reliable,
            metrics_out=args.metrics_out,
        )
    except (OSError, ValueError) as exc:
        print(f"ombpy-serve: {exc}", file=sys.stderr)
        if pool is not None:
            pool.stop()
        return 1

    def _drain(signum, frame):  # noqa: ARG001 - signal signature
        # Re-entering drain is safe (idempotent); do the minimum in the
        # handler and let the control loop finish the shutdown.
        threading.Thread(target=service.drain, daemon=True).start()

    old_term = signal.signal(signal.SIGTERM, _drain)
    old_int = signal.signal(signal.SIGINT, _drain)
    try:
        service.start()
        addr = service.address
        where = (f"socket={addr}" if isinstance(addr, str)
                 else f"tcp={addr[0]}:{addr[1]}")
        substrate = service.pool.describe()["substrate"]
        print(f"OMBPY-SERVE READY {where} pool={args.pool_size} "
              f"substrate={substrate}", flush=True)
        service.serve_forever()
    finally:
        service.stop()
        signal.signal(signal.SIGTERM, old_term)
        signal.signal(signal.SIGINT, old_int)
    return 0


# ---------------------------------------------------------------------------
# ombpy-submit
# ---------------------------------------------------------------------------
def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--socket", default=None, metavar="PATH",
                        help=f"daemon UDS path (default {DEFAULT_SOCKET})")
    parser.add_argument("--tcp", type=_tcp_addr, default=None,
                        metavar="HOST:PORT", help="daemon TCP address")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="client-side timeout, seconds (default 30)")


def _client(args) -> ServiceClient:
    if args.tcp is not None:
        return ServiceClient(tcp=args.tcp, timeout=args.timeout)
    return ServiceClient(socket_path=args.socket or DEFAULT_SOCKET,
                         timeout=args.timeout)


def _print_job(job: dict) -> None:
    state = job["state"]
    line = f"{job['job_id']}: {state}"
    if job.get("attempts", 0) > 1:
        line += f" (attempt {job['attempts']})"
    if job.get("error"):
        line += f" — {job['error']}"
    print(line)
    result = job.get("result")
    if state == DONE and isinstance(result, dict) and "rows" in result:
        from ..core.output import print_table

        print_table(table_from_wire(result))
    elif state == DONE and result is not None:
        print(result)


def submit_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ombpy-submit",
        description="client for the ombpy-serve benchmark service",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_status = sub.add_parser("status", help="service health probe")
    _add_endpoint_args(p_status)

    p_submit = sub.add_parser("submit", help="submit a job")
    _add_endpoint_args(p_submit)
    p_submit.add_argument("benchmark", nargs="?", default="osu_latency",
                          help="benchmark registry name")
    p_submit.add_argument("--ranks", type=int, default=2)
    p_submit.add_argument("-m", "--message-sizes", default=None,
                          metavar="MIN:MAX")
    p_submit.add_argument("-i", "--iterations", type=int, default=None)
    p_submit.add_argument("-x", "--warmup", type=int, default=None)
    p_submit.add_argument("-b", "--buffer", default=None)
    p_submit.add_argument("--api", default=None,
                          choices=("buffer", "pickle", "native"))
    p_submit.add_argument("-W", "--window-size", type=int, default=None)
    p_submit.add_argument("--priority", type=int, default=0,
                          help="higher runs first (default 0)")
    p_submit.add_argument("--deadline", type=float, default=None,
                          metavar="SECONDS", help="per-job deadline")
    p_submit.add_argument("--retries", type=int, default=None,
                          help="per-job rank-failure retry cap")
    p_submit.add_argument("--sleep", type=float, default=None,
                          metavar="SECONDS",
                          help="submit a rank-holding sleep job instead "
                          "of a benchmark")
    p_submit.add_argument("--validate", action="store_true",
                          help="run the job under the runtime verifier")
    p_submit.add_argument("--label", default="")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job finishes and print "
                          "its result")

    p_result = sub.add_parser("result", help="fetch a job's outcome")
    _add_endpoint_args(p_result)
    p_result.add_argument("job_id")
    p_result.add_argument("--wait", action="store_true")

    p_cancel = sub.add_parser("cancel", help="cancel a job")
    _add_endpoint_args(p_cancel)
    p_cancel.add_argument("job_id")

    p_drain = sub.add_parser("drain", help="ask the daemon to drain")
    _add_endpoint_args(p_drain)

    args = parser.parse_args(argv)
    try:
        with _client(args) as client:
            return _dispatch(client, args)
    except (ConnectionError, OSError, TimeoutError) as exc:
        print(f"ombpy-submit: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ServiceError as exc:
        print(f"ombpy-submit: {exc}", file=sys.stderr)
        if exc.reply.get("reply") == REJECTED:
            return EXIT_REJECTED
        return EXIT_FAILED


def _dispatch(client: ServiceClient, args) -> int:
    if args.command == "status":
        status = client.status()
        pool = status["pool"]
        print(f"state={status['state']} substrate={pool['substrate']} "
              f"pool={pool['live']}/{pool['size']} "
              f"failed={pool['failed_ranks']} "
              f"queue={status['queue_depth']} "
              f"running={status['running']} "
              f"uptime={status['uptime_s']}s")
        for state, count in sorted(status.get("jobs", {}).items()):
            print(f"  jobs.{state}={count}")
        return 0

    if args.command == "submit":
        if args.sleep is not None:
            spec = JobSpec(
                kind=KIND_SLEEP, ranks=args.ranks, seconds=args.sleep,
                priority=args.priority, deadline_s=args.deadline,
                max_retries=args.retries, label=args.label,
            )
        else:
            options: dict = {}
            if args.message_sizes:
                lo, _, hi = args.message_sizes.partition(":")
                options["min_size"] = int(lo)
                options["max_size"] = int(hi) if hi else int(lo)
            if args.iterations is not None:
                options["iterations"] = args.iterations
            if args.warmup is not None:
                options["warmup"] = args.warmup
            if args.buffer is not None:
                options["buffer"] = args.buffer
            if args.api is not None:
                options["api"] = args.api
            if args.window_size is not None:
                options["window_size"] = args.window_size
            spec = JobSpec(
                kind=KIND_BENCHMARK, benchmark=args.benchmark,
                ranks=args.ranks, options=options,
                priority=args.priority, deadline_s=args.deadline,
                max_retries=args.retries, validate=args.validate,
                label=args.label,
            )
        job_id = client.submit(spec)
        if not args.wait:
            print(job_id)
            return EXIT_DONE
        job = client.result(job_id, wait=True, timeout=args.timeout)
        _print_job(job)
        return exit_code_for(job)

    if args.command == "result":
        if args.wait:
            job = client.result(args.job_id, wait=True,
                                timeout=args.timeout)
        else:
            job = client.job(args.job_id)
            if job["state"] not in TERMINAL_STATES:
                print(f"{job['job_id']}: {job['state']}")
                return EXIT_FAILED
        _print_job(job)
        return exit_code_for(job)

    if args.command == "cancel":
        job = client.cancel(args.job_id)
        _print_job(job)
        return 0

    if args.command == "drain":
        client.drain()
        print("draining")
        return 0

    raise AssertionError(f"unhandled command {args.command!r}")
