"""The endpoint's observer seam with every tool attached at once.

The runtime verifier, the race sanitizer, telemetry and a ``TraceLog``
all observe one endpoint through ``Endpoint.attach``; none of them may
disturb the others' view of the same traffic.
"""

import sys
import threading
from contextlib import ExitStack

import numpy as np
import pytest

from repro.analysis import WriteAfterPostError, sanitize, verify
from repro.bindings.comm_api import Comm as BindingsComm
from repro.mpi import Endpoint, ops
from repro.mpi.observer import Observer
from repro.mpi.trace import TraceLog, traced
from repro.mpi.transport.inproc import InprocFabric
from repro.mpi.world import run_on_threads

FAST = dict(grace=0.1, op_timeout=10.0)


@pytest.fixture
def metrics_env(monkeypatch):
    monkeypatch.setenv("OMBPY_METRICS", "1")


def _sent(tele) -> int:
    return tele.snapshot()["metrics"]["counters"].get("comm.msgs_sent", 0)


def _traffic(comm):
    """An Isend/Irecv ping-pong between rank pairs, a Bcast and an
    allreduce_array, each checked."""
    b = BindingsComm(comm)
    peer = comm.rank ^ 1
    sbuf = np.full(32, comm.rank, dtype="u1")
    rbuf = np.zeros(32, dtype="u1")
    for i in range(5):
        rreq = b.Irecv(rbuf, peer, i)
        sreq = b.Isend(sbuf, peer, i)
        sreq.wait()
        rreq.Wait()
        assert rbuf[0] == peer
    data = np.arange(16, dtype="u1") * (comm.rank == 0)
    b.Bcast(data, root=0)
    assert data[15] == 15
    total = comm.allreduce_array(np.full(8, comm.rank + 1.0), ops.SUM)
    assert total[0] == 10.0


@pytest.mark.parametrize("reverse", [False, True], ids=["tele-last",
                                                        "tele-first"])
def test_all_four_tools_observe_one_run(metrics_env, reverse):
    log = TraceLog()

    def body(comm):
        ep = comm.endpoint
        tele = ep.telemetry
        tools = [
            lambda: verify(comm, **FAST),
            lambda: sanitize(comm),
            lambda: traced(comm, log),
        ]
        if reverse:
            tools.reverse()
        with ExitStack() as stack:
            attached = [stack.enter_context(make()) for make in tools]
            assert len(ep.observers) == 4
            before = _sent(tele)
            _traffic(comm)
            sent = _sent(tele) - before
            if reverse:
                ep.detach(tele)
        if not reverse:
            ep.detach(tele)
        findings = [
            f for tool in attached if tool is not log for f in tool.findings
        ]
        return sent, findings, ep.observers

    results = run_on_threads(4, body, timeout=60)
    assert sum(sent for sent, _f, _o in results) == log.message_count(
        include_self=True
    )
    assert [findings for _s, findings, _o in results] == [[]] * 4
    assert [observers for _s, _f, observers in results] == [()] * 4


def test_write_after_isend_raises_with_telemetry_attached(metrics_env):
    def body(comm):
        assert comm.endpoint.telemetry is not None
        b = BindingsComm(comm)
        buf = np.zeros(64, dtype="u1")
        with sanitize(comm):
            if comm.rank == 0:
                req = b.Isend(buf, 1, 7)
                buf[0] = 99  # ombpy-lint: ignore[OMB007]
                req.wait()
            elif comm.rank == 1:
                b.Recv(buf, 0, 7)

    with pytest.raises(WriteAfterPostError, match="'Isend'"):
        run_on_threads(4, body, timeout=30)


class _Forwarding:
    """An engine decorator that forwards reads; writes land on itself
    (the shape of ``perf/spans.SpanEngine``)."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_tools_attached_after_an_engine_wrapper_still_observe():
    def body(comm):
        ep = comm.endpoint
        ep.engine = _Forwarding(ep.engine)
        ep.transport.innermost().attach(ep.engine)
        comm.barrier()
        with traced(comm) as log:
            peer = comm.rank ^ 1
            for i in range(3):
                if comm.rank < peer:
                    comm.send_bytes(b"x" * 8, peer, i)
                    comm.recv_bytes(peer, i, 8)
                else:
                    comm.recv_bytes(peer, i, 8)
                    comm.send_bytes(b"x" * 8, peer, i)
        return len(log.receives()), len(log.completions())

    assert run_on_threads(2, body, timeout=30) == [(3, 3), (3, 3)]


def test_concurrent_attach_detach_loses_no_tool():
    """Concurrent jobs attach their tools to one shared endpoint (the
    service's warm pool does): no attach or detach may be lost."""
    endpoint = Endpoint(InprocFabric(1).create_transport(0))
    kept = [[Observer() for _ in range(40)] for _ in range(8)]

    def churn(tools):
        for tool in tools:
            endpoint.attach(tool)
            passing = Observer()
            endpoint.attach(passing)
            endpoint.detach(passing)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=churn, args=(t,)) for t in kept]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert {id(o) for o in endpoint.observers} == {
        id(o) for tools in kept for o in tools
    }
    assert len(endpoint.observers) == 8 * 40
