"""World lifecycle and process-launch wrappers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi import constants as C
from repro.mpi import ops
from repro.mpi.world import init, run_on_processes, run_on_threads


class TestWorldLifecycle:
    def test_context_manager_finalizes(self, monkeypatch):
        from repro.knobs import ENV_RANK

        monkeypatch.delenv(ENV_RANK, raising=False)
        with init() as world:
            assert world.rank == 0 and world.size == 1
            world.comm.barrier()
        # After the with-block, the fabric is closed (self-sends bypass
        # the fabric, so probe the closed flag directly).
        assert world._fabric is not None
        assert world._fabric._closed
        world.finalize()  # idempotent

    def test_thread_level_propagates(self, monkeypatch):
        from repro.knobs import ENV_RANK

        monkeypatch.delenv(ENV_RANK, raising=False)
        world = init(thread_level=C.THREAD_SINGLE)
        try:
            assert world.comm.thread_level == C.THREAD_SINGLE
        finally:
            world.finalize()

    def test_run_on_threads_returns_in_rank_order(self):
        results = run_on_threads(5, lambda c: c.rank * 10)
        assert results == [0, 10, 20, 30, 40]

    def test_every_entry_path_stacks_reliable_over_faulty_over_wire(
        self, monkeypatch
    ):
        """One stack order (``build_endpoint``), whoever assembles it."""
        import os

        from repro import knobs
        from repro.faults import FaultPlan
        from repro.mpi.transport.uds import socket_dir
        from repro.service.pool import ThreadRankPool

        def chain(transport):
            names = []
            while transport is not None:
                names.append(type(transport).__name__)
                transport = getattr(transport, "inner", None)
            return names

        plan = FaultPlan.chaos(1)
        assert plan.active

        threads = run_on_threads(
            2, lambda c: chain(c.endpoint.transport),
            fault_plan=plan, reliable=True,
        )
        expected = ["ReliableTransport", "FaultyTransport", "InprocTransport"]
        assert threads == [expected, expected]

        pool = ThreadRankPool(2, fault_plan=plan, reliable=True)
        try:
            assert [chain(e.transport) for e in pool._endpoints] \
                == [expected, expected]
        finally:
            pool.stop()

        # The launcher path, as a one-rank uds world in this process.
        job = f"stack-order-{os.getpid()}"
        for name, value in (
            (knobs.ENV_RANK, "0"), (knobs.ENV_SIZE, "1"),
            (knobs.ENV_TRANSPORT, "uds"), (knobs.ENV_JOB, job),
            (knobs.ENV_FAULT_SEED, "1"), (knobs.RELIABLE.name, "1"),
        ):
            monkeypatch.setenv(name, value)
        try:
            with init() as world:
                assert chain(world.endpoint.transport) == [
                    "ReliableTransport", "FaultyTransport", "UdsTransport",
                ]
                assert world.endpoint.transport.innermost().detector \
                    is not None
        finally:
            os.rmdir(socket_dir(job))   # the launcher's job, normally


@pytest.mark.slow
class TestTcpRendezvous:
    def test_coordinator_hanging_up_early_is_reported(self, monkeypatch):
        """A coordinator that closes before the port map's newline fails
        the rank with a named error, not a hang or a JSON error."""
        import socket
        import threading

        from repro.knobs import ENV_COORD, ENV_TRANSPORT
        from repro.mpi.exceptions import InternalError
        from repro.mpi.world import _wire_from_env

        server = socket.create_server(("127.0.0.1", 0))

        def coordinator():
            conn, _ = server.accept()
            with conn:
                conn.recv(64)
                conn.sendall(b'{"0": 1')  # truncated: no newline

        thread = threading.Thread(target=coordinator)
        thread.start()
        monkeypatch.setenv(ENV_TRANSPORT, "tcp")
        monkeypatch.setenv(
            ENV_COORD, f"127.0.0.1:{server.getsockname()[1]}"
        )
        try:
            with pytest.raises(
                InternalError, match="coordinator closed during rendezvous"
            ):
                _wire_from_env(0, 1)
        finally:
            thread.join(10)
            server.close()


class TestRunOnProcesses:
    def test_wrapper_launches_script(self, tmp_path):
        script = tmp_path / "job.py"
        script.write_text(
            "from repro.mpi import init\n"
            "w = init()\n"
            "assert w.size == 2\n"
            "w.comm.barrier()\n"
            "w.finalize()\n"
        )
        assert run_on_processes(2, str(script), timeout=120) == 0

    def test_wrapper_passes_args(self, tmp_path):
        script = tmp_path / "job.py"
        script.write_text(
            "import sys\n"
            "from repro.mpi import init\n"
            "w = init()\n"
            "assert sys.argv[1] == 'expected-arg'\n"
            "w.finalize()\n"
        )
        assert run_on_processes(
            2, str(script), args=["expected-arg"], timeout=120
        ) == 0


class TestSplitProperties:
    @given(
        st.integers(2, 6),
        st.lists(st.integers(0, 2), min_size=6, max_size=6),
    )
    @settings(max_examples=15, deadline=None)
    def test_split_partitions_communicator(self, n, colors):
        """Split colors partition the ranks: sub-sizes sum to n, each
        rank's sub-communicator matches its color group, and a
        collective on each part sees exactly its members."""
        def work(comm):
            color = colors[comm.rank]
            sub = comm.Split(color, comm.rank)
            total = sub.allreduce_array(np.array([1.0]), ops.SUM)
            members = [
                r for r in range(comm.size) if colors[r] == color
            ]
            assert sub.size == len(members)
            assert total[0] == len(members)
            # Rank within the part follows world order (key = rank).
            assert sub.rank == members.index(comm.rank)
            return sub.size

        sizes = run_on_threads(n, work)
        assert sum(1 for _ in sizes) == n
