"""The runtime MPI verifier (``repro.analysis.verify``).

All fixtures run on the threads transport, where ranks share one
cross-rank state and wait-for-graph deadlock detection is exact.  The
key property throughout: buggy programs that would otherwise *hang*
instead raise a bounded, descriptive diagnostic.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.analysis import (
    CollectiveMismatchError,
    CountMismatchError,
    DeadlockError,
    PendingOperationError,
    verify,
)
from repro.bindings.comm_api import Comm as BindingsComm
from repro.mpi import ops
from repro.mpi.world import run_on_threads

FAST = dict(grace=0.1, op_timeout=5.0)


class TestDeadlockDetection:
    def test_head_to_head_recv_raises_not_hangs(self):
        """The classic 2-rank deadlock: both ranks block in recv."""

        def body(comm):
            with verify(comm, **FAST):
                comm.recv_bytes(1 - comm.rank, 7, 64)

        start = time.monotonic()
        with pytest.raises(DeadlockError) as excinfo:
            run_on_threads(2, body, timeout=30)
        elapsed = time.monotonic() - start
        # Bounded: detection is driven by `grace`, not op_timeout.
        assert elapsed < 10
        msg = str(excinfo.value)
        # The diagnostic names both ranks and their pending operations.
        assert "rank 0" in msg and "rank 1" in msg
        assert "recv(source=1, tag=7" in msg
        assert "recv(source=0, tag=7" in msg

    def test_three_rank_cycle(self):
        """0 waits on 1 waits on 2 waits on 0."""

        def body(comm):
            with verify(comm, **FAST):
                comm.recv_bytes((comm.rank + 1) % 3, 0, 64)

        with pytest.raises(DeadlockError) as excinfo:
            run_on_threads(3, body, timeout=30)
        msg = str(excinfo.value)
        assert "rank 0" in msg and "rank 1" in msg and "rank 2" in msg

    def test_timeout_escalation_without_cycle(self):
        """A rank waiting on a peer that exited cleanly has no wait-for
        cycle; the per-op timeout still converts the hang into an error."""

        def body(comm):
            with verify(comm, grace=0.1, op_timeout=0.5):
                if comm.rank == 0:
                    comm.recv_bytes(1, 9, 64)

        with pytest.raises(DeadlockError, match="rank 0"):
            run_on_threads(2, body, timeout=30)

    def test_blocked_scatter_is_named(self):
        """A receive blocked inside scatter names the collective, like
        every other collective's internal tag."""

        def body(comm):
            with verify(comm, **FAST):
                if comm.rank == 0:
                    comm.recv_bytes(1, 7, 64)  # the root never scatters
                else:
                    comm.scatter_bytes(None, 0)

        with pytest.raises(DeadlockError) as excinfo:
            run_on_threads(2, body, timeout=30)
        assert "in collective 'scatter'" in str(excinfo.value)

    def test_ping_pong_not_a_false_positive(self):
        """Alternating blocking traffic momentarily looks like mutual
        waiting; the done()-recheck must keep it clean."""

        def body(comm):
            peer = 1 - comm.rank
            with verify(comm, **FAST) as v:
                for i in range(50):
                    if comm.rank == 0:
                        comm.send_bytes(b"x" * 8, peer, i)
                        comm.recv_bytes(peer, i, 8)
                    else:
                        comm.recv_bytes(peer, i, 8)
                        comm.send_bytes(b"y" * 8, peer, i)
                return v.findings

        results = run_on_threads(2, body, timeout=60)
        assert results == [[], []]


class TestCollectiveMismatch:
    def test_bcast_root_mismatch(self):
        def body(comm):
            with verify(comm, **FAST):
                # A root-only bcast never blocks, so a leading barrier
                # keeps both ranks inside one verify session; then every
                # rank names itself as root (and so supplies a payload)
                # — the disagreement is the bug under test.
                comm.barrier()
                comm.bcast_bytes(b"x", root=comm.rank)

        with pytest.raises((CollectiveMismatchError, DeadlockError)) as exc:
            run_on_threads(2, body, timeout=30)
        # The shared ledger catches the root disagreement by name.
        if isinstance(exc.value, CollectiveMismatchError):
            assert "bcast" in str(exc.value)
            assert "root" in str(exc.value)

    def test_different_collectives_same_slot(self):
        def body(comm):
            with verify(comm, **FAST):
                if comm.rank == 0:
                    comm.barrier()
                else:
                    comm.bcast_bytes(None, root=0)

        with pytest.raises((CollectiveMismatchError, DeadlockError)):
            run_on_threads(2, body, timeout=30)

    def test_reduce_op_mismatch(self):
        def body(comm):
            op = ops.SUM if comm.rank == 0 else ops.MAX
            with verify(comm, **FAST):
                comm.allreduce_array(np.ones(4), op)

        with pytest.raises((CollectiveMismatchError, DeadlockError)) as exc:
            run_on_threads(2, body, timeout=30)
        if isinstance(exc.value, CollectiveMismatchError):
            assert "allreduce" in str(exc.value)

    def test_matching_collectives_clean(self):
        def body(comm):
            with verify(comm, **FAST) as v:
                comm.barrier()
                comm.bcast_bytes(b"abc" if comm.rank == 0 else None, root=0)
                comm.allreduce_array(np.ones(8), ops.SUM)
                comm.barrier()
                return v.findings

        results = run_on_threads(4, body, timeout=60)
        assert all(f == [] for f in results)


class TestCountMismatch:
    def test_short_receive_strict_raises(self):
        def body(comm):
            b = BindingsComm(comm)
            with verify(comm, **FAST):
                if comm.rank == 0:
                    b.Send(np.zeros(4, dtype="f8"), 1)
                else:
                    b.Recv(np.zeros(8, dtype="f8"), 0)

        with pytest.raises(CountMismatchError, match="32 bytes"):
            run_on_threads(2, body, timeout=30)

    def test_short_receive_nonstrict_records(self):
        def body(comm):
            b = BindingsComm(comm)
            with verify(comm, grace=0.1, op_timeout=5.0, strict=False) as v:
                if comm.rank == 0:
                    b.Send(np.zeros(4, dtype="f8"), 1)
                else:
                    b.Recv(np.zeros(8, dtype="f8"), 0)
                comm.barrier()
                return [f.rule for f in v.findings]

        results = run_on_threads(2, body, timeout=30)
        assert results[0] == []
        assert results[1] == ["OMB101"]

    def test_exact_receive_clean(self):
        def body(comm):
            b = BindingsComm(comm)
            with verify(comm, **FAST) as v:
                if comm.rank == 0:
                    b.Send(np.arange(8, dtype="f8"), 1)
                else:
                    buf = np.zeros(8, dtype="f8")
                    b.Recv(buf, 0)
                    assert buf[7] == 7.0
                return v.findings

        results = run_on_threads(2, body, timeout=30)
        assert results == [[], []]


class TestFinalizeLeaks:
    def test_unmatched_irecv_raises_at_exit(self):
        def body(comm):
            with verify(comm, **FAST):
                if comm.rank == 0:
                    comm.irecv_bytes(1, 3, 64)
                comm.barrier()

        with pytest.raises(PendingOperationError) as excinfo:
            run_on_threads(2, body, timeout=30)
        assert "pending at finalize" in str(excinfo.value)
        assert "tag=3" in str(excinfo.value)

    def test_completed_irecv_clean(self):
        def body(comm):
            with verify(comm, **FAST) as v:
                if comm.rank == 0:
                    ticket = comm.irecv_bytes(1, 3, 64)
                    ticket.wait(5.0)
                else:
                    comm.send_bytes(b"done", 0, 3)
                comm.barrier()
                return v.findings

        results = run_on_threads(2, body, timeout=30)
        assert results == [[], []]


class TestCleanTraffic:
    def test_mixed_workload_passes(self):
        """Representative benchmark-shaped traffic is undisturbed."""

        def body(comm):
            with verify(comm, **FAST) as v:
                if comm.rank == 0:
                    comm.send_bytes(b"hello", 1, 5)
                elif comm.rank == 1:
                    got, _status = comm.recv_bytes(0, 5, 16)
                    assert got == b"hello"
                comm.barrier()
                out = comm.allreduce_array(np.ones(16), ops.SUM)
                assert out[0] == comm.size
                return v.findings

        results = run_on_threads(4, body, timeout=60)
        assert all(f == [] for f in results)

    def test_sequential_verify_sessions_do_not_leak_state(self):
        """The collective ledger must reset between verified regions."""

        def body(comm):
            with verify(comm, **FAST):
                comm.barrier()
            # Second session re-registers on the same fabric; a stale
            # ledger entry would mis-flag this barrier as call #0 again.
            with verify(comm, **FAST) as v:
                comm.bcast_bytes(b"x" if comm.rank == 0 else None, root=0)
                return v.findings

        results = run_on_threads(2, body, timeout=30)
        assert results == [[], []]


class TestRunnerIntegration:
    def test_validate_flag_runs_benchmark_under_verifier(self):
        from repro.core import Options, get_benchmark
        from repro.core.runner import BenchContext

        bench = get_benchmark("osu_latency")
        opts = Options(
            min_size=1, max_size=64, iterations=2, warmup=1, validate=True
        )
        tables = run_on_threads(
            2, lambda c: bench.run(BenchContext(c, opts)), timeout=60
        )
        assert all(r.value > 0 for r in tables[0].rows)

    def test_validate_collective_benchmark(self):
        from repro.core import Options, get_benchmark
        from repro.core.runner import BenchContext

        bench = get_benchmark("osu_allreduce")
        opts = Options(
            min_size=4, max_size=64, iterations=2, warmup=1, validate=True
        )
        tables = run_on_threads(
            4, lambda c: bench.run(BenchContext(c, opts)), timeout=60
        )
        assert all(r.value > 0 for r in tables[0].rows)


class TestResolveTargets:
    def test_accepts_bindings_comm(self):
        def body(comm):
            b = BindingsComm(comm)
            with verify(b, **FAST) as v:
                b.Barrier()
                return v.findings

        assert run_on_threads(2, body, timeout=30) == [[], []]

    def test_rejects_non_communicator(self):
        with pytest.raises(TypeError, match="cannot resolve"):
            with verify(object()):
                pass
