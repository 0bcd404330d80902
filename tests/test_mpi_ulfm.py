"""ULFM-style recovery: revoke, shrink, agree, and recovery harnesses.

All on the threads transport, where an injected crash (``mode="raise"``)
is the analogue of a process death: the fabric notifies every survivor,
exactly as EOF does on the process transports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import PeerFailedError, verify
from repro.faults import CrashSpec, FaultPlan
from repro.mpi import ops, ulfm
from repro.mpi.exceptions import CommError, CommRevokedError, RankFailedError
from repro.mpi.matching import Envelope, MatchingEngine
from repro.mpi.world import run_on_threads

#: Failure modes a survivor may observe for a crashed peer: the engine's
#: sticky failure, a revoked context, or (under the runtime verifier)
#: the verifier's own cross-rank failure propagation — whichever races
#: ahead.
FAILURES = (RankFailedError, CommRevokedError, PeerFailedError)


def crash_plan(rank: int, at_op: int, seed: int = 0) -> FaultPlan:
    return FaultPlan(
        seed=seed, crash=CrashSpec(rank=rank, at_op=at_op, mode="raise")
    )


def allreduce_sum(comm, value: float) -> float:
    return float(comm.allreduce_array(np.array([value]), ops.SUM)[0])


def allreduce_loop(comm, value: float, rounds: int = 4) -> float:
    """Several allreduces in sequence.

    A single collective can *succeed* on some survivors even though a
    member crashed mid-way (its contribution may already be in flight) —
    the canonical ULFM motivation.  Repeating the collective guarantees
    every survivor eventually observes the failure, so all of them enter
    the recovery path together.
    """
    total = allreduce_sum(comm, value)
    for _ in range(rounds - 1):
        total = allreduce_sum(comm, value)
    return total


class TestEngineRevocation:
    """The matching-engine half of revoke, without any transport."""

    def test_posted_receive_fails_promptly(self):
        engine = MatchingEngine()
        ticket = engine.post_recv(7, 1, 0, 64)
        assert engine.revoke_context(7)
        with pytest.raises(CommRevokedError):
            ticket.wait(5)

    def test_future_receive_fails_and_deliveries_dropped(self):
        engine = MatchingEngine()
        engine.revoke_context(7)
        ticket = engine.post_recv(7, 1, 0, 64)
        with pytest.raises(CommRevokedError):
            ticket.wait(5)
        engine.deliver(Envelope(7, 1, 0, 0, 3), b"xyz")
        assert engine.pending_unexpected() == 0

    def test_idempotent_and_scoped(self):
        engine = MatchingEngine()
        assert engine.revoke_context(7)
        assert not engine.revoke_context(7)  # second call is a no-op
        # Other contexts are untouched.
        engine.deliver(Envelope(9, 1, 0, 4, 2), b"ok")
        assert engine.post_recv(9, 1, 4, 64).wait(5) == b"ok"

    def test_revoke_purges_unexpected(self):
        engine = MatchingEngine()
        engine.deliver(Envelope(7, 1, 0, 0, 3), b"old")
        assert engine.pending_unexpected() == 1
        engine.revoke_context(7)
        assert engine.pending_unexpected() == 0


class TestRevoke:
    def test_revoke_unblocks_peer_receive(self):
        """A revocation reaches a peer blocked in recv and fails it."""

        def body(comm):
            if comm.rank == 0:
                comm.barrier()
                comm.revoke()
                return "revoked"
            try:
                comm.barrier()
                comm.recv_bytes(0, 99, 64)  # rank 0 will never send this
            except CommRevokedError:
                return "unblocked"

        assert run_on_threads(2, body, timeout=60) == ["revoked", "unblocked"]

    def test_operations_after_revoke_fail(self):
        def body(comm):
            comm.revoke()
            assert comm.is_revoked()
            with pytest.raises(CommRevokedError):
                comm.send_bytes(b"x", 1 - comm.rank, 0)
            return True

        assert run_on_threads(2, body, timeout=60) == [True, True]


class TestShrink:
    def test_survivors_shrink_and_continue(self):
        """After a crash, shrink() yields a working 2-rank communicator."""

        def body(comm):
            try:
                return allreduce_loop(comm, 1.0)
            except (RankFailedError, CommRevokedError):
                comm.revoke()
                small = comm.shrink()
                total = allreduce_sum(small, 1.0)
                return (total, small.size, small.rank,
                        sorted(small.Get_group().world_ranks()))

        out = run_on_threads(
            3, body, fault_plan=crash_plan(1, at_op=1),
            tolerate_crashes=True, timeout=60,
        )
        assert out[1] is None
        for survivor in (out[0], out[2]):
            total, size, _rank, world_ranks = survivor
            assert total == 2.0 and size == 2 and world_ranks == [0, 2]
        assert out[0][2] == 0 and out[2][2] == 1  # old order preserved

    def test_shrink_reports_dead_rank(self):
        def body(comm):
            try:
                return allreduce_loop(comm, 1.0)
            except (RankFailedError, CommRevokedError):
                comm.revoke()
                small = comm.shrink()
                return (sorted(comm.failed_ranks()), small.size)

        out = run_on_threads(
            3, body, fault_plan=crash_plan(1, at_op=1),
            tolerate_crashes=True, timeout=60,
        )
        for survivor in (out[0], out[2]):
            dead, size = survivor
            assert 1 in dead and size == 2

    def test_shrink_without_failure_is_identity_membership(self):
        """Shrinking a healthy communicator keeps everyone."""

        def body(comm):
            small = comm.shrink()
            return (small.size, small.rank, allreduce_sum(small, 1.0))

        out = run_on_threads(3, body, timeout=60)
        assert out == [(3, 0, 3.0), (3, 1, 3.0), (3, 2, 3.0)]

    def test_no_leaked_requests_after_mid_collective_crash(self):
        """Satellite: the survivor path is verifier-clean after shrink.

        Rank 1 crashes mid-collective; the survivors revoke + shrink and
        finish under the runtime verifier.  Leaving the ``verify``
        context cleanly asserts no posted receive was leaked and no
        delivered message was stranded (it raises
        ``PendingOperationError`` otherwise).
        """

        def body(comm):
            with verify(comm, grace=0.2, op_timeout=20.0) as v:
                try:
                    allreduce_loop(comm, 2.0)
                except FAILURES:
                    comm.revoke()
                    small = comm.shrink()
                    total = allreduce_sum(small, 2.0)
                    assert total == 2.0 * small.size
                # Only peer-failure findings (OMB103) are acceptable;
                # leaks would have raised on exit.
                rules = {f.rule for f in v.findings}
            assert rules <= {"OMB103"}
            return True

        out = run_on_threads(
            3, body, fault_plan=crash_plan(1, at_op=1),
            tolerate_crashes=True, timeout=90,
        )
        assert out[0] is True and out[2] is True


class TestAgree:
    def test_unanimous_true(self):
        def body(comm):
            return comm.agree(True)

        assert run_on_threads(3, body, timeout=60) == [True, True, True]

    def test_single_false_wins(self):
        def body(comm):
            return comm.agree(comm.rank != 1)

        assert run_on_threads(3, body, timeout=60) == [False, False, False]

    def test_agree_survives_crash(self):
        def body(comm):
            try:
                allreduce_loop(comm, 1.0)
            except (RankFailedError, CommRevokedError):
                pass
            return comm.agree(True)

        out = run_on_threads(
            3, body, fault_plan=crash_plan(1, at_op=1),
            tolerate_crashes=True, timeout=60,
        )
        assert out[0] is True and out[2] is True and out[1] is None


class TestRunWithRecovery:
    def test_retries_until_success(self):
        def body(comm):
            result, final = ulfm.run_with_recovery(
                comm, lambda c: allreduce_loop(c, 1.0)
            )
            return (result, final.size)

        out = run_on_threads(
            3, body, fault_plan=crash_plan(1, at_op=1),
            tolerate_crashes=True, timeout=60,
        )
        assert out[0] == (2.0, 2) and out[2] == (2.0, 2)

    def test_healthy_run_is_passthrough(self):
        def body(comm):
            result, final = ulfm.run_with_recovery(
                comm, lambda c: allreduce_sum(c, float(c.rank))
            )
            return (result, final is comm)

        out = run_on_threads(2, body, timeout=60)
        assert out == [(1.0, True), (1.0, True)]

    def test_shrinks_to_sole_survivor(self):
        """A 2-rank job whose peer dies finishes as a singleton."""

        def body(comm):
            result, final = ulfm.run_with_recovery(
                comm, lambda c: allreduce_loop(c, 1.0)
            )
            return (result, final.size)

        out = run_on_threads(
            2, body, fault_plan=crash_plan(1, at_op=1),
            tolerate_crashes=True, timeout=60,
        )
        assert out[0] == (1.0, 1) and out[1] is None


class TestBindingsULFM:
    def test_capitalised_api(self):
        from repro.bindings.comm_api import Comm as BindingsComm

        def body(comm):
            bc = BindingsComm(comm)
            try:
                for _ in range(4):
                    total = bc.allreduce(1.0)
                return total
            except (RankFailedError, CommRevokedError):
                bc.Revoke()
                assert bc.Is_revoked()
                assert 1 in bc.Get_failed()
                small = bc.Shrink()
                return ("shrunk", small.Get_size(),
                        float(small.allreduce(1.0)))

        out = run_on_threads(
            3, body, fault_plan=crash_plan(1, at_op=1),
            tolerate_crashes=True, timeout=60,
        )
        assert out[0] == ("shrunk", 2, 2.0)
        assert out[2] == ("shrunk", 2, 2.0)


class TestFaultTolerantKmeansHPO:
    def test_curve_identical_after_crash(self):
        from repro.ml.distributed import (
            fault_tolerant_kmeans_hpo, sequential_kmeans_hpo,
        )

        rng = np.random.default_rng(0)
        X = np.concatenate(
            [rng.normal(loc, 0.3, size=(30, 2)) for loc in (0.0, 3.0, 6.0)]
        )
        expected = sequential_kmeans_hpo(X, k_max=5)

        def body(comm):
            results, final = fault_tolerant_kmeans_hpo(comm, X, k_max=5)
            return (results, final.size)

        out = run_on_threads(
            3, body, fault_plan=crash_plan(1, at_op=1),
            tolerate_crashes=True, timeout=90,
        )
        assert out[1] is None
        assert [o[1] for o in (out[0], out[2])] == [2, 2]
        results = next(o[0] for o in (out[0], out[2]) if o[0] is not None)
        assert results.keys() == expected.keys()
        for k in expected:
            assert results[k] == pytest.approx(expected[k])


class TestRecoveryTimeout:
    def test_env_validation(self, monkeypatch):
        monkeypatch.setenv("OMBPY_ULFM_TIMEOUT", "-3")
        with pytest.raises(ValueError, match="OMBPY_ULFM_TIMEOUT must be"):
            ulfm._recovery_timeout(None)

    def test_env_and_default(self, monkeypatch):
        monkeypatch.delenv("OMBPY_ULFM_TIMEOUT", raising=False)
        assert ulfm._recovery_timeout(None) == 30.0
        monkeypatch.setenv("OMBPY_ULFM_TIMEOUT", "2.5")
        assert ulfm._recovery_timeout(None) == 2.5
        assert ulfm._recovery_timeout(7.0) == 7.0  # explicit wins

    def test_context_derivation_depth_guard(self):
        with pytest.raises(CommError, match="too deep"):
            ctx = 0
            for _ in range(8):
                ctx = ulfm._shrink_context(ctx, attempt=1)
