"""Resilience tests: failure detection, fail-fast, launcher supervision."""

import glob
import os
import socket
import struct
import tempfile
import textwrap
import threading
import time

import pytest

from repro.faults import CrashSpec, FaultPlan
from repro.mpi import RankFailedError, run_on_threads
from repro.mpi.exceptions import ERR_PROC_FAILED
from repro.mpi.fabric.stream import dial
from repro.mpi.matching import Envelope, MatchingEngine
from repro.mpi.resilience import FailureDetector, detector_from_env
from repro.mpi.transport.base import (
    CTRL_GOODBYE, CTRL_HEARTBEAT, Transport, control_envelope,
)


class LoopbackTransport(Transport):
    """Minimal transport for detector unit tests: records control sends."""

    def __init__(self, world_rank=0, world_size=2):
        super().__init__(world_rank, world_size)
        self.control_sent = []

    def send(self, dest_world_rank, env, payload):
        self.control_sent.append((dest_world_rank, env.tag))

    def close(self):
        pass


class TestFailureDetectorUnit:
    def _detector(self, **kw):
        transport = LoopbackTransport()
        engine = MatchingEngine()
        detector = FailureDetector(transport, engine, **kw)
        return transport, engine, detector

    def test_peer_lost_fails_pending_recv(self):
        _t, engine, detector = self._detector(interval=0.05)
        ticket = engine.post_recv(0, 1, 7, 64)
        detector.start()
        try:
            detector.on_peer_lost(1, "connection reset")
            with pytest.raises(RankFailedError) as exc_info:
                ticket.wait(timeout=2)
        finally:
            detector.stop()
        assert exc_info.value.rank == 1
        assert exc_info.value.error_class == ERR_PROC_FAILED
        assert "rank 1" in str(exc_info.value)
        assert "connection reset" in str(exc_info.value)

    def test_error_carries_wait_state(self):
        _t, engine, detector = self._detector()
        engine.post_recv(0, 1, 42, 64)
        detector.on_peer_lost(1, "EOF")
        error = engine.failure()
        assert isinstance(error, RankFailedError)
        assert error.wait_state and "tag=42" in error.wait_state

    def test_future_recvs_fail_too(self):
        _t, engine, detector = self._detector()
        detector.on_peer_lost(1, "EOF")
        ticket = engine.post_recv(0, 1, 7, 64)
        with pytest.raises(RankFailedError):
            ticket.wait(timeout=2)

    def test_goodbye_suppresses_eof_report(self):
        transport, engine, detector = self._detector()
        detector.on_control(control_envelope(CTRL_GOODBYE, 1, 0))
        detector.on_peer_lost(1, "EOF after clean close")
        assert detector.failed_ranks() == {}
        assert engine.failure() is None
        assert detector.departed_ranks() == {1}

    def test_declare_is_idempotent(self):
        _t, engine, detector = self._detector()
        detector.on_peer_lost(1, "first")
        first = engine.failure()
        detector.on_peer_lost(1, "second")
        assert engine.failure() is first

    def test_heartbeats_flow_and_timeout_declares(self):
        transport, engine, detector = self._detector(
            interval=0.05, heartbeat_timeout=0.3
        )
        detector.start()
        try:
            deadline = time.monotonic() + 5
            while not detector.failed_ranks() and time.monotonic() < deadline:
                time.sleep(0.02)
        finally:
            detector.stop()
        assert any(
            tag == CTRL_HEARTBEAT for _d, tag in transport.control_sent
        )
        assert 1 in detector.failed_ranks()
        assert isinstance(engine.failure(), RankFailedError)

    def test_heartbeat_keeps_peer_alive(self):
        transport, engine, detector = self._detector(
            interval=0.05, heartbeat_timeout=0.4
        )
        detector.start()
        try:
            stop = time.monotonic() + 1.0
            while time.monotonic() < stop:
                detector.on_control(control_envelope(CTRL_HEARTBEAT, 1, 0))
                time.sleep(0.02)
            assert detector.failed_ranks() == {}
        finally:
            detector.stop()

    def test_control_frames_route_via_transport(self):
        transport, engine, detector = self._detector()
        transport.detector = detector
        transport._deliver_local(control_envelope(CTRL_HEARTBEAT, 1, 0), b"")
        assert 1 in detector._last_seen

    def test_verifier_hook_invoked(self):
        class FakeEndpoint:
            pass

        class FakeVerifier:
            calls = []

            def on_rank_failed(self, rank, reason):
                self.calls.append((rank, reason))

        endpoint = FakeEndpoint()
        endpoint.verifier = FakeVerifier()
        transport = LoopbackTransport()
        engine = MatchingEngine()
        detector = FailureDetector(transport, engine, endpoint=endpoint)
        detector.on_peer_lost(1, "gone")
        assert endpoint.verifier.calls == [(1, "gone")]

    def test_env_knobs(self, monkeypatch):
        transport = LoopbackTransport()
        engine = MatchingEngine()
        monkeypatch.setenv("OMBPY_HB_INTERVAL", "0.25")
        monkeypatch.setenv("OMBPY_HB_TIMEOUT", "3.5")
        detector = detector_from_env(transport, engine)
        assert detector.interval == 0.25
        assert detector.heartbeat_timeout == 3.5
        monkeypatch.setenv("OMBPY_HB_DISABLE", "1")
        assert detector_from_env(transport, engine) is None

    @pytest.mark.parametrize("var,value", [
        ("OMBPY_HB_INTERVAL", "abc"),   # used to die without naming it
        ("OMBPY_HB_INTERVAL", "0"),
        ("OMBPY_HB_TIMEOUT", "-1"),     # used to be accepted
    ])
    def test_env_knobs_reject_bad_values(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=var):
            detector_from_env(LoopbackTransport(), MatchingEngine())

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            FailureDetector(LoopbackTransport(), MatchingEngine(), interval=0)


class TestThreadsChaos:
    """End-to-end fault injection over the threads fabric."""

    def test_delay_only_chaos_preserves_results(self):
        # Delay/reorder never loses or duplicates messages, so a real
        # workload must still complete with correct results under it.
        plan = FaultPlan(seed=11, delay=0.3, delay_hold=4)

        def workload(comm):
            import numpy as np

            from repro.mpi import ops

            total = comm.allreduce_array(
                np.array([float(comm.rank + 1)]), ops.SUM
            )
            gathered = comm.allgather_bytes(bytes([comm.rank]))
            comm.barrier()
            return total[0], gathered

        results = run_on_threads(4, workload, fault_plan=plan, timeout=60)
        for total, gathered in results:
            assert total == 10.0
            assert gathered == [bytes([i]) for i in range(4)]

    def test_injected_crash_raises_in_thread(self):
        plan = FaultPlan(
            seed=0, crash=CrashSpec(rank=1, at_op=0, mode="raise"),
        )

        def workload(comm):
            # Only rank 1 sends, so only rank 1 hits its scheduled crash;
            # rank 0 must not block (nothing unblocks it after the crash).
            if comm.rank == 1:
                comm.send_bytes(b"hello", 0, 5)
            return comm.rank

        from repro.faults import InjectedCrash

        with pytest.raises(InjectedCrash):
            run_on_threads(2, workload, fault_plan=plan, timeout=30)


class TestDialRetry:
    """The stream fabric's one dial loop (``fabric.stream.dial``)."""

    def test_retries_until_listener_appears(self):
        import errno

        attempts = []

        def connect():
            attempts.append(time.monotonic())
            if len(attempts) < 3:
                raise FileNotFoundError(errno.ENOENT, "no socket file yet")
            if len(attempts) < 5:
                raise ConnectionRefusedError("not yet")
            return "connected"

        result = dial(
            connect, timeout=10, startup_errnos=frozenset({errno.ENOENT}),
        )
        assert result == "connected"
        assert len(attempts) == 5

    def test_gives_up_at_deadline(self):
        def connect():
            raise ConnectionRefusedError("never")

        start = time.monotonic()
        with pytest.raises(ConnectionRefusedError, match="never"):
            dial(connect, timeout=0.2)
        assert 0.2 <= time.monotonic() - start < 2.0

    def test_non_transient_error_raises_immediately(self):
        attempts = []

        def connect():
            attempts.append(1)
            raise OSError(13, "permission denied")

        with pytest.raises(PermissionError):
            dial(connect, timeout=5)
        assert len(attempts) == 1


class TestPartialHello:
    def test_accept_loop_survives_garbage_connection(self):
        """A half-open HELLO must not kill the acceptor (satellite b)."""
        from repro.mpi.transport.tcp import TcpTransport

        listen_a = TcpTransport.bind_ephemeral()
        listen_b = TcpTransport.bind_ephemeral()
        port_a = listen_a.getsockname()[1]
        port_b = listen_b.getsockname()[1]
        port_map = {0: port_a, 1: port_b}

        t0 = TcpTransport(0, 2, listen_a, port_map)
        t1 = TcpTransport(1, 2, listen_b, port_map)
        e0, e1 = MatchingEngine(), MatchingEngine()
        t0.attach(e0)
        t1.attach(e1)

        # Poison rank 0's acceptor with a partial HELLO before the real
        # mesh comes up: 2 bytes of a 4-byte rank frame, then hang up.
        poison = socket.create_connection(("127.0.0.1", port_a), timeout=5)
        poison.sendall(struct.pack("<i", 1)[:2])
        poison.close()
        time.sleep(0.05)

        threads = [
            threading.Thread(target=t.establish_mesh) for t in (t0, t1)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        assert not any(th.is_alive() for th in threads), (
            "mesh never formed after poisoned HELLO"
        )
        try:
            t0.send(1, Envelope(0, 0, 1, 9, 2), b"ok")
            ticket = e1.post_recv(0, 0, 9, 16)
            assert ticket.wait(timeout=5) == b"ok"
        finally:
            t0.close()
            t1.close()


_SURVIVOR_SCRIPT = textwrap.dedent("""
    import os, sys, time
    from repro.mpi import RankFailedError, init
    world = init()
    comm = world.comm
    start = time.monotonic()
    try:
        comm.barrier()
        if comm.rank == 1:
            os._exit(7)     # simulated hard crash, no goodbye
        # Survivors park in a blocking recv from the dead rank; the crash
        # may equally surface from the barrier above if rank 1 dies while
        # they are still inside it — both are the fail-fast path.
        comm.recv_bytes(1, 99, 64, timeout=300)
    except RankFailedError as exc:
        elapsed = time.monotonic() - start
        assert exc.rank == 1, exc
        assert "rank 1" in str(exc)
        assert elapsed < 5.0, f"detection took {elapsed:.1f}s"
        with open(sys.argv[1] + f".rank{comm.rank}", "w") as fh:
            fh.write(f"{elapsed:.3f}")
        # Clean departure (sends GOODBYE): the *other* survivor must not
        # misread this rank's exit as a second crash.
        world.finalize()
        os._exit(0)
    os._exit(9)  # recv unexpectedly succeeded
""")


class _DoneProc:
    """Stand-in for a Popen that has already exited with ``rc``."""

    def __init__(self, rc):
        self.rc = rc
        self.args = ["fake"]

    def poll(self):
        return self.rc

    def wait(self, timeout=None):
        return self.rc

    def terminate(self):
        pass

    def kill(self):
        pass


class TestFailureAttribution:
    """Cascade deaths (exit RANK_FAILED_EXIT) never outrank the root cause."""

    def test_prefers_non_cascade_code(self):
        from repro.mpi.exceptions import RANK_FAILED_EXIT
        from repro.mpi.launcher import _attribute_failure

        assert _attribute_failure(
            [(0, RANK_FAILED_EXIT), (1, 41)]
        ) == (1, 41)
        assert _attribute_failure([(0, 3), (1, RANK_FAILED_EXIT)]) == (0, 3)

    def test_all_cascades_falls_back_to_first_observed(self):
        from repro.mpi.exceptions import RANK_FAILED_EXIT
        from repro.mpi.launcher import _attribute_failure

        assert _attribute_failure(
            [(2, RANK_FAILED_EXIT), (0, RANK_FAILED_EXIT)]
        ) == (2, RANK_FAILED_EXIT)
        assert _attribute_failure([]) is None

    def test_supervise_blames_crashed_rank_not_survivor(self):
        """Rank 0 (scanned first) died of the cascade code, rank 1 crashed
        with 41 in the same poll window: the job is attributed to rank 1.
        """
        import threading

        from repro.mpi.exceptions import RANK_FAILED_EXIT
        from repro.mpi.launcher import _supervise

        procs = [_DoneProc(RANK_FAILED_EXIT), _DoneProc(41), _DoneProc(0)]
        exit_codes, first_failure = _supervise(
            procs, timeout=10.0, grace=0.2, interrupted=threading.Event(),
        )
        assert exit_codes == [RANK_FAILED_EXIT, 41, 0]
        assert first_failure == (1, 41)


class TestGraceOption:
    """Satellite: the --grace knob — validation and CLI wiring."""

    def test_negative_grace_rejected_before_spawn(self):
        from repro.mpi.launcher import launch

        with pytest.raises(ValueError, match="grace period must be >= 0"):
            launch(1, ["prog"], failfast_grace=-1.0)

    def test_cli_reports_negative_grace(self, capfd):
        from repro.mpi import launcher

        assert launcher.main(["-n", "1", "--grace", "-2", "prog"]) == 1
        assert "grace period must be >= 0" in capfd.readouterr().err

    def test_grace_flag_and_alias_reach_launch(self, monkeypatch):
        from repro.mpi import launcher

        seen = {}

        def fake_launch(n, command, **kwargs):
            seen.update(kwargs, n=n, command=command)
            return 0

        monkeypatch.setattr(launcher, "launch", fake_launch)
        assert launcher.main(["-n", "2", "--grace", "2.5", "prog"]) == 0
        assert seen["failfast_grace"] == 2.5
        assert launcher.main(
            ["-n", "2", "--failfast-grace", "3.5", "prog"]
        ) == 0
        assert seen["failfast_grace"] == 3.5

    def test_default_grace_when_flag_omitted(self, monkeypatch):
        from repro.mpi import launcher

        seen = {}

        def fake_launch(n, command, **kwargs):
            seen.update(kwargs)
            return 0

        monkeypatch.setattr(launcher, "launch", fake_launch)
        assert launcher.main(["-n", "2", "prog"]) == 0
        assert seen["failfast_grace"] == launcher.DEFAULT_FAILFAST_GRACE
        assert seen["recover"] is False and seen["reliable"] is False


@pytest.mark.slow
class TestFailFastLaunch:
    @pytest.mark.parametrize("transport", ("tcp", "uds"))
    def test_survivors_unhang_and_name_dead_rank(self, tmp_path, transport):
        """Kill rank 1 mid-job: every survivor must get RankFailedError
        naming rank 1 within the detector interval, not the 300s timeout.
        """
        from repro.mpi.launcher import launch

        script = tmp_path / "survivor.py"
        script.write_text(_SURVIVOR_SCRIPT)
        marker = tmp_path / "detected"

        start = time.monotonic()
        rc = launch(
            3, [str(script), str(marker)], timeout=120, transport=transport,
        )
        elapsed = time.monotonic() - start
        assert rc == 7  # the first-failing rank's exit code
        assert elapsed < 60
        for rank in (0, 2):
            path = f"{marker}.rank{rank}"
            assert os.path.exists(path), (
                f"survivor rank {rank} never observed the failure"
            )
            assert float(open(path).read()) < 5.0

    def test_cleanup_after_rank0_crash_uds(self, tmp_path):
        """Satellite c: socket dirs cleaned even when a rank dies hard."""
        from repro.mpi.launcher import launch

        script = tmp_path / "crash0.py"
        script.write_text(
            "import os\n"
            "from repro.mpi import init\n"
            "world = init()\n"
            "world.comm.barrier()\n"
            "if world.rank == 0:\n"
            "    os._exit(13)\n"
            "world.comm.recv_bytes(0, 5, 64, timeout=60)\n"
        )
        before = set(glob.glob(f"{tempfile.gettempdir()}/ombpy-uds-*"))
        rc = launch(2, [str(script)], timeout=120, transport="uds",
                    failfast_grace=6.0)
        assert rc == 13
        after = set(glob.glob(f"{tempfile.gettempdir()}/ombpy-uds-*"))
        assert after <= before, f"leaked socket dirs: {after - before}"

    def test_cleanup_after_rank0_crash_shm(self, tmp_path):
        from repro.mpi.launcher import launch

        script = tmp_path / "crash0.py"
        script.write_text(
            "import os\n"
            "from repro.mpi import init\n"
            "world = init()\n"
            "if world.rank == 0:\n"
            "    os._exit(13)\n"
            "world.comm.recv_bytes(0, 5, 64, timeout=60)\n"
        )
        before = set(glob.glob("/dev/shm/*ombpy-shm-*"))
        rc = launch(2, [str(script)], timeout=120, transport="shm",
                    failfast_grace=6.0)
        assert rc == 13
        after = set(glob.glob("/dev/shm/*ombpy-shm-*"))
        assert after <= before, f"leaked shm segments: {after - before}"

    def test_per_rank_exit_report(self, tmp_path, capfd):
        from repro.mpi.launcher import launch

        script = tmp_path / "fail.py"
        script.write_text(
            "import sys\n"
            "from repro.mpi import init\n"
            "w = init()\n"
            "w.comm.barrier()\n"
            "w.finalize()\n"
            "sys.exit(5 if w.rank == 1 else 0)\n"
        )
        rc = launch(2, [str(script)], timeout=120)
        assert rc == 5
        err = capfd.readouterr().err
        assert "rank 1 failed first" in err
        assert "per-rank exit codes" in err

    def test_recover_succeeds_when_survivors_finish(self, tmp_path, capfd):
        """Satellite: --recover turns a partial failure into success."""
        from repro.mpi.launcher import launch

        script = tmp_path / "partial.py"
        script.write_text(textwrap.dedent("""
            import sys
            from repro.mpi import init
            w = init()
            w.comm.barrier()
            w.finalize()
            sys.exit(5 if w.rank == 1 else 0)
        """))
        rc = launch(3, [str(script)], timeout=120, recover=True)
        assert rc == 0
        err = capfd.readouterr().err
        assert "recovered" in err and "rank 1 failed" in err
        # The very same job under default fail-fast supervision reports
        # the failing rank's code.
        assert launch(3, [str(script)], timeout=120) == 5

    def test_recover_still_fails_when_no_rank_finishes(self, tmp_path):
        from repro.mpi.launcher import launch

        script = tmp_path / "allfail.py"
        script.write_text(textwrap.dedent("""
            import sys
            from repro.mpi import init
            w = init()
            w.comm.barrier()
            w.finalize()
            sys.exit(3)
        """))
        assert launch(2, [str(script)], timeout=120, recover=True) == 3

    def test_fault_seed_replay_is_identical(self, tmp_path):
        """Same --fault-seed => byte-identical injected-event logs."""
        from repro.mpi.launcher import launch

        script = tmp_path / "job.py"
        script.write_text(textwrap.dedent("""
            from repro.mpi import init
            world = init()
            comm = world.comm
            peer = 1 - comm.rank
            for i in range(40):
                comm.send_bytes(bytes([i % 256]) * (i + 1), peer, i)
            for i in range(40):
                data, _ = comm.recv_bytes(peer, i, 4096, timeout=60)
                assert data == bytes([i % 256]) * (i + 1)
            comm.barrier()
            world.finalize()
        """))

        logs = []
        for attempt in ("a", "b"):
            log = tmp_path / f"events-{attempt}"
            # Delay-only plan: deterministic *and* safe for a workload
            # that expects every message to arrive exactly once.
            plan = tmp_path / f"plan-{attempt}.json"
            plan.write_text(
                FaultPlan(seed=21, delay=0.25, delay_hold=3).to_json()
            )
            rc = launch(
                2, [str(script)], timeout=120,
                faults=str(plan), fault_log=str(log),
            )
            assert rc == 0
            logs.append({
                rank: open(f"{log}.rank{rank}").read() for rank in (0, 1)
            })
        assert logs[0] == logs[1]
        assert any(logs[0][r] for r in (0, 1)), "no events were injected"
