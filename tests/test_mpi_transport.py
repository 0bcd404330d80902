"""Transport-layer tests: framing, inproc fabric, TCP mesh, launcher."""

import subprocess
import sys
import textwrap

import pytest

from repro.mpi.exceptions import InternalError, RankError
from repro.mpi.matching import Envelope, MatchingEngine
from repro.mpi.transport.base import HEADER_SIZE, pack_header, unpack_header
from repro.mpi.transport.inproc import InprocFabric


class TestFraming:
    def test_roundtrip(self):
        env = Envelope(context=7, source=3, dest=9, tag=123456, nbytes=42)
        assert unpack_header(pack_header(env)) == env

    def test_header_size_fixed(self):
        assert len(pack_header(Envelope(0, 0, 0, 0, 0))) == HEADER_SIZE

    def test_large_context_and_tag(self):
        env = Envelope(
            context=(1 << 40) | 3, source=0, dest=1,
            tag=2**30, nbytes=2**40,
        )
        assert unpack_header(pack_header(env)) == env


class TestInprocFabric:
    def test_route_delivers_to_engine(self):
        fab = InprocFabric(2)
        t0, t1 = fab.create_transport(0), fab.create_transport(1)
        e0, e1 = MatchingEngine(), MatchingEngine()
        t0.attach(e0)
        t1.attach(e1)
        t0.send(1, Envelope(0, 0, 1, 5, 3), b"abc")
        ticket = e1.post_recv(0, 0, 5, 10)
        assert ticket.wait(1) == b"abc"

    def test_self_send(self):
        fab = InprocFabric(1)
        t = fab.create_transport(0)
        e = MatchingEngine()
        t.attach(e)
        t.send(0, Envelope(0, 0, 0, 1, 2), b"me")
        assert e.post_recv(0, 0, 1, 10).wait(1) == b"me"

    def test_duplicate_rank_registration_rejected(self):
        fab = InprocFabric(2)
        fab.create_transport(0)
        with pytest.raises(InternalError, match="already registered"):
            fab.create_transport(0)

    def test_out_of_range_rank_rejected(self):
        fab = InprocFabric(2)
        with pytest.raises(RankError):
            fab.create_transport(5)

    def test_send_to_unattached_rank_fails(self):
        fab = InprocFabric(2)
        t0 = fab.create_transport(0)
        t0.attach(MatchingEngine())
        with pytest.raises(InternalError, match="no attached endpoint"):
            t0.send(1, Envelope(0, 0, 1, 1, 0), b"")

    def test_closed_fabric_rejects_sends(self):
        fab = InprocFabric(2)
        t0 = fab.create_transport(0)
        t1 = fab.create_transport(1)
        t0.attach(MatchingEngine())
        t1.attach(MatchingEngine())
        fab.close()
        with pytest.raises(InternalError, match="closed fabric"):
            t0.send(1, Envelope(0, 0, 1, 1, 0), b"")

    def test_invalid_world_size(self):
        with pytest.raises(RankError):
            InprocFabric(0)


_TCP_SCRIPT = textwrap.dedent("""
    import numpy as np
    from repro.mpi import init, ops
    world = init()
    comm = world.comm
    r, p = comm.rank, comm.size
    # p2p both directions across the mesh
    if r == 0:
        comm.send_bytes(b"x" * 70000, p - 1, 3)
    if r == p - 1:
        data, _ = comm.recv_bytes(0, 3, 70000)
        assert len(data) == 70000
    # collectives over TCP
    s = comm.allreduce_array(np.array([float(r + 1)]), ops.SUM)
    assert s[0] == p * (p + 1) / 2
    out = comm.bcast_bytes(b"tcp" if r == 0 else None, 0)
    assert out == b"tcp"
    g = comm.allgather_bytes(bytes([r]))
    assert g == [bytes([i]) for i in range(p)]
    comm.barrier()
    world.finalize()
""")


@pytest.mark.slow
class TestTcpLauncher:
    @pytest.mark.parametrize("n", (2, 4))
    def test_multiprocess_job(self, tmp_path, n):
        script = tmp_path / "job.py"
        script.write_text(_TCP_SCRIPT)
        from repro.mpi.launcher import launch

        assert launch(n, [str(script)], timeout=120) == 0

    def test_nonzero_exit_propagates(self, tmp_path):
        script = tmp_path / "fail.py"
        script.write_text(
            "from repro.mpi import init\n"
            "w = init()\n"
            "import sys\n"
            "sys.exit(3 if w.rank == 1 else 0)\n"
        )
        from repro.mpi.launcher import launch

        assert launch(2, [str(script)], timeout=120) == 3

    def test_cli_entry_point(self, tmp_path):
        script = tmp_path / "cli.py"
        script.write_text(
            "from repro.mpi import init\n"
            "w = init()\n"
            "w.comm.barrier()\n"
            "w.finalize()\n"
        )
        result = subprocess.run(
            [sys.executable, "-m", "repro.mpi.launcher", "-n", "2",
             str(script)],
            capture_output=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr.decode()

    def test_launch_validates_args(self):
        from repro.mpi.launcher import launch

        with pytest.raises(ValueError, match=">= 1"):
            launch(0, ["x.py"])
        with pytest.raises(ValueError, match="no program"):
            launch(2, [])

    def test_launcher_runs_ombpy_cli(self):
        """The README composition: ombpy-run -n 2 ombpy osu_latency."""
        import sys

        from repro.mpi.launcher import launch

        rc = launch(
            2,
            [sys.executable, "-m", "repro.core.cli", "osu_latency",
             "-m", "1:16", "-i", "3", "-x", "1"],
            timeout=120,
        )
        assert rc == 0


@pytest.mark.slow
class TestUdsLauncher:
    @pytest.mark.parametrize("n", (2, 4))
    def test_multiprocess_job_over_uds(self, tmp_path, n):
        script = tmp_path / "job.py"
        script.write_text(_TCP_SCRIPT)  # same semantics, different fabric
        from repro.mpi.launcher import launch

        assert launch(n, [str(script)], timeout=120, transport="uds") == 0

    def test_socket_dir_cleaned_up(self, tmp_path):
        import glob
        import tempfile

        script = tmp_path / "job.py"
        script.write_text(
            "from repro.mpi import init\n"
            "w = init()\nw.comm.barrier()\nw.finalize()\n"
        )
        from repro.mpi.launcher import launch

        before = set(glob.glob(
            f"{tempfile.gettempdir()}/ombpy-uds-*"
        ))
        assert launch(2, [str(script)], timeout=120, transport="uds") == 0
        after = set(glob.glob(f"{tempfile.gettempdir()}/ombpy-uds-*"))
        assert after <= before  # job's socket dir removed

    def test_unknown_transport_rejected(self):
        from repro.mpi.launcher import launch

        with pytest.raises(ValueError, match="transport"):
            launch(2, ["x.py"], transport="rdma")


class TestSingletonInit:
    def test_init_without_env_is_single_rank(self, monkeypatch):
        from repro.knobs import ENV_RANK
        from repro.mpi.world import init

        monkeypatch.delenv(ENV_RANK, raising=False)
        world = init()
        try:
            assert world.size == 1 and world.rank == 0
            world.comm.barrier()
            out = world.comm.bcast_bytes(b"solo", 0)
            assert out == b"solo"
        finally:
            world.finalize()
