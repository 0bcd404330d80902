"""mpi4py source-compatibility layer tests."""

import textwrap

import numpy as np
import pytest


@pytest.fixture
def MPI(monkeypatch):
    """Fresh compat module with a singleton world, finalized after."""
    from repro.knobs import ENV_RANK

    monkeypatch.delenv(ENV_RANK, raising=False)
    from repro.compat import MPI as mpi_mod

    yield mpi_mod
    mpi_mod.Finalize()


class TestConstantsAndNames:
    def test_wildcards(self, MPI):
        assert MPI.ANY_SOURCE == -1
        assert MPI.ANY_TAG == -1

    def test_ops(self, MPI):
        assert MPI.SUM.Get_name() if hasattr(MPI.SUM, "Get_name") else True
        assert MPI.SUM.name == "MPI_SUM"
        assert MPI.MAXLOC.name == "MPI_MAXLOC"

    def test_datatypes(self, MPI):
        assert MPI.DOUBLE.Get_size() == 8
        assert MPI.INT.Get_size() == 4

    def test_version(self, MPI):
        major, _minor = MPI.Get_version()
        assert major == 3

    def test_wtime_monotonic(self, MPI):
        a = MPI.Wtime()
        b = MPI.Wtime()
        assert b >= a


class TestLazyWorld:
    def test_not_initialized_until_touched(self, MPI):
        # Finalize first in case a previous test touched it.
        MPI.Finalize()
        assert not MPI.Is_initialized()
        assert MPI.COMM_WORLD.Get_size() == 1
        assert MPI.Is_initialized()

    def test_singleton_rank(self, MPI):
        assert MPI.COMM_WORLD.Get_rank() == 0
        assert MPI.COMM_WORLD.rank == 0

    def test_query_thread_default_multiple(self, MPI):
        assert MPI.Query_thread() == MPI.THREAD_MULTIPLE

    def test_finalize_idempotent(self, MPI):
        MPI.COMM_WORLD.Get_size()
        MPI.Finalize()
        MPI.Finalize()
        assert not MPI.Is_initialized()

    def test_singleton_collectives(self, MPI):
        comm = MPI.COMM_WORLD
        assert comm.bcast({"x": 1}, root=0) == {"x": 1}
        out = np.zeros(3)
        comm.Allreduce(np.ones(3), out, MPI.SUM)
        assert np.allclose(out, 1.0)


_TUTORIAL = textwrap.dedent("""
    # The mpi4py tutorial's first snippets, verbatim apart from the import.
    from repro.compat import MPI
    import numpy

    comm = MPI.COMM_WORLD
    rank = comm.Get_rank()

    if rank == 0:
        data = {'a': 7, 'b': 3.14}
        comm.send(data, dest=1, tag=11)
    elif rank == 1:
        data = comm.recv(source=0, tag=11)
        assert data == {'a': 7, 'b': 3.14}

    if rank == 0:
        data = numpy.arange(1000, dtype='i')
        comm.Send([data, MPI.INT], dest=1, tag=77)
    elif rank == 1:
        data = numpy.empty(1000, dtype='i')
        comm.Recv([data, MPI.INT], source=0, tag=77)
        assert data[999] == 999

    value = comm.allreduce(rank + 1)
    assert value == 3
    MPI.Finalize()
""")


@pytest.mark.slow
class TestTutorialUnderLauncher:
    def test_mpi4py_tutorial_runs_verbatim(self, tmp_path):
        script = tmp_path / "tutorial.py"
        script.write_text(_TUTORIAL)
        from repro.mpi.launcher import launch

        assert launch(2, [str(script)], timeout=120) == 0
