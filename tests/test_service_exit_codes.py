"""``ombpy-submit`` exit-code contract tests.

Each failure mode maps to a distinct, documented exit code (table in
``docs/service.md``) so shell pipelines and the campaign driver can
branch on *why* a job died without parsing stderr.
"""

import gc
import warnings

import pytest

from repro.service import BenchmarkService, JobSpec, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.cli import (
    EXIT_CANCELLED, EXIT_DEADLINE, EXIT_DONE, EXIT_FAILED, EXIT_RANK_FAILURE,
    EXIT_REJECTED, EXIT_USAGE, exit_code_for, submit_main,
)
from repro.service.protocol import (
    CANCELLED, DEADLINE, DONE, FAILED, KIND_SLEEP,
)


class TestExitCodeFor:
    @pytest.mark.parametrize("job, code", [
        ({"state": DONE}, EXIT_DONE),
        ({"state": DEADLINE}, EXIT_DEADLINE),
        ({"state": CANCELLED}, EXIT_CANCELLED),
        ({"state": FAILED, "failure_kind": "app_error"}, EXIT_FAILED),
        ({"state": FAILED}, EXIT_FAILED),
        ({"state": FAILED, "failure_kind": "rank_failure"},
         EXIT_RANK_FAILURE),
        ({"state": FAILED, "failure_kind": "collateral"},
         EXIT_RANK_FAILURE),
        ({"state": FAILED, "failure_kind": "pool_degraded"},
         EXIT_RANK_FAILURE),
        ({"state": FAILED, "failure_kind": "pool_lost"},
         EXIT_RANK_FAILURE),
    ])
    def test_mapping(self, job, code):
        assert exit_code_for(job) == code

    def test_codes_are_distinct(self):
        codes = {EXIT_DONE, EXIT_FAILED, EXIT_USAGE, EXIT_REJECTED,
                 EXIT_DEADLINE, EXIT_RANK_FAILURE, EXIT_CANCELLED}
        assert len(codes) == 7


@pytest.fixture
def service(tmp_path):
    svc = BenchmarkService(
        pool_size=2,
        socket_path=str(tmp_path / "svc.sock"),
        config=ServiceConfig(queue_depth=4, default_deadline_s=60.0),
    )
    svc.start()
    yield svc
    svc.stop()


def submit(service, command, *args):
    return submit_main([command, "--socket", service.address, *args])


class TestSubmitExitCodes:
    def test_done_is_zero(self, service):
        assert submit(
            service, "submit", "osu_latency", "--wait",
            "-m", "1:16", "-i", "3", "-x", "1",
        ) == EXIT_DONE

    def test_connection_error_is_usage(self, tmp_path):
        assert submit_main(
            ["status", "--socket", str(tmp_path / "nope.sock")]
        ) == EXIT_USAGE

    def test_connection_error_closes_the_socket(self, tmp_path):
        # A socket left open by a failed connect shows only as a
        # ResourceWarning when it is collected; make that an error here.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ConnectionError):
                ServiceClient(socket_path=str(tmp_path / "nope.sock"),
                              connect_tries=1).connect()
            gc.collect()
        leaks = [w for w in caught if w.category is ResourceWarning]
        assert not leaks, str(leaks[0].message)

    def test_rejected_after_drain(self, service):
        # A running job holds the drain open: with nothing in flight a
        # drained service stops at once and its socket goes away.
        service.submit(JobSpec(kind=KIND_SLEEP, ranks=2, seconds=30.0))
        assert submit(service, "drain") == EXIT_DONE
        assert submit(
            service, "submit", "--sleep", "0.01", "--wait",
        ) == EXIT_REJECTED

    def test_deadline_exceeded(self, service):
        assert submit(
            service, "submit", "--sleep", "30",
            "--deadline", "0.2", "--wait",
        ) == EXIT_DEADLINE

    def test_cancelled(self, service, capsys):
        assert submit(service, "submit", "--sleep", "30") == EXIT_DONE
        job_id = capsys.readouterr().out.split()[0]
        assert submit(service, "cancel", job_id) == EXIT_DONE
        assert submit(service, "result", job_id,
                      "--wait") == EXIT_CANCELLED
