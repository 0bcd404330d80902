"""Benchmark service tests: admission control, deadlines, isolation.

The chaos/degradation suite lives in ``test_service_chaos.py``; this
file covers the non-destructive contract — config validation, the wire
protocol, the happy path over a real UDS socket, queue backpressure,
priority ordering, deadline enforcement, cancellation, drain, and
concurrent-job isolation under the runtime verifier.
"""

import os
import threading
import time

import pytest

from repro import knobs
from repro.core.results import ResultRow, ResultTable
from repro.service import BenchmarkService, JobSpec, ServiceClient, ServiceConfig
from repro.service.client import ServiceError
from repro.service.pool import MAX_JOB_SERIAL, ThreadRankPool, job_context
from repro.service.protocol import (
    CANCELLED, DEADLINE, DONE, FAILED, KIND_SLEEP, table_from_wire,
    table_to_wire,
)
from repro.service.server import DEGRADED, DRAINING, SERVING, STOPPED

FAST = {"min_size": 1, "max_size": 16, "iterations": 3, "warmup": 1}


@pytest.fixture
def service(tmp_path):
    """A running 4-rank threads-pool service over a UDS socket."""
    svc = BenchmarkService(
        pool_size=4,
        socket_path=str(tmp_path / "svc.sock"),
        config=ServiceConfig(queue_depth=4, default_deadline_s=60.0),
    )
    svc.start()
    yield svc
    svc.stop()


@pytest.fixture
def client(service):
    with ServiceClient(socket_path=service.address, timeout=30.0) as c:
        yield c


class TestConfig:
    """``ServiceConfig`` is the knob table's rows as fields; parsing and
    ranges are covered per row in ``test_knobs.py``."""

    def test_defaults(self, monkeypatch):
        for name in knobs.TABLE:
            monkeypatch.delenv(name, raising=False)
        cfg = ServiceConfig.from_env()
        assert cfg == ServiceConfig()
        assert cfg.queue_depth == 64
        assert cfg.default_deadline_s == 120.0
        assert cfg.retry_max == 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("OMBPY_SERVICE_QUEUE_DEPTH", "7")
        monkeypatch.setenv("OMBPY_SERVICE_DEADLINE_S", "3.5")
        monkeypatch.setenv("OMBPY_SERVICE_RETRY_MAX", "0")
        cfg = ServiceConfig.from_env()
        assert (cfg.queue_depth, cfg.default_deadline_s, cfg.retry_max) \
            == (7, 3.5, 0)

    def test_cli_override_beats_env(self, monkeypatch):
        # Even a malformed variable: the flag means it is never consulted.
        monkeypatch.setenv("OMBPY_SERVICE_QUEUE_DEPTH", "nine")
        assert ServiceConfig.from_env(queue_depth=9).queue_depth == 9
        # ...while a bad flag value is still refused, naming the field.
        with pytest.raises(ValueError, match="queue_depth"):
            ServiceConfig.from_env(queue_depth=0)

    @pytest.mark.parametrize("var,value", [
        ("OMBPY_SERVICE_QUEUE_DEPTH", "zero"),
        ("OMBPY_SERVICE_QUEUE_DEPTH", "0"),
        ("OMBPY_SERVICE_DEADLINE_S", "-1"),
        ("OMBPY_SERVICE_DEADLINE_S", "soon"),
        ("OMBPY_SERVICE_RETRY_MAX", "-2"),
        ("OMBPY_SERVICE_DRAIN_GRACE_S", "-0.1"),
    ])
    def test_malformed_env_names_variable(self, monkeypatch, var, value):
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=var):
            ServiceConfig.from_env()


class TestProtocol:
    def test_spec_roundtrip(self):
        spec = JobSpec(benchmark="osu_bw", ranks=3, priority=2,
                       options={"min_size": 4}, deadline_s=9.0)
        assert JobSpec.from_wire(spec.to_wire()) == spec

    def test_spec_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown job spec field"):
            JobSpec.from_wire({"benchmark": "osu_bw", "bogus": 1})

    @pytest.mark.parametrize("kw", [
        {"kind": "dance"}, {"ranks": 0}, {"deadline_s": 0.0},
        {"max_retries": -1}, {"kind": KIND_SLEEP, "seconds": -1.0},
    ])
    def test_spec_validation(self, kw):
        with pytest.raises(ValueError):
            JobSpec(**kw)

    def test_table_roundtrip(self):
        table = ResultTable(benchmark="osu_latency", metric="Latency (us)",
                            ranks=2, buffer="numpy", api="buffer")
        table.add(ResultRow(size=8, value=1.5, minimum=1.0, maximum=2.0,
                            iterations=100))
        back = table_from_wire(table_to_wire(table))
        assert back.benchmark == table.benchmark
        assert back.rows[0].size == 8
        assert back.rows[0].value == pytest.approx(1.5)

    def test_job_context_unique_and_bounded(self):
        contexts = {job_context(s) for s in (1, 2, 3, 1000)}
        assert len(contexts) == 4
        # Headroom: one in-job derivation must stay below the ULFM flag.
        assert job_context(MAX_JOB_SERIAL - 1) << 16 < 1 << 62
        with pytest.raises(ValueError):
            job_context(0)


class TestHappyPath:
    def test_submit_and_result(self, client):
        job = client.run(JobSpec(benchmark="osu_latency", ranks=2,
                                 options=FAST), timeout=60)
        assert job["state"] == DONE
        table = table_from_wire(job["result"])
        assert table.benchmark == "osu_latency"
        assert [r.size for r in table.rows] == [1, 2, 4, 8, 16]

    def test_collective_uses_whole_pool(self, client):
        job = client.run(JobSpec(benchmark="osu_allreduce", ranks=4,
                                 options={**FAST, "min_size": 4}),
                         timeout=60)
        assert job["state"] == DONE
        assert table_from_wire(job["result"]).ranks == 4

    def test_status_is_health_probe(self, client):
        status = client.status()
        assert status["state"] == SERVING
        assert status["pool"]["live"] == 4
        assert status["pool"]["failed_ranks"] == []
        assert "service.jobs.submitted" in status["metrics"]["counters"]

    def test_unknown_benchmark_rejected(self, client):
        with pytest.raises(ServiceError, match="unknown benchmark"):
            client.submit(JobSpec(benchmark="osu_nope", ranks=2))

    def test_bad_options_rejected(self, client):
        with pytest.raises(ServiceError, match="invalid benchmark options"):
            client.submit(JobSpec(benchmark="osu_latency", ranks=2,
                                  options={"iterations": -5}))

    def test_too_many_ranks_rejected(self, client):
        with pytest.raises(ServiceError, match="only 4 are live"):
            client.submit(JobSpec(benchmark="osu_latency", ranks=5))


class TestAdmissionControl:
    def test_queue_full_is_backpressure(self, client):
        # Occupy all 4 ranks, then fill the depth-4 queue.
        blocker = client.submit(JobSpec(kind=KIND_SLEEP, ranks=4,
                                        seconds=3.0))
        client.wait_state(blocker, states=("RUNNING",), timeout=10)
        queued = [client.submit(JobSpec(kind=KIND_SLEEP, ranks=4,
                                        seconds=0.05))
                  for _ in range(4)]
        with pytest.raises(ServiceError, match="queue full"):
            client.submit(JobSpec(kind=KIND_SLEEP, ranks=2, seconds=0.05))
        client.cancel(blocker)
        for job_id in queued:
            job = client.result(job_id, wait=True, timeout=30)
            assert job["state"] == DONE

    def test_priority_orders_queue(self, client):
        blocker = client.submit(JobSpec(kind=KIND_SLEEP, ranks=4,
                                        seconds=2.0))
        client.wait_state(blocker, states=("RUNNING",), timeout=10)
        low = client.submit(JobSpec(kind=KIND_SLEEP, ranks=4,
                                    seconds=0.05, priority=0))
        high = client.submit(JobSpec(kind=KIND_SLEEP, ranks=4,
                                     seconds=0.05, priority=5))
        client.cancel(blocker)
        high_rec = client.result(high, wait=True, timeout=30)
        low_rec = client.result(low, wait=True, timeout=30)
        assert high_rec["state"] == DONE and low_rec["state"] == DONE
        assert high_rec["started_at"] < low_rec["started_at"]

    def test_draining_rejects_submits(self, service, client):
        client.drain()
        with pytest.raises(ServiceError, match="draining"):
            client.submit(JobSpec(kind=KIND_SLEEP, ranks=2, seconds=0.0))


class TestDeadlines:
    def test_deadline_kills_job(self, client):
        start = time.monotonic()
        job = client.run(JobSpec(kind=KIND_SLEEP, ranks=2, seconds=30.0,
                                 deadline_s=0.3), timeout=20)
        assert job["state"] == DEADLINE
        assert "deadline exceeded" in job["error"]
        assert time.monotonic() - start < 10.0

    def test_pool_survives_deadline_kill(self, client):
        job = client.run(JobSpec(kind=KIND_SLEEP, ranks=4, seconds=30.0,
                                 deadline_s=0.3), timeout=20)
        assert job["state"] == DEADLINE
        # All four ranks must be reusable afterwards.
        after = client.run(JobSpec(benchmark="osu_allreduce", ranks=4,
                                   options={**FAST, "min_size": 4}),
                           timeout=60)
        assert after["state"] == DONE

    def test_deadline_is_not_retried(self, client):
        job = client.run(JobSpec(kind=KIND_SLEEP, ranks=2, seconds=30.0,
                                 deadline_s=0.2, max_retries=5), timeout=20)
        assert job["state"] == DEADLINE
        assert job["attempts"] == 1


class TestCancelAndDrain:
    def test_cancel_queued_job(self, client):
        blocker = client.submit(JobSpec(kind=KIND_SLEEP, ranks=4,
                                        seconds=2.0))
        client.wait_state(blocker, states=("RUNNING",), timeout=10)
        queued = client.submit(JobSpec(kind=KIND_SLEEP, ranks=2,
                                       seconds=0.1))
        assert client.cancel(queued)["state"] == CANCELLED
        assert client.cancel(blocker)["state"] == CANCELLED

    def test_cancel_running_job_frees_ranks(self, client):
        job_id = client.submit(JobSpec(kind=KIND_SLEEP, ranks=4,
                                       seconds=30.0))
        client.wait_state(job_id, states=("RUNNING",), timeout=10)
        client.cancel(job_id)
        job = client.result(job_id, wait=True, timeout=20)
        assert job["state"] == CANCELLED
        after = client.run(JobSpec(kind=KIND_SLEEP, ranks=4, seconds=0.0),
                           timeout=20)
        assert after["state"] == DONE

    def test_drain_finishes_queued_work(self, service, client):
        job_id = client.submit(JobSpec(kind=KIND_SLEEP, ranks=2,
                                       seconds=0.3))
        client.drain()
        job = client.result(job_id, wait=True, timeout=20)
        assert job["state"] == DONE
        deadline = time.monotonic() + 15.0
        while service.state != STOPPED and time.monotonic() < deadline:
            time.sleep(0.05)
        assert service.state == STOPPED

    def test_stop_is_idempotent(self, tmp_path):
        svc = BenchmarkService(pool_size=2,
                               socket_path=str(tmp_path / "s.sock"))
        svc.start()
        svc.stop()
        svc.stop()
        assert svc.state == STOPPED


class TestIsolation:
    def test_concurrent_jobs_do_not_cross_match(self, client):
        """Two identical benchmarks on disjoint rank pairs, both under
        the runtime verifier: overlapping tags in different job contexts
        must never cross-match or trip the collective ledger."""
        ids = [
            client.submit(JobSpec(benchmark="osu_latency", ranks=2,
                                  options=FAST, validate=True))
            for _ in range(2)
        ]
        jobs = [client.result(j, wait=True, timeout=60) for j in ids]
        states = [j["state"] for j in jobs]
        assert states == [DONE, DONE], [j.get("error") for j in jobs]

    def test_concurrent_submitters(self, service):
        """Four client threads hammering the same service; every job
        completes with a coherent result."""
        outcomes = []
        lock = threading.Lock()

        def one(i):
            with ServiceClient(socket_path=service.address,
                               timeout=30.0) as c:
                job = c.run(JobSpec(benchmark="osu_latency", ranks=2,
                                    options=FAST), timeout=60)
                with lock:
                    outcomes.append(job["state"])

        threads = [threading.Thread(target=one, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=90)
        assert outcomes == [DONE] * 4

    def test_app_error_fails_only_that_job(self, client):
        # osu_mbw_mr passes admission (min_ranks=2) but raises on the
        # pool ranks: it needs an even rank count and gets 3.
        job = client.run(JobSpec(benchmark="osu_mbw_mr", ranks=3,
                                 options=FAST), timeout=30)
        assert job["state"] == FAILED
        assert "even number of ranks" in job["error"]
        assert job["attempts"] == 1    # app errors are never retried
        # The pool must keep serving, all four ranks intact.
        after = client.run(JobSpec(benchmark="osu_allreduce", ranks=4,
                                   options={**FAST, "min_size": 4}),
                           timeout=60)
        assert after["state"] == DONE


class TestPoolLifecycle:
    def test_pool_stop_idempotent(self):
        pool = ThreadRankPool(2)
        pool.stop()
        pool.stop()

    def test_describe(self):
        pool = ThreadRankPool(3)
        try:
            d = pool.describe()
            assert d["substrate"] == "threads"
            assert (d["size"], d["live"], d["free"]) == (3, 3, 3)
        finally:
            pool.stop()
