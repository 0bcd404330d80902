"""Fault-injection layer tests: plans, determinism, ordering invariants."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    CrashSpec, FaultEvent, FaultPlan, FaultyTransport, InjectedCrash,
)
from repro.mpi.matching import Envelope, MatchingEngine
from repro.mpi.transport.base import (
    CONTROL_CONTEXT, CTRL_HEARTBEAT, Transport, control_envelope,
)


class RecordingTransport(Transport):
    """Fake inner transport that records every delivered frame."""

    def __init__(self, world_rank=0, world_size=4):
        super().__init__(world_rank, world_size)
        self.sent = []          # (dest, env, payload) in delivery order
        self.closed = False

    def send(self, dest_world_rank, env, payload):
        self.sent.append((dest_world_rank, env, payload))

    def close(self):
        self.closed = True


def _env(dest, tag, nbytes, source=0, context=0):
    return Envelope(context, source, dest, tag, nbytes)


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan(
            seed=42, drop=0.1, duplicate=0.05, delay=0.2, delay_hold=5,
            truncate=0.01, stall=0.02, stall_ms=3.5,
            crash=CrashSpec(rank=1, at_op=40, exit_code=7, mode="exit"),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_roundtrip_without_crash(self):
        plan = FaultPlan(seed=1, drop=0.5)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan and restored.crash is None

    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan.chaos(7)
        path = tmp_path / "plan.json"
        plan.to_file(str(path))
        assert FaultPlan.from_file(str(path)) == plan

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan field"):
            FaultPlan.from_json(json.dumps({"seed": 1, "frobnicate": 0.5}))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    @pytest.mark.parametrize("field", ("drop", "duplicate", "delay",
                                       "truncate", "stall"))
    def test_rate_out_of_range_rejected(self, field):
        with pytest.raises(ValueError, match="rate must be in"):
            FaultPlan(**{field: 1.5})

    def test_crash_validation(self):
        with pytest.raises(ValueError, match="mode"):
            CrashSpec(rank=0, at_op=0, mode="segfault")
        with pytest.raises(ValueError, match=">= 0"):
            CrashSpec(rank=-1, at_op=0)

    def test_active(self):
        assert not FaultPlan(seed=9).active
        assert FaultPlan(seed=9, drop=0.1).active
        assert FaultPlan(seed=9, crash=CrashSpec(rank=0, at_op=1)).active

    def test_chaos_defaults_are_survivable(self):
        plan = FaultPlan.chaos(3)
        assert plan.seed == 3 and plan.active
        # Default mix must never lose or duplicate messages — a bare
        # --fault-seed run has to complete, not deadlock the benchmark.
        assert plan.drop == 0 and plan.duplicate == 0 and plan.truncate == 0
        assert plan.delay > 0 and plan.stall > 0

    def test_chaos_overrides_enable_destructive_faults(self):
        plan = FaultPlan.chaos(3, drop=0.25)
        assert plan.drop == 0.25 and plan.delay > 0

    def test_rng_is_per_rank(self):
        plan = FaultPlan(seed=5)
        a = [plan.rng_for(0).random() for _ in range(4)]
        b = [plan.rng_for(1).random() for _ in range(4)]
        assert a != b
        assert a == [plan.rng_for(0).random() for _ in range(4)]

    def test_crashes_selects_rank(self):
        plan = FaultPlan(seed=0, crash=CrashSpec(rank=2, at_op=9))
        assert plan.crashes(2) is plan.crash
        assert plan.crashes(0) is None


class TestBackstop:
    """Satellite: the held-message wall-clock backstop as a plan field."""

    def test_plan_field_json_roundtrip(self):
        plan = FaultPlan(seed=2, delay=0.5, backstop_ms=120.0)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan and restored.backstop_ms == 120.0

    def test_default_and_validation(self):
        assert FaultPlan(seed=0).backstop_ms == 500.0
        with pytest.raises(ValueError, match="backstop_ms"):
            FaultPlan(seed=0, backstop_ms=0)

    def test_env_knob_overrides_plan(self, monkeypatch):
        plan = FaultPlan(seed=0, delay=0.1, backstop_ms=400.0)
        monkeypatch.delenv("OMBPY_FAULT_BACKSTOP_MS", raising=False)
        faulty = FaultyTransport(RecordingTransport(), plan)
        assert faulty.max_hold_seconds == pytest.approx(0.4)
        faulty.close()
        monkeypatch.setenv("OMBPY_FAULT_BACKSTOP_MS", "50")
        faulty = FaultyTransport(RecordingTransport(), plan)
        assert faulty.max_hold_seconds == pytest.approx(0.05)
        faulty.close()
        monkeypatch.setenv("OMBPY_FAULT_BACKSTOP_MS", "-1")
        with pytest.raises(ValueError, match="OMBPY_FAULT_BACKSTOP_MS must be"):
            FaultyTransport(RecordingTransport(), plan)

    def test_backstop_releases_stranded_held_message(self):
        """A sender that goes quiet cannot strand its delayed messages."""
        import time

        plan = FaultPlan(seed=0, delay=1.0, delay_hold=1000,
                         backstop_ms=50.0)
        inner = RecordingTransport()
        faulty = FaultyTransport(inner, plan)
        try:
            faulty.send(1, _env(1, 0, 2), b"hi")
            assert inner.sent == []  # held, and no further op will free it
            deadline = time.monotonic() + 5.0
            while not inner.sent and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [p for _d, _e, p in inner.sent] == [b"hi"]
        finally:
            faulty.close()


def _drive(plan, ops, rank=0, size=4):
    """Run a send sequence through a fresh injector; return (inner, faulty)."""
    inner = RecordingTransport(world_rank=rank, world_size=size)
    faulty = FaultyTransport(inner, plan)
    for dest, tag, payload in ops:
        faulty.send(dest, _env(dest, tag, len(payload), source=rank), payload)
    return inner, faulty


_OPS = [(d, t, bytes([t]) * (t + 1)) for t in range(40) for d in (1, 2, 3)]


class TestDeterministicReplay:
    def test_same_plan_same_schedule(self):
        plan = FaultPlan(seed=1234, drop=0.1, duplicate=0.1, delay=0.15,
                         truncate=0.05)
        _inner_a, faulty_a = _drive(plan, _OPS)
        _inner_b, faulty_b = _drive(plan, _OPS)
        assert faulty_a.event_lines() == faulty_b.event_lines()
        assert len(faulty_a.event_lines()) > 0

    def test_replay_delivers_identical_frames(self):
        plan = FaultPlan(seed=99, drop=0.1, duplicate=0.1, delay=0.15)
        inner_a, fa = _drive(plan, _OPS)
        inner_b, fb = _drive(plan, _OPS)
        fa.flush()
        fb.flush()
        assert inner_a.sent == inner_b.sent

    def test_different_seed_different_schedule(self):
        base = dict(drop=0.1, duplicate=0.1, delay=0.15)
        _i, fa = _drive(FaultPlan(seed=1, **base), _OPS)
        _i, fb = _drive(FaultPlan(seed=2, **base), _OPS)
        assert fa.event_lines() != fb.event_lines()

    def test_event_log_written_per_rank(self, tmp_path):
        plan = FaultPlan(seed=7, drop=0.5)
        inner = RecordingTransport(world_rank=2)
        faulty = FaultyTransport(inner, plan, log_path=str(tmp_path / "ev"))
        for dest, tag, payload in _OPS[:30]:
            faulty.send(dest, _env(dest, tag, len(payload)), payload)
        faulty.close()
        logged = (tmp_path / "ev.rank2").read_text().splitlines()
        assert logged == faulty.event_lines()
        assert inner.closed

    def test_control_frames_consume_no_rng(self):
        """Heartbeat timing must not perturb the fault schedule."""
        plan = FaultPlan(seed=5, drop=0.2, delay=0.2)
        inner_a, fa = _drive(plan, _OPS[:60])

        inner_b = RecordingTransport()
        fb = FaultyTransport(inner_b, plan)
        for i, (dest, tag, payload) in enumerate(_OPS[:60]):
            if i % 3 == 0:  # interleave control traffic at arbitrary points
                fb.send(1, control_envelope(CTRL_HEARTBEAT, 0, 1), b"")
            fb.send(dest, _env(dest, tag, len(payload)), payload)
        assert fa.event_lines() == fb.event_lines()
        data_b = [f for f in inner_b.sent if f[1].context != CONTROL_CONTEXT]
        assert [f[1] for f in inner_a.sent] == [f[1] for f in data_b]


class TestInjectionMechanics:
    def test_no_faults_is_passthrough(self):
        inner, faulty = _drive(FaultPlan(seed=0), _OPS)
        assert [(d, e, p) for d, e, p in inner.sent] == [
            (d, _env(d, t, len(p)), p) for d, t, p in _OPS
        ]
        assert faulty.event_lines() == []

    def test_drop_everything(self):
        inner, faulty = _drive(FaultPlan(seed=0, drop=1.0), _OPS)
        assert inner.sent == []
        assert all(" drop " in line for line in faulty.event_lines())

    def test_duplicate_everything(self):
        inner, _f = _drive(FaultPlan(seed=0, duplicate=1.0), _OPS[:6])
        assert len(inner.sent) == 12
        for i in range(0, 12, 2):
            assert inner.sent[i] == inner.sent[i + 1]

    def test_truncate_rewrites_envelope(self):
        inner, faulty = _drive(
            FaultPlan(seed=3, truncate=1.0), [(1, 0, b"x" * 100)]
        )
        (_d, env, payload), = inner.sent
        assert env.nbytes == len(payload) < 100
        assert any("truncate" in line for line in faulty.event_lines())

    def test_delay_holds_then_releases(self):
        # Only op 0 delayed (rate 1.0 would re-trigger; use targeted seed
        # scan): simplest deterministic check uses delay=1.0 — every op to
        # dest 1 queues behind the first hold, released delay_hold ops later.
        plan = FaultPlan(seed=0, delay=1.0, delay_hold=2)
        inner = RecordingTransport()
        faulty = FaultyTransport(inner, plan)
        faulty.send(1, _env(1, 0, 1), b"a")       # op 0: held until op 2
        assert inner.sent == []
        faulty.send(1, _env(1, 1, 1), b"b")       # op 1: queues behind
        assert inner.sent == []
        faulty.send(2, _env(2, 2, 1), b"c")       # op 2: releases dest 1
        tags = [e.tag for _d, e, _p in inner.sent]
        assert tags[:2] == [0, 1]                  # FIFO within dest 1

    def test_flush_preserves_fifo(self):
        plan = FaultPlan(seed=0, delay=1.0, delay_hold=50)
        inner = RecordingTransport()
        faulty = FaultyTransport(inner, plan)
        for tag in range(5):
            faulty.send(1, _env(1, tag, 1), b"z")
        assert inner.sent == []
        faulty.flush()
        assert [e.tag for _d, e, _p in inner.sent] == list(range(5))

    def test_stall_emits_event(self):
        _inner, faulty = _drive(
            FaultPlan(seed=0, stall=1.0, stall_ms=0.0), _OPS[:3]
        )
        assert sum("stall" in line for line in faulty.event_lines()) == 3

    def test_crash_raise_mode(self):
        plan = FaultPlan(
            seed=0, crash=CrashSpec(rank=0, at_op=2, exit_code=7,
                                    mode="raise"),
        )
        inner = RecordingTransport()
        faulty = FaultyTransport(inner, plan)
        faulty.send(1, _env(1, 0, 1), b"a")
        faulty.send(1, _env(1, 1, 1), b"b")
        with pytest.raises(InjectedCrash) as exc_info:
            faulty.send(1, _env(1, 2, 1), b"c")
        assert exc_info.value.exit_code == 7
        assert exc_info.value.op == 2
        assert len(inner.sent) == 2  # the crashing op's frame never left

    def test_crash_only_on_its_rank(self):
        plan = FaultPlan(
            seed=0, crash=CrashSpec(rank=3, at_op=0, mode="raise"),
        )
        inner, _f = _drive(plan, _OPS[:9], rank=0)
        assert len(inner.sent) == 9  # rank 0 unaffected

    def test_attach_propagates_to_inner(self):
        inner = RecordingTransport()
        faulty = FaultyTransport(inner, FaultPlan(seed=0))
        engine = MatchingEngine()
        faulty.attach(engine)
        assert inner.engine is engine and faulty.engine is engine
        assert faulty.name == "faulty(RecordingTransport)"


@st.composite
def _traffic(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    dests = draw(st.lists(
        st.integers(min_value=1, max_value=3), min_size=n, max_size=n,
    ))
    return dests


class TestNonOvertakingProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        dests=_traffic(),
        seed=st.integers(min_value=0, max_value=2**31),
        drop=st.floats(min_value=0, max_value=0.5),
        duplicate=st.floats(min_value=0, max_value=0.5),
        delay=st.floats(min_value=0, max_value=0.5),
        hold=st.integers(min_value=1, max_value=8),
    )
    def test_first_delivery_per_dest_is_monotone(
        self, dests, seed, drop, duplicate, delay, hold
    ):
        """drop+delay+duplicate never violate per-sender non-overtaking.

        For each destination, the sequence numbers of *first* deliveries
        must be strictly increasing — a later message may be lost or
        repeated, but never arrive before an earlier surviving one.
        """
        plan = FaultPlan(seed=seed, drop=drop, duplicate=duplicate,
                         delay=delay, delay_hold=hold)
        inner = RecordingTransport()
        faulty = FaultyTransport(inner, plan)
        for seq, dest in enumerate(dests):
            faulty.send(dest, _env(dest, tag=seq, nbytes=1), b"m")
        faulty.flush()

        first_seen: dict[int, list[int]] = {}
        for dest, env, _payload in inner.sent:
            seqs = first_seen.setdefault(dest, [])
            if env.tag not in seqs:
                seqs.append(env.tag)
        for dest, seqs in first_seen.items():
            assert seqs == sorted(seqs), (
                f"dest {dest} saw out-of-order first deliveries: {seqs}"
            )


class TestFaultEvent:
    def test_line_is_stable(self):
        event = FaultEvent(op=3, kind="drop", source=0, dest=1, context=0,
                           tag=5, nbytes=10)
        assert event.line() == (
            "op=000003 drop src=0 dest=1 ctx=0x0 tag=5 nbytes=10"
        )

    def test_detail_appended(self):
        event = FaultEvent(op=0, kind="delay", source=0, dest=1, context=0,
                           tag=0, nbytes=0, detail="hold=3")
        assert event.line().endswith(" hold=3")
