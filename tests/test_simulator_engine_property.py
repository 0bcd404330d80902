"""Property tests for the discrete-event engine.

Random-but-deadlock-free communication patterns (rings, pairwise
exchanges, random matched send/recv schedules) must complete, and their
finish times must respect analytic lower/upper bounds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import simulate
from repro.simulator.loggp import NetworkModel


def _net(alpha, beta):
    return NetworkModel(alpha_us=alpha, beta_us_per_byte=beta)


@given(
    st.integers(2, 8),
    st.integers(1, 5),
    st.floats(0.1, 5.0),
    st.floats(1e-6, 1e-3),
)
@settings(max_examples=40, deadline=None)
def test_ring_rounds_finish_time_exact(p, rounds, alpha, beta):
    """k ring rounds cost exactly k * latency(n) for every rank."""
    net = _net(alpha, beta)
    n = 128

    def prog(rank, size):
        right = (rank + 1) % size
        left = (rank - 1) % size
        for _ in range(rounds):
            yield ("sendrecv", right, left, bytes(n), n)

    clocks = simulate([prog(r, p) for r in range(p)], net).clocks
    expected = rounds * net.latency_us(n)
    assert all(abs(c - expected) < 1e-9 for c in clocks)


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_matched_random_schedule_completes(pairs, seed):
    """Random per-pair message schedules (matched counts) never deadlock
    and respect causality: receiver finish >= sender's last send time."""
    rng = np.random.default_rng(seed)
    counts = [int(rng.integers(1, 6)) for _ in range(pairs)]
    sizes = [[int(rng.integers(0, 4096)) for _ in range(c)] for c in counts]
    net = _net(1.0, 1e-4)

    programs = []
    for pair in range(pairs):
        def sender(rank, p, msgs=sizes[pair]):
            for n in msgs:
                yield ("send", rank + 1, bytes(n))
                yield ("compute", 0.05)

        def receiver(rank, p, msgs=sizes[pair]):
            for _ in msgs:
                yield ("recv", rank - 1, 4096)

        programs.append(sender)
        programs.append(receiver)

    progs = [programs[i](i, 2 * pairs) for i in range(2 * pairs)]
    clocks = simulate(progs, net).clocks
    for pair in range(pairs):
        sender_clock = clocks[2 * pair]
        receiver_clock = clocks[2 * pair + 1]
        # The receiver can only finish after the last message arrives.
        last = sizes[pair][-1]
        assert receiver_clock >= sender_clock - 0.05  # sender's trailing compute
        assert receiver_clock >= net.latency_us(last)


@given(st.integers(2, 8), st.floats(0.0, 2.0))
@settings(max_examples=30, deadline=None)
def test_send_overhead_linear_in_ring(p, overhead):
    """Per-send overhead adds exactly (rounds * overhead) to a ring."""
    net = _net(1.0, 1e-4)
    rounds = 3

    def prog(rank, size):
        right = (rank + 1) % size
        left = (rank - 1) % size
        for _ in range(rounds):
            yield ("sendrecv", right, left, bytes(64), 64)

    base = max(simulate([prog(r, p) for r in range(p)], net).clocks)
    slowed = max(simulate(
        [prog(r, p) for r in range(p)], net,
        per_send_overhead_us=overhead,
    ).clocks)
    assert slowed >= base
    assert abs(slowed - (base + rounds * overhead)) < 1e-6


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_fan_in_serializes_at_receiver(seed):
    """Messages from many senders to one receiver: completion time is at
    least the max single-path time and at most the sum of all paths."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(3, 8))
    net = _net(0.5, 5e-5)
    sizes = [int(rng.integers(0, 8192)) for _ in range(p - 1)]

    def sender(rank, size):
        yield ("send", 0, bytes(sizes[rank - 1]))

    def sink(rank, size):
        for src in range(1, size):
            yield ("recv", src, 8192)

    progs = [sink(0, p)] + [sender(r, p) for r in range(1, p)]
    clocks = simulate(progs, net).clocks
    lower = max(net.latency_us(n) for n in sizes)
    upper = sum(net.latency_us(n) for n in sizes) + 1e-9
    assert lower - 1e-9 <= clocks[0] <= upper
