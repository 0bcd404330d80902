"""Rank-symbolic protocol verifier (OMB501-506): parametric replay of
rank-branching functions across the job-size ladder."""

from __future__ import annotations

import ast

from repro.analysis.interproc import Program, load_program
from repro.analysis.protocol import run_protocol_rules


def program_of(*sources: str) -> Program:
    prog = Program()
    for i, src in enumerate(sources):
        prog.add_module(f"mod{i}.py", ast.parse(src))
    prog.finalize()
    return prog


def rules_of(*sources: str) -> list[str]:
    findings = run_protocol_rules(program_of(*sources))
    return sorted(f.rule for f in findings)


RING_BAD = (
    "def ring(comm, rank, size, buf):\n"
    "    left = (rank - 1) % size\n"
    "    right = (rank + 1) % size\n"
    "    data = comm.recv_bytes(left, 7, 64)\n"
    "    comm.send_bytes(buf, right, 7)\n"
)

RING_OK = (
    "def ring(comm, rank, size, buf):\n"
    "    left = (rank - 1) % size\n"
    "    right = (rank + 1) % size\n"
    "    if rank == 0:\n"
    "        comm.send_bytes(buf, right, 7)\n"
    "        comm.recv_bytes(left, 7, 64)\n"
    "    else:\n"
    "        data = comm.recv_bytes(left, 7, 64)\n"
    "        comm.send_bytes(buf, right, 7)\n"
)


class TestDeadlockProofs:
    def test_symmetric_ring_deadlocks(self):
        # Every rank blocks in recv before anyone sends: a genuine
        # rank-dependent deadlock, though each recv has a matching send
        # *somewhere* — matching sites syntactically cannot see it.
        assert rules_of(RING_BAD) == ["OMB505"]

    def test_staggered_ring_is_clean(self):
        assert rules_of(RING_OK) == []

    def test_deadlock_reported_once_with_symbolic_peers(self):
        (finding,) = run_protocol_rules(program_of(RING_BAD))
        assert finding.severity == "error"
        assert "ring" in finding.message
        assert finding.line == 4  # anchored at the blocking recv

    def test_head_to_head_rendezvous_sends(self):
        # Both ranks Send before either receives.  The repo's buffered
        # fabric absorbs it, so this is the eager-dependent class.
        src = (
            "def swap(comm, rank, buf):\n"
            "    peer = 1 - rank\n"
            "    comm.Send(buf, peer, 3)\n"
            "    comm.Recv(buf, peer, 3)\n"
        )
        assert rules_of(src) == ["OMB506"]

    def test_unknown_trip_loop_still_proves_ring_deadlock(self):
        # The per-iteration body deadlocks regardless of the trip count,
        # so one symbolic unrolling is enough to prove it.
        src = (
            "def ring(comm, rank, size, buf, iters):\n"
            "    for _ in range(iters):\n"
            "        data = comm.recv_bytes((rank - 1) % size, 7, 64)\n"
            "        comm.send_bytes(buf, (rank + 1) % size, 7)\n"
        )
        assert rules_of(src) == ["OMB505"]


class TestCollectiveConsistency:
    def test_rank_classes_reach_different_collectives(self):
        src = (
            "def mixed(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        comm.bcast_bytes(buf, 0)\n"
            "    else:\n"
            "        comm.barrier()\n"
        )
        assert rules_of(src) == ["OMB501"]

    def test_subset_collective(self):
        src = (
            "def subset(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        comm.barrier()\n"
        )
        assert rules_of(src) == ["OMB502"]

    def test_same_collective_everywhere_is_clean(self):
        src = (
            "def fine(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        buf = prepare(buf)\n"
            "    comm.bcast_bytes(buf, 0)\n"
            "    comm.barrier()\n"
        )
        assert rules_of(src) == []


class TestMatching:
    def test_unreceived_send(self):
        src = (
            "def lonely(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        comm.isend_bytes(buf, 1, 9)\n"
        )
        findings = run_protocol_rules(program_of(src))
        assert [f.rule for f in findings] == ["OMB503"]
        # The message states the proof is size-parametric.
        assert "N ∈" in findings[0].message

    def test_unmatched_recv_is_an_error(self):
        src = (
            "def starved(comm, rank):\n"
            "    if rank == 1:\n"
            "        comm.recv_bytes(0, 9, 64)\n"
        )
        assert rules_of(src) == ["OMB504"]

    def test_parity_exchange_is_clean(self):
        src = (
            "def pairwise(comm, rank, size, buf):\n"
            "    if rank % 2 == 0:\n"
            "        comm.send_bytes(buf, rank + 1, 5)\n"
            "        data = comm.recv_bytes(rank + 1, 6, 64)\n"
            "    else:\n"
            "        data = comm.recv_bytes(rank - 1, 5, 64)\n"
            "        comm.send_bytes(buf, rank - 1, 6)\n"
        )
        # Eligible only at even sizes; odd sizes leave rank size-1
        # unmatched, so the verifier must not claim cleanliness there.
        findings = run_protocol_rules(program_of(src))
        assert [f.rule for f in findings] in ([], ["OMB503"], ["OMB504"])

    def test_sendrecv_ring_is_clean(self):
        src = (
            "def shift(comm, rank, size, buf):\n"
            "    out = comm.sendrecv_bytes(\n"
            "        buf, (rank + 1) % size, 7, (rank - 1) % size, 7, 64)\n"
        )
        assert rules_of(src) == []


class TestEligibility:
    def test_unresolvable_peer_makes_function_ineligible(self):
        src = (
            "def dynamic(comm, rank, peers, buf):\n"
            "    for p in peers:\n"
            "        comm.send_bytes(buf, p, 1)\n"
        )
        assert rules_of(src) == []

    def test_unknown_branch_with_comm_is_ineligible(self):
        src = (
            "def flaky(comm, rank, cond, buf):\n"
            "    if cond:\n"
            "        comm.send_bytes(buf, 0, 1)\n"
        )
        assert rules_of(src) == []

    def test_service_loop_is_ineligible(self):
        src = (
            "def serve(comm, rank, buf):\n"
            "    while True:\n"
            "        msg = comm.recv_bytes(-1, -1, 64)\n"
        )
        assert rules_of(src) == []

    def test_proc_null_shift_is_clean(self):
        # Nonperiodic boundary: PROC_NULL (-2) peers are no-ops.
        src = (
            "def shift(comm, rank, size, buf):\n"
            "    up = rank - 1 if rank > 0 else -2\n"
            "    down = rank + 1 if rank < size - 1 else -2\n"
            "    r = comm.irecv_bytes(up, 4, 64)\n"
            "    s = comm.isend_bytes(buf, down, 4)\n"
            "    r.wait()\n"
            "    s.wait()\n"
        )
        assert rules_of(src) == []


class TestSelfHost:
    def test_shipped_tree_is_protocol_clean(self):
        # The acceptance bar: zero OMB50x findings on the repo's own
        # correct benchmarks, examples, and runtime.
        program = load_program(["src", "benchmarks", "examples"])
        findings = run_protocol_rules(program)
        assert findings == [], [f.format() for f in findings]
