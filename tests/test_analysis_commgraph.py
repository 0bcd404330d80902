"""The fixtures of the retired static communication graph (OMB401-403),
each with its verdict under the protocol verifier (OMB501-506), now the
one send/recv matching pass.  Each class keeps the name of the retired
rule its fixtures were written for.

The verifier replays every function as one SPMD program at each sampled
job size, so a verdict names the size N at which a rank blocks.  The
fixtures that only passed through cross-function literal-tag pairing or
through the exemption of internal tags went with that behaviour.
"""

from __future__ import annotations

import ast

from repro.analysis import rules
from repro.analysis.interproc import Program
from repro.analysis.protocol import build_traces, run_protocol_rules


def program_of(*sources: str) -> Program:
    prog = Program()
    for i, src in enumerate(sources):
        prog.add_module(f"mod{i}.py", ast.parse(src))
    prog.finalize()
    return prog


def verdicts(*sources: str) -> list[tuple[str, int, str, str]]:
    """(path, line, rule, message) per finding, in source order."""
    return sorted(
        (f.path, f.line, f.rule, f.message)
        for f in run_protocol_rules(program_of(*sources))
    )


def rules_of(*sources: str) -> list[str]:
    return [rule for _path, _line, rule, _msg in verdicts(*sources)]


def traces_of(src: str, size: int):
    """Per-rank (kind, method, peer, tag) of the one function in ``src``;
    None when the verifier cannot replay it."""
    (info,) = [
        i for i in program_of(src).functions if not i.is_module_level()
    ]
    traces = build_traces(info, frozenset(), size)
    if traces is None:
        return None
    return [
        [(op.kind, op.method, op.peer, op.tag) for op in trace]
        for trace in traces
    ]


class TestSiteExtraction:
    def test_tags_peers_and_kinds(self):
        src = (
            "def exchange(comm, rank, buf):\n"
            "    comm.send_bytes(buf, 1, 7)\n"
            "    comm.recv_bytes(0, 7)\n"
            "    comm.allreduce(buf)\n"
        )
        calls = sorted(
            (n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.Call)),
            key=lambda n: n.lineno,
        )
        specs = [rules.comm_call(call) for call in calls]
        assert [s.kind for s in specs] == ["send", "recv", "collective"]

        def literal(call, index, keywords):
            return rules._literal_int(rules.call_arg(call, index, keywords))

        for call, spec, want in zip(calls, specs, ((1, 7), (0, 7))):
            assert (
                literal(call, spec.peer, rules.PEER_KEYWORDS),
                literal(call, spec.tag, rules.TAG_KEYWORDS),
            ) == want

    def test_keyword_and_wildcard_arguments(self):
        src = (
            "def pull(comm, rank, buf):\n"
            "    comm.recv(source=ANY_SOURCE, tag=ANY_TAG)\n"
        )
        # None is the wildcard in a trace.
        assert traces_of(src, 2) == [[("recv", "recv", None, None)]] * 2

    def test_rank_guard_becomes_role(self):
        src = (
            "def main(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        comm.send_bytes(buf, 1, 5)\n"
            "    elif rank == 1:\n"
            "        comm.recv_bytes(0, 5)\n"
            "    comm.bcast_bytes(buf)\n"
        )
        bcast = ("coll", "bcast_bytes", None, None)
        assert traces_of(src, 3) == [
            [("isend", "send_bytes", 1, 5), bcast],
            [("recv", "recv_bytes", 0, 5), bcast],
            [bcast],  # outside every guard
        ]

    def test_symbolic_tag_is_none(self):
        # A tag the verifier cannot evaluate makes the function
        # ineligible: no trace, so no verdict either way.
        src = (
            "def relay(comm, rank, buf, tag):\n"
            "    comm.send_bytes(buf, 1, tag)\n"
        )
        assert traces_of(src, 2) is None
        assert rules_of(src) == []

    def test_ambiguous_receiver_ignored(self):
        # queue.send(...) on a non-comm-looking receiver is not MPI.
        src = (
            "def post(queue, item):\n"
            "    queue.send(item)\n"
        )
        (call,) = [
            n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.Call)
        ]
        assert rules.comm_call(call) is None
        assert traces_of(src, 2) == [[], []]


class TestOMB401UnmatchedSend:
    def test_literal_tag_with_no_matching_recv(self):
        src = (
            "def left(comm, rank, buf):\n"
            "    comm.send_bytes(buf, 1, 42)\n"
            "def right(comm, rank):\n"
            "    comm.recv_bytes(0, 7)\n"
        )
        (send, recv) = verdicts(src)
        assert send[1:3] == (2, "OMB503")
        assert "never received at any sampled size" in send[3]
        # Every rank waits on rank 0, which waits on itself: no cycle of
        # distinct ranks, so the receive is simply never matched.
        assert recv[1:3] == (4, "OMB504")
        assert "at N=2" in recv[3]


class TestOMB402UnmatchedRecv:
    def test_literal_recv_tag_with_no_send(self):
        src = (
            "def right(comm, rank):\n"
            "    comm.recv_bytes(0, 13)\n"
        )
        ((_path, line, rule, message),) = verdicts(src)
        assert (line, rule) == (2, "OMB504")
        assert "at N=2" in message


class TestOMB403WaitCycle:
    def test_head_to_head_recv_flagged(self):
        src = (
            "def main(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        comm.recv_bytes(1, 3)\n"
            "        comm.send_bytes(buf, 1, 3)\n"
            "    if rank == 1:\n"
            "        comm.recv_bytes(0, 3)\n"
            "        comm.send_bytes(buf, 0, 3)\n"
        )
        ((_path, line, rule, message),) = verdicts(src)
        assert (line, rule) == (3, "OMB505")  # one finding per cycle
        assert "deadlock at N=2: ranks 0,1" in message

    def test_send_first_order_clean(self):
        src = (
            "def main(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        comm.send_bytes(buf, 1, 3)\n"
            "        comm.recv_bytes(1, 3)\n"
            "    if rank == 1:\n"
            "        comm.recv_bytes(0, 3)\n"
            "        comm.send_bytes(buf, 0, 3)\n"
        )
        assert rules_of(src) == []

    def test_nonblocking_recv_clean(self):
        src = (
            "def main(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        req = comm.irecv_bytes(1, 3)\n"
            "        comm.send_bytes(buf, 1, 3)\n"
            "    if rank == 1:\n"
            "        req = comm.irecv_bytes(0, 3)\n"
            "        comm.send_bytes(buf, 0, 3)\n"
        )
        assert rules_of(src) == []

    def test_roles_in_different_files_do_not_pair(self):
        # Each function is its own SPMD program: in a() rank 1 never
        # sends, so rank 0 hangs at N=2; b() is the mirror image.
        left = (
            "def a(comm, rank, buf):\n"
            "    if rank == 0:\n"
            "        comm.recv_bytes(1, 3)\n"
            "        comm.send_bytes(buf, 1, 3)\n"
        )
        right = (
            "def b(comm, rank, buf):\n"
            "    if rank == 1:\n"
            "        comm.recv_bytes(0, 3)\n"
            "        comm.send_bytes(buf, 0, 3)\n"
        )
        a, b = verdicts(left, right)
        assert a[:3] == ("mod0.py", 3, "OMB504")
        assert "rank 0 block forever" in a[3] and "at N=2" in a[3]
        assert b[:3] == ("mod1.py", 3, "OMB504")
        assert "rank 1 block forever" in b[3] and "at N=2" in b[3]


class TestGuardNormalization:
    """Equivalent-but-textually-different rank predicates select the
    same ranks: `rank == 0`, `0 == rank`, `not rank`, and the else arm
    of `rank != 0` all run on rank 0 alone."""

    def test_not_rank_pairs_with_literal_guard(self):
        src = (
            "def main(comm, rank, buf):\n"
            "    if not rank:\n"
            "        comm.send_bytes(buf, 1, 3)\n"
            "    if rank == 1:\n"
            "        comm.recv_bytes(0, 3)\n"
        )
        assert rules_of(src) == []

    def test_reversed_compare_pairs(self):
        src = (
            "def main(comm, rank, buf):\n"
            "    if 0 == rank:\n"
            "        comm.send_bytes(buf, 1, 3)\n"
            "    if 1 == rank:\n"
            "        comm.recv_bytes(0, 3)\n"
        )
        assert rules_of(src) == []

    def test_else_of_rank_ne_zero_is_role_zero(self):
        # Rank 0 sends to rank 1 only, so from N=3 on rank 2 waits for a
        # message nobody sends.
        src = (
            "def main(comm, rank, buf):\n"
            "    if rank != 0:\n"
            "        comm.recv_bytes(0, 3)\n"
            "    else:\n"
            "        comm.send_bytes(buf, 1, 3)\n"
        )
        ((_path, line, rule, message),) = verdicts(src)
        assert (line, rule) == (3, "OMB504")
        assert "rank 2 block forever" in message and "at N=3" in message

    def test_bare_rank_truthiness_else_arm(self):
        src = (
            "def main(comm, rank, buf):\n"
            "    if rank:\n"
            "        comm.recv_bytes(0, 3)\n"
            "    else:\n"
            "        comm.send_bytes(buf, 1, 3)\n"
        )
        ((_path, line, rule, message),) = verdicts(src)
        assert (line, rule) == (3, "OMB504")
        assert "rank 2 block forever" in message and "at N=3" in message

    def test_true_tag_mismatch_still_flagged(self):
        # Normalization must not swallow real mismatches: these tags
        # can never rendezvous, whatever the guard spelling.
        src = (
            "def main(comm, rank, buf):\n"
            "    if not rank:\n"
            "        comm.send_bytes(buf, 1, 3)\n"
            "    if rank == 1:\n"
            "        comm.recv_bytes(0, 4)\n"
        )
        ((_path, line, rule, message),) = verdicts(src)
        assert (line, rule) == (5, "OMB504")
        assert "rank 1 block forever" in message and "at N=2" in message
