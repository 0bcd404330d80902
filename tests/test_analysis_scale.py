"""Scalability rules (OMB510-515): detection and the LogGP pricing
contract — every finding's cost string must match what the simulator's
analytic model computes for the same pattern."""

from __future__ import annotations

import ast
import inspect
import re

from repro.analysis.interproc import Program, load_program
from repro.analysis.scale import (
    ANNOTATE_N,
    DEFAULT_MSG_BYTES,
    DEFAULT_NET,
    fmt_us,
    projected_cost_us,
    run_scale_rules,
    scale_inventory,
)
from repro.mpi.collectives import schedule
from repro.simulator.collective_cost import _ceil_log2


def program_of(*sources: str) -> Program:
    prog = Program()
    for i, src in enumerate(sources):
        prog.add_module(f"mod{i}.py", ast.parse(src))
    prog.finalize()
    return prog


def rules_of(*sources: str) -> list[str]:
    return sorted(f.rule for f in run_scale_rules(program_of(*sources)))


class TestDetection:
    def test_mesh_dial_in_rank_loop(self):
        src = (
            "def establish(self, size):\n"
            "    for peer in range(self.world_rank):\n"
            "        sock = dial_with_retry(\n"
            "            lambda: socket.create_connection(addr))\n"
        )
        assert rules_of(src) == ["OMB510"]

    def test_root_accumulation(self):
        src = (
            "def gather_all(comm, rank, size):\n"
            "    parts = []\n"
            "    for src in range(size):\n"
            "        parts.append(comm.recv_bytes(src, 1, 64))\n"
            "    return parts\n"
        )
        assert rules_of(src) == ["OMB511"]

    def test_linear_fanout(self):
        src = (
            "def blast(comm, rank, size, buf):\n"
            "    for dst in range(size):\n"
            "        comm.send_bytes(buf, dst, 1)\n"
        )
        assert rules_of(src) == ["OMB512"]

    def test_helper_wrappers_count_as_comm(self):
        src = (
            "def linear(comm, size, tag, block):\n"
            "    for src in range(size):\n"
            "        out = crecv(comm, src, tag, block)\n"
        )
        assert rules_of(src) == ["OMB511"]

    def test_pairwise_exchange_is_not_flagged(self):
        # sendrecv per step is the optimal alltoall shape, not debt.
        src = (
            "def alltoall(comm, rank, size, buf):\n"
            "    for step in range(1, size):\n"
            "        peer = rank ^ step\n"
            "        out = comm.sendrecv_bytes(buf, peer, 1, peer, 1, 64)\n"
        )
        assert rules_of(src) == []

    def test_linear_schedule_steps_are_flagged(self):
        # A collective schedule's sends and receives are yielded steps,
        # and a loop over its member list is a rank loop.
        gather = (
            "def gather(members, me, root, block):\n"
            "    out = [block] * len(members)\n"
            "    for i, peer in enumerate(members):\n"
            "        if i != root:\n"
            "            out[i] = yield ('recv', peer, len(block))\n"
            "    return out\n"
        )
        scatter = (
            "def scatter(members, me, root, blocks):\n"
            "    for i in range(len(members)):\n"
            "        yield ('send', members[i], blocks[i])\n"
        )
        assert rules_of(gather) == ["OMB511"]
        assert rules_of(scatter) == ["OMB512"]

    def test_schedules_flag_exactly_the_linear_algorithms(self):
        findings = run_scale_rules(program_of(inspect.getsource(schedule)))
        assert sorted(
            (f.rule, re.match(r"'(\w+)'", f.message).group(1))
            for f in findings
        ) == [("OMB511", "linear_gather"), ("OMB512", "linear_scatter")]

    def test_tree_and_ring_schedules_are_not_flagged(self):
        for fn in (
            schedule.binomial_bcast, schedule.binomial_gather,
            schedule.binomial_scatter, schedule.ring_allgather,
            schedule.ring_allreduce, schedule.pairwise_alltoall,
            schedule.bruck_alltoall, schedule.dissemination_barrier,
        ):
            assert rules_of(inspect.getsource(fn)) == [], fn.__name__

    def test_bounded_loop_is_not_flagged(self):
        src = (
            "def warmup(comm, rank, buf):\n"
            "    for i in range(10):\n"
            "        comm.send_bytes(buf, 0, 1)\n"
        )
        assert rules_of(src) == []

    def test_thread_per_peer_in_rank_loop(self):
        src = (
            "def start(self, size):\n"
            "    for peer in range(size):\n"
            "        t = threading.Thread(target=self._loop, args=(peer,))\n"
            "        t.start()\n"
        )
        assert rules_of(src) == ["OMB513"]

    def test_thread_in_helper_called_from_rank_loop(self):
        # One level of interprocedural vision: the loop dials, the
        # helper it calls starts the per-peer reader thread.
        src = (
            "def establish(self, size):\n"
            "    for peer in range(size):\n"
            "        self._register(peer)\n"
            "\n"
            "def _register(self, peer):\n"
            "    t = threading.Thread(target=self._read, args=(peer,))\n"
            "    t.start()\n"
        )
        assert "OMB513" in rules_of(src)

    def test_thread_outside_any_rank_loop_is_fine(self):
        src = (
            "def start_progress(self):\n"
            "    t = threading.Thread(target=self._progress)\n"
            "    t.start()\n"
        )
        assert rules_of(src) == []

    def test_method_of_another_receiver_is_not_followed(self):
        # A rank loop's rows.append() and self.pool.run() are no calls to
        # the Store.append or Scheduler.run of another module, which open
        # one file and start one worker pool per call.
        loop = (
            "def collect(self, size):\n"
            "    rows = []\n"
            "    for peer in range(size):\n"
            "        rows.append(peer)\n"
            "        self.pool.run(peer)\n"
        )
        classes = (
            "class Store:\n"
            "    def append(self, row):\n"
            "        with open(self.path, 'a') as fh:\n"
            "            fh.write(row)\n"
            "\n"
            "class Scheduler:\n"
            "    def run(self):\n"
            "        t = threading.Thread(target=self._worker)\n"
            "        t.start()\n"
        )
        assert rules_of(loop, classes) == []

    def test_self_method_in_another_file_is_not_followed(self):
        # self.append() in a rank loop is this file's append, not the
        # Store.append another module defines.
        loop = (
            "class Table:\n"
            "    def fill(self, size):\n"
            "        for peer in range(size):\n"
            "            self.append(peer)\n"
            "\n"
            "    def append(self, peer):\n"
            "        self.rows.append(peer)\n"
        )
        store = (
            "class Store:\n"
            "    def append(self, row):\n"
            "        with open(self.path, 'a') as fh:\n"
            "            fh.write(row)\n"
        )
        assert rules_of(loop, store) == []

    def test_fd_per_peer(self):
        src = (
            "def mesh(self, size):\n"
            "    for peer in range(size):\n"
            "        s = socket.socket(socket.AF_UNIX)\n"
            "        s.connect(path(peer))\n"
        )
        assert rules_of(src) == ["OMB510", "OMB514"]

    def test_unbounded_hold_buffer(self):
        src = (
            "def on_frame(self, peer, seq, data):\n"
            "    if seq != peer.next_expected:\n"
            "        peer.buffered[seq] = data\n"
        )
        assert rules_of(src) == ["OMB515"]

    def test_hold_buffer_with_window_bound_is_fine(self):
        src = (
            "def on_frame(self, peer, seq, data):\n"
            "    if seq != peer.next_expected:\n"
            "        if len(peer.buffered) < self.max_window:\n"
            "            peer.buffered[seq] = data\n"
        )
        assert rules_of(src) == []


class TestLogGPContract:
    def test_cost_model_matches_the_simulator(self):
        # The annotation numbers are the simulator's analytic model:
        # latency_us from the LogGP NetworkModel, log-tree depth from
        # collective_cost._ceil_log2.  Recompute them independently.
        lat = DEFAULT_NET.latency_us
        m = DEFAULT_MSG_BYTES
        for n in (2, 64, 256, 1024):
            assert projected_cost_us("linear", n) == (n - 1) * lat(m)
            assert projected_cost_us("tree", n) == _ceil_log2(n) * lat(m)
            assert projected_cost_us("mesh", n) == 3 * (n - 1) * lat(0)
            assert projected_cost_us("perpeer", n) == (n - 1) * lat(0)

    def test_every_finding_is_priced(self):
        # Acceptance bar: each OMB51x finding carries a LogGP cost
        # string whose figures match the simulator-derived model.
        program = load_program(["src", "benchmarks", "examples"])
        findings = run_scale_rules(program)
        assert findings, "expected OMB51x sites in the shipped tree"
        expected = {
            "mesh": fmt_us(projected_cost_us("mesh", ANNOTATE_N)),
            "linear": fmt_us(projected_cost_us("linear", ANNOTATE_N)),
            "tree": fmt_us(projected_cost_us("tree", ANNOTATE_N)),
            "perpeer": fmt_us(projected_cost_us("perpeer", ANNOTATE_N)),
        }
        for f in findings:
            assert f"LogGP @N={ANNOTATE_N}" in f.message, f.format()
            if f.rule == "OMB510":
                assert expected["mesh"] in f.message, f.format()
            elif f.rule in ("OMB511", "OMB512"):
                assert expected["linear"] in f.message, f.format()
                assert expected["tree"] in f.message, f.format()
            elif f.rule in ("OMB513", "OMB514"):
                assert expected["perpeer"] in f.message, f.format()
            elif f.rule == "OMB515":
                assert expected["linear"] in f.message, f.format()

    def test_inventory_ranks_by_cost(self):
        program = load_program(["src"])
        sites = scale_inventory(program)
        assert sites
        for s in sites:
            assert s.cost_us(64) < s.cost_us(256) < s.cost_us(1024)

    def test_known_sites_are_inventoried(self):
        program = load_program(["src"])
        by_rule = {}
        for s in scale_inventory(program):
            by_rule.setdefault(s.rule, set()).add(s.path)
        assert "src/repro/mpi/reliability.py" in by_rule["OMB515"]
        # Burned down by the lazy connection fabric: the stream
        # transports no longer dial an eager mesh (OMB510) or spawn a
        # reader thread ahead of need (OMB513 is per-established-
        # channel now, not per-peer at startup).
        for rule in ("OMB510", "OMB513", "OMB514"):
            assert not any(
                re.search(r"transport/(tcp|uds)\.py", p)
                for p in by_rule.get(rule, ())
            ), (rule, by_rule[rule])
