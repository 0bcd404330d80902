"""Whole-program performance rules (OMB301-310): one true-positive and
one true-negative fixture per rule, plus the interprocedural facts
(call graph, hot set, buffer-param propagation) they stand on."""

from __future__ import annotations

import ast

from repro.analysis.interproc import Program, load_program
from repro.analysis.lint import fingerprint
from repro.analysis.perf import run_perf_rules


def program_of(*sources: str) -> Program:
    prog = Program()
    for i, src in enumerate(sources):
        prog.add_module(f"mod{i}.py", ast.parse(src))
    prog.finalize()
    return prog


def rules_of(*sources: str, select: set[str] | None = None) -> list[str]:
    findings = run_perf_rules(program_of(*sources), select=select)
    return sorted(f.rule for f in findings)


class TestInterproc:
    def test_hot_set_closure(self):
        src = (
            "def helper(payload):\n"
            "    return transform(payload)\n"
            "def transform(payload):\n"
            "    return payload\n"
            "def send_bytes(self, payload, dest, tag):\n"
            "    helper(payload)\n"
            "def cold():\n"
            "    pass\n"
        )
        prog = program_of(src)
        hot = {
            info.name for info in prog.functions if prog.is_hot(info)
        }
        assert "send_bytes" in hot       # entry point by name
        assert "helper" in hot           # called from hot
        assert "transform" in hot        # transitively hot
        assert "cold" not in hot

    def test_same_named_function_in_another_file_moves_nothing(self):
        # A hot path's `_run()` and `self.check()` reach the helpers of
        # their own file; a same-named function elsewhere in the program
        # stays cold and leaves every fingerprint where it was.
        hot = (
            "class Channel:\n"
            "    def send_bytes(self, payload, dest, tag):\n"
            "        self.check(payload)\n"
            "        _run(payload)\n"
            "    def check(self, payload):\n"
            "        return len(payload)\n"
            "def _run(payload):\n"
            "    return bytes(payload)\n"
        )
        other = (
            "def _run(frame):\n"
            "    return bytes(frame)\n"
            "def check(frame):\n"
            "    return frame[4:] + frame[:4]\n"
        )
        alone, both = program_of(hot), program_of(hot, other)
        assert set(both.hot) == set(alone.hot)
        assert "mod0.py::_run" in set(alone.hot)
        prints = [fingerprint(f) for f in run_perf_rules(alone)]
        assert prints  # the hot `_run` copies its payload
        assert [fingerprint(f) for f in run_perf_rules(both)] == prints

    def test_buffer_params_flow_across_calls(self):
        src = (
            "import numpy as np\n"
            "def produce():\n"
            "    data = np.zeros(1024)\n"
            "    ship(data)\n"
            "def ship(data):\n"
            "    relay(data)\n"
            "def relay(data):\n"
            "    pass\n"
        )
        prog = program_of(src)
        by_name = {info.name: info for info in prog.functions}
        assert "data" in by_name["ship"].buffer_params
        assert "data" in by_name["relay"].buffer_params  # fixpoint, 2 hops


class TestOMB301HotCopy:
    def test_bytes_copy_on_hot_path_flagged(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    frozen = bytes(payload)\n"
            "    self._post(frozen, dest, tag)\n"
        )
        assert "OMB301" in rules_of(src)

    def test_bytes_allocation_clean(self):
        # bytes(int) allocates, it does not copy.
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    padding = bytes(64)\n"
            "    self._post(payload, dest, tag)\n"
        )
        assert "OMB301" not in rules_of(src)

    def test_cold_function_clean(self):
        # The same copy in setup code is not per-message work.
        src = (
            "def configure(payload):\n"
            "    frozen = bytes(payload)\n"
            "    return frozen\n"
        )
        assert rules_of(src, select={"OMB301"}) == []


class TestOMB302Materialization:
    def test_concat_and_slice_flagged(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    frame = header_bytes + payload\n"
            "    chunk = payload[0:1024]\n"
            "    self._post(frame, dest, tag)\n"
        )
        found = rules_of(src, select={"OMB302"})
        assert found.count("OMB302") >= 2

    def test_memoryview_slice_clean(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    view = memoryview(payload)[0:1024]\n"
            "    self._post(view, dest, tag)\n"
        )
        assert rules_of(src, select={"OMB302"}) == []


class TestOMB303InterprocPickle:
    def test_buffer_param_sent_via_pickle_flagged(self):
        src = (
            "import numpy as np\n"
            "def produce(comm):\n"
            "    data = np.zeros(1024)\n"
            "    ship(comm, data)\n"
            "def ship(comm, data):\n"
            "    comm.send(data, dest=1, tag=0)\n"
        )
        assert "OMB303" in rules_of(src)

    def test_locally_visible_buffer_is_omb001_not_omb303(self):
        # When the buffer-ness is visible in the same function, the
        # per-function OMB001 rule owns the finding.
        src = (
            "import numpy as np\n"
            "def ship(comm):\n"
            "    data = np.zeros(1024)\n"
            "    comm.send(data, dest=1, tag=0)\n"
        )
        assert "OMB303" not in rules_of(src)

    def test_non_buffer_param_clean(self):
        src = (
            "def produce(comm):\n"
            "    ship(comm, {'k': 1})\n"
            "def ship(comm, data):\n"
            "    comm.send(data, dest=1, tag=0)\n"
        )
        assert "OMB303" not in rules_of(src)


class TestOMB304BlockingInLoop:
    def test_blocking_send_in_loop_flagged(self):
        src = (
            "def pump(comm, chunks):\n"
            "    for chunk in chunks:\n"
            "        comm.send(chunk, dest=1, tag=0)\n"
        )
        assert "OMB304" in rules_of(src)

    def test_nonblocking_in_loop_clean(self):
        src = (
            "def pump(comm, chunks):\n"
            "    reqs = [comm.isend(c, dest=1, tag=0) for c in chunks]\n"
            "    waitall(reqs)\n"
        )
        assert "OMB304" not in rules_of(src)

    def test_blocking_outside_loop_clean(self):
        src = (
            "def once(comm, chunk):\n"
            "    comm.send(chunk, dest=1, tag=0)\n"
        )
        assert "OMB304" not in rules_of(src)


class TestOMB305CollectiveInSweep:
    def test_collective_in_size_sweep_flagged(self):
        src = (
            "def sweep(comm, sizes):\n"
            "    for size in sizes:\n"
            "        comm.allreduce(size, op=sum)\n"
        )
        assert "OMB305" in rules_of(src)

    def test_collective_in_plain_loop_clean(self):
        src = (
            "def rounds(comm, epochs):\n"
            "    for epoch in epochs:\n"
            "        comm.allreduce(epoch, op=sum)\n"
        )
        assert "OMB305" not in rules_of(src, select={"OMB305"})


class TestOMB306AllocInLoop:
    def test_alloc_in_communicating_loop_flagged(self):
        src = (
            "import numpy as np\n"
            "def bench(comm, iters):\n"
            "    for _ in range(iters):\n"
            "        buf = np.zeros(1024)\n"
            "        comm.Send(buf, dest=1, tag=0)\n"
        )
        assert "OMB306" in rules_of(src)

    def test_alloc_hoisted_clean(self):
        src = (
            "import numpy as np\n"
            "def bench(comm, iters):\n"
            "    buf = np.zeros(1024)\n"
            "    for _ in range(iters):\n"
            "        comm.Send(buf, dest=1, tag=0)\n"
        )
        assert "OMB306" not in rules_of(src)

    def test_alloc_in_non_communicating_loop_clean(self):
        src = (
            "import numpy as np\n"
            "def crunch(iters):\n"
            "    for _ in range(iters):\n"
            "        buf = np.zeros(1024)\n"
            "        consume(buf)\n"
        )
        assert "OMB306" not in rules_of(src)


class TestOMB307UnguardedTelemetry:
    def test_unguarded_hook_flagged(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    self.telemetry.on_send(dest, tag, len(payload))\n"
            "    self._post(payload, dest, tag)\n"
        )
        assert "OMB307" in rules_of(src)

    def test_guarded_hook_clean(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    tele = self.telemetry\n"
            "    if tele is not None:\n"
            "        tele.on_send(dest, tag, len(payload))\n"
            "    self._post(payload, dest, tag)\n"
        )
        assert "OMB307" not in rules_of(src)


class TestOMB308StructReparse:
    def test_format_string_in_hot_function_flagged(self):
        src = (
            "import struct\n"
            "def send_bytes(self, payload, dest, tag):\n"
            "    header = struct.pack('<qq', dest, tag)\n"
            "    self._post(header, dest, tag)\n"
        )
        assert "OMB308" in rules_of(src)

    def test_precompiled_struct_clean(self):
        src = (
            "import struct\n"
            "_HEADER = struct.Struct('<qq')\n"
            "def send_bytes(self, payload, dest, tag):\n"
            "    header = _HEADER.pack(dest, tag)\n"
            "    self._post(header, dest, tag)\n"
        )
        assert "OMB308" not in rules_of(src)


class TestOMB309EagerLogging:
    def test_fstring_log_on_hot_path_flagged(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    logger.debug(f'sending {len(payload)} bytes to {dest}')\n"
            "    self._post(payload, dest, tag)\n"
        )
        assert "OMB309" in rules_of(src)

    def test_lazy_log_clean(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    logger.debug('sending %d bytes to %d', len(payload), dest)\n"
            "    self._post(payload, dest, tag)\n"
        )
        assert "OMB309" not in rules_of(src)


class TestOMB310AttrChainInLoop:
    def test_repeated_chain_in_hot_loop_flagged(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    for off in offsets:\n"
            "        self._endpoint.engine.post(off)\n"
            "        self._endpoint.engine.mark(off)\n"
            "        self._endpoint.engine.flush(off)\n"
        )
        assert "OMB310" in rules_of(src)

    def test_hoisted_chain_clean(self):
        src = (
            "def send_bytes(self, payload, dest, tag):\n"
            "    engine = self._endpoint.engine\n"
            "    for off in offsets:\n"
            "        engine.post(off)\n"
            "        engine.mark(off)\n"
            "        engine.flush(off)\n"
        )
        assert "OMB310" not in rules_of(src)


class TestSelfHost:
    def test_analysis_package_is_clean(self):
        # The analyzer must not flag itself: src/repro/analysis has no
        # hot-path copies (it never communicates).
        prog = load_program(["src/repro/analysis"])
        findings = run_perf_rules(prog)
        assert findings == []
