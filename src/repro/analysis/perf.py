"""Performance rules OMB301-OMB310: copies, pickle falls, loop hazards.

The OMB-Py paper attributes most of Python/MPI's overhead to avoidable
object copies and pickle-path serialization on the critical send/recv
path; our own yardstick (``perf/README.md``: ``datapath.peak_copies_1m``,
``native.snapshot_us_1m``/``fill_us_1m``) prices those copies on this runtime.
These rules find that overhead *statically*, before a benchmark runs,
using the whole-program facts from :mod:`repro.analysis.interproc`:

========  ==============================================================
OMB301    ``bytes()``/``bytearray()`` copy of a buffer on the hot path
OMB302    slice / concat / ``tobytes()`` materialization on the hot path
OMB303    pickle-path send of an argument that is buffer-capable at a
          call site (interprocedural upgrade of OMB001)
OMB304    blocking communication call inside a loop (batch or go
          non-blocking)
OMB305    collective inside a message-size sweep loop
OMB306    buffer allocation repeated inside a communicating loop
OMB307    telemetry-hook work not guarded by the enabled check
OMB308    struct format string re-parsed per call on a hot path
OMB309    eager log-message formatting on the hot path
OMB310    deep attribute chain re-resolved in a hot inner loop
========  ==============================================================

All rules are warnings: they point at throughput, not correctness.  They
run only under ``ombpy-lint --perf`` and are gated by the checked-in
baseline (``tools/perf_lint_baseline.json``) in CI, so existing sites
are grandfathered while new ones fail the build.  See
``docs/perf-lint.md`` for the catalogue with before/after examples.
"""

from __future__ import annotations

import ast
import re
from typing import Callable, Iterator

from . import rules as _rules
from .findings import Finding
from .interproc import FunctionInfo, Program

__all__ = ["PERF_RULES", "run_perf_rules"]

#: Names that look like they hold wire bytes / communication buffers.
_BUFFERISH = re.compile(
    r"(payload|frame|buf|buffer|data|chunk|pending|body|msg|message|view"
    r"|blob|wire|header|packet|bytes_|_bytes)",
    re.IGNORECASE,
)

#: Names that look like integer sizes/offsets, even when they also match
#: the buffer pattern ("msg_size", "HEADER_SIZE" are ints, not buffers).
_SIZEISH = re.compile(
    r"(size|count|len|num|idx|index|offset|\boff\b|limit|pos|total|nbytes"
    r"|depth|width|rank|peer|tag)",
    re.IGNORECASE,
)


def _bufferish_name(name: str) -> bool:
    return bool(_BUFFERISH.search(name)) and not _SIZEISH.search(name)

#: Blocking point-to-point methods for the in-loop rule.
_BLOCKING_CALLS = frozenset(
    m for m, c in _rules.COMM_API.items()
    if c.blocking and c.kind != "collective"
)

_SIZE_NAME = re.compile(r"(^|_)(size|sizes|nbytes|msg|length|len)s?($|_)",
                        re.IGNORECASE)

_TELEMETRY_RECV = re.compile(r"(telemetry|tele\b|tracer|metrics)",
                             re.IGNORECASE)

_LOG_METHODS = frozenset({
    "debug", "info", "warning", "error", "exception", "critical", "log",
})
_LOG_RECEIVERS = frozenset({"logger", "logging", "log", "_log", "_logger"})


def _finding(rule: str, info: FunctionInfo, node: ast.AST,
             message: str) -> Finding:
    return Finding(
        rule=rule,
        severity="warning",
        path=info.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
        end_line=getattr(node, "end_lineno", 0) or 0,
    )


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _bufferish_expr(info: FunctionInfo, node: ast.expr,
                    depth: int = 0) -> bool:
    """Does this expression plausibly denote wire bytes / a buffer?"""
    if depth > 4:
        return False
    if isinstance(node, ast.Name):
        return (
            node.id in info.buffer_params
            or _bufferish_name(node.id)
            or _rules._is_buffer_expr(node, info.scope)
        )
    if isinstance(node, ast.Attribute):
        return _bufferish_name(node.attr)
    if isinstance(node, ast.Subscript):
        return _bufferish_expr(info, node.value, depth + 1)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in (
            "memoryview", "bytes", "bytearray",
        ):
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "tobytes", "read", "pack", "pack_header", "dumps", "cast",
        ):
            return True
        if isinstance(func, ast.Name) and func.id in (
            "pack_header", "pack",
        ):
            return True
    return _rules._is_buffer_expr(node, info.scope, depth)


def _literal_intish(info: FunctionInfo, node: ast.expr) -> bool:
    """Is this argument a size (an int), i.e. an allocation not a copy?"""
    if _rules._literal_int(node) is not None:
        return True
    if isinstance(node, ast.Name):
        assigned = info.scope.assignments.get(node.id)
        if assigned is not None and _rules._literal_int(assigned) is not None:
            return True
        return bool(_SIZEISH.search(node.id))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "len":
        return True
    return False


def _loops(info: FunctionInfo) -> Iterator[ast.For | ast.While]:
    for node in info.scope.nodes:
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            yield node


def _walk_no_nested(root: ast.AST) -> Iterator[ast.AST]:
    """Walk a subtree without descending into nested function bodies."""
    todo = list(ast.iter_child_nodes(root))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _comm_calls_in(root: ast.AST) -> list[ast.Call]:
    out = []
    for node in _walk_no_nested(root):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _rules.COMM_API:
                out.append(node)
    return out


# -- OMB301: bytes()/bytearray() copy on the hot path ----------------------

def check_hot_copy(program: Program, info: FunctionInfo) -> list[Finding]:
    """A ``bytes(x)``/``bytearray(x)`` of an existing buffer in a hot
    function copies the payload once per message; a memoryview (or
    passing the original buffer through) does not."""
    if not program.is_hot(info):
        return []
    findings = []
    for site in info.calls:
        if site.callee not in ("bytes", "bytearray") \
                or site.receiver is not None:
            continue
        call = site.node
        if len(call.args) != 1 or call.keywords:
            continue  # bytes() / bytearray(n, ...) forms
        arg = call.args[0]
        if _literal_intish(info, arg):
            continue  # an allocation, not a copy (OMB306's domain)
        if not _bufferish_expr(info, arg):
            continue
        findings.append(_finding(
            "OMB301", info, call,
            f"'{site.callee}()' copies an existing buffer on the hot path "
            f"({program.hot_reason(info)}); pass a memoryview or the "
            "original buffer to stay zero-copy",
        ))
    return findings


# -- OMB302: slice / concat / tobytes materialization on the hot path ------

def check_hot_materialization(program: Program,
                              info: FunctionInfo) -> list[Finding]:
    """Slicing bytes, concatenating frames, or ``.tobytes()`` in a hot
    function materializes a fresh buffer per message."""
    if not program.is_hot(info):
        return []
    findings = []
    reason = program.hot_reason(info)
    memoryview_wrapped: set[int] = set()
    mv_names: set[str] = set()
    for node in info.scope.nodes:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "memoryview":
            for sub in ast.walk(node):
                memoryview_wrapped.add(id(sub))
        elif isinstance(node, ast.Assign) \
                and isinstance(node.value, ast.Call) \
                and isinstance(node.value.func, ast.Name) \
                and node.value.func.id == "memoryview":
            for target in node.targets:
                if isinstance(target, ast.Name):
                    mv_names.add(target.id)
        elif isinstance(node, ast.withitem) \
                and isinstance(node.context_expr, ast.Call) \
                and isinstance(node.context_expr.func, ast.Name) \
                and node.context_expr.func.id == "memoryview" \
                and isinstance(node.optional_vars, ast.Name):
            mv_names.add(node.optional_vars.id)

    def _is_memoryview(value: ast.expr) -> bool:
        if id(value) in memoryview_wrapped:
            return True  # memoryview(...) call (or a piece of one)
        return isinstance(value, ast.Name) and value.id in mv_names

    for node in info.scope.nodes:
        if id(node) in memoryview_wrapped:
            continue  # slices of a memoryview are zero-copy
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            if _bufferish_expr(info, node.left) \
                    and _bufferish_expr(info, node.right):
                findings.append(_finding(
                    "OMB302", info, node,
                    "bytes concatenation builds a combined buffer per "
                    f"message on the hot path ({reason}); write the parts "
                    "separately (writev/sendmsg style) or reuse a frame "
                    "buffer",
                ))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            target = node.target
            if isinstance(target, ast.Name) \
                    and _bufferish_expr(info, target) \
                    and _bufferish_expr(info, node.value):
                findings.append(_finding(
                    "OMB302", info, node,
                    f"'{target.id} += ...' re-copies the accumulated bytes "
                    f"on the hot path ({reason}); use a bytearray and "
                    "extend it in place",
                ))
        elif isinstance(node, ast.Subscript) \
                and isinstance(node.ctx, ast.Load) \
                and isinstance(node.slice, ast.Slice) \
                and not _is_memoryview(node.value) \
                and _bufferish_expr(info, node.value):
            findings.append(_finding(
                "OMB302", info, node,
                "slicing a bytes-like object materializes a copy on the "
                f"hot path ({reason}); slice a memoryview of it instead",
            ))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "tobytes":
            findings.append(_finding(
                "OMB302", info, node,
                "'.tobytes()' copies the array out on the hot path "
                f"({reason}); communicate the array's memoryview directly",
            ))
    return findings


# -- OMB303: interprocedural pickle-fallback send --------------------------

def check_pickle_fallback(program: Program,
                          info: FunctionInfo) -> list[Finding]:
    """A lower-case (pickle-path) send of a parameter whose call sites
    pass buffer-capable objects — OMB001 with cross-function vision."""
    findings = []
    for site in info.calls:
        if site.callee not in _rules.PICKLE_DATA_METHODS \
                or site.receiver is None:
            continue
        tail = ast.Name(id=site.receiver.split(".")[-1])
        if site.callee not in _rules._DISTINCTIVE \
                and not _rules._comm_like(tail):
            continue
        call = site.node
        data = call.args[0] if call.args else None
        if data is None:
            for kw in call.keywords:
                if kw.arg in ("obj", "sendobj", "buf", "sendbuf"):
                    data = kw.value
                    break
        if not isinstance(data, ast.Name) \
                or data.id not in info.buffer_params:
            continue
        if _rules._is_buffer_expr(data, info.scope):
            continue  # locally visible: OMB001's finding, not ours
        upper = site.callee[0].upper() + site.callee[1:]
        findings.append(_finding(
            "OMB303", info, call,
            f"parameter '{data.id}' receives buffer-capable objects at "
            f"call sites but is sent through pickle-path "
            f"'{site.callee}()'; use '{upper}()' to take the "
            "buffer-protocol path",
        ))
    return findings


# -- OMB304: blocking communication call inside a loop ---------------------

def check_blocking_in_loop(program: Program,
                           info: FunctionInfo) -> list[Finding]:
    """A blocking send/recv per loop iteration serializes communication
    with iteration overhead; batching or non-blocking posts overlap it."""
    findings = []
    for site in info.calls:
        if site.callee not in _BLOCKING_CALLS or site.receiver is None:
            continue
        if info.cfg.depth_of(site.node) < 1:
            continue
        tail = ast.Name(id=site.receiver.split(".")[-1])
        if not site.callee.endswith("_bytes") \
                and not _rules._comm_like(tail):
            continue
        nb = ("i" + site.callee if site.callee[0].islower()
              else "I" + site.callee[0].lower() + site.callee[1:])
        findings.append(_finding(
            "OMB304", info, site.node,
            f"blocking '{site.callee}()' inside a loop (depth "
            f"{info.cfg.depth_of(site.node)}) completes one message per "
            f"iteration; post '{nb}()' per iteration and complete them "
            "with waitall, or batch the payloads",
        ))
    return findings


# -- OMB305: collective inside a size-sweep loop ---------------------------

def _sweeps_sizes(loop: ast.For | ast.While) -> bool:
    if isinstance(loop, ast.While):
        return False
    names: list[str] = []
    for node in ast.walk(loop.target):
        if isinstance(node, ast.Name):
            names.append(node.id)
    for node in ast.walk(loop.iter):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return any(_SIZE_NAME.search(n) for n in names)


def check_collective_in_sweep(program: Program,
                              info: FunctionInfo) -> list[Finding]:
    """A collective per size-sweep iteration pays full latency per size;
    sweeping inside one communicator epoch (or reusing a persistent
    schedule) amortizes the synchronization."""
    findings = []
    for loop in _loops(info):
        if not _sweeps_sizes(loop):
            continue
        for call in _comm_calls_in(loop):
            attr = call.func.attr  # type: ignore[union-attr]
            if attr not in _rules.COLLECTIVES:
                continue
            receiver = call.func.value  # type: ignore[union-attr]
            if not _rules._comm_like(receiver) \
                    and not attr.endswith("_bytes"):
                continue
            findings.append(_finding(
                "OMB305", info, call,
                f"collective '{attr}()' re-synchronizes every iteration "
                "of a message-size sweep; hoist setup out of the sweep or "
                "reuse one schedule across sizes",
            ))
    return findings


# -- OMB306: buffer allocation repeated inside a communicating loop --------

def _is_allocation(info: FunctionInfo, call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id in ("bytearray", "bytes"):
        return bool(call.args) and _literal_intish(info, call.args[0])
    if isinstance(func, ast.Attribute):
        root = _rules._root_name(func)
        return root in _rules.ARRAY_MODULES \
            and func.attr in _rules.ARRAY_CTORS
    return False


def check_alloc_in_loop(program: Program,
                        info: FunctionInfo) -> list[Finding]:
    """Allocating the message buffer inside the loop that communicates it
    adds allocator + zeroing cost to every iteration; allocate once
    outside and reuse."""
    findings = []
    flagged: set[int] = set()
    for loop in _loops(info):
        if not _comm_calls_in(loop):
            continue
        for node in _walk_no_nested(loop):
            if not isinstance(node, ast.Call) or id(node) in flagged:
                continue
            if _is_allocation(info, node):
                flagged.add(id(node))
                name = (node.func.attr if isinstance(node.func, ast.Attribute)
                        else node.func.id)  # type: ignore[union-attr]
                findings.append(_finding(
                    "OMB306", info, node,
                    f"'{name}()' allocates a fresh buffer every iteration "
                    "of a communicating loop; allocate once before the "
                    "loop and reuse it",
                ))
    return findings


# -- OMB307: telemetry-hook work on the disabled path ----------------------

def _guard_texts(test: ast.expr) -> frozenset[str]:
    mentioned = set()
    for sub in ast.walk(test):
        if isinstance(sub, (ast.Attribute, ast.Name)):
            text = _dotted(sub)
            if text:
                mentioned.add(text)
                mentioned.add(text.split(".")[-1])
    return frozenset(mentioned)


def _guarded_calls(root: ast.AST) -> list[tuple[ast.Call, frozenset[str]]]:
    """Every call in ``root`` paired with the names/dotted attributes
    mentioned in its enclosing ``if`` tests (``while`` tests count too:
    ``while tele is not None: tele.on_x()`` is guarded)."""
    out: list[tuple[ast.Call, frozenset[str]]] = []

    def walk(node: ast.AST, guards: frozenset[str]) -> None:
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
        ):
            return
        if isinstance(node, ast.Call):
            out.append((node, guards))
        if isinstance(node, (ast.If, ast.While)):
            walk(node.test, guards)
            inner = guards | _guard_texts(node.test)
            for stmt in node.body:
                walk(stmt, inner)
            for stmt in getattr(node, "orelse", []):
                walk(stmt, inner)
            return
        for child in ast.iter_child_nodes(node):
            walk(child, guards)

    walk(root, frozenset())
    return out


def check_unguarded_telemetry(program: Program,
                              info: FunctionInfo) -> list[Finding]:
    """Telemetry hooks must cost one attribute check when disabled; an
    unguarded hook call pays argument construction even when telemetry
    is off."""
    if not program.is_hot(info):
        return []
    findings = []
    for call, guards in _guarded_calls(info.node):
        if not isinstance(call.func, ast.Attribute):
            continue
        receiver = _dotted(call.func.value)
        if receiver is None or not _TELEMETRY_RECV.search(receiver):
            continue
        if not call.func.attr.startswith("on_") \
                and call.func.attr not in ("record", "observe", "emit"):
            continue
        root = receiver.split(".")[0]
        if receiver in guards or root in guards \
                or receiver.split(".")[-1] in guards:
            continue
        findings.append(_finding(
            "OMB307", info, call,
            f"telemetry hook '{receiver}.{call.func.attr}()' is not "
            "guarded by an enabled check; its arguments are built even "
            "when telemetry is off — wrap it in "
            f"'if {receiver} is not None:'",
        ))
    return findings


# -- OMB308: struct format re-parsed on a hot path -------------------------

def check_struct_reparse(program: Program,
                         info: FunctionInfo) -> list[Finding]:
    """``struct.pack("<q", ...)`` re-parses the format string per call;
    a module-level ``struct.Struct`` compiles it once."""
    if not program.is_hot(info) and info.cfg.max_depth() == 0:
        return []
    findings = []
    for site in info.calls:
        call = site.node
        in_loop = info.cfg.depth_of(call) >= 1
        hot = program.is_hot(info)
        if not (in_loop or hot):
            continue
        if site.receiver == "struct" and site.callee in (
            "pack", "unpack", "pack_into", "unpack_from", "calcsize",
        ):
            if call.args and isinstance(call.args[0], ast.Constant) \
                    and isinstance(call.args[0].value, str):
                where = "inside a loop" if in_loop else "on the hot path"
                findings.append(_finding(
                    "OMB308", info, call,
                    f"'struct.{site.callee}()' re-parses its format "
                    f"string on every call {where}; hoist a "
                    "'struct.Struct' instance to module level",
                ))
        elif site.receiver == "struct" and site.callee == "Struct" \
                and in_loop:
            findings.append(_finding(
                "OMB308", info, call,
                "'struct.Struct()' compiles its format inside a loop; "
                "hoist the instance to module level",
            ))
    return findings


# -- OMB309: eager log formatting on the hot path --------------------------

def _eager_format(arg: ast.expr) -> str | None:
    if isinstance(arg, ast.JoinedStr):
        return "an f-string"
    if isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mod):
        return "%-interpolation"
    if isinstance(arg, ast.Call) and isinstance(arg.func, ast.Attribute) \
            and arg.func.attr == "format":
        return "'.format()'"
    return None


def check_eager_logging(program: Program,
                        info: FunctionInfo) -> list[Finding]:
    """An f-string handed to ``logger.debug`` formats even when the
    level is off; lazy ``%`` arguments only format when emitted."""
    if not program.is_hot(info):
        return []
    findings = []
    for site in info.calls:
        if site.callee not in _LOG_METHODS or site.receiver is None:
            continue
        if site.receiver.split(".")[-1] not in _LOG_RECEIVERS:
            continue
        for arg in site.node.args:
            how = _eager_format(arg)
            if how is not None:
                findings.append(_finding(
                    "OMB309", info, site.node,
                    f"log call formats {how} eagerly on the hot path; "
                    "pass lazy %-style arguments "
                    "(logger.debug(\"... %s\", value)) so disabled "
                    "levels cost nothing",
                ))
                break
    return findings


# -- OMB310: attribute chain re-resolved in a hot inner loop ---------------

def check_attr_chain_in_loop(program: Program,
                             info: FunctionInfo) -> list[Finding]:
    """``self._endpoint.engine`` resolves two attributes per mention;
    in a hot inner loop, hoist the target into a local first."""
    if not program.is_hot(info):
        return []
    findings = []
    for loop in _loops(info):
        inner_values: set[int] = set()
        call_funcs: set[int] = set()
        for node in _walk_no_nested(loop):
            if isinstance(node, ast.Attribute):
                inner_values.add(id(node.value))
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                call_funcs.add(id(node.func))
        chains: dict[str, list[ast.Attribute]] = {}
        for node in _walk_no_nested(loop):
            if not isinstance(node, ast.Attribute) \
                    or not isinstance(node.ctx, ast.Load) \
                    or id(node) in inner_values:
                continue  # only maximal chains
            # For a method call a.b.c.meth(...) the chain that gets
            # re-resolved per iteration is the receiver a.b.c — the
            # method attribute itself differs per call and can't be
            # hoisted, so count the shared prefix instead.
            target: ast.expr = node.value if id(node) in call_funcs else node
            if not isinstance(target, ast.Attribute):
                continue
            text = _dotted(target)
            if text is None or text.count(".") < 2:
                continue  # need >= 2 attribute hops (a.b.c)
            chains.setdefault(text, []).append(target)
        for text, nodes in sorted(chains.items()):
            if len(nodes) < 3:
                continue
            findings.append(_finding(
                "OMB310", info, nodes[0],
                f"attribute chain '{text}' is re-resolved {len(nodes)} "
                "times inside a hot loop; hoist it into a local before "
                "the loop",
            ))
    return findings


# -- registry --------------------------------------------------------------

PerfRuleFn = Callable[[Program, FunctionInfo], "list[Finding]"]

#: rule ID -> (checker, one-line description).
PERF_RULES: dict[str, tuple[PerfRuleFn, str]] = {
    "OMB301": (
        check_hot_copy,
        "bytes()/bytearray() copy of a buffer on the hot path",
    ),
    "OMB302": (
        check_hot_materialization,
        "slice/concat/tobytes materialization on the hot path",
    ),
    "OMB303": (
        check_pickle_fallback,
        "pickle-path send of a parameter that is buffer-capable at call "
        "sites",
    ),
    "OMB304": (
        check_blocking_in_loop,
        "blocking communication call inside a loop",
    ),
    "OMB305": (
        check_collective_in_sweep,
        "collective inside a message-size sweep loop",
    ),
    "OMB306": (
        check_alloc_in_loop,
        "buffer allocation repeated inside a communicating loop",
    ),
    "OMB307": (
        check_unguarded_telemetry,
        "telemetry hook not guarded by an enabled check",
    ),
    "OMB308": (
        check_struct_reparse,
        "struct format string re-parsed on a hot path",
    ),
    "OMB309": (
        check_eager_logging,
        "eager log-message formatting on the hot path",
    ),
    "OMB310": (
        check_attr_chain_in_loop,
        "deep attribute chain re-resolved in a hot inner loop",
    ),
}


def run_perf_rules(
    program: Program,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    """Run every (selected) performance rule over every function."""
    active = [
        fn for rule_id, (fn, _doc) in PERF_RULES.items()
        if (select is None or rule_id in select)
        and (ignore is None or rule_id not in ignore)
    ]
    findings: list[Finding] = []
    for info in program.functions:
        for fn in active:
            findings.extend(fn(program, info))
    return findings
