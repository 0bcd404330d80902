"""Lint rules: mpi4py-API misuse patterns over Python ASTs.

Each rule is a function ``rule(scope) -> list[Finding]`` over a
:class:`Scope` (one function body, or the module top level, with nested
function bodies excluded — they form their own scopes).  Rules are
heuristic by design: they favour the patterns that corrupt benchmark
results in practice (see docs/analysis.md for the catalogue and the
paper measurements each rule is anchored to).

Rule IDs are stable; new rules append.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator

from . import dataflow
from .dataflow import NONBLOCKING, is_nonblocking_call
from .findings import Finding

# -- API-surface vocabulary (mirrors repro.bindings.comm_api) -------------

#: Lower-case (pickle-path) methods taking a data object first.
PICKLE_DATA_METHODS = frozenset({
    "send", "isend", "ssend", "issend", "bcast", "reduce", "allreduce",
    "gather", "scatter", "allgather", "alltoall", "scan", "sendrecv",
})
#: Methods whose names alone identify an MPI communicator receiver.
_DISTINCTIVE = frozenset({
    "bcast", "allreduce", "allgather", "alltoall", "scatter", "sendrecv",
})

LOWER_SENDS = frozenset({"send", "isend", "ssend", "issend", "sendrecv"})
UPPER_SENDS = frozenset({"Send", "Isend", "Ssend", "Issend", "Sendrecv"})
LOWER_RECVS = frozenset({"recv", "irecv"})
UPPER_RECVS = frozenset({"Recv", "Irecv"})


@dataclass(frozen=True)
class CommCall:
    """How one method of the communication API is called."""

    kind: str                     # "send" | "recv" | "collective"
    #: positional index of the peer (dest for sends, source for recvs)
    peer: int | None = None
    #: positional index of the tag
    tag: int | None = None
    #: returns only once its operation completes (not an ``i``-post)
    blocking: bool = True


#: The communication API surface — the mpi4py-workalike methods and the
#: repro byte API (``send_bytes(payload, dest, tag)``,
#: ``recv_bytes(source, tag, max_bytes)``) — as method -> call shape.
#: Every analysis that asks "is this a send, a recv or a collective, and
#: where are its peer and tag?" reads this one table.  The combined
#: ``sendrecv`` counts as a send with no single peer or tag.
COMM_API: dict[str, CommCall] = {
    "send": CommCall("send", 1, 2),
    "ssend": CommCall("send", 1, 2),
    "isend": CommCall("send", 1, 2, blocking=False),
    "issend": CommCall("send", 1, 2, blocking=False),
    "Send": CommCall("send", 1, 2),
    "Ssend": CommCall("send", 1, 2),
    "Isend": CommCall("send", 1, 2, blocking=False),
    "Issend": CommCall("send", 1, 2, blocking=False),
    "sendrecv": CommCall("send"),
    "Sendrecv": CommCall("send"),
    "recv": CommCall("recv", 0, 1),
    "irecv": CommCall("recv", 0, 1, blocking=False),
    "Recv": CommCall("recv", 1, 2),
    "Irecv": CommCall("recv", 1, 2, blocking=False),
    "send_bytes": CommCall("send", 1, 2),
    "isend_bytes": CommCall("send", 1, 2, blocking=False),
    "sendrecv_bytes": CommCall("send"),
    "recv_bytes": CommCall("recv", 0, 1),
    "irecv_bytes": CommCall("recv", 0, 1, blocking=False),
    **dict.fromkeys((
        "bcast", "reduce", "allreduce", "gather", "scatter", "allgather",
        "alltoall", "scan", "exscan", "barrier",
        "Bcast", "Reduce", "Allreduce", "Gather", "Scatter", "Allgather",
        "Alltoall", "Reduce_scatter", "Scan", "Exscan", "Barrier",
        "bcast_bytes", "gather_bytes", "scatter_bytes", "allgather_bytes",
        "alltoall_bytes",
    ), CommCall("collective")),
}
COLLECTIVES = frozenset(
    m for m, c in COMM_API.items() if c.kind == "collective"
)
PEER_KEYWORDS = frozenset({"dest", "source", "peer"})

#: Positional index of the tag argument per mpi4py method (OMB004).
TAG_POSITION = {
    **{m: c.tag for m, c in COMM_API.items()
       if c.tag is not None and not m.endswith("_bytes")},
    "bsend": 2, "Bsend": 2,
}
TAG_KEYWORDS = frozenset({"tag", "sendtag", "recvtag"})

#: Reserved band for internal collective traffic (repro.mpi.constants).
INTERNAL_TAG_BASE = 2 ** 30
TAG_UB = 2 ** 30 - 1

#: Constants removed from MPI-3 / deprecated in mpi4py; using them against
#: a modern MPI module is an error waiting to happen.
DEPRECATED_MPI_ATTRS = frozenset({"UB", "LB", "HOST"})

#: Module aliases whose constructors produce buffer-protocol objects.
ARRAY_MODULES = frozenset({"np", "numpy", "cp", "cupy", "cuda", "numba"})
ARRAY_CTORS = frozenset({
    "zeros", "ones", "empty", "full", "arange", "array", "asarray",
    "frombuffer", "fromiter", "ascontiguousarray", "linspace",
    "zeros_like", "ones_like", "empty_like", "full_like", "rand", "randn",
    "random", "device_array", "to_device",
})
BYTES_CTORS = frozenset({"bytearray", "memoryview"})

WAITISH = frozenset({
    "wait", "Wait", "test", "Test", "waitall", "Waitall", "testall",
    "Testall", "waitany", "Waitany", "cancel", "Cancel", "Free", "free",
})


# -- scope model ----------------------------------------------------------

@dataclass
class Scope:
    """One lexical scope: a function body or the module top level."""

    path: str
    node: ast.AST                     # Module | FunctionDef | AsyncFunctionDef
    name: str
    #: every node in this scope, document order, nested scopes excluded
    nodes: list[ast.AST] = field(default_factory=list)
    #: simple name -> last assigned value expression
    assignments: dict[str, ast.expr] = field(default_factory=dict)
    #: statements (direct or nested in if/for/while/with), document order
    statements: list[ast.stmt] = field(default_factory=list)


_SCOPE_BARRIERS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _iter_scope(root: ast.AST) -> Iterator[ast.AST]:
    """Yield nodes under ``root`` without descending into nested scopes."""
    todo = list(ast.iter_child_nodes(root))
    while todo:
        node = todo.pop(0)
        yield node
        if isinstance(node, _SCOPE_BARRIERS):
            continue
        todo.extend(ast.iter_child_nodes(node))


def build_scopes(tree: ast.Module, path: str) -> list[Scope]:
    """Split a module into lintable scopes (module + each function)."""
    roots: list[tuple[ast.AST, str]] = [(tree, "<module>")]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            roots.append((node, node.name))
    scopes = []
    for root, name in roots:
        scope = Scope(path=path, node=root, name=name)
        for node in _iter_scope(root):
            scope.nodes.append(node)
            if isinstance(node, ast.stmt):
                scope.statements.append(node)
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    scope.assignments[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    scope.assignments[node.target.id] = node.value
        scopes.append(scope)
    return scopes


# -- shared predicates ----------------------------------------------------

def _root_name(node: ast.expr) -> str | None:
    """Leftmost name of an attribute chain (``a.b.c`` -> ``a``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _terminal_name(node: ast.expr) -> str | None:
    """Rightmost component naming a receiver (``a.comm`` -> ``comm``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _comm_like(receiver: ast.expr) -> bool:
    """Does this expression plausibly name an MPI communicator?"""
    name = _terminal_name(receiver)
    if name is None:
        return False
    lowered = name.lower()
    return (
        any(hint in lowered for hint in ("comm", "world", "grid", "mpi"))
        or lowered in ("c", "sub", "peer")
    )


def _method_calls(scope: Scope, names: frozenset[str]) -> list[ast.Call]:
    """All ``<recv>.<method>(...)`` calls in the scope, document order."""
    out = [
        node for node in scope.nodes
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in names
    ]
    out.sort(key=lambda n: (n.lineno, n.col_offset))
    return out


def comm_call(call: ast.Call) -> CommCall | None:
    """The :data:`COMM_API` row of a communication call, else None.

    ``send``/``recv``/``gather`` alone are common names on sockets and
    queues, so they need a communicator-looking receiver; byte-API and
    distinctive names do not.
    """
    func = call.func
    if not isinstance(func, ast.Attribute):
        return None
    spec = COMM_API.get(func.attr)
    if spec is None or (
        not func.attr.endswith("_bytes") and func.attr not in _DISTINCTIVE
        and not _comm_like(func.value)
    ):
        return None
    return spec


def call_arg(call: ast.Call, index: int | None,
             keywords: frozenset[str]) -> ast.expr | None:
    """The argument at positional ``index``, else the first keyword
    argument named in ``keywords``."""
    if index is not None and index < len(call.args):
        return call.args[index]
    for kw in call.keywords:
        if kw.arg in keywords:
            return kw.value
    return None


def _is_buffer_expr(node: ast.expr, scope: Scope, depth: int = 0) -> bool:
    """Heuristic: does this expression yield a buffer-protocol object?"""
    if depth > 4:
        return False
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in BYTES_CTORS:
            return True
        if isinstance(func, ast.Attribute):
            root = _root_name(func)
            if root in ARRAY_MODULES and func.attr in ARRAY_CTORS:
                return True
            # np.random.rand(...), cuda.device_array(...) style chains.
            if root in ARRAY_MODULES and isinstance(func.value, ast.Attribute):
                if func.attr in ARRAY_CTORS or func.value.attr in ARRAY_CTORS:
                    return True
            # arr.astype(...)/arr.copy()/arr.reshape(...) of a known array.
            if func.attr in ("astype", "copy", "reshape", "ravel", "view"):
                return _is_buffer_expr(func.value, scope, depth + 1)
        return False
    if isinstance(node, ast.Name):
        assigned = scope.assignments.get(node.id)
        if assigned is not None and assigned is not node:
            return _is_buffer_expr(assigned, scope, depth + 1)
        return False
    if isinstance(node, (ast.List, ast.Tuple)):
        return any(_is_buffer_expr(e, scope, depth + 1) for e in node.elts)
    if isinstance(node, ast.BinOp):
        # e.g. np.arange(10) + rank: still an ndarray.
        return (
            _is_buffer_expr(node.left, scope, depth + 1)
            or _is_buffer_expr(node.right, scope, depth + 1)
        )
    if isinstance(node, ast.Subscript):
        # Slices of arrays are arrays: arr[1:] — only if base is buffer-like.
        return _is_buffer_expr(node.value, scope, depth + 1)
    return False


def _finding(rule: str, severity: str, scope: Scope, node: ast.AST,
             message: str) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        path=scope.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0) + 1,
        message=message,
    )


def _finding_at(rule: str, severity: str, scope: Scope,
                pos: tuple[int, int], message: str) -> Finding:
    return Finding(
        rule=rule,
        severity=severity,
        path=scope.path,
        line=pos[0],
        col=pos[1] + 1,
        message=message,
    )


_FOLDABLE_BINOPS = {
    ast.Pow: lambda a, b: a ** b,
    ast.Mult: lambda a, b: a * b,
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.LShift: lambda a, b: a << b,
}


def _literal_int(node: ast.expr) -> int | None:
    """Constant-fold simple integer expressions (``2**30``, ``1 << 20``)."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) \
            and not isinstance(node.value, bool):
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _literal_int(node.operand)
        if inner is not None:
            return -inner
    if isinstance(node, ast.BinOp):
        fold = _FOLDABLE_BINOPS.get(type(node.op))
        left = _literal_int(node.left)
        right = _literal_int(node.right)
        if fold is None or left is None or right is None:
            return None
        if isinstance(node.op, (ast.Pow, ast.LShift)) \
                and not (0 <= right < 64 and abs(left) < 2 ** 32):
            return None  # refuse to fold huge exponents/shifts
        return fold(left, right)
    return None


# -- OMB001: buffer object through the pickle path ------------------------

def check_pickle_buffer(scope: Scope) -> list[Finding]:
    """Lower-case method called with a buffer-capable argument.

    The paper's Figs 32-35: ``comm.send(ndarray)`` serializes through
    pickle and costs up to ~4x the latency of ``comm.Send(ndarray)``.
    """
    findings = []
    for call in _method_calls(scope, PICKLE_DATA_METHODS):
        method = call.func.attr  # type: ignore[union-attr]
        receiver = call.func.value  # type: ignore[union-attr]
        # `send`/`gather`/... are common names on sockets, queues, executors;
        # require a comm-looking receiver unless the name is unambiguous.
        if method not in _DISTINCTIVE and not _comm_like(receiver):
            continue
        data = call.args[0] if call.args else None
        if data is None:
            for kw in call.keywords:
                if kw.arg in ("obj", "sendobj", "buf", "sendbuf"):
                    data = kw.value
                    break
        if data is None or not _is_buffer_expr(data, scope):
            continue
        upper = method[0].upper() + method[1:]
        findings.append(_finding(
            "OMB001", "warning", scope, call,
            f"buffer-capable object passed to pickle-path '{method}()'; "
            f"use '{upper}()' to avoid serialization overhead "
            "(the paper measures up to ~4x latency for the pickle path)",
        ))
    return findings


# -- OMB002: leaked non-blocking request ----------------------------------

def check_leaked_request(scope: Scope) -> list[Finding]:
    """``isend``/``irecv`` whose request is never waited or tested.

    Built on the shared alias tracker (:mod:`repro.analysis.dataflow`), so
    requests that travel through tuple unpacking or ``requests.append(...)``
    are followed to their consumption; only genuinely dead requests are
    flagged.  A never-consumed request *list* is OMB009's finding, not
    this rule's.
    """
    flow = dataflow.flow_for(scope)
    findings = []
    for post in flow.posts:
        if post.escapes or post.container is not None:
            continue
        if post.discarded:
            findings.append(_finding_at(
                "OMB002", "error", scope, post.pos,
                f"request returned by '{post.method}()' is discarded; the "
                "operation is never completed (wait/test) and its "
                "completion semantics are lost",
            ))
        elif post.names and not dataflow.ever_used(flow, post):
            findings.append(_finding_at(
                "OMB002", "error", scope, post.pos,
                f"request '{post.names[0]}' from '{post.method}()' is "
                "never used again — non-blocking operation leaked without "
                "wait/test",
            ))
    return findings


# Kept as the public predicate name other modules/tests may use.
_is_nonblocking_call = is_nonblocking_call


# -- OMB003: case-mismatched send/recv pairing ----------------------------

def check_case_mismatch(scope: Scope) -> list[Finding]:
    """Pickle-path send paired with buffer-path recv (or vice versa).

    A lower-case ``send`` ships a pickle stream; an upper-case ``Recv`` on
    the other end copies that stream raw into a typed buffer — silently
    corrupt data.  Flagged when one scope contains exactly one pairing
    direction of each case.
    """
    lower_send = _method_calls(scope, LOWER_SENDS)
    upper_send = _method_calls(scope, UPPER_SENDS)
    lower_recv = _method_calls(scope, LOWER_RECVS)
    upper_recv = _method_calls(scope, UPPER_RECVS)
    findings = []
    if lower_send and upper_recv and not upper_send and not lower_recv:
        s, r = lower_send[0], upper_recv[0]
        findings.append(_finding(
            "OMB003", "error", scope, r,
            f"'{r.func.attr}()' receives into a raw buffer but the "  # type: ignore[union-attr]
            f"matching send at line {s.lineno} is pickle-path "
            f"'{s.func.attr}()'; the buffer will be filled with a "  # type: ignore[union-attr]
            "pickle stream, not data",
        ))
    if upper_send and lower_recv and not lower_send and not upper_recv:
        s, r = upper_send[0], lower_recv[0]
        findings.append(_finding(
            "OMB003", "error", scope, r,
            f"'{r.func.attr}()' expects a pickle stream but the "  # type: ignore[union-attr]
            f"matching send at line {s.lineno} is buffer-path "
            f"'{s.func.attr}()'; unpickling raw bytes will fail or "  # type: ignore[union-attr]
            "corrupt",
        ))
    return findings


# -- OMB004: reserved or invalid tags -------------------------------------

def check_reserved_tag(scope: Scope) -> list[Finding]:
    """Literal tags in the reserved internal band or outside legal range."""
    findings = []
    for call in _method_calls(scope, frozenset(TAG_POSITION)):
        method = call.func.attr  # type: ignore[union-attr]
        tag_expr = None
        pos = TAG_POSITION[method]
        if len(call.args) > pos:
            tag_expr = call.args[pos]
        for kw in call.keywords:
            if kw.arg in TAG_KEYWORDS:
                tag_expr = kw.value
        if tag_expr is None:
            continue
        tag = _literal_int(tag_expr)
        if tag is None:
            continue
        is_recv = method in LOWER_RECVS or method in UPPER_RECVS
        if tag >= INTERNAL_TAG_BASE:
            findings.append(_finding(
                "OMB004", "error", scope, call,
                f"tag {tag} is in the reserved internal-collective band "
                f"(>= 2**30); user tags must be in [0, {TAG_UB}]",
            ))
        elif tag < 0 and not (is_recv and tag == -1):
            findings.append(_finding(
                "OMB004", "error", scope, call,
                f"negative tag {tag} is invalid for '{method}()'"
                + (" (only ANY_TAG == -1 is legal on receives)"
                   if is_recv else ""),
            ))
    return findings


# -- OMB005: deprecated constants -----------------------------------------

def check_deprecated_constant(scope: Scope) -> list[Finding]:
    """``MPI.UB``/``MPI.LB``/``MPI.HOST`` — removed in MPI-3."""
    findings = []
    for node in scope.nodes:
        if isinstance(node, ast.Attribute) \
                and node.attr in DEPRECATED_MPI_ATTRS \
                and _root_name(node) == "MPI":
            findings.append(_finding(
                "OMB005", "warning", scope, node,
                f"'MPI.{node.attr}' was deprecated in MPI-2 and removed "
                "in MPI-3; modern MPI modules do not define it",
            ))
    return findings


# -- OMB006: recv-before-send on both rank branches -----------------------

def check_head_to_head_recv(scope: Scope) -> list[Finding]:
    """Both branches of a rank split block in recv before sending.

    ``if rank == 0: recv; send  else: recv; send`` is the canonical
    head-to-head deadlock: each side waits for a message the other has
    not sent yet.  (The runtime verifier catches the live counterpart.)
    """
    findings = []
    for node in scope.nodes:
        if not isinstance(node, ast.If) or not node.orelse:
            continue
        if not _mentions_rank(node.test):
            continue
        branches = [node.body, node.orelse]
        if all(_recv_blocks_before_send(b) for b in branches):
            findings.append(_finding(
                "OMB006", "warning", scope, node,
                "both rank branches post a blocking receive before any "
                "send — head-to-head receives deadlock once messages "
                "exceed eager limits (reorder one side or use Sendrecv)",
            ))
    return findings


def _mentions_rank(test: ast.expr) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Name) and node.id == "rank":
            return True
        if isinstance(node, ast.Attribute) and node.attr in (
            "rank", "Get_rank",
        ):
            return True
    return False


def _recv_blocks_before_send(body: list[ast.stmt]) -> bool:
    """First p2p op in the branch is a blocking recv, and a send follows."""
    ops: list[tuple[int, int, str]] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute):
                attr = node.func.attr
                if attr in ("recv", "Recv"):
                    ops.append((node.lineno, node.col_offset, "recv"))
                elif attr in ("send", "Send", "isend", "Isend"):
                    ops.append((node.lineno, node.col_offset, "send"))
                elif attr in ("sendrecv", "Sendrecv", "irecv", "Irecv"):
                    # Combined or non-blocking first ops break the deadlock.
                    ops.append((node.lineno, node.col_offset, "safe"))
    ops.sort()
    kinds = [k for _, _, k in ops]
    return bool(kinds) and kinds[0] == "recv" and "send" in kinds


# -- OMB007: buffer mutated while a non-blocking operation is pending -----

def check_buffer_mutation(scope: Scope) -> list[Finding]:
    """Buffer touched in place between a non-blocking post and its wait.

    MPI forbids modifying a send buffer (and touching a receive buffer at
    all) while the operation is in flight.  The pending window runs from
    the post to the first load of any request alias — the earliest point
    the program could wait or test it (the dynamic counterpart is the
    sanitizer's OMB201/OMB202).
    """
    flow = dataflow.flow_for(scope)
    findings = []
    for post in flow.posts:
        if post.buffer is None or post.discarded or post.escapes:
            continue
        end = dataflow.completion_pos(flow, post)
        for node, pos, desc in dataflow.buffer_mutations(
            scope, post.buffer, post.pos, end
        ):
            findings.append(_finding(
                "OMB007", "error", scope, node,
                f"buffer '{post.buffer}' is mutated ({desc}) while "
                f"'{post.method}()' posted at line {post.pos[0]} is still "
                "pending — complete the request with wait/test before "
                "touching the buffer",
            ))
    return findings


# -- OMB008: receive buffer read before completion ------------------------

def check_premature_read(scope: Scope) -> list[Finding]:
    """``Irecv`` buffer contents read before the request completes.

    Until wait/test succeeds the receive buffer's contents are undefined;
    reading them races the transport's write-back.  Metadata accesses
    (``buf.shape``, ``len(buf)``) are fine and not flagged.
    """
    flow = dataflow.flow_for(scope)
    findings = []
    for post in flow.posts:
        if not post.recv or post.buffer is None \
                or post.discarded or post.escapes:
            continue
        end = dataflow.completion_pos(flow, post)
        reads = dataflow.buffer_reads(scope, post.buffer, post.pos, end)
        if reads:
            node, pos = reads[0]
            findings.append(_finding(
                "OMB008", "error", scope, node,
                f"receive buffer '{post.buffer}' is read before the "
                f"'{post.method}()' posted at line {post.pos[0]} "
                "completes — its contents are undefined until wait/test",
            ))
    return findings


# -- OMB009: request list collected but never consumed --------------------

def check_unwaited_request_list(scope: Scope) -> list[Finding]:
    """Requests collected into a list that never reaches waitall/testall.

    ``reqs.append(comm.Irecv(...))`` in a loop, then the list is dropped:
    every operation leaks.  Only lists born in this scope are judged —
    a list received as a parameter or attribute may be consumed elsewhere.
    """
    flow = dataflow.flow_for(scope)
    by_container: dict[str, list[dataflow.NBPost]] = {}
    for post in flow.posts:
        if post.container is not None:
            by_container.setdefault(post.container, []).append(post)
    findings = []
    for name, posts in sorted(by_container.items()):
        if name not in flow.fresh_lists or flow.uses.get(name):
            continue
        count = len(posts)
        sites = "site" if count == 1 else "sites"
        findings.append(_finding_at(
            "OMB009", "error", scope, posts[0].pos,
            f"request list '{name}' collects non-blocking requests "
            f"({count} post {sites}) but is never passed to "
            "waitall/testall or otherwise used — the operations are "
            "never completed",
        ))
    return findings


# -- OMB010: one buffer posted to two concurrent operations ---------------

def check_concurrent_buffer_posts(scope: Scope) -> list[Finding]:
    """Same buffer posted to overlapping non-blocking operations.

    Two pending receives into one buffer (or a send racing a receive on
    the same memory) leave its contents transport-order dependent.  Two
    concurrent *sends* of one buffer are legal and common (the bandwidth
    benchmark's window) and are not flagged.
    """
    flow = dataflow.flow_for(scope)
    by_buffer: dict[str, list[dataflow.NBPost]] = {}
    for post in flow.posts:
        if post.buffer is not None and not post.escapes:
            by_buffer.setdefault(post.buffer, []).append(post)
    findings = []
    for buffer, posts in sorted(by_buffer.items()):
        flagged: set[int] = set()
        for i, first in enumerate(posts):
            end = dataflow.completion_pos(flow, first)
            for second in posts[i + 1:]:
                if id(second) in flagged or second.pos >= end:
                    continue
                if not (first.recv or second.recv):
                    continue  # send+send overlap is MPI-legal
                flagged.add(id(second))
                findings.append(_finding(
                    "OMB010", "error", scope, second.call,
                    f"buffer '{buffer}' is posted to '{second.method}()' "
                    f"while '{first.method}()' posted at line "
                    f"{first.pos[0]} is still pending on the same buffer "
                    "— concurrent operations may fill or drain it in "
                    "transport order",
                ))
    return findings


# -- registry -------------------------------------------------------------

RuleFn = Callable[[Scope], "list[Finding]"]

#: rule ID -> (checker, one-line description for --list-rules / docs).
RULES: dict[str, tuple[RuleFn, str]] = {
    "OMB001": (
        check_pickle_buffer,
        "buffer-capable object sent through a pickle-path (lower-case) "
        "method",
    ),
    "OMB002": (
        check_leaked_request,
        "non-blocking request never waited or tested",
    ),
    "OMB003": (
        check_case_mismatch,
        "upper/lower-case send/recv pairing mismatch",
    ),
    "OMB004": (
        check_reserved_tag,
        "tag in the reserved internal band or outside the legal range",
    ),
    "OMB005": (
        check_deprecated_constant,
        "deprecated/removed MPI constant",
    ),
    "OMB006": (
        check_head_to_head_recv,
        "blocking receive posted before send on both rank branches",
    ),
    "OMB007": (
        check_buffer_mutation,
        "buffer mutated between a non-blocking post and its wait/test",
    ),
    "OMB008": (
        check_premature_read,
        "receive buffer read before the non-blocking receive completes",
    ),
    "OMB009": (
        check_unwaited_request_list,
        "request list collected but never passed to waitall/testall",
    ),
    "OMB010": (
        check_concurrent_buffer_posts,
        "same buffer posted to two concurrent non-blocking operations",
    ),
}


def run_rules(
    tree: ast.Module,
    path: str,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    """Run every (selected) rule over every scope of a parsed module."""
    active = {
        rule_id: fn
        for rule_id, (fn, _doc) in RULES.items()
        if (select is None or rule_id in select)
        and (ignore is None or rule_id not in ignore)
    }
    findings: list[Finding] = []
    for scope in build_scopes(tree, path):
        for fn in active.values():
            findings.extend(fn(scope))
    return findings
