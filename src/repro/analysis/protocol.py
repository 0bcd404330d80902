"""Rank-symbolic protocol verifier: OMB501-506.

The one communication-matching pass of ``ombpy-lint``.  Matching
send/recv *sites* syntactically cannot see a deadlock whose shape only
exists once ``rank`` takes a value — the classic shifted ring
``recv((rank-1) % size)`` before ``send((rank+1) % size)`` looks
perfectly paired site-by-site.  So for each function this pass
**abstractly interprets** the body once per concrete ``(rank, N)``
over a ladder of sample sizes, folding every branch condition, loop
bound, peer and tag expression through the symbolic-rank domain
(:mod:`repro.analysis.rankdom`).  The result is one communication
trace per rank, replayed on the simulator's engine
(:mod:`repro.simulator.engine`) with buffered sends, as the runtime has
them, and again with rendezvous sends.  A ``sendrecv`` is a posted
receive, a buffered send and a wait; a collective completes once every
rank arrives at it.

========  ==============================================================
OMB501    collective-order inconsistency: rank classes reach different
          collectives (or collectives in different orders)
OMB502    subset collective: some ranks reach a collective that other
          ranks never call (they exit, or block in point-to-point)
OMB503    send that is never received at any sampled size
OMB504    recv that no send ever matches (blocks forever, or leaks)
OMB505    rank-dependent deadlock: a cycle of blocking receives proved
          by simulation
OMB506    deadlock under rendezvous sends: the pattern completes only
          because every send is eagerly buffered
========  ==============================================================

The interpreter is deliberately *ineligible-by-default*: a function
with an unresolvable peer, a rank-dependent loop it cannot unroll, a
call into another comm-bearing function (resolved by
:meth:`~repro.analysis.interproc.Program.resolve`), or comm inside an
unknown branch is skipped silently.  Every reported deadlock is
therefore a replayed execution, not a heuristic — the cross-validation
suite (tests/test_analysis_protocol_crossval.py) checks the verdict
against exhaustive concrete simulation.

Runs under ``ombpy-lint --protocol``; see ``docs/protocol-lint.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from . import rankdom
from . import rules as _rules
from .findings import Finding
from .interproc import FunctionInfo, Program
from ..simulator import engine
from ..simulator.loggp import NetworkModel

__all__ = [
    "PROTOCOL_RULES",
    "SAMPLE_SIZES",
    "TraceOp",
    "build_traces",
    "run_protocol_rules",
    "simulate",
    "verify_function",
]

#: Job sizes the verifier replays each eligible function at.  Small
#: sizes catch parity/boundary bugs; 8 and 16 catch log-tree shapes.
SAMPLE_SIZES = (2, 3, 4, 5, 8, 16)

_ANY_SOURCE = -1
_ANY_TAG = -1
_PROC_NULL = -2

_MAX_OPS = 2048
_MAX_ITERS = 512

#: Methods that hand back a *different communicator*; collectives on it
#: would involve a subset of ranks, which the flat model cannot see.
_COMM_CREATORS = frozenset({
    "Split", "split", "Dup", "dup", "Create", "create", "Create_cart",
    "create_cart", "Shrink", "shrink", "Merge", "Spawn",
})

_WAIT_METHODS = frozenset({"wait", "Wait", "waitall", "Waitall", "wait_all"})

#: Blocking sends that return once the payload is buffered, whatever the
#: receiver does (``Comm.send_bytes`` is eager by contract): the
#: rendezvous replay posts them without waiting.
_BUFFERED_SENDS = frozenset({"send_bytes"})


def _canon_collective(method: str) -> str:
    name = method.lower()
    for suffix in ("_bytes", "_array"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return name


@dataclass
class TraceOp:
    """One abstract communication operation of one rank."""

    kind: str                     # send|isend|recv|irecv|coll|wait
    method: str = ""
    peer: int | None = None       # None = wildcard (ANY_SOURCE)
    tag: int | None = None        # None = wildcard (ANY_TAG)
    coll: str = ""                # canonical collective name
    node: ast.AST | None = None
    #: produced by an unroll-once approximation of an unknown-trip loop
    approx: bool = False

    def describe(self) -> str:
        if self.kind == "coll":
            return f"collective '{self.coll}'"
        if self.kind == "wait":
            return "wait"
        return f"'{self.method}()'"


class _Unsupported(Exception):
    """The function uses a construct the interpreter will not model."""


class _Return(Exception):
    pass


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


def _iter_calls(node: ast.AST):
    """Every Call in ``node`` in (approximate) source order, skipping
    nested function/class bodies and lambdas."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.Lambda, ast.ClassDef)):
        return
    if isinstance(node, ast.Call):
        # Arguments evaluate before the call itself.
        for child in ast.iter_child_nodes(node):
            yield from _iter_calls(child)
        yield node
        return
    for child in ast.iter_child_nodes(node):
        yield from _iter_calls(child)


def _has_comm(node: ast.AST, comm_calls: frozenset[int]) -> bool:
    """Does this subtree communicate, directly or through one of
    ``comm_calls`` (the ids of calls into comm-bearing functions)?"""
    return any(
        id(call) in comm_calls or _rules.comm_call(call) is not None
        for call in _iter_calls(node)
    )


def _assigned_names(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
            names.add(sub.id)
    return names


class _TraceBuilder:
    """Interpret one function body for one concrete ``(rank, size)``."""

    def __init__(self, info: FunctionInfo, comm_calls: frozenset[int],
                 rank: int, size: int) -> None:
        self.info = info
        self.comm_calls = comm_calls
        self.env: dict[str, int] = {"rank": rank, "size": size}
        self.ops: list[TraceOp] = []
        self.approx = False
        self._loop_depth = 0

    # -- expression helpers ------------------------------------------------

    def _eval(self, node: ast.expr) -> int | None:
        return rankdom.eval_expr(node, self.env)

    def _resolve_peer(self, expr: ast.expr | None) -> int | None:
        """Concrete peer, None for ANY_SOURCE; _Unsupported otherwise."""
        if expr is None:
            raise _Unsupported("missing peer argument")
        if isinstance(expr, (ast.Name, ast.Attribute)):
            text = expr.id if isinstance(expr, ast.Name) else expr.attr
            if text in ("ANY_SOURCE", "ANY_TAG"):
                return None
        value = self._eval(expr)
        if value is None:
            raise _Unsupported(f"unresolvable peer {ast.unparse(expr)!r}")
        if value == _ANY_SOURCE:
            return None
        if value != _PROC_NULL and not 0 <= value < self.env["size"]:
            # The real call would raise RankError at this (rank, size);
            # the author is guarding it some way the model cannot see.
            raise _Unsupported(f"peer {value} out of range")
        return value

    def _resolve_tag(self, expr: ast.expr | None) -> int | None:
        if expr is None:
            return 0  # byte API has no default, object API defaults to 0
        if isinstance(expr, (ast.Name, ast.Attribute)):
            text = expr.id if isinstance(expr, ast.Name) else expr.attr
            if text in ("ANY_TAG", "ANY_SOURCE"):
                return None
        value = self._eval(expr)
        if value is None:
            raise _Unsupported(f"unresolvable tag {ast.unparse(expr)!r}")
        if value == _ANY_TAG:
            return None
        return value

    # -- op emission -------------------------------------------------------

    def _emit(self, op: TraceOp) -> None:
        if len(self.ops) >= _MAX_OPS:
            raise _Unsupported("trace exceeds op budget")
        if self._loop_depth and self.approx:
            op.approx = True
        self.ops.append(op)

    def _emit_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            if id(call) in self.comm_calls:
                raise _Unsupported(f"calls comm-bearing '{func.id}()'")
            if func.id in _WAIT_METHODS:
                self._emit(TraceOp(kind="wait", method=func.id, node=call))
            return
        if not isinstance(func, ast.Attribute):
            return
        method = func.attr
        if method in _COMM_CREATORS and _rules._comm_like(func.value):
            raise _Unsupported(f"derives a sub-communicator via {method}()")
        if method in _WAIT_METHODS:
            self._emit(TraceOp(kind="wait", method=method, node=call))
            return
        if id(call) in self.comm_calls:
            raise _Unsupported(f"calls comm-bearing '{method}()'")
        spec = _rules.comm_call(call)
        if spec is None:
            return
        if method in ("sendrecv", "sendrecv_bytes"):
            # The runtime posts the receive first, then does a buffered
            # send — deadlock-free by construction.  Model exactly that.
            dest, sendtag, source, recvtag = (
                _rules.call_arg(call, i, frozenset({kw}))
                for i, kw in enumerate(
                    ("dest", "sendtag", "source", "recvtag"), start=1)
            )
            dest = self._resolve_peer(dest)
            sendtag = self._resolve_tag(sendtag)
            source = self._resolve_peer(source)
            recvtag = self._resolve_tag(recvtag)
            if dest is None:
                raise _Unsupported("sendrecv to wildcard destination")
            if source != _PROC_NULL:
                self._emit(TraceOp(kind="irecv", method=method,
                                   peer=source, tag=recvtag, node=call))
            if dest != _PROC_NULL:
                self._emit(TraceOp(kind="isend", method=method,
                                   peer=dest, tag=sendtag, node=call))
            if source != _PROC_NULL:
                self._emit(TraceOp(kind="wait", method=method, node=call))
            return
        if spec.kind == "collective":
            self._emit(TraceOp(kind="coll", method=method,
                               coll=_canon_collective(method), node=call))
            return
        peer = self._resolve_peer(
            _rules.call_arg(call, spec.peer, _rules.PEER_KEYWORDS))
        tag = self._resolve_tag(
            _rules.call_arg(call, spec.tag, _rules.TAG_KEYWORDS))
        if peer == _PROC_NULL:
            return  # MPI semantics: a no-op that completes immediately
        if spec.kind == "send" and peer is None:
            raise _Unsupported("send to wildcard destination")
        blocking = spec.blocking and method not in _BUFFERED_SENDS
        kind = spec.kind if blocking else "i" + spec.kind
        self._emit(TraceOp(kind=kind, method=method, peer=peer, tag=tag,
                           node=call))

    def _scan_stmt_calls(self, stmt: ast.stmt) -> None:
        for call in _iter_calls(stmt):
            self._emit_call(call)

    # -- statement interpretation -----------------------------------------

    def run(self) -> list[TraceOp]:
        node = self.info.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        try:
            self._block(node.body)
        except _Return:
            pass
        return self.ops

    def _block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _invalidate(self, node: ast.AST) -> None:
        for name in _assigned_names(node):
            self.env.pop(name, None)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Pass, ast.Global, ast.Nonlocal)):
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._scan_stmt_calls(stmt)
            raise _Return
        if isinstance(stmt, ast.Break):
            raise _Break
        if isinstance(stmt, ast.Continue):
            raise _Continue
        if isinstance(stmt, ast.If):
            self._if(stmt)
            return
        if isinstance(stmt, ast.For):
            self._for(stmt)
            return
        if isinstance(stmt, ast.While):
            self._while(stmt)
            return
        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._scan_stmt_calls(item.context_expr)
            self._block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            for region in (stmt.handlers, stmt.orelse):
                for sub in region:
                    if _has_comm(sub, self.comm_calls):
                        raise _Unsupported("comm in try handler/else")
            self._block(stmt.body)
            self._block(stmt.finalbody)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            # A raise aborts the rank mid-protocol; an assert might.
            # Neither path is modeled — only reject when it could change
            # the communication structure.
            if isinstance(stmt, ast.Raise):
                raise _Unsupported("raise on an interpreted path")
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt)
            return
        if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            self._scan_stmt_calls(stmt)
            self._invalidate(stmt)
            if isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                    and isinstance(stmt.target, ast.Name):
                value = self._eval(stmt.value)
                if value is not None:
                    self.env[stmt.target.id] = value
            return
        if isinstance(stmt, ast.Expr):
            if isinstance(stmt.value, (ast.ListComp, ast.SetComp,
                                       ast.DictComp, ast.GeneratorExp)) \
                    and _has_comm(stmt.value, self.comm_calls):
                raise _Unsupported("comm inside a comprehension")
            self._scan_stmt_calls(stmt)
            return
        if _has_comm(stmt, self.comm_calls):
            raise _Unsupported(
                f"comm in unmodeled {type(stmt).__name__} statement"
            )
        self._invalidate(stmt)

    def _assign(self, stmt: ast.Assign) -> None:
        if _has_comm(stmt.value, self.comm_calls) and isinstance(
            stmt.value, (ast.ListComp, ast.SetComp, ast.DictComp,
                         ast.GeneratorExp),
        ):
            raise _Unsupported("comm inside a comprehension")
        self._scan_stmt_calls(stmt)
        self._invalidate(stmt)
        if len(stmt.targets) == 1 and isinstance(stmt.targets[0], ast.Name):
            value = self._eval(stmt.value)
            if value is not None:
                self.env[stmt.targets[0].id] = value

    def _if(self, stmt: ast.If) -> None:
        self._scan_stmt_calls(stmt.test)
        truth = rankdom.eval_pred(stmt.test, self.env)
        if truth is True:
            self._block(stmt.body)
            return
        if truth is False:
            self._block(stmt.orelse)
            return
        # Unknown condition: only safe to skip when neither arm talks.
        for region in (stmt.body, stmt.orelse):
            for sub in region:
                if _has_comm(sub, self.comm_calls):
                    raise _Unsupported(
                        "comm under unresolvable branch "
                        f"{ast.unparse(stmt.test)!r}"
                    )
        self._invalidate(stmt)

    def _range_values(self, iter_expr: ast.expr) -> list[int] | None:
        if not (isinstance(iter_expr, ast.Call)
                and isinstance(iter_expr.func, ast.Name)
                and iter_expr.func.id == "range"
                and not iter_expr.keywords
                and 1 <= len(iter_expr.args) <= 3):
            return None
        args = [self._eval(a) for a in iter_expr.args]
        if any(a is None for a in args):
            return None
        values = list(range(*args))  # type: ignore[arg-type]
        if len(values) > _MAX_ITERS:
            raise _Unsupported("loop trip count exceeds budget")
        return values

    def _for(self, stmt: ast.For) -> None:
        self._scan_stmt_calls(stmt.iter)
        values = self._range_values(stmt.iter)
        if values is not None and isinstance(stmt.target, ast.Name):
            target = stmt.target.id
            broke = False
            for v in values:
                self.env[target] = v
                try:
                    self._block(stmt.body)
                except _Break:
                    broke = True
                    break
                except _Continue:
                    continue
            if not broke:
                self._block(stmt.orelse)
            return
        self._unroll_once(stmt, stmt.body, stmt.orelse)

    def _while(self, stmt: ast.While) -> None:
        self._scan_stmt_calls(stmt.test)
        truth = rankdom.eval_pred(stmt.test, self.env)
        if truth is False:
            self._block(stmt.orelse)
            return
        # A `while` whose body communicates is a progress/service loop
        # with a data-dependent trip count — not a protocol this model
        # can replay.  Without comm the loop is irrelevant to the trace;
        # just forget everything it binds.
        if any(_has_comm(s, self.comm_calls) for s in stmt.body):
            raise _Unsupported("comm in while loop")
        self._invalidate(stmt)
        self._block(stmt.orelse)

    def _unroll_once(self, stmt: ast.stmt, body: list[ast.stmt],
                     orelse: list[ast.stmt]) -> None:
        """Unknown-trip loop: interpret one iteration with every name the
        loop binds unknown, and mark the emitted ops approximate (the
        unmatched-at-exit rules stand down; replayed deadlocks remain)."""
        has_comm = any(_has_comm(s, self.comm_calls) for s in body)
        self._invalidate(stmt)
        if not has_comm:
            self._block(orelse)
            return
        assert isinstance(stmt, ast.For)
        if rankdom.mentions_scale(stmt.iter):
            # Rank-dependent trip counts give different ranks different
            # op multiplicities; one unrolling would be unsound.
            raise _Unsupported("comm in rank-dependent unbounded loop")
        self.approx = True
        self._loop_depth += 1
        try:
            self._block(body)
        except (_Break, _Continue):
            pass
        finally:
            self._loop_depth -= 1
        self._invalidate(stmt)
        self._block(orelse)


def comm_bearing_calls(program: Program) -> dict[str, frozenset[int]]:
    """Per function, the ids of its calls that may reach a comm-bearing
    function — one that makes a communication call itself."""
    bearing = {
        info.qualname for info in program.functions
        if not info.is_module_level() and any(
            _rules.comm_call(call) is not None
            for stmt in info.node.body  # type: ignore[attr-defined]
            for call in _iter_calls(stmt)
        )
    }
    return {
        info.qualname: frozenset(
            id(site.node) for site in info.calls
            if _rules.comm_call(site.node) is None and any(
                callee.qualname in bearing
                for callee in program.resolve(info, site)
            )
        )
        for info in program.functions
    }


def build_traces(
    info: FunctionInfo, comm_calls: frozenset[int], size: int,
) -> list[list[TraceOp]] | None:
    """One trace per rank at job size ``size``; None when ineligible."""
    traces: list[list[TraceOp]] = []
    for rank in range(size):
        builder = _TraceBuilder(info, comm_calls, rank, size)
        try:
            traces.append(builder.run())
        except _Unsupported:
            return None
    return traces


# -- replay on the simulator's engine ---------------------------------------

_NO_COST = NetworkModel(alpha_us=0.0, beta_us_per_byte=0.0)


def _step(op: TraceOp) -> tuple:
    """The engine step that replays ``op``; the op rides in its last slot."""
    if op.kind == "coll":
        return ("coll", op.coll, op)
    if op.kind == "wait":
        return ("wait", op)
    empty = 0 if op.kind in ("recv", "irecv") else b""
    return (op.kind, op.peer, empty, op.tag, op)


def simulate(traces: list[list[TraceOp]], rendezvous: bool = False
             ) -> engine.Simulation:
    """Replay one trace per rank, with buffered sends or (``rendezvous``)
    sends that wait for a posted receive; a deadlocked replay comes back
    with ``blocked`` filled in."""
    programs = [(_step(op) for op in trace) for trace in traces]
    try:
        return engine.simulate(programs, _NO_COST, rendezvous=rendezvous)
    except engine.SimulationError as err:
        return err.sim


# -- classification --------------------------------------------------------

def _rank_set(ranks) -> str:
    ordered = sorted(ranks)
    if len(ordered) > 6:
        return f"ranks {ordered[0]}..{ordered[-1]}"
    if len(ordered) == 1:
        return f"rank {ordered[0]}"
    return "ranks " + ",".join(str(r) for r in ordered)


@dataclass
class _Report:
    rule: str
    severity: str
    node: ast.AST
    message: str


def _classify_deadlock(result: engine.Simulation, size: int,
                       rendezvous: bool) -> _Report:
    blocked = {r: step[-1] for r, step in result.blocked.items()}
    done = set(range(size)) - set(blocked)
    kinds = {op.kind for op in blocked.values()}
    coll_heads = {r: op for r, op in blocked.items() if op.kind == "coll"}
    anchor_rank = min(blocked)
    anchor = blocked[anchor_rank]
    where = _rank_set(blocked)

    if coll_heads:
        names = sorted({op.coll for op in coll_heads.values()})
        if kinds == {"coll"} and not done and len(names) > 1:
            return _Report(
                "OMB501", "error", anchor.node,
                f"collective order diverges at N={size}: "
                + "; ".join(
                    f"'{nm}' called by "
                    f"{_rank_set(r for r, op in coll_heads.items() if op.coll == nm)}"
                    for nm in names
                )
                + " — every rank must call the same collectives in the "
                "same order",
            )
        anchor_rank = min(coll_heads)
        anchor = coll_heads[anchor_rank]
        others = (
            f"never called by {_rank_set(done)}" if done
            else f"{_rank_set(set(blocked) - set(coll_heads))} stuck in "
            "point-to-point first"
        )
        return _Report(
            "OMB502", "error", anchor.node,
            f"collective '{anchor.coll}' is reached by only "
            f"{_rank_set(coll_heads)} at N={size} ({others}) — a subset "
            "collective hangs every participant",
        )
    if rendezvous:
        return _Report(
            "OMB506", "warning", anchor.node,
            f"deadlock under rendezvous sends at N={size}: {where} "
            f"block ({anchor.describe()} first among them) — the "
            "pattern only completes because sends are eagerly "
            "buffered; reorder or use non-blocking posts",
        )
    # All heads are recv/wait: decide cycle vs. orphaned receive.  Each
    # blocked rank waits on the other blocked ranks that could send to
    # it; peel off ranks that wait on nobody still in the graph.  What
    # remains holds a cycle among distinct ranks — a rank waiting only
    # on itself, or on a chain ending there, is an orphaned receive.
    waits = {}
    for r, op in blocked.items():
        peers = (
            set(blocked) if op.peer is None or op.kind == "wait"
            else {op.peer}
        )
        waits[r] = peers - {r}
    while True:
        free = [r for r, peers in waits.items() if not peers & waits.keys()]
        if not free:
            break
        for r in free:
            del waits[r]
    if waits:
        peer_text = (
            f" from rank {anchor.peer}" if anchor.peer is not None else ""
        )
        return _Report(
            "OMB505", "error", anchor.node,
            f"rank-dependent deadlock at N={size}: {where} block in "
            f"{anchor.describe()}{peer_text} before any matching send "
            "is posted — a blocking-receive cycle; post the receive "
            "non-blocking or reorder one rank class",
        )
    return _Report(
        "OMB504", "error", anchor.node,
        f"{where} block forever in {anchor.describe()} at N={size}: "
        "every rank that could send has finished or is itself stuck "
        "in a receive nothing matches — this receive can never be "
        "matched",
    )


def verify_function(
    info: FunctionInfo, comm_calls: frozenset[int],
    sizes: tuple[int, ...] = SAMPLE_SIZES,
) -> list[_Report]:
    """Replay one function across the size ladder; aggregated reports."""
    if info.is_module_level() or not isinstance(
        info.node, (ast.FunctionDef, ast.AsyncFunctionDef),
    ):
        return []
    # _iter_calls stops at function boundaries, so probe the body.
    if not any(_has_comm(s, frozenset()) for s in info.node.body):
        return []
    deadlock: _Report | None = None
    rendezvous: _Report | None = None
    unreceived: dict[int, tuple[ast.AST, str, int]] = {}
    unmatched: dict[int, tuple[ast.AST, str, int]] = {}
    evaluated = 0
    any_approx = False
    for size in sizes:
        traces = build_traces(info, comm_calls, size)
        if traces is None:
            continue
        evaluated += 1
        approx = any(op.approx for trace in traces for op in trace)
        any_approx = any_approx or approx
        result = simulate(traces)
        if result.blocked:
            if deadlock is None:
                deadlock = _classify_deadlock(result, size, rendezvous=False)
            continue
        strict = simulate(traces, rendezvous=True)
        if strict.blocked and rendezvous is None:
            rendezvous = _classify_deadlock(strict, size, rendezvous=True)
        # Unmatched-at-exit rules need the miss at *every* sampled size
        # (and no approximation): a boundary size where a peer class is
        # empty is normal, a message nobody ever receives is not.
        sent = {id(s[-1].node): (s[-1].node, s[-1].describe(), src)
                for src, s in result.unreceived}
        posted = {id(s[-1].node): (s[-1].node, s[-1].describe(), r)
                  for r, s in result.unmatched}
        if evaluated == 1:
            unreceived, unmatched = sent, posted
        else:
            unreceived = {k: v for k, v in unreceived.items() if k in sent}
            unmatched = {k: v for k, v in unmatched.items() if k in posted}
    if evaluated == 0:
        return []
    reports: list[_Report] = []
    if deadlock is not None:
        reports.append(deadlock)
        return reports
    if rendezvous is not None:
        reports.append(rendezvous)
    if not any_approx:
        for node, desc, src in unreceived.values():
            reports.append(_Report(
                "OMB503", "warning", node,
                f"{desc} from rank {src} is never received at any "
                f"sampled size (N ∈ {{{', '.join(map(str, sizes))}}}) — "
                "no receive matches this message",
            ))
        for node, desc, r in unmatched.values():
            reports.append(_Report(
                "OMB504", "warning", node,
                f"{desc} posted by rank {r} is never matched at any "
                f"sampled size — no send reaches this receive",
            ))
    return reports


# -- registry / runner -----------------------------------------------------

#: rule ID -> (checker placeholder, one-line description).  The family
#: is produced by one whole-function verification pass, so the registry
#: carries docs (for --list-rules / SARIF) rather than per-rule entry
#: points.
PROTOCOL_RULES = {
    "OMB501": (
        None,
        "rank classes reach different collectives (order inconsistency)",
    ),
    "OMB502": (
        None,
        "a collective only a subset of ranks ever calls",
    ),
    "OMB503": (
        None,
        "send that is never received at any sampled job size",
    ),
    "OMB504": (
        None,
        "recv that no send ever matches",
    ),
    "OMB505": (
        None,
        "proved rank-dependent blocking-receive deadlock",
    ),
    "OMB506": (
        None,
        "deadlock under rendezvous sends (eager-buffering dependent)",
    ),
}


def run_protocol_rules(
    program: Program,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    """Verify every eligible function in the program."""
    comm_calls = comm_bearing_calls(program)
    findings: list[Finding] = []
    for info in program.functions:
        for report in verify_function(info, comm_calls[info.qualname]):
            if select is not None and report.rule not in select:
                continue
            if ignore is not None and report.rule in ignore:
                continue
            node = report.node
            findings.append(Finding(
                rule=report.rule,
                severity=report.severity,
                path=info.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0) + 1,
                message=f"in '{info.name}': {report.message}",
                end_line=getattr(node, "end_lineno", 0) or 0,
            ))
    return findings
