"""Scalability lint: OMB510-515 — laptop-scale assumptions, priced.

The perf family (OMB3xx) finds per-message waste; this family finds
code whose *shape* stops working when N grows from 4 to 1024: eager
O(N²) connection meshes, roots that accumulate O(N) state through a
serialized receive loop, linear fan-out where a log₂N tree exists,
one thread or file descriptor per peer, and reorder/hold buffers with
no bound.  Every finding carries an analytic LogGP cost estimate
computed through :mod:`repro.simulator`'s network model, so reports
can be ranked by projected cost at N=1024 (``tools/scale_report.py``
renders the ranked "scale debt" table).

========  ==============================================================
OMB510    connection dial inside a rank loop — O(N) dials per rank,
          O(N²) eager mesh job-wide
OMB511    rank-loop of blocking receives accumulating on one rank —
          O(N) root state, (N-1) serialized message latencies
OMB512    rank-loop of sends fanning out linearly where a binomial
          tree or two-level shape exists
OMB513    one thread per peer (rank-loop Thread creation, or Thread
          creation in a helper invoked from a rank loop)
OMB514    one socket/file descriptor per peer, created eagerly
OMB515    unbounded reorder/hold buffer on a receive path
========  ==============================================================

Pairwise-exchange loops (``sendrecv`` per step, the optimal alltoall
shape) are deliberately *not* flagged as linear collectives.

Runs under ``ombpy-lint --scale``; see ``docs/protocol-lint.md``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass

from . import rankdom
from . import rules as _rules
from .findings import Finding
from .interproc import CallSite, FunctionInfo, Program
from ..simulator.collective_cost import _ceil_log2
from ..simulator.loggp import NetworkModel

__all__ = [
    "ANNOTATE_N",
    "DEFAULT_MSG_BYTES",
    "DEFAULT_NET",
    "REPORT_SIZES",
    "SCALE_RULES",
    "ScaleSite",
    "fmt_us",
    "projected_cost_us",
    "run_scale_rules",
    "scale_inventory",
]

#: Reference fabric for the projections: ~20 µs one-way latency,
#: ~780 MB/s eager bandwidth — the measured shape of the repo's TCP
#: transport on one node, i.e. deliberately *favourable* numbers.
DEFAULT_NET = NetworkModel(alpha_us=20.0, beta_us_per_byte=1.0 / 780.0)

#: Message size the annotations price (one mid-size eager message).
DEFAULT_MSG_BYTES = 8192

#: The headline annotation size and the report ladder.
ANNOTATE_N = 1024
REPORT_SIZES = (64, 256, 1024)

#: Cost kind per rule: how ``projected_cost_us`` prices one site.
_RULE_KIND = {
    "OMB510": "mesh",
    "OMB511": "linear",
    "OMB512": "linear",
    "OMB513": "perpeer",
    "OMB514": "perpeer",
    "OMB515": "linear",
}


def projected_cost_us(
    kind: str,
    n: int,
    m: int = DEFAULT_MSG_BYTES,
    net: NetworkModel = DEFAULT_NET,
) -> float:
    """Analytic LogGP cost of one site's pattern at job size ``n``.

    ``mesh``    — ~3 zero-byte exchanges per dialed connection, N-1
                  connections per rank (SYN/HELLO/register handshake);
    ``linear``  — (N-1) serialized m-byte message latencies;
    ``tree``    — ceil(log₂N) m-byte message latencies (the fix);
    ``perpeer`` — (N-1) serialized zero-byte accept/registrations.
    """
    if n <= 1:
        return 0.0
    if kind == "mesh":
        return 3.0 * (n - 1) * net.latency_us(0)
    if kind == "linear":
        return (n - 1) * net.latency_us(m)
    if kind == "tree":
        return _ceil_log2(n) * net.latency_us(m)
    if kind == "perpeer":
        return (n - 1) * net.latency_us(0)
    raise ValueError(f"unknown cost kind {kind!r}")


def fmt_us(us: float) -> str:
    """Compact human form of a microsecond figure (3 significant digits)."""
    if us < 1e3:
        return f"{us:.3g} µs"
    if us < 1e6:
        return f"{us / 1e3:.3g} ms"
    return f"{us / 1e6:.3g} s"


def _linear_vs_tree() -> str:
    linear = projected_cost_us("linear", ANNOTATE_N)
    tree = projected_cost_us("tree", ANNOTATE_N)
    return (
        f"LogGP @N={ANNOTATE_N}, m=8KiB: linear ~(N-1)·(α+mβ) ≈ "
        f"{fmt_us(linear)} vs tree ~log₂N·(α+mβ) ≈ {fmt_us(tree)}"
    )


@dataclass
class ScaleSite:
    """One OMB51x site with its cost model, for the debt report."""

    rule: str
    path: str
    line: int
    col: int
    end_line: int
    func: str
    summary: str                  # what the site is, no cost numbers
    message: str                  # full lint message incl. annotation
    kind: str                     # projected_cost_us kind

    def cost_us(self, n: int) -> float:
        return projected_cost_us(self.kind, n)


# -- structure helpers -----------------------------------------------------

_HOLD_NAME = re.compile(
    r"buffered|reorder|hold|held|backlog|unacked", re.IGNORECASE
)
_BOUND_NAME = re.compile(r"max|limit|cap|bound|window", re.IGNORECASE)

_DIAL_CALLEES = frozenset({
    "connect", "connect_ex", "create_connection", "open_connection", "dial",
})
_FD_CALLEES = frozenset({"socket", "open", "socketpair"})


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _walk_scope(root: ast.AST):
    """Walk ``root`` without crossing into nested function/class scopes
    (lambdas are transparent — a dial wrapped in a retry lambda still
    runs once per loop iteration).  Prevents a module-level scope from
    re-reporting every site its functions already own."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
            ):
                continue
            stack.append(child)


#: Helper-function names that are send/recv wrappers, such as the
#: collectives' ``csend``/``crecv`` (schedules yield steps instead; see
#: :func:`_step_kind`).
_NAME_KIND = re.compile(r"^c?i?(send|recv)(_bytes)?$")


def _call_kind(call: ast.Call) -> str | None:
    spec = _rules.comm_call(call)
    if spec is not None:
        return spec.kind
    if isinstance(call.func, ast.Name):
        match = _NAME_KIND.match(call.func.id)
        if match:
            return match.group(1)
    return None


def _rank_loops(info: FunctionInfo) -> list[ast.For]:
    """Loops whose trip count grows with the job size.

    ``range(size)``-style bounds and ``for peer in self._peers``-style
    iteration over a peer table both count — each runs once per rank.
    """
    loops: list[ast.For] = []
    for node in _walk_scope(info.node):
        if not isinstance(node, ast.For):
            continue
        it = node.iter
        if rankdom.mentions_scale(it):
            loops.append(node)
            continue
        base = it
        if isinstance(base, ast.Call) and base.args:
            base = base.args[0]
        text = None
        if isinstance(base, ast.Attribute):
            text = base.attr
        elif isinstance(base, ast.Name):
            text = base.id
        if text is not None and re.search(r"peers|ranks", text):
            loops.append(node)
    return loops


def _step_kind(node: ast.Yield) -> str | None:
    """``send``/``recv``/``sendrecv`` for a collective schedule's step,
    ``yield ("send", peer, payload)``."""
    value = node.value
    if isinstance(value, ast.Tuple) and value.elts:
        head = value.elts[0]
        if isinstance(head, ast.Constant) \
                and head.value in ("send", "recv", "sendrecv"):
            return head.value
    return None


def _loop_comm_kinds(loop: ast.For) -> set[str]:
    """Communication kinds in the loop body, with ``sendrecv`` counted
    as both (a pairwise exchange, not a fan-out)."""
    kinds: set[str] = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.Yield):
            kind = _step_kind(node)
            if kind == "sendrecv":
                kinds.update(("send", "recv"))
            elif kind is not None:
                kinds.add(kind)
        elif isinstance(node, ast.Call):
            kind = _call_kind(node)
            if kind is None:
                continue
            name = _callee_name(node) or ""
            if name.startswith("sendrecv"):
                kinds.update(("send", "recv"))
            else:
                kinds.add(kind)
    return kinds


def _rank_loop_callees(program: Program) -> frozenset[str]:
    """Qualnames of the functions invoked from inside any rank loop —
    one level of interprocedural vision for the per-peer rules (the
    transports dial in a loop but start the reader thread in a helper).
    Only ``f()`` and ``self.f()`` are followed: another receiver's
    method (``rows.append()``) is not this program's per-peer helper."""
    quals: set[str] = set()
    for info in program.functions:
        for loop in _rank_loops(info):
            for node in ast.walk(loop):
                site = CallSite.of(node)
                if site is not None and (site.bare or site.on_self):
                    quals.update(
                        f.qualname for f in program.resolve(info, site)
                    )
    return frozenset(quals)


def _site(rule: str, info: FunctionInfo, node: ast.AST, summary: str,
          annotation: str, fix: str) -> ScaleSite:
    return ScaleSite(
        rule=rule,
        path=info.path,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0) + 1,
        end_line=getattr(node, "end_lineno", 0) or 0,
        func=info.name,
        summary=summary,
        message=f"{summary}; {annotation}; {fix}",
        kind=_RULE_KIND[rule],
    )


# -- the rules -------------------------------------------------------------

def _check_mesh_dial(program: Program, info: FunctionInfo,
                     ctx: "_Context") -> list[ScaleSite]:
    for loop in _rank_loops(info):
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) \
                    and _callee_name(node) in _DIAL_CALLEES:
                mesh = projected_cost_us("mesh", ANNOTATE_N)
                return [_site(
                    "OMB510", info, node,
                    f"'{info.name}' dials a connection per peer in a "
                    "rank loop — O(N) dials per rank, O(N²) eager mesh "
                    "job-wide",
                    f"LogGP @N={ANNOTATE_N}: ~3·(N-1)·α ≈ "
                    f"{fmt_us(mesh)} handshake time per rank",
                    "dial lazily on first send or through a "
                    "hierarchical leader mesh",
                )]
    return []


def _check_root_accumulation(program: Program, info: FunctionInfo,
                             ctx: "_Context") -> list[ScaleSite]:
    for loop in _rank_loops(info):
        kinds = _loop_comm_kinds(loop)
        if "recv" in kinds and "send" not in kinds:
            return [_site(
                "OMB511", info, loop,
                f"'{info.name}' receives from every rank in a loop — "
                "O(N) state accumulated on one rank, (N-1) serialized "
                "message latencies",
                _linear_vs_tree(),
                "gather through a binomial tree or two-level "
                "(node-leader) reduction",
            )]
    return []


def _check_linear_fanout(program: Program, info: FunctionInfo,
                         ctx: "_Context") -> list[ScaleSite]:
    for loop in _rank_loops(info):
        kinds = _loop_comm_kinds(loop)
        if "send" in kinds and "recv" not in kinds:
            return [_site(
                "OMB512", info, loop,
                f"'{info.name}' sends to every rank in a loop — a "
                "linear collective where a log₂N shape exists",
                _linear_vs_tree(),
                "fan out through a binomial tree (each round doubles "
                "the senders)",
            )]
    return []


def _creation_sites(info: FunctionInfo, callees: frozenset[str],
                    ctx: "_Context") -> ast.AST | None:
    """First matching creation call that runs once per peer: inside one
    of this function's own rank loops, or anywhere in a function that a
    rank loop elsewhere invokes."""
    regions: list[ast.AST] = list(_rank_loops(info))
    if info.qualname in ctx.rank_loop_callees:
        regions = [info.node]
    for region in regions:
        for node in ast.walk(region):
            if isinstance(node, ast.Call) \
                    and _callee_name(node) in callees:
                return node
    return None


def _check_thread_per_peer(program: Program, info: FunctionInfo,
                           ctx: "_Context") -> list[ScaleSite]:
    node = _creation_sites(info, frozenset({"Thread"}), ctx)
    if node is None:
        return []
    per = projected_cost_us("perpeer", ANNOTATE_N)
    return [_site(
        "OMB513", info, node,
        f"'{info.name}' starts one thread per peer — N-1 threads per "
        "rank, N·(N-1) job-wide",
        f"LogGP @N={ANNOTATE_N}: ~(N-1)·α ≈ {fmt_us(per)} serialized "
        "spawn/handshake per rank, plus N-1 stacks of scheduler load",
        "multiplex peers onto a selector/epoll loop or a small worker "
        "pool",
    )]


def _check_fd_per_peer(program: Program, info: FunctionInfo,
                       ctx: "_Context") -> list[ScaleSite]:
    node = _creation_sites(info, _FD_CALLEES, ctx)
    if node is None:
        return []
    per = projected_cost_us("perpeer", ANNOTATE_N)
    return [_site(
        "OMB514", info, node,
        f"'{info.name}' opens one socket/fd per peer — N-1 descriptors "
        "per rank, N·(N-1) job-wide (ulimit territory at N=1024)",
        f"LogGP @N={ANNOTATE_N}: ~(N-1)·α ≈ {fmt_us(per)} serialized "
        "setup per rank",
        "share descriptors through a leader per node or connect "
        "on demand",
    )]


def _check_hold_buffer(program: Program, info: FunctionInfo,
                       ctx: "_Context") -> list[ScaleSite]:
    """A store into a hold/reorder container with no visible bound."""
    src_names: list[str] = []
    bounded = False
    store: ast.AST | None = None
    container = ""
    for node in _walk_scope(info.node):
        # len(x) comparisons or max/limit names anywhere in the function
        # count as a bound — this rule wants the *no backpressure at
        # all* case, not imperfect backpressure.
        if isinstance(node, ast.Name) and _BOUND_NAME.search(node.id):
            bounded = True
        if isinstance(node, ast.Attribute) and _BOUND_NAME.search(node.attr):
            bounded = True
        target = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Subscript):
            target = node.targets[0].value
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr == "append":
            target = node.func.value
        if target is None:
            continue
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name is not None and _HOLD_NAME.search(name) and store is None:
            store = node
            container = name
    if store is None or bounded:
        return []
    drain = projected_cost_us("linear", ANNOTATE_N)
    return [_site(
        "OMB515", info, store,
        f"'{info.name}' grows '{container}' without a bound — a "
        "stalled or slow peer makes it hold O(messages-in-flight) "
        "buffers",
        f"LogGP @N={ANNOTATE_N}, m=8KiB: draining one held message "
        f"per peer costs ~(N-1)·(α+mβ) ≈ {fmt_us(drain)}",
        "cap the window (drop + NACK, or block the sender) so memory "
        "is O(window), not O(backlog)",
    )]


@dataclass
class _Context:
    rank_loop_callees: frozenset[str]


#: rule ID -> (checker over (program, info, ctx), one-line description).
SCALE_RULES = {
    "OMB510": (
        _check_mesh_dial,
        "connection dial in a rank loop (O(N²) eager mesh)",
    ),
    "OMB511": (
        _check_root_accumulation,
        "O(N) root accumulation through a serialized receive loop",
    ),
    "OMB512": (
        _check_linear_fanout,
        "linear send fan-out where a log-tree shape exists",
    ),
    "OMB513": (
        _check_thread_per_peer,
        "one thread per peer",
    ),
    "OMB514": (
        _check_fd_per_peer,
        "one socket/file descriptor per peer, opened eagerly",
    ),
    "OMB515": (
        _check_hold_buffer,
        "unbounded reorder/hold buffer on a receive path",
    ),
}


def scale_inventory(
    program: Program,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[ScaleSite]:
    """Every OMB51x site in the program (one per rule per function)."""
    ctx = _Context(rank_loop_callees=_rank_loop_callees(program))
    sites: list[ScaleSite] = []
    for info in program.functions:
        for rule_id, (fn, _doc) in SCALE_RULES.items():
            if select is not None and rule_id not in select:
                continue
            if ignore is not None and rule_id in ignore:
                continue
            sites.extend(fn(program, info, ctx))
    return sites


def run_scale_rules(
    program: Program,
    select: set[str] | None = None,
    ignore: set[str] | None = None,
) -> list[Finding]:
    return [
        Finding(
            rule=s.rule, severity="warning", path=s.path,
            line=s.line, col=s.col, message=s.message, end_line=s.end_line,
        )
        for s in scale_inventory(program, select, ignore)
    ]
