"""Whole-program interprocedural engine for the performance rules.

The per-function rules (OMB001-010) see one :class:`~repro.analysis.rules.Scope`
at a time.  The performance family needs program-wide facts:

* **call graph** — who calls whom, through the one resolver
  :meth:`Program.resolve`: a bare ``f()`` reaches the non-method ``f``
  of the caller's file and ``self.f()`` the method ``f`` of the
  caller's file when there is one; otherwise (and for every other
  receiver, ``spec.read()``) the call links to every function of that
  name in the program — a deliberate over-approximation, because for a
  linter a spurious edge costs at most a grandfathered finding while a
  missed edge hides a real copy;
* **hot set** — every function reachable, through call edges, from a
  communication entry point: the send/recv/collective API surface plus
  any function that delivers into a matching engine (transport read
  loops).  A copy inside a hot function executes per message; the same
  copy in setup code is free;
* **alias facts across call edges** — the whole-program upgrade of
  :mod:`repro.analysis.dataflow`'s first-order alias tracking: an
  argument whose buffer-ness is known at a call site flows into the
  callee's parameter, to a fixpoint, so ``def _post(self, buf): ...
  comm.send(buf)`` is flagged even though ``buf``'s origin is in another
  function (or another file);
* **loop context** — each function's CFG (:mod:`repro.analysis.cfg`)
  annotates every node with its loop-nesting depth.

Everything here is heuristic and name-based by design; see
``docs/perf-lint.md`` for the precision/soundness trade-offs.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from . import rules as _rules
from .cfg import CFG, build_cfg

__all__ = [
    "CallSite",
    "FunctionInfo",
    "Program",
    "load_program",
    "HOT_ENTRY_NAMES",
]

#: Names that *are* the communication API surface: a function with one of
#: these names, or calling one of them as a method, sits on the hot path.
#: The API table (barriers move no payload) plus the v-variants of the
#: byte API and the matching engine / transport data path.
HOT_ENTRY_NAMES = frozenset(_rules.COMM_API) - {"barrier", "Barrier"} | {
    "gatherv_bytes", "scatterv_bytes", "allgatherv_bytes",
    "alltoallv_bytes", "deliver", "_deliver_local", "post_recv",
}

#: The subset that, appearing as a *method call*, marks the caller hot.
#: ``send``/``recv``/``gather`` alone are too common (sockets, queues);
#: require a comm-looking receiver for the ambiguous ones, mirroring
#: rules._comm_like.
_UNAMBIGUOUS_CALLS = frozenset({
    "send_bytes", "isend_bytes", "recv_bytes", "irecv_bytes",
    "sendrecv_bytes", "bcast_bytes", "allgather_bytes", "alltoall_bytes",
    "Isend", "Irecv", "Issend", "Sendrecv", "Bcast", "Allreduce",
    "Allgather", "Alltoall", "Reduce_scatter", "_deliver_local",
})

@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: simple callee name: the attribute for methods, the id for plain calls
    callee: str
    #: dotted receiver text for methods ("self._endpoint.engine"), else None
    receiver: str | None

    @property
    def bare(self) -> bool:
        """A plain ``f()``, not a method call on any receiver."""
        return isinstance(self.node.func, ast.Name)

    @property
    def on_self(self) -> bool:
        """A ``self.f()`` or ``cls.f()`` call."""
        return self.receiver in ("self", "cls")

    @classmethod
    def of(cls, node: ast.AST) -> CallSite | None:
        """The call site of a ``f()`` or ``x.f()`` node, else None."""
        if not isinstance(node, ast.Call):
            return None
        if isinstance(node.func, ast.Attribute):
            return cls(node, node.func.attr, _dotted(node.func.value))
        if isinstance(node.func, ast.Name):
            return cls(node, node.func.id, None)
        return None


@dataclass
class FunctionInfo:
    """One function (or module top level) with its per-function facts."""

    qualname: str                 # "relative/path.py::Class.method"
    name: str                     # simple name ("method")
    path: str
    node: ast.AST                 # FunctionDef | AsyncFunctionDef | Module
    scope: _rules.Scope
    cfg: CFG
    calls: list[CallSite] = field(default_factory=list)
    #: positional parameter names (self/cls included, in order)
    params: list[str] = field(default_factory=list)
    #: parameters known buffer-capable at >= 1 call site (fixpoint result)
    buffer_params: set[str] = field(default_factory=set)
    #: defined in a class body (a ``@staticmethod`` too)
    method: bool = False

    def is_module_level(self) -> bool:
        return isinstance(self.node, ast.Module)


def _dotted(node: ast.expr) -> str | None:
    """Render an attribute chain as dotted text; None for complex bases."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _collect_calls(scope: _rules.Scope) -> list[CallSite]:
    sites = (CallSite.of(node) for node in scope.nodes)
    return [site for site in sites if site is not None]


def _qualnames(tree: ast.Module) -> dict[int, tuple[str, bool]]:
    """Map id(function node) -> (class-qualified name, is a method)."""
    out: dict[int, tuple[str, bool]] = {}

    def visit(node: ast.AST, prefix: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out[id(child)] = (qual, in_class)
                visit(child, f"{qual}.", False)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", True)
            else:
                visit(child, prefix, in_class)

    visit(tree, "", False)
    return out


class Program:
    """The whole-program view the perf/protocol/scale rules run over."""

    def __init__(self) -> None:
        self.functions: list[FunctionInfo] = []
        self.by_name: dict[str, list[FunctionInfo]] = {}
        #: qualname -> qualnames of resolved callees
        self.call_edges: dict[str, set[str]] = {}
        #: qualnames on the hot path, mapped to a human-readable reason
        self.hot: dict[str, str] = {}

    # -- construction ------------------------------------------------------
    def add_module(self, path: str, tree: ast.Module) -> None:
        quals = _qualnames(tree)
        for scope in _rules.build_scopes(tree, path):
            node = scope.node
            if isinstance(node, ast.Module):
                info = FunctionInfo(
                    qualname=f"{path}::<module>", name="<module>",
                    path=path, node=node, scope=scope, cfg=build_cfg(node),
                )
            else:
                name = node.name  # type: ignore[union-attr]
                qual, method = quals.get(id(node), (name, False))
                args = node.args  # type: ignore[union-attr]
                info = FunctionInfo(
                    qualname=f"{path}::{qual}", name=name, path=path,
                    node=node, scope=scope, cfg=build_cfg(node),
                    params=[a.arg for a in args.posonlyargs + args.args],
                    method=method,
                )
                self.by_name.setdefault(name, []).append(info)
            info.calls = _collect_calls(scope)
            self.functions.append(info)

    def finalize(self) -> None:
        """Resolve call edges, compute the hot set, run the alias fixpoint."""
        for info in self.functions:
            self.call_edges[info.qualname] = {
                callee.qualname
                for site in info.calls for callee in self.resolve(info, site)
            }
        self._compute_hot()
        self._propagate_buffer_params()

    def resolve(self, info: FunctionInfo,
                site: CallSite) -> list[FunctionInfo]:
        """The functions a call site in ``info`` may reach.

        A bare ``f()`` reaches the non-method ``f`` of the caller's file,
        and ``self.f()``/``cls.f()`` the method ``f`` of the caller's
        file, when there is one.  Otherwise, and for any other receiver,
        every function named ``f`` in the program.
        """
        named = self.by_name.get(site.callee, [])
        if site.bare:
            local = [f for f in named if f.path == info.path and not f.method]
        elif site.on_self:
            local = [f for f in named if f.path == info.path and f.method]
        else:
            local = []
        return local or named

    def _is_hot_seed(self, info: FunctionInfo) -> str | None:
        if info.name in HOT_ENTRY_NAMES and not info.is_module_level():
            return f"communication API entry point '{info.name}'"
        for site in info.calls:
            if site.callee in _UNAMBIGUOUS_CALLS:
                return f"calls communication primitive '{site.callee}()'"
            if site.callee in _rules.COMM_API and site.receiver is not None:
                tail = ast.Name(id=site.receiver.split(".")[-1])
                if _rules._comm_like(tail):
                    return (
                        f"calls '{site.receiver}.{site.callee}()' "
                        "on a communicator"
                    )
        return None

    def _compute_hot(self) -> None:
        by_qual = {f.qualname: f for f in self.functions}
        todo: list[str] = []
        for info in self.functions:
            reason = self._is_hot_seed(info)
            if reason is not None:
                self.hot[info.qualname] = reason
                todo.append(info.qualname)
        # Close over callees: anything a hot function calls runs per
        # message too.
        # Sorted edge order keeps the attributed caller (and with it the
        # baseline fingerprint of every downstream finding) independent
        # of set-iteration order across interpreter runs.
        while todo:
            qual = todo.pop()
            for callee in sorted(self.call_edges.get(qual, ())):
                if callee not in self.hot:
                    caller = by_qual[qual]
                    self.hot[callee] = f"called from hot '{caller.name}()'"
                    todo.append(callee)

    def _propagate_buffer_params(self) -> None:
        """Flow buffer-ness from arguments into parameters, to a fixpoint."""
        changed = True
        rounds = 0
        while changed and rounds < 20:  # paranoia bound; converges in 2-3
            changed = False
            rounds += 1
            for info in self.functions:
                for site in info.calls:
                    for callee in self.resolve(info, site):
                        if self._flow_args(info, site.node, callee):
                            changed = True

    def _flow_args(self, caller: FunctionInfo, call: ast.Call,
                   callee: FunctionInfo) -> bool:
        params = callee.params
        # Method calls bind the receiver to `self`/`cls` implicitly.
        offset = 1 if params and params[0] in ("self", "cls") \
            and isinstance(call.func, ast.Attribute) else 0
        changed = False
        for i, arg in enumerate(call.args):
            slot = i + offset
            if slot >= len(params) or isinstance(arg, ast.Starred):
                break
            if self._arg_is_buffer(caller, arg) \
                    and params[slot] not in callee.buffer_params:
                callee.buffer_params.add(params[slot])
                changed = True
        for kw in call.keywords:
            if kw.arg is not None and kw.arg in params \
                    and self._arg_is_buffer(caller, kw.value) \
                    and kw.arg not in callee.buffer_params:
                callee.buffer_params.add(kw.arg)
                changed = True
        return changed

    def _arg_is_buffer(self, caller: FunctionInfo, arg: ast.expr) -> bool:
        if isinstance(arg, ast.Name) and arg.id in caller.buffer_params:
            return True
        return _rules._is_buffer_expr(arg, caller.scope)

    # -- queries -----------------------------------------------------------
    def is_hot(self, info: FunctionInfo) -> bool:
        return info.qualname in self.hot

    def hot_reason(self, info: FunctionInfo) -> str:
        return self.hot.get(info.qualname, "")


def iter_python_files(paths: list[str | Path]) -> list[Path]:
    """Expand files/directories into the sorted set of ``*.py`` files."""
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            files.extend(sorted(p.rglob("*.py")))
        else:
            files.append(p)
    return files


def load_program(paths: list[str | Path]) -> Program:
    """Parse every ``*.py`` under ``paths`` into one :class:`Program`.

    Files that fail to parse are skipped here — the per-file linter
    already reports OMB000 for them.
    """
    program = Program()
    for file in iter_python_files(paths):
        try:
            source = file.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file))
        except (OSError, SyntaxError):
            continue
        program.add_module(str(file), tree)
    program.finalize()
    return program
