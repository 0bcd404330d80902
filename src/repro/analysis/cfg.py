"""Per-function control-flow graphs for the whole-program analyses.

The OMB001-010 rules work on a flat statement list per scope; the
performance family (OMB301-310) needs more structure: *where* a
statement sits relative to loops, and which parts of a function are
reachable.  This module builds a
classic basic-block CFG per function (or module top level):

* every block holds the statements that execute together, in order;
* edges follow Python's structured control flow — ``if``/``else`` arms,
  loop back-edges, ``break``/``continue``, ``return``/``raise`` to the
  exit block, exception edges from a ``try`` body into its handlers;
* every block is annotated with its **loop-nesting depth**, and the CFG
  carries a ``node_depth`` map from every AST node (statements *and* the
  expressions inside them) to the depth of the innermost enclosing loop —
  the "is this on a per-message / per-iteration path" question the perf
  rules ask constantly;
* :func:`dominators` computes the classic iterative dominator sets, used
  by tests to assert the graph is well-formed (strict dominance must be
  antisymmetric) and available to future path-sensitive rules.

Invariants (property-tested over random ASTs in the test suite):

* the entry and exit blocks exist and are distinct;
* every block except the exit has at least one successor;
* predecessor/successor sets are mutually consistent;
* strict dominance is acyclic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "Block",
    "CFG",
    "build_cfg",
    "dominators",
]


@dataclass
class Block:
    """One basic block: statements that execute as a unit."""

    id: int
    #: loop-nesting depth (0 = outside any loop in this function)
    depth: int = 0
    #: statements anchored in this block (compound statements anchor
    #: their *header* here; their bodies live in successor blocks)
    statements: list[ast.stmt] = field(default_factory=list)
    succs: set[int] = field(default_factory=set)
    preds: set[int] = field(default_factory=set)
    #: diagnostic label ("entry", "exit", "loop-header", "body", ...)
    label: str = "body"


class CFG:
    """Control-flow graph of one function body (or the module top level)."""

    def __init__(self) -> None:
        self.blocks: dict[int, Block] = {}
        self.entry: int = 0
        self.exit: int = 0
        #: id(ast node) -> loop-nesting depth of the innermost loop
        #: containing it (covers statements and their sub-expressions)
        self.node_depth: dict[int, int] = {}

    # -- queries -----------------------------------------------------------
    def block(self, block_id: int) -> Block:
        return self.blocks[block_id]

    def depth_of(self, node: ast.AST) -> int:
        """Loop-nesting depth of an AST node (0 when unknown)."""
        return self.node_depth.get(id(node), 0)

    def max_depth(self) -> int:
        return max((b.depth for b in self.blocks.values()), default=0)

    def reachable(self) -> set[int]:
        """Block ids reachable from the entry block."""
        seen = {self.entry}
        todo = [self.entry]
        while todo:
            for succ in self.blocks[todo.pop()].succs:
                if succ not in seen:
                    seen.add(succ)
                    todo.append(succ)
        return seen

    def check(self) -> list[str]:
        """Well-formedness violations (empty list == healthy graph)."""
        problems = []
        if self.entry == self.exit:
            problems.append("entry and exit blocks coincide")
        for bid, block in self.blocks.items():
            if bid != self.exit and not block.succs:
                problems.append(f"non-exit block {bid} has no successor")
            for succ in block.succs:
                if succ not in self.blocks:
                    problems.append(f"edge {bid}->{succ} dangles")
                elif bid not in self.blocks[succ].preds:
                    problems.append(f"edge {bid}->{succ} missing back-link")
            for pred in block.preds:
                if pred not in self.blocks:
                    problems.append(f"pred {pred}->{bid} dangles")
                elif bid not in self.blocks[pred].succs:
                    problems.append(f"pred {pred}->{bid} missing forward-link")
        return problems


class _Builder:
    """Single-pass structured-statement walk producing the CFG."""

    def __init__(self) -> None:
        self.cfg = CFG()
        self._next_id = 0
        self._depth = 0
        #: stack of (loop_header_id, loop_after_id) for break/continue
        self._loops: list[tuple[int, int]] = []

    # -- plumbing ----------------------------------------------------------
    def _new_block(self, label: str = "body",
                   depth: int | None = None) -> Block:
        block = Block(
            id=self._next_id,
            depth=self._depth if depth is None else depth,
            label=label,
        )
        self._next_id += 1
        self.cfg.blocks[block.id] = block
        return block

    def _edge(self, src: Block | None, dst: Block) -> None:
        if src is None:
            return
        src.succs.add(dst.id)
        dst.preds.add(src.id)

    def _anchor(self, stmt: ast.stmt, block: Block) -> None:
        block.statements.append(stmt)
        for node in ast.walk(stmt):
            # Innermost-statement wins: nested loop bodies re-anchor their
            # own statements at a deeper depth afterwards, overwriting the
            # shallower annotation written by the enclosing header here.
            self.cfg.node_depth[id(node)] = self._depth

    # -- entry point -------------------------------------------------------
    def build(self, node: ast.AST) -> CFG:
        entry = self._new_block("entry")
        exit_block = self._new_block("exit")
        self.cfg.entry = entry.id
        self.cfg.exit = exit_block.id
        body = getattr(node, "body", None) or []
        end = self._stmts(body, entry)
        self._edge(end, exit_block)
        # Safety net for approximated constructs: any block left without a
        # successor (other than the exit) falls through to the exit, which
        # keeps the "non-exit blocks have successors" invariant airtight.
        for block in self.cfg.blocks.values():
            if block.id != exit_block.id and not block.succs:
                self._edge(block, exit_block)
        return self.cfg

    # -- statement dispatch ------------------------------------------------
    def _stmts(self, body: list[ast.stmt],
               current: Block | None) -> Block | None:
        """Thread ``body`` through the graph; returns the fall-through block
        (None when every path ended in return/raise/break/continue)."""
        for stmt in body:
            if current is None:
                # Statically unreachable code still gets blocks so the
                # depth annotation and per-statement queries stay total.
                current = self._new_block("unreachable")
            self._anchor(stmt, current)
            if isinstance(stmt, ast.If):
                current = self._if(stmt, current)
            elif isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
                current = self._loop(stmt, current)
            elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                current = self._try(stmt, current)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                current = self._stmts(stmt.body, current)
            elif isinstance(stmt, ast.Match):
                current = self._match(stmt, current)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                self._edge(current, self.cfg.blocks[self.cfg.exit])
                current = None
            elif isinstance(stmt, ast.Break):
                if self._loops:
                    _header, after = self._loops[-1]
                    self._edge(current, self.cfg.blocks[after])
                else:
                    self._edge(current, self.cfg.blocks[self.cfg.exit])
                current = None
            elif isinstance(stmt, ast.Continue):
                if self._loops:
                    header, _after = self._loops[-1]
                    self._edge(current, self.cfg.blocks[header])
                else:
                    self._edge(current, self.cfg.blocks[self.cfg.exit])
                current = None
            # Function/class definitions and plain statements are linear;
            # nested function bodies get their own CFGs, not edges here.
        return current

    def _if(self, stmt: ast.If, current: Block) -> Block | None:
        then_block = self._new_block("then")
        self._edge(current, then_block)
        then_end = self._stmts(stmt.body, then_block)
        if stmt.orelse:
            else_block = self._new_block("else")
            self._edge(current, else_block)
            else_end = self._stmts(stmt.orelse, else_block)
        else:
            else_end = current  # condition false: fall through
        ends = [e for e in (then_end, else_end) if e is not None]
        if not ends:
            return None
        after = self._new_block("after-if")
        for end in ends:
            self._edge(end, after)
        return after

    def _loop(self, stmt: ast.While | ast.For | ast.AsyncFor,
              current: Block) -> Block:
        header = self._new_block("loop-header")
        self._edge(current, header)
        after = self._new_block("after-loop")
        self._loops.append((header.id, after.id))
        self._depth += 1
        body_block = self._new_block("loop-body")
        self._edge(header, body_block)
        body_end = self._stmts(stmt.body, body_block)
        self._edge(body_end, header)  # back edge
        self._depth -= 1
        self._loops.pop()
        if stmt.orelse:
            else_block = self._new_block("loop-else")
            self._edge(header, else_block)
            else_end = self._stmts(stmt.orelse, else_block)
            self._edge(else_end, after)
        else:
            self._edge(header, after)
        return after

    def _try(self, stmt: ast.stmt, current: Block) -> Block | None:
        body_block = self._new_block("try-body")
        self._edge(current, body_block)
        body_end = self._stmts(stmt.body, body_block)
        ends: list[Block] = []
        for handler in getattr(stmt, "handlers", []):
            handler_block = self._new_block("except")
            # Any point in the try body may raise; approximating with an
            # edge from the body's *start* keeps handlers reachable.
            self._edge(body_block, handler_block)
            handler_end = self._stmts(handler.body, handler_block)
            if handler_end is not None:
                ends.append(handler_end)
        if getattr(stmt, "orelse", None):
            else_block = self._new_block("try-else")
            self._edge(body_end, else_block)
            body_end = self._stmts(stmt.orelse, else_block)
        if body_end is not None:
            ends.append(body_end)
        if getattr(stmt, "finalbody", None):
            final_block = self._new_block("finally")
            for end in ends:
                self._edge(end, final_block)
            if not ends:
                # All paths ended; finally still runs on the way out.
                self._edge(body_block, final_block)
            return self._stmts(stmt.finalbody, final_block)
        if not ends:
            return None
        after = self._new_block("after-try")
        for end in ends:
            self._edge(end, after)
        return after

    def _match(self, stmt: ast.Match, current: Block) -> Block | None:
        ends: list[Block] = []
        exhaustive = False
        for case in stmt.cases:
            case_block = self._new_block("case")
            self._edge(current, case_block)
            case_end = self._stmts(case.body, case_block)
            if case_end is not None:
                ends.append(case_end)
            if isinstance(case.pattern, ast.MatchAs) \
                    and case.pattern.pattern is None and case.guard is None:
                exhaustive = True  # bare `case _:` catches everything
        if not exhaustive:
            ends.append(current)  # no case matched: fall through
        if not ends:
            return None
        after = self._new_block("after-match")
        for end in ends:
            self._edge(end, after)
        return after


def build_cfg(node: ast.AST) -> CFG:
    """Build the CFG of one function (or ``ast.Module``) body."""
    return _Builder().build(node)


def dominators(cfg: CFG) -> dict[int, set[int]]:
    """Dominator sets via the classic iterative dataflow algorithm.

    ``doms[b]`` is the set of blocks that dominate ``b`` (including ``b``
    itself).  Blocks unreachable from the entry dominate only themselves.
    """
    reachable = cfg.reachable()
    doms: dict[int, set[int]] = {}
    for bid in cfg.blocks:
        if bid == cfg.entry:
            doms[bid] = {bid}
        elif bid in reachable:
            doms[bid] = set(reachable)
        else:
            doms[bid] = {bid}
    changed = True
    while changed:
        changed = False
        for bid in cfg.blocks:
            if bid == cfg.entry or bid not in reachable:
                continue
            preds = [p for p in cfg.blocks[bid].preds if p in reachable]
            new = set(reachable)
            for pred in preds:
                new &= doms[pred]
            new |= {bid}
            if new != doms[bid]:
                doms[bid] = new
                changed = True
    return doms
