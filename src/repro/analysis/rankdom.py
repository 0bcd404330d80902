"""Symbolic-rank domain: evaluate rank/size expressions parametrically.

The commgraph and protocol passes both need to answer the same question
about source text: *given that this process is rank ``r`` of ``N``, what
does this expression evaluate to?*  This module is that evaluator.  An
environment maps the distinguished keys ``"rank"`` / ``"size"`` (plus
any locally-bound loop or assignment names) to concrete integers, and

* :func:`eval_expr` folds an arithmetic expression over ranks —
  ``(rank + 1) % size``, ``size - 1``, ``2 * rank`` — to an ``int``, or
  ``None`` when any leaf is unknown;
* :func:`eval_pred` gives three-valued truth for a branch condition —
  ``rank == 0``, ``not rank``, ``rank % 2 == 1``, ``rank < k and size
  > 2`` — as ``True`` / ``False`` / ``None`` (unknown);
* :func:`rank_guard_value` / :func:`else_guard_value` normalize a guard
  to the single literal rank it selects, so textually different but
  equivalent predicates (``rank == 0``, ``not rank``, ``0 == rank``,
  the ``else`` of ``rank != 0``) all canonicalize to the same role.

Rank and size leaves are recognized by name (``rank``, ``world_rank``,
``size``, ``nprocs``, …), through attributes (``comm.rank``,
``self.world_size``) and through the mpi4py-style getter calls
(``comm.Get_rank()`` / ``comm.Get_size()``).
"""

from __future__ import annotations

import ast

from . import rules as _rules

__all__ = [
    "RANK_NAMES",
    "SIZE_NAMES",
    "eval_expr",
    "eval_pred",
    "is_rankish",
    "is_sizeish",
    "mentions_scale",
    "rank_guard_value",
    "else_guard_value",
]

#: Names that denote "this process's rank" wherever they appear.
RANK_NAMES = frozenset({
    "rank", "world_rank", "my_rank", "myrank", "me", "myid", "rank_id",
})

#: Names that denote "the number of ranks in the job".
SIZE_NAMES = frozenset({
    "size", "world_size", "nranks", "num_ranks", "n_ranks", "nprocs",
    "numprocs", "comm_size", "npes", "nproc",
})

#: Names of a collective schedule's participant list: one entry per rank.
MEMBER_NAMES = frozenset({"members"})

_RANK_GETTERS = frozenset({"Get_rank", "rank"})
_SIZE_GETTERS = frozenset({"Get_size", "size"})


def _leaf_key(node: ast.expr) -> str | None:
    """``"rank"`` / ``"size"`` for a rank/size leaf, the bare name for a
    plain local, else None."""
    if isinstance(node, ast.Name):
        if node.id in RANK_NAMES:
            return "rank"
        if node.id in SIZE_NAMES:
            return "size"
        return node.id
    if isinstance(node, ast.Attribute):
        if node.attr in RANK_NAMES:
            return "rank"
        if node.attr in SIZE_NAMES:
            return "size"
        return None
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and not node.args and not node.keywords:
        if node.func.attr in _RANK_GETTERS:
            return "rank"
        if node.func.attr in _SIZE_GETTERS:
            return "size"
    return None


def is_rankish(node: ast.expr) -> bool:
    """Does this expression denote the calling process's rank?"""
    return _leaf_key(node) == "rank"


def is_sizeish(node: ast.expr) -> bool:
    """Does this expression denote the job's rank count?"""
    return _leaf_key(node) == "size"


def mentions_scale(node: ast.AST) -> bool:
    """Does any leaf of this expression grow with the job size — a size
    name, a rank name, a ``Get_size()``-style getter, or a collective
    schedule's member list (``members``, ``len(members)``)?  Used by the
    scale rules: a loop over ``range(self.world_rank)`` is just as
    O(N) as one over ``range(size)``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.expr) and _leaf_key(sub) in ("rank", "size"):
            return True
        if isinstance(sub, ast.Name) and sub.id in MEMBER_NAMES:
            return True
    return False


def eval_expr(node: ast.expr, env: dict[str, int]) -> int | None:
    """Fold an integer expression under ``env``; None when unknown.

    ``env`` must bind ``"rank"`` and ``"size"``; any other entry binds a
    local (loop variable, alias) by name.
    """
    literal = _rules._literal_int(node)
    if literal is not None:
        return literal
    key = _leaf_key(node)
    if key is not None:
        return env.get(key)
    if isinstance(node, ast.UnaryOp):
        if isinstance(node.op, ast.USub):
            v = eval_expr(node.operand, env)
            return None if v is None else -v
        if isinstance(node.op, ast.UAdd):
            return eval_expr(node.operand, env)
        return None
    if isinstance(node, ast.BinOp):
        left = eval_expr(node.left, env)
        right = eval_expr(node.right, env)
        if left is None or right is None:
            return None
        try:
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if isinstance(node.op, ast.FloorDiv):
                return left // right
            if isinstance(node.op, ast.Mod):
                return left % right
            if isinstance(node.op, ast.Pow) and 0 <= right <= 64:
                return left ** right
            if isinstance(node.op, ast.LShift) and 0 <= right <= 64:
                return left << right
            if isinstance(node.op, ast.RShift) and 0 <= right <= 64:
                return left >> right
            if isinstance(node.op, ast.BitAnd):
                return left & right
            if isinstance(node.op, ast.BitOr):
                return left | right
            if isinstance(node.op, ast.BitXor):
                return left ^ right
        except (ZeroDivisionError, ValueError):
            return None
    return None


_CMP = {
    ast.Eq: lambda a, b: a == b,
    ast.NotEq: lambda a, b: a != b,
    ast.Lt: lambda a, b: a < b,
    ast.LtE: lambda a, b: a <= b,
    ast.Gt: lambda a, b: a > b,
    ast.GtE: lambda a, b: a >= b,
}


def eval_pred(node: ast.expr, env: dict[str, int]) -> bool | None:
    """Three-valued truth of a branch condition under ``env``."""
    if isinstance(node, ast.Constant):
        if isinstance(node.value, bool):
            return node.value
        if isinstance(node.value, int):
            return bool(node.value)
        return None
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        inner = eval_pred(node.operand, env)
        return None if inner is None else not inner
    if isinstance(node, ast.BoolOp):
        # Three-valued and/or: an early decisive operand settles it.
        values = [eval_pred(v, env) for v in node.values]
        if isinstance(node.op, ast.And):
            if any(v is False for v in values):
                return False
            return True if all(v is True for v in values) else None
        if any(v is True for v in values):
            return True
        return False if all(v is False for v in values) else None
    if isinstance(node, ast.Compare):
        left = eval_expr(node.left, env)
        result: bool | None = True
        for op, comparator in zip(node.ops, node.comparators):
            right = eval_expr(comparator, env)
            fn = _CMP.get(type(op))
            if left is None or right is None or fn is None:
                result = None
            elif result is not None and not fn(left, right):
                return False
            left = right
        return result
    # Bare truthiness of an integer expression (`if rank:`).
    value = eval_expr(node, env)
    return None if value is None else bool(value)


# -- guard normalization ----------------------------------------------------
#
# A "role" in the commgraph sense is the single literal rank a guard
# selects.  Normalizing through evaluation (rather than pattern-matching
# the AST shape) makes `rank == 0`, `0 == rank`, `not rank` and friends
# all land on the same role, which is exactly the OMB402 false-positive
# class: equivalent-but-textually-different predicates must pair up.

#: Probe sizes for deciding "this guard selects exactly rank K".  The
#: guard must pick the same single rank at every size it is probed at.
_PROBE_SIZES = (2, 3, 4, 8)
_MAX_PROBE_RANK = 8


def _selected_ranks(test: ast.expr, size: int) -> set[int] | None:
    """Ranks in [0, size) that satisfy ``test``; None when any rank's
    truth value is unknown."""
    selected: set[int] = set()
    for r in range(min(size, _MAX_PROBE_RANK)):
        truth = eval_pred(test, {"rank": r, "size": size})
        if truth is None:
            return None
        if truth:
            selected.add(r)
    return selected


def _structural_eq(test: ast.expr, op_type: type) -> int | None:
    """``rank <op> K`` (either side) -> K for a literal K."""
    if not (isinstance(test, ast.Compare) and len(test.ops) == 1
            and isinstance(test.ops[0], op_type)):
        return None
    for subject, value in (
        (test.left, test.comparators[0]),
        (test.comparators[0], test.left),
    ):
        if is_rankish(subject):
            literal = _rules._literal_int(value)
            if literal is not None:
                return literal
    return None


def rank_guard_value(test: ast.expr) -> int | None:
    """K when ``test`` is equivalent to ``rank == K`` for a literal K
    (independent of the job size), else None."""
    # Fast structural path first: `rank == K` must normalize even for K
    # larger than any probe size (the guard is vacuous at small N, but
    # the *role* it names is still K).
    structural = _structural_eq(test, ast.Eq)
    if structural is not None:
        return structural
    candidate: int | None = None
    for size in _PROBE_SIZES:
        selected = _selected_ranks(test, size)
        if selected is None or len(selected) != 1:
            return None
        (k,) = selected
        if candidate is None:
            candidate = k
        elif candidate != k:
            return None
    return candidate


def else_guard_value(test: ast.expr) -> int | None:
    """K when the *else* branch of ``test`` is equivalent to
    ``rank == K`` — e.g. the else of ``rank != 0``, or of ``rank``."""
    structural = _structural_eq(test, ast.NotEq)
    if structural is not None:
        return structural
    return rank_guard_value(
        ast.UnaryOp(op=ast.Not(), operand=test)
    )
