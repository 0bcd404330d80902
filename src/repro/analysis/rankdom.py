"""Symbolic-rank domain: evaluate rank/size expressions parametrically.

The protocol and scale passes need to answer the same question about
source text: *given that this process is rank ``r`` of ``N``, what
does this expression evaluate to?*  This module is that evaluator.  An
environment maps the distinguished keys ``"rank"`` / ``"size"`` (plus
any locally-bound loop or assignment names) to concrete integers, and

* :func:`eval_expr` folds an arithmetic expression over ranks —
  ``(rank + 1) % size``, ``size - 1``, ``2 * rank`` — to an ``int``, or
  ``None`` when any leaf is unknown;
* :func:`eval_pred` gives three-valued truth for a branch condition —
  ``rank == 0``, ``not rank``, ``rank % 2 == 1``, ``rank < k and size
  > 2`` — as ``True`` / ``False`` / ``None`` (unknown), so textually
  different but equivalent guards (``rank == 0``, ``not rank``,
  ``0 == rank``, the ``else`` of ``rank != 0``) select the same ranks.

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
