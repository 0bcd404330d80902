"""Symbolic-rank domain: expression folding, three-valued predicates,
and equivalent guards selecting the same ranks."""

from __future__ import annotations

import ast

from repro.analysis.rankdom import (
    eval_expr,
    eval_pred,
    is_rankish,
    is_sizeish,
    mentions_scale,
)


def expr(src: str) -> ast.expr:
    return ast.parse(src, mode="eval").body


def selected(guard: str, size: int) -> set[int] | None:
    """Ranks of a ``size``-rank job that take the guard's true arm; None
    when any rank's truth value is unknown."""
    truths = [
        eval_pred(expr(guard), {"rank": r, "size": size})
        for r in range(size)
    ]
    if None in truths:
        return None
    return {r for r, truth in enumerate(truths) if truth}


class TestEvalExpr:
    def test_arithmetic_over_rank_and_size(self):
        env = {"rank": 3, "size": 8}
        assert eval_expr(expr("(rank + 1) % size"), env) == 4
        assert eval_expr(expr("size - 1"), env) == 7
        assert eval_expr(expr("2 * rank"), env) == 6
        assert eval_expr(expr("rank // 2"), env) == 1
        assert eval_expr(expr("1 << rank"), env) == 8

    def test_aliases_and_attributes(self):
        env = {"rank": 2, "size": 4}
        assert eval_expr(expr("world_rank"), env) == 2
        assert eval_expr(expr("comm.rank"), env) == 2
        assert eval_expr(expr("self.world_size"), env) == 4
        assert eval_expr(expr("comm.Get_rank()"), env) == 2

    def test_locals_and_unknowns(self):
        env = {"rank": 0, "size": 2, "step": 5}
        assert eval_expr(expr("step + 1"), env) == 6
        assert eval_expr(expr("mystery"), env) is None
        assert eval_expr(expr("rank + mystery"), env) is None

    def test_division_by_zero_is_unknown(self):
        assert eval_expr(expr("rank % size"), {"rank": 1, "size": 0}) is None


class TestEvalPred:
    def test_three_valued_compare(self):
        assert eval_pred(expr("rank == 0"), {"rank": 0, "size": 2}) is True
        assert eval_pred(expr("rank == 0"), {"rank": 1, "size": 2}) is False
        assert eval_pred(expr("rank == k"), {"rank": 1, "size": 2}) is None

    def test_not_and_boolops(self):
        env = {"rank": 0, "size": 4}
        assert eval_pred(expr("not rank"), env) is True
        assert eval_pred(expr("rank == 0 and size > 2"), env) is True
        assert eval_pred(expr("rank == 1 or size == 4"), env) is True
        # An unknown operand only matters when it could decide.
        assert eval_pred(expr("rank == 1 and mystery"), env) is False
        assert eval_pred(expr("rank == 0 or mystery"), env) is True
        assert eval_pred(expr("rank == 0 and mystery"), env) is None

    def test_bare_truthiness(self):
        assert eval_pred(expr("rank"), {"rank": 0, "size": 2}) is False
        assert eval_pred(expr("rank"), {"rank": 1, "size": 2}) is True

    def test_chained_compare(self):
        env = {"rank": 2, "size": 8}
        assert eval_pred(expr("0 < rank < size"), env) is True
        assert eval_pred(expr("0 < rank < 2"), env) is False


class TestGuardNormalization:
    """Textually different but equivalent guards select the same ranks
    at every job size, which is what lets the protocol verifier pair a
    `not rank` send with a `rank == 1` receive."""

    def test_equivalent_spellings_of_rank_eq_zero(self):
        for spelling in ("rank == 0", "0 == rank", "not rank",
                         "rank < 1", "rank <= 0"):
            for size in (2, 3, 4, 8):
                assert selected(spelling, size) == {0}, spelling

    def test_nonzero_roles(self):
        assert selected("rank == 1", 4) == {1}
        assert selected("rank == 5", 8) == {5}
        # A rank beyond the job is selected by no rank of it.
        assert selected("rank == 31", 8) == set()

    def test_non_single_rank_guards(self):
        assert selected("rank % 2 == 0", 4) == {0, 2}
        assert selected("rank != 0", 4) == {1, 2, 3}
        assert selected("size == 2", 2) == {0, 1}
        assert selected("flag", 2) is None

    def test_else_guard(self):
        for spelling in ("rank != 0", "rank", "0 != rank"):
            assert selected(f"not ({spelling})", 4) == {0}, spelling
        assert selected("not (rank == 0)", 4) == {1, 2, 3}


class TestScaleLeaves:
    def test_rank_and_size_recognition(self):
        assert is_rankish(expr("rank"))
        assert is_rankish(expr("self.world_rank"))
        assert is_sizeish(expr("nprocs"))
        assert is_sizeish(expr("comm.Get_size()"))
        assert not is_rankish(expr("count"))

    def test_mentions_scale(self):
        assert mentions_scale(expr("range(size)"))
        assert mentions_scale(expr("range(self.world_rank)"))
        assert mentions_scale(expr("range(1, size - 1)"))
        assert not mentions_scale(expr("range(10)"))
        assert not mentions_scale(expr("items"))
