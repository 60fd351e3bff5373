"""Unit tests for the pipeline's AST rewrite rules and analyses."""

from __future__ import annotations

import pytest

from repro.core.lang import ast
from repro.core.lang.parser import parse_query
from repro.core.plan.rewrite import (
    free_variables,
    is_pure,
    is_statically_boolean,
    rewrite,
    uses_focus,
    uses_position,
)


def rewrite_text(text: str) -> tuple[ast.Expr, list[str]]:
    return rewrite(parse_query(text))


class TestConstantFolding:
    def test_arithmetic_folds_to_literal(self):
        expr, notes = rewrite_text("1 + 2 * 3")
        assert expr == ast.Literal(7, expr.offset)
        assert any("constant-folding" in note for note in notes)

    @pytest.mark.parametrize("text", ["1 div 0", "1 idiv 0", "5 mod 0"])
    def test_division_by_zero_left_for_runtime(self, text):
        expr, _notes = rewrite_text(text)
        assert isinstance(expr, ast.ArithmeticExpr)

    def test_unary_folds(self):
        expr, _notes = rewrite_text("-(3)")
        assert isinstance(expr, ast.Literal)
        assert expr.value == -3

    def test_comparison_folds(self):
        expr, _notes = rewrite_text("2 < 3")
        assert isinstance(expr, ast.Literal)
        assert expr.value is True

    def test_comparison_fold_defers_only_query_errors(self, monkeypatch):
        """A dynamic error stays a run-time error (the comparison is
        left unfolded); anything else is a defect in the comparison
        code and surfaces at compile time."""
        from repro.core.runtime import values
        from repro.errors import QueryEvaluationError

        def failing(error):
            def compare(*_args):
                raise error
            return compare

        monkeypatch.setattr(values, "general_compare",
                            failing(QueryEvaluationError("dynamic")))
        expr, _notes = rewrite_text("2 < 3")
        assert isinstance(expr, ast.ComparisonExpr)
        monkeypatch.setattr(values, "value_compare",
                            failing(TypeError("a defect")))
        with pytest.raises(TypeError, match="a defect"):
            rewrite_text("2 lt 3")

    def test_if_with_literal_condition_picks_branch(self):
        expr, _notes = rewrite_text("if (0) then 'a' else 'b'")
        assert expr == ast.Literal("b", expr.offset)

    def test_small_range_unrolls(self):
        expr, _notes = rewrite_text("1 to 3")
        assert isinstance(expr, ast.SequenceExpr)
        assert [item.value for item in expr.items] == [1, 2, 3]

    def test_and_or_fold_literals(self):
        expr, _notes = rewrite_text("1 = 1 or count(//w) > 0")
        # first operand folds true; the or collapses to a literal
        assert isinstance(expr, ast.Literal)
        assert expr.value is True

    def test_or_keeps_possibly_failing_prefix(self):
        expr, _notes = rewrite_text("count(//w) > 99 or 1 = 1")
        # the non-literal operand must still run (it could raise)
        assert isinstance(expr, ast.OrExpr)
        assert isinstance(expr.operands[-1], ast.Literal)

    def test_folding_reaches_predicates(self):
        expr, _notes = rewrite_text("/descendant::w[1 + 1]")
        predicate = expr.steps[0].predicates[0]
        assert predicate == ast.Literal(2, predicate.offset)


class TestStepFusion:
    def test_double_slash_fuses_to_descendant(self):
        expr, notes = rewrite_text("//w")
        assert expr.anchor == "root"
        assert len(expr.steps) == 1
        assert expr.steps[0].axis == "descendant"
        assert expr.steps[0].test == ast.NameTest("w")
        assert any("anchor-normalization" in n for n in notes)
        assert any("step-fusion" in n for n in notes)

    def test_wildcard_self_fuses(self):
        expr, notes = rewrite_text("/descendant::*/self::w")
        assert len(expr.steps) == 1
        assert expr.steps[0].axis == "descendant"
        assert expr.steps[0].test == ast.NameTest("w")

    def test_positional_predicate_blocks_fusion(self):
        expr, _notes = rewrite_text("//w[1]")
        # child::w[1] is per-parent; fusing would change positions
        assert len(expr.steps) == 2
        assert expr.steps[0].axis == "descendant-or-self"

    def test_boolean_predicate_keeps_fusion(self):
        expr, _notes = rewrite_text("//w[xancestor::dmg]")
        assert len(expr.steps) == 1
        assert expr.steps[0].axis == "descendant"
        assert len(expr.steps[0].predicates) == 1

    def test_attribute_wildcard_not_fused(self):
        expr, _notes = rewrite_text("/descendant::w/attribute::*/self::x")
        axes = [step.axis for step in expr.steps]
        assert "attribute" in axes and "self" in axes


class TestAnalyses:
    def test_free_variables_scoping(self):
        expr = parse_query(
            "for $x in //w let $y := $x return ($y, $z)")
        assert free_variables(expr) == frozenset({"z"})

    def test_uses_focus(self):
        assert uses_focus(parse_query("string(.)"))
        assert uses_focus(parse_query("position()"))
        assert not uses_focus(parse_query("string($x)"))
        assert not uses_focus(parse_query("/descendant::w"))

    def test_uses_position(self):
        assert uses_position(parse_query("position() = 2"))
        assert uses_position(parse_query("//w[last()]"))
        assert not uses_position(parse_query("string(.) = 'a'"))

    def test_statically_boolean(self):
        assert is_statically_boolean(parse_query("1 = 2"))
        assert is_statically_boolean(parse_query("/descendant::w"))
        assert is_statically_boolean(parse_query("exists(//w)"))
        assert not is_statically_boolean(parse_query("1"))
        assert not is_statically_boolean(parse_query("count(//w)"))
        assert not is_statically_boolean(parse_query("//w/string(.)"))

    def test_purity(self):
        assert is_pure(parse_query("count(//w) + 1"))
        assert not is_pure(parse_query("analyze-string(., 'x')"))
        assert not is_pure(parse_query("my-custom-fn(1)"))


class TestPlannerAnnotations:
    def test_invariant_let_marked(self):
        from repro.core.plan import compile_query

        compiled = compile_query(
            "for $w in //w let $c := count(//line) return $c")
        assert any("hoist-invariant" in note for note in compiled.rewrites)

    def test_dependent_let_not_marked(self):
        from repro.core.plan import compile_query

        compiled = compile_query(
            "for $w in //w let $c := string($w) return $c")
        assert not any("hoist-invariant" in n for n in compiled.rewrites)

    def test_impure_let_not_marked(self):
        from repro.core.plan import compile_query

        compiled = compile_query(
            "for $w in //w let $r := analyze-string('a', 'a') return 1")
        assert not any("hoist-invariant" in n for n in compiled.rewrites)

    def test_reverse_axis_normalization_noted(self):
        from repro.core.plan import compile_query

        compiled = compile_query("/descendant::w/ancestor::line/self::*")
        assert any("reverse-axis-normalization" in note
                   for note in compiled.rewrites)


class TestRewritePreservesErrors:
    def test_unknown_function_still_raises_at_runtime(self):
        from repro.core.plan import compile_query
        from repro.corpus.boethius import boethius_document
        from repro.core.goddag import KyGoddag
        from repro.errors import QueryEvaluationError

        goddag = KyGoddag.build(boethius_document(validate=False))
        compiled = compile_query("if (1 = 1) then 1 else nope()")
        assert compiled.execute(goddag) == [1]
        failing = compile_query("if (1 = 2) then 1 else nope()")
        with pytest.raises(QueryEvaluationError):
            failing.execute(goddag)
