"""AST → logical plan — stage 3 of the query pipeline.

Besides a structural translation, the planner applies the two rule
families that annotate the *plan* rather than the AST:

* **reverse-axis / order normalization** — a step whose emission order
  no later consumer can observe is marked ``ordered=False``: the
  physical layer then skips the per-step sort and the reverse-axis reversal
  (document order allows it because every later axis step re-merges by
  order key anyway).  The same analysis marks whole paths consumed only
  through their effective boolean value (predicates, conditions,
  ``exists``/``count`` arguments) as ``ordered_result=False``.
* **loop-invariant hoisting** — a pure ``let``/``where`` whose free
  variables are untouched by the enclosing ``for`` clauses is marked
  invariant; the physical FLWOR evaluates it on the first tuple only
  and reuses the value, which preserves per-tuple evaluation's error
  timing and empty-stream behavior exactly (lazy hoisting).
"""

from __future__ import annotations

from repro.core.goddag.joins import JOIN_KERNELS
from repro.core.lang import ast
from repro.core.plan import logical as L
from repro.core.plan import masks
from repro.core.plan.rewrite import (
    free_variables,
    is_pure,
    is_statically_boolean,
    uses_position,
)
from repro.core.runtime.semantics import REVERSE_AXES

#: Builtins whose value is insensitive to the order of an argument
#: sequence (the multiset is preserved by construction).  ``sum``/
#: ``avg``/``min``/``max`` are deliberately excluded: float addition
#: and NaN comparisons are order-sensitive, and the oracle contract is
#: item-for-item equality.
_ORDER_INSENSITIVE_FUNCTIONS = frozenset({
    "count", "exists", "empty", "boolean", "not",
})


def build_plan(expr: ast.Expr,
               notes: list[str] | None = None) -> L.Plan:
    """Translate a rewritten AST into the logical plan."""
    if notes is None:
        notes = []
    return _plan(expr, True, notes)


def _plan(expr: ast.Expr, ordered: bool, notes: list[str]) -> L.Plan:
    if isinstance(expr, ast.Literal):
        return L.ConstOp([expr.value])
    if isinstance(expr, ast.VarRef):
        return L.VarOp(expr.name)
    if isinstance(expr, ast.ContextItem):
        return L.ContextOp()
    if isinstance(expr, ast.SequenceExpr):
        return L.SeqOp([_plan(e, ordered, notes) for e in expr.items])
    if isinstance(expr, ast.RangeExpr):
        return L.RangeOp(_plan(expr.lower, True, notes),
                         _plan(expr.upper, True, notes))
    if isinstance(expr, ast.OrExpr):
        return L.BoolOp("or", [_plan(e, False, notes)
                               for e in expr.operands])
    if isinstance(expr, ast.AndExpr):
        return L.BoolOp("and", [_plan(e, False, notes)
                                for e in expr.operands])
    if isinstance(expr, ast.ComparisonExpr):
        return L.CompareOp(expr.op, expr.style,
                           _plan(expr.left, True, notes),
                           _plan(expr.right, True, notes))
    if isinstance(expr, ast.ArithmeticExpr):
        return L.ArithOp(expr.op, _plan(expr.left, True, notes),
                         _plan(expr.right, True, notes))
    if isinstance(expr, ast.UnaryExpr):
        return L.NegOp(expr.op, _plan(expr.operand, True, notes))
    if isinstance(expr, ast.UnionExpr):
        return L.UnionOp([_plan(e, True, notes) for e in expr.operands])
    if isinstance(expr, ast.IntersectExceptExpr):
        return L.IntersectOp(expr.op, _plan(expr.left, True, notes),
                             _plan(expr.right, True, notes))
    if isinstance(expr, ast.IfExpr):
        return L.IfOp(_plan(expr.condition, False, notes),
                      _plan(expr.then, ordered, notes),
                      _plan(expr.otherwise, ordered, notes))
    if isinstance(expr, ast.QuantifiedExpr):
        return L.QuantOp(expr.quantifier,
                         [(name, _plan(e, True, notes))
                          for name, e in expr.bindings],
                         _plan(expr.condition, False, notes))
    if isinstance(expr, ast.FLWORExpr):
        return _plan_flwor(expr, notes)
    if isinstance(expr, ast.PathExpr):
        return _plan_path(expr, ordered, notes)
    if isinstance(expr, ast.FilterExpr):
        return L.FilterOp(_plan(expr.primary, True, notes),
                          [_plan_predicate(p, notes)
                           for p in expr.predicates])
    if isinstance(expr, ast.FunctionCall):
        if (expr.name == "collection" and len(expr.args) == 1
                and isinstance(expr.args[0], ast.Literal)
                and isinstance(expr.args[0].value, str)):
            return L.CollectionOp(expr.args[0].value)
        args_ordered = expr.name not in _ORDER_INSENSITIVE_FUNCTIONS
        return L.FuncOp(expr.name, [_plan(a, args_ordered, notes)
                                    for a in expr.args])
    if isinstance(expr, ast.UPDATE_NODES):
        return _plan_update(expr, notes)
    if isinstance(expr, ast.ElementConstructor):
        attributes = [
            (name, [part if isinstance(part, str)
                    else _plan(part, True, notes)
                    for part in value.parts])
            for name, value in expr.attributes]
        content = [piece if isinstance(piece, str)
                   else _plan(piece, True, notes)
                   for piece in expr.content]
        return L.ConstructOp(expr.name, attributes, content)
    raise TypeError(f"no planner for {type(expr).__name__}")


def _plan_update(expr: ast.Expr, notes: list[str]) -> L.UpdatePrimOp:
    """Updating expressions: targets/sources are ordinary (ordered)
    sub-plans; the operator emits pending-update primitives."""
    if isinstance(expr, ast.InsertExpr):
        return L.UpdatePrimOp("insert", [
            ("source", _plan(expr.source, True, notes)),
            ("target", _plan(expr.target, True, notes)),
        ], detail=expr.location, payload={"location": expr.location})
    if isinstance(expr, ast.DeleteExpr):
        return L.UpdatePrimOp("delete", [
            ("target", _plan(expr.target, True, notes)),
        ])
    if isinstance(expr, ast.ReplaceValueExpr):
        return L.UpdatePrimOp("replace-value", [
            ("target", _plan(expr.target, True, notes)),
            ("value", _plan(expr.value, True, notes)),
        ])
    if isinstance(expr, ast.RenameExpr):
        return L.UpdatePrimOp("rename", [
            ("target", _plan(expr.target, True, notes)),
            ("name", _plan(expr.name, True, notes)),
        ])
    if isinstance(expr, ast.AddMarkupExpr):
        return L.UpdatePrimOp("add-markup", [
            ("target", _plan(expr.target, True, notes)),
        ], detail=f"{expr.name} to '{expr.hierarchy}'",
            payload={"name": expr.name, "hierarchy": expr.hierarchy})
    if isinstance(expr, ast.RemoveMarkupExpr):
        return L.UpdatePrimOp("remove-markup", [
            ("target", _plan(expr.target, True, notes)),
        ])
    raise TypeError(  # pragma: no cover - UPDATE_NODES is exhaustive
        f"no update planner for {type(expr).__name__}")


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def _plan_predicate(pred: ast.Expr, notes: list[str]) -> L.PredicateOp:
    if isinstance(pred, ast.Literal) and isinstance(
            pred.value, (int, float)) and not isinstance(pred.value, bool):
        value = pred.value
        if isinstance(value, float):
            position = int(value) if value.is_integer() else -1
        else:
            position = value
        return L.PredicateOp(L.ConstOp([pred.value]),
                             positional_literal=position)
    boolean_only = is_statically_boolean(pred)
    predicate = L.PredicateOp(_plan(pred, not boolean_only, notes),
                              boolean_only=boolean_only,
                              position_free=not uses_position(pred))
    predicate.mask = masks.bare_term(predicate)
    if predicate.mask is not None:
        notes.append(f"join-lowering: [{masks.render(predicate.mask)}] "
                     "predicate batched as a semi-join existence probe")
    return predicate


def test_pushdowns(test: ast.NodeTest) -> tuple[bool, bool, str | None]:
    """``(skip_leaves, leaves_only, name_hint)`` for one node test.

    Public: the cost pass (:mod:`repro.core.plan.cost`) uses it when
    synthesizing the scan step of a reversed join pair."""
    if isinstance(test, ast.NameTest):
        return True, False, test.name
    if isinstance(test, ast.WildcardTest):
        return True, False, None
    if test.kind == "leaf":
        return False, True, None
    if test.kind in ("text", "comment", "processing-instruction"):
        return True, False, None
    return False, False, None  # node(): leaves match


def _plan_path(expr: ast.PathExpr, ordered: bool,
               notes: list[str]) -> L.PathOp:
    steps: list[L.Plan] = []
    anchor = expr.anchor
    if anchor == "descendant":
        # Unrewritten ``//x``: make the implicit step explicit.
        steps.append(L.StepOp(axis="descendant-or-self",
                              test=ast.KindTest("node")))
        anchor = "root"
    for step in expr.steps:
        if isinstance(step, ast.ExprStep):
            steps.append(L.ExprStepOp(_plan(step.expression, True, notes)))
            continue
        skip_leaves, leaves_only, name_hint = test_pushdowns(step.test)
        predicates = [_plan_predicate(p, notes) for p in step.predicates]
        if step.axis in JOIN_KERNELS:
            # Extended-axis steps lower to explicit interval-join
            # operators: the physical layer runs them as one
            # sorted-array join per step instead of per-node span
            # arithmetic (DESIGN.md §11).
            kernel = JOIN_KERNELS[step.axis]
            notes.append(f"join-lowering: {step.axis}:: step lowered "
                         f"to a set-at-a-time {kernel} join")
            steps.append(L.IntervalJoinOp(
                axis=step.axis, test=step.test, predicates=predicates,
                skip_leaves=skip_leaves, leaves_only=leaves_only,
                name_hint=name_hint, kernel=kernel))
        else:
            steps.append(L.StepOp(
                axis=step.axis, test=step.test, predicates=predicates,
                skip_leaves=skip_leaves, leaves_only=leaves_only,
                name_hint=name_hint))
    # Order normalization: an axis step's output order is unobservable
    # when the *next* step is again an axis step (an axis step's own
    # output never depends on its input order — per-input candidate
    # lists are independent and the cross-input merge re-sorts by order
    # key), or when it is the last step of a path no consumer reads in
    # order.  An expression step, by contrast, observes its input order
    # through ``position()``, so the step before one stays ordered.
    for index, step in enumerate(steps):
        if not isinstance(step, L.StepOp):
            continue
        is_last = index == len(steps) - 1
        next_is_axis = (index + 1 < len(steps)
                        and isinstance(steps[index + 1], L.StepOp))
        if next_is_axis or (is_last and not ordered):
            step.ordered = False
            if step.axis in REVERSE_AXES:
                notes.append(
                    f"reverse-axis-normalization: {step.axis}:: step "
                    "treated as forward (order unobservable)")
    if expr.primary is not None:
        return L.PathOp("primary", _plan(expr.primary, True, notes),
                        steps, ordered_result=ordered)
    return L.PathOp(anchor, None, steps, ordered_result=ordered)


# ---------------------------------------------------------------------------
# FLWOR
# ---------------------------------------------------------------------------


def _plan_flwor(expr: ast.FLWORExpr, notes: list[str]) -> L.FLWOROp:
    clauses: list[L.Plan] = []
    variant: set[str] = set()   # names whose value changes per tuple
    looped = False              # a for-clause has been seen
    for clause in expr.clauses:
        if isinstance(clause, ast.ForClause):
            clauses.append(L.ForOp(clause.variable,
                                   clause.position_variable,
                                   _plan(clause.sequence, True, notes)))
            looped = True
            variant.add(clause.variable)
            if clause.position_variable:
                variant.add(clause.position_variable)
        elif isinstance(clause, ast.LetClause):
            invariant = (looped and is_pure(clause.expression)
                         and not (free_variables(clause.expression)
                                  & variant))
            if invariant:
                notes.append("hoist-invariant: let "
                             f"${clause.variable} evaluated once per "
                             "FLWOR execution")
                variant.discard(clause.variable)
            else:
                variant.add(clause.variable)
            clauses.append(L.LetOp(
                clause.variable,
                _plan(clause.expression, True, notes),
                invariant=invariant))
        elif isinstance(clause, ast.WhereClause):
            invariant = (looped and is_pure(clause.condition)
                         and not (free_variables(clause.condition)
                                  & variant))
            if invariant:
                notes.append("hoist-invariant: where condition "
                             "evaluated once per FLWOR execution")
            clauses.append(L.WhereOp(
                _plan(clause.condition, False, notes),
                invariant=invariant))
        elif isinstance(clause, ast.OrderByClause):
            clauses.append(L.OrderOp([
                (_plan(spec.key, True, notes), spec.descending,
                 spec.empty_least)
                for spec in clause.specs]))
        else:  # pragma: no cover - parser guarantees clause types
            raise TypeError(
                f"unknown FLWOR clause {type(clause).__name__}")
    return L.FLWOROp(clauses, _plan(expr.return_expr, True, notes))
