"""The reference evaluator: a node-at-a-time tree-walk over the AST.

The navigational evaluation of the extended XQuery language, one
context item at a time, one cloned :class:`EvalContext` per focus — the
direct transcription of the semantics (Definition 1 axes, Definition 3
order, Definition 4 ``analyze-string``).  It is the oracle the compiled
pipeline (``repro.core.plan``) is differentially tested against, item
for item, and it is not part of the package: it evaluates from the
parsed AST with its own step, predicate and FLWOR logic and imports
nothing from ``repro.core.plan``.  What it shares with the pipeline are
the language's value- and node-level rules
(``repro.core.runtime.values`` / ``semantics``), the axis kernels and
the function library.

``evaluate_query`` parses (or accepts a pre-parsed AST), installs the
default function library, runs the query with the shared root as the
initial context item, and — per Definition 4(5) — tears down every
temporary hierarchy created by ``analyze-string`` when evaluation
finishes, snapshotting result items that live in one first.
:class:`TreeWalkEngine` gives it the ``query()`` surface of
:class:`repro.api.Engine` for tests that compare engines; its results
serialize node by node (``tests/nodewalk.py``), not through the row
writer the engines under test use.
"""

from __future__ import annotations

from typing import Any

from repro.api import QueryResult
from repro.errors import QueryEvaluationError
from repro.markup import dom
from repro.core.goddag.axes import emits_document_order, evaluate_axis
from repro.core.goddag.goddag import KyGoddag
from repro.core.goddag.nodes import (
    GAttr,
    GComment,
    GElement,
    GLeaf,
    GNode,
    GPi,
    GRoot,
    GText,
)
from repro.core.goddag.temp import TemporaryHierarchyManager
from repro.core.lang import ast
from repro.core.lang.parser import parse_query
from repro.core.runtime import values
from repro.core.runtime.context import QueryOptions, QueryStats
from repro.core.runtime.functions import default_registry
from repro.core.runtime.semantics import (
    REVERSE_AXES,
    append_content,
    node_in_hierarchies,
    require_gnodes,
    require_navigable,
    snapshot,
)
from repro.core.runtime.values import (
    arithmetic,
    order_key_value,
    predicate_holds,
    singleton_number,
)

from tests import nodewalk


class EvalContext:
    """The dynamic context of one evaluation focus.

    Immutable-ish: focus and variable changes produce shallow copies,
    so sibling iterations cannot interfere.
    """

    __slots__ = ("goddag", "item", "position", "size", "variables",
                 "functions", "options", "temp_manager", "stats")

    def __init__(self, goddag: KyGoddag, functions: dict[str, Any],
                 options: QueryOptions,
                 temp_manager: TemporaryHierarchyManager,
                 variables: dict[str, list] | None = None,
                 stats: QueryStats | None = None) -> None:
        self.goddag = goddag
        self.item = None
        self.position = 0
        self.size = 0
        self.variables: dict[str, list] = dict(variables or {})
        self.functions = functions
        self.options = options
        self.temp_manager = temp_manager
        # shared across all focus clones of one query
        self.stats: QueryStats = stats if stats is not None else QueryStats()

    def _clone(self) -> "EvalContext":
        clone = EvalContext.__new__(EvalContext)
        clone.goddag = self.goddag
        clone.item = self.item
        clone.position = self.position
        clone.size = self.size
        clone.variables = self.variables
        clone.functions = self.functions
        clone.options = self.options
        clone.temp_manager = self.temp_manager
        clone.stats = self.stats
        return clone

    def with_focus(self, item: Any, position: int, size: int
                   ) -> "EvalContext":
        """A context focused on one item of an iteration."""
        clone = self._clone()
        clone.item = item
        clone.position = position
        clone.size = size
        return clone

    def with_variable(self, name: str, value: list) -> "EvalContext":
        """A context with one additional variable binding."""
        clone = self._clone()
        clone.variables = dict(self.variables)
        clone.variables[name] = value
        return clone

    def variable(self, name: str) -> list:
        if name not in self.variables:
            raise QueryEvaluationError(f"undefined variable ${name}")
        return self.variables[name]

    def context_item(self) -> Any:
        if self.item is None:
            raise QueryEvaluationError("the context item is undefined here")
        return self.item


def evaluate_query(goddag: KyGoddag, query: str | ast.Expr,
                   variables: dict[str, list] | None = None,
                   options: QueryOptions | None = None,
                   functions: dict[str, Any] | None = None,
                   stats: "QueryStats | None" = None) -> list:
    """Evaluate ``query`` against ``goddag`` and return the item list.

    Every evaluation runs on a shell of ``goddag`` (Definition 4: its
    ``analyze-string`` temporaries go with the shell) and copies result
    items out of temporaries.  ``stats`` may be a caller-owned
    :class:`QueryStats` that the call fills in.
    """
    expr = parse_query(query) if isinstance(query, str) else query
    options = options or QueryOptions()
    registry = dict(default_registry())
    if functions:
        registry.update(functions)
    shell = goddag.shell()
    context = EvalContext(shell, registry, options,
                          TemporaryHierarchyManager(shell),
                          variables=variables, stats=stats)
    context.item = shell.root
    context.position = 1
    context.size = 1
    return [snapshot(item, shell) for item in evaluate(expr, context)]


class WalkedResult(QueryResult):
    """A tree-walker's result: serialized by the node-walking oracle."""

    def strings(self) -> list[str]:
        return nodewalk.strings(self.items)

    def serialize(self, mode: str = "paper") -> str:
        return nodewalk.serialize_items(self.items, mode)


class TreeWalkEngine:
    """The tree-walker behind :meth:`repro.api.Engine.query`'s
    signature, for tests that run one query through several engines."""

    def __init__(self, goddag: KyGoddag) -> None:
        self.goddag = goddag

    def query(self, text: str,
              variables: dict[str, list] | None = None) -> QueryResult:
        stats = QueryStats()
        items = evaluate_query(self.goddag, text, variables=variables,
                               stats=stats)
        return WalkedResult(items, stats)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def evaluate(expr: ast.Expr, ctx: EvalContext) -> list:
    """Evaluate any AST node to a sequence."""
    handler = _HANDLERS.get(type(expr))
    if handler is None:
        raise QueryEvaluationError(
            f"no evaluator for {type(expr).__name__}")
    return handler(expr, ctx)


def _eval_literal(expr: ast.Literal, ctx: EvalContext) -> list:
    return [expr.value]


def _eval_var(expr: ast.VarRef, ctx: EvalContext) -> list:
    return list(ctx.variable(expr.name))


def _eval_context_item(expr: ast.ContextItem, ctx: EvalContext) -> list:
    return [ctx.context_item()]


def _eval_sequence(expr: ast.SequenceExpr, ctx: EvalContext) -> list:
    out: list = []
    for item in expr.items:
        out.extend(evaluate(item, ctx))
    return out


def _eval_range(expr: ast.RangeExpr, ctx: EvalContext) -> list:
    lower = singleton_number(evaluate(expr.lower, ctx))
    upper = singleton_number(evaluate(expr.upper, ctx))
    if lower is None or upper is None:
        return []
    return list(range(int(lower), int(upper) + 1))


def _eval_or(expr: ast.OrExpr, ctx: EvalContext) -> list:
    for operand in expr.operands:
        if values.effective_boolean_value(evaluate(operand, ctx)):
            return [True]
    return [False]


def _eval_and(expr: ast.AndExpr, ctx: EvalContext) -> list:
    for operand in expr.operands:
        if not values.effective_boolean_value(evaluate(operand, ctx)):
            return [False]
    return [True]


def _eval_comparison(expr: ast.ComparisonExpr, ctx: EvalContext) -> list:
    left = evaluate(expr.left, ctx)
    right = evaluate(expr.right, ctx)
    if expr.style == "general":
        return [values.general_compare(expr.op, left, right)]
    if expr.style == "value":
        return values.value_compare(expr.op, left, right)
    # node comparisons: is, <<, >>
    if not left or not right:
        return []
    left_node = values.singleton_node(left, f"'{expr.op}'")
    right_node = values.singleton_node(right, f"'{expr.op}'")
    if expr.op == "is":
        return [left_node is right_node]
    if not isinstance(left_node, GNode) or not isinstance(right_node, GNode):
        raise QueryEvaluationError(
            "document-order comparison requires KyGODDAG nodes")
    left_key = ctx.goddag.order_key(left_node)
    right_key = ctx.goddag.order_key(right_node)
    return [left_key < right_key if expr.op == "<<" else
            left_key > right_key]


def _eval_arithmetic(expr: ast.ArithmeticExpr, ctx: EvalContext) -> list:
    left = singleton_number(evaluate(expr.left, ctx))
    right = singleton_number(evaluate(expr.right, ctx))
    if left is None or right is None:
        return []
    return [arithmetic(expr.op, left, right)]


def _eval_unary(expr: ast.UnaryExpr, ctx: EvalContext) -> list:
    value = singleton_number(evaluate(expr.operand, ctx))
    if value is None:
        return []
    return [-value if expr.op == "-" else value]


def _eval_union(expr: ast.UnionExpr, ctx: EvalContext) -> list:
    nodes: list = []
    for operand in expr.operands:
        nodes.extend(require_gnodes(evaluate(operand, ctx), "union"))
    return ctx.goddag.sort_nodes(nodes)


def _eval_intersect_except(expr: ast.IntersectExceptExpr,
                           ctx: EvalContext) -> list:
    left = require_gnodes(evaluate(expr.left, ctx), expr.op)
    right = require_gnodes(evaluate(expr.right, ctx), expr.op)
    right_ids = {id(node) for node in right}
    if expr.op == "intersect":
        kept = [node for node in left if id(node) in right_ids]
    else:
        kept = [node for node in left if id(node) not in right_ids]
    return ctx.goddag.sort_nodes(kept)


def _eval_if(expr: ast.IfExpr, ctx: EvalContext) -> list:
    if values.effective_boolean_value(evaluate(expr.condition, ctx)):
        return evaluate(expr.then, ctx)
    return evaluate(expr.otherwise, ctx)


def _eval_quantified(expr: ast.QuantifiedExpr, ctx: EvalContext) -> list:
    def recurse(index: int, current: EvalContext) -> bool:
        if index == len(expr.bindings):
            return values.effective_boolean_value(
                evaluate(expr.condition, current))
        variable, sequence_expr = expr.bindings[index]
        for item in evaluate(sequence_expr, current):
            bound = current.with_variable(variable, [item])
            satisfied = recurse(index + 1, bound)
            if satisfied and expr.quantifier == "some":
                return True
            if not satisfied and expr.quantifier == "every":
                return False
        return expr.quantifier == "every"

    return [recurse(0, ctx)]


# ---------------------------------------------------------------------------
# FLWOR
# ---------------------------------------------------------------------------


def _eval_flwor(expr: ast.FLWORExpr, ctx: EvalContext) -> list:
    tuples: list[EvalContext] = [ctx]
    for clause in expr.clauses:
        if isinstance(clause, ast.ForClause):
            expanded: list[EvalContext] = []
            for current in tuples:
                sequence = evaluate(clause.sequence, current)
                for position, item in enumerate(sequence, start=1):
                    bound = current.with_variable(clause.variable, [item])
                    if clause.position_variable:
                        bound = bound.with_variable(
                            clause.position_variable, [position])
                    expanded.append(bound)
            tuples = expanded
        elif isinstance(clause, ast.LetClause):
            tuples = [
                current.with_variable(clause.variable,
                                      evaluate(clause.expression, current))
                for current in tuples
            ]
        elif isinstance(clause, ast.WhereClause):
            tuples = [
                current for current in tuples
                if values.effective_boolean_value(
                    evaluate(clause.condition, current))
            ]
        elif isinstance(clause, ast.OrderByClause):
            tuples = _order_tuples(tuples, clause)
        else:  # pragma: no cover - parser guarantees clause types
            raise QueryEvaluationError(
                f"unknown FLWOR clause {type(clause).__name__}")
    out: list = []
    for current in tuples:
        out.extend(evaluate(expr.return_expr, current))
    return out


def _order_tuples(tuples: list[EvalContext],
                  clause: ast.OrderByClause) -> list[EvalContext]:
    """Stable multi-key ordering: sort by each spec from last to first."""
    decorated = list(tuples)
    for spec in reversed(clause.specs):
        keyed = [(_order_key(evaluate(spec.key, current), spec), current)
                 for current in decorated]
        keyed.sort(key=lambda pair: pair[0], reverse=spec.descending)
        decorated = [current for _key, current in keyed]
    return decorated


def _order_key(sequence: list, spec: ast.OrderSpec) -> tuple:
    return order_key_value(sequence, spec.empty_least)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def _eval_path(expr: ast.PathExpr, ctx: EvalContext) -> list:
    if expr.anchor == "root":
        current: list = [ctx.goddag.root]
    elif expr.anchor == "descendant":
        current = [ctx.goddag.root]
        current = _apply_step(
            ast.Step("descendant-or-self", ast.KindTest("node")),
            current, ctx)
    elif expr.primary is not None:
        current = evaluate(expr.primary, ctx)
    else:
        current = [ctx.context_item()]
    for step in expr.steps:
        current = _apply_step(step, current, ctx)
    return current


def _apply_step(step, inputs: list, ctx: EvalContext) -> list:
    if isinstance(step, ast.ExprStep):
        return _apply_expr_step(step, inputs, ctx)
    size = len(inputs)
    if size == 1:
        # Single-node context: the step result needs no cross-input
        # merge, and for forward axes ``_step_from`` already returns it
        # in document order (reverse axes return the exact reversal).
        item = inputs[0]
        require_navigable(item)
        nodes, direction = _step_from(step, item,
                                      ctx.with_focus(item, 1, 1))
        if direction == "reverse":
            return nodes[::-1]
        return nodes
    out: list = []
    seen: set[int] = set()
    for position, item in enumerate(inputs, start=1):
        require_navigable(item)
        focus = ctx.with_focus(item, position, size)
        for node in _step_from(step, item, focus)[0]:
            if id(node) not in seen:
                seen.add(id(node))
                out.append(node)
    return ctx.goddag.sort_nodes(out)


def _apply_expr_step(step: ast.ExprStep, inputs: list,
                     ctx: EvalContext) -> list:
    """XPath 2.0 expression step: evaluate once per input node.

    All-node results merge in document order; all-atomic results keep
    iteration order; mixing the two is an error (per the XQuery spec).
    """
    out: list = []
    size = len(inputs)
    for position, item in enumerate(inputs, start=1):
        if not isinstance(item, GNode):
            raise QueryEvaluationError(
                "path steps navigate KyGODDAG nodes; got "
                f"{type(item).__name__}")
        focus = ctx.with_focus(item, position, size)
        out.extend(evaluate(step.expression, focus))
    node_flags = [isinstance(value, GNode) for value in out]
    if all(node_flags):
        return ctx.goddag.sort_nodes(out)
    if any(node_flags):
        raise QueryEvaluationError(
            "a path step may not mix nodes and atomic values")
    return out


def _step_from(step: ast.Step, node: GNode,
               ctx: EvalContext) -> tuple[list, str]:
    """One axis step from one node: ``(nodes, direction)``.

    ``direction`` is ``"forward"`` (nodes ascend in document order) or
    ``"reverse"`` (exact reversal, as predicates count positions away
    from the context node on reverse axes).  Slice-based forward axes
    emit document order directly (:func:`emits_document_order`), so the
    per-step sort is skipped for them — tracked in ``ctx.stats``.
    """
    name_hint = (step.test.name
                 if isinstance(step.test, ast.NameTest) else None)
    candidates = evaluate_axis(ctx.goddag, step.axis, node, name_hint)
    candidates = [c for c in candidates
                  if _matches_test(step.test, step.axis, c, ctx)]
    ctx.stats.axis_steps += 1
    if emits_document_order(step.axis, node):
        ctx.stats.ordered_steps += 1
        direction = "forward"
    else:
        candidates = ctx.goddag.sort_nodes(candidates)
        if step.axis in REVERSE_AXES:
            candidates.reverse()
            direction = "reverse"
        else:
            direction = "forward"
    for predicate in step.predicates:
        candidates = _filter_predicate(candidates, predicate, ctx)
    return candidates, direction


def _filter_predicate(candidates: list, predicate: ast.Expr,
                      ctx: EvalContext) -> list:
    kept: list = []
    size = len(candidates)
    for position, node in enumerate(candidates, start=1):
        focus = ctx.with_focus(node, position, size)
        result = evaluate(predicate, focus)
        if predicate_holds(result, position):
            kept.append(node)
    return kept


def _matches_test(test: ast.NodeTest, axis: str, node: GNode,
                  ctx: EvalContext) -> bool:
    principal_attribute = axis == "attribute"
    if isinstance(test, ast.NameTest):
        if principal_attribute:
            return isinstance(node, GAttr) and node.name == test.name
        return (isinstance(node, (GElement, GRoot))
                and node.name == test.name)
    if isinstance(test, ast.WildcardTest):
        if principal_attribute:
            return isinstance(node, GAttr)
        if not isinstance(node, (GElement, GRoot)):
            return False
        return _in_hierarchies(node, test.hierarchies, ctx)
    kind = test.kind
    if kind == "node":
        return _in_hierarchies(node, test.hierarchies, ctx)
    if kind == "text":
        return (isinstance(node, GText)
                and _in_hierarchies(node, test.hierarchies, ctx))
    if kind == "leaf":
        return isinstance(node, GLeaf)
    if kind == "comment":
        return isinstance(node, GComment)
    if kind == "processing-instruction":
        if not isinstance(node, GPi):
            return False
        return test.target is None or node.target == test.target
    raise QueryEvaluationError(f"unknown node test kind {test.kind!r}")


def _in_hierarchies(node: GNode, hierarchies: tuple[str, ...],
                    ctx: EvalContext) -> bool:
    if not hierarchies:
        return True
    return node_in_hierarchies(node, hierarchies, ctx.goddag)


# ---------------------------------------------------------------------------
# filters and functions
# ---------------------------------------------------------------------------


def _eval_filter(expr: ast.FilterExpr, ctx: EvalContext) -> list:
    current = evaluate(expr.primary, ctx)
    for predicate in expr.predicates:
        kept: list = []
        size = len(current)
        for position, item in enumerate(current, start=1):
            focus = ctx.with_focus(item, position, size)
            result = evaluate(predicate, focus)
            if predicate_holds(result, position):
                kept.append(item)
        current = kept
    return current


def _eval_function_call(expr: ast.FunctionCall, ctx: EvalContext) -> list:
    function = ctx.functions.get(expr.name)
    if function is None:
        raise QueryEvaluationError(f"unknown function {expr.name}()")
    args = [evaluate(arg, ctx) for arg in expr.args]
    return function(ctx, args)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def _eval_constructor(expr: ast.ElementConstructor,
                      ctx: EvalContext) -> list:
    element = dom.Element(expr.name)
    for name, template in expr.attributes:
        element.set(name, _attribute_value(template, ctx))
    for piece in expr.content:
        if isinstance(piece, str):
            element.append(dom.Text(piece))
        else:
            append_content(element, evaluate(piece, ctx))
    return [element]


def _attribute_value(template: ast.AttributeValue, ctx: EvalContext) -> str:
    parts: list[str] = []
    for piece in template.parts:
        if isinstance(piece, str):
            parts.append(piece)
        else:
            items = evaluate(piece, ctx)
            parts.append(" ".join(values.string_value(values.atomize(item))
                                  for item in items))
    return "".join(parts)


_HANDLERS = {
    ast.Literal: _eval_literal,
    ast.VarRef: _eval_var,
    ast.ContextItem: _eval_context_item,
    ast.SequenceExpr: _eval_sequence,
    ast.RangeExpr: _eval_range,
    ast.OrExpr: _eval_or,
    ast.AndExpr: _eval_and,
    ast.ComparisonExpr: _eval_comparison,
    ast.ArithmeticExpr: _eval_arithmetic,
    ast.UnaryExpr: _eval_unary,
    ast.UnionExpr: _eval_union,
    ast.IntersectExceptExpr: _eval_intersect_except,
    ast.IfExpr: _eval_if,
    ast.QuantifiedExpr: _eval_quantified,
    ast.FLWORExpr: _eval_flwor,
    ast.PathExpr: _eval_path,
    ast.FilterExpr: _eval_filter,
    ast.FunctionCall: _eval_function_call,
    ast.ElementConstructor: _eval_constructor,
}
