"""Rule-based AST rewrites — stage 2 of the query pipeline.

``rewrite(expr)`` returns ``(expr', notes)`` where ``expr'`` is an
equivalent AST and ``notes`` names every rule application (surfaced by
``CompiledQuery.explain()``).  Rules are deliberately conservative:
each one must preserve the observable behavior of evaluating the
source AST node by node — item-for-item results, emission order and
error timing (DESIGN.md §8) — which the differential tests against
the reference tree-walker enforce.

Rule catalog (DESIGN.md §8):

* **constant folding** — arithmetic, comparisons, boolean connectives,
  ``if`` and small integer ranges over literal operands collapse at
  compile time.  Anything that *could* raise at runtime (division by
  zero, incomparable types) is left alone so errors keep their timing.
* **anchor normalization** — ``//x`` (anchor ``descendant``) becomes an
  explicit ``descendant-or-self::node()`` first step so the fusion rule
  below can see it.
* **step fusion** — ``descendant-or-self::node()/child::T`` fuses to
  ``descendant::T``, and ``axis::*/self::x`` to ``axis::x``, whenever
  no predicate could observe the changed candidate grouping.

This module also hosts the static analyses the planner uses for the
remaining two rule families, which annotate the *plan* rather than the
AST: reverse-axis (order-insensitivity) normalization and
loop-invariant hoisting out of FLWOR bodies.
"""

from __future__ import annotations

from dataclasses import replace

from repro.errors import QueryEvaluationError
from repro.core.lang import ast
from repro.core.runtime import values

#: Builtins whose first argument defaults to the context item, or that
#: read the focus directly — calling one with too few arguments makes
#: the expression focus-dependent.
_FOCUS_READING = frozenset({"position", "last"})

#: Builtins that are referentially transparent: same arguments, same
#: result, no observable effect on the document.  ``analyze-string`` is
#: excluded (it creates a temporary hierarchy per call), as is any
#: user-registered function the planner cannot see.
PURE_FUNCTIONS = frozenset({
    "position", "last", "count", "name", "local-name", "root",
    "hierarchy", "hierarchies", "leaves", "span", "string", "concat",
    "string-join", "contains", "starts-with", "ends-with", "substring",
    "substring-before", "substring-after", "string-length",
    "normalize-space", "translate", "upper-case", "lower-case",
    "matches", "replace", "tokenize", "number", "sum", "avg", "min",
    "max", "floor", "ceiling", "round", "abs", "boolean", "not",
    "true", "false", "exists", "empty", "data", "distinct-values",
    "reverse", "subsequence", "index-of", "insert-before", "remove",
})

#: Builtins whose result is always a boolean singleton, so a predicate
#: built from them can never act positionally.
BOOLEAN_FUNCTIONS = frozenset({
    "boolean", "not", "true", "false", "exists", "empty", "contains",
    "starts-with", "ends-with", "matches",
})


# ---------------------------------------------------------------------------
# generic bottom-up traversal
# ---------------------------------------------------------------------------


def _map_children(expr: ast.Expr, fn) -> ast.Expr:
    """One level of reconstruction with ``fn`` applied to child exprs."""
    if isinstance(expr, ast.SequenceExpr):
        return replace(expr, items=tuple(fn(e) for e in expr.items))
    if isinstance(expr, ast.RangeExpr):
        return replace(expr, lower=fn(expr.lower), upper=fn(expr.upper))
    if isinstance(expr, (ast.OrExpr, ast.AndExpr, ast.UnionExpr)):
        return replace(expr, operands=tuple(fn(e) for e in expr.operands))
    if isinstance(expr, (ast.ComparisonExpr, ast.ArithmeticExpr,
                         ast.IntersectExceptExpr)):
        return replace(expr, left=fn(expr.left), right=fn(expr.right))
    if isinstance(expr, ast.UnaryExpr):
        return replace(expr, operand=fn(expr.operand))
    if isinstance(expr, ast.PathExpr):
        steps = []
        for step in expr.steps:
            if isinstance(step, ast.ExprStep):
                steps.append(replace(step, expression=fn(step.expression)))
            else:
                steps.append(replace(step, predicates=tuple(
                    fn(p) for p in step.predicates)))
        primary = fn(expr.primary) if expr.primary is not None else None
        return replace(expr, steps=tuple(steps), primary=primary)
    if isinstance(expr, ast.FilterExpr):
        return replace(expr, primary=fn(expr.primary),
                       predicates=tuple(fn(p) for p in expr.predicates))
    if isinstance(expr, ast.FunctionCall):
        return replace(expr, args=tuple(fn(a) for a in expr.args))
    if isinstance(expr, ast.IfExpr):
        return replace(expr, condition=fn(expr.condition),
                       then=fn(expr.then), otherwise=fn(expr.otherwise))
    if isinstance(expr, ast.FLWORExpr):
        clauses = []
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                clauses.append(replace(clause, sequence=fn(clause.sequence)))
            elif isinstance(clause, ast.LetClause):
                clauses.append(replace(clause,
                                       expression=fn(clause.expression)))
            elif isinstance(clause, ast.WhereClause):
                clauses.append(replace(clause,
                                       condition=fn(clause.condition)))
            elif isinstance(clause, ast.OrderByClause):
                clauses.append(replace(clause, specs=tuple(
                    replace(spec, key=fn(spec.key))
                    for spec in clause.specs)))
            else:  # pragma: no cover - parser guarantees clause types
                clauses.append(clause)
        return replace(expr, clauses=tuple(clauses),
                       return_expr=fn(expr.return_expr))
    if isinstance(expr, ast.QuantifiedExpr):
        return replace(expr, bindings=tuple(
            (name, fn(e)) for name, e in expr.bindings),
            condition=fn(expr.condition))
    if isinstance(expr, ast.ElementConstructor):
        attributes = tuple(
            (name, ast.AttributeValue(tuple(
                part if isinstance(part, str) else fn(part)
                for part in value.parts)))
            for name, value in expr.attributes)
        content = tuple(piece if isinstance(piece, str) else fn(piece)
                        for piece in expr.content)
        return replace(expr, attributes=attributes, content=content)
    if isinstance(expr, ast.InsertExpr):
        return replace(expr, source=fn(expr.source), target=fn(expr.target))
    if isinstance(expr, (ast.DeleteExpr, ast.RemoveMarkupExpr,
                         ast.AddMarkupExpr)):
        return replace(expr, target=fn(expr.target))
    if isinstance(expr, ast.ReplaceValueExpr):
        return replace(expr, target=fn(expr.target), value=fn(expr.value))
    if isinstance(expr, ast.RenameExpr):
        return replace(expr, target=fn(expr.target), name=fn(expr.name))
    return expr  # leaf: Literal, VarRef, ContextItem


def bottom_up(expr: ast.Expr, fn) -> ast.Expr:
    """Rebuild ``expr`` bottom-up, applying ``fn`` at every node."""
    return fn(_map_children(expr, lambda child: bottom_up(child, fn)))


# ---------------------------------------------------------------------------
# rule: constant folding
# ---------------------------------------------------------------------------


def _literal_number(expr: ast.Expr) -> int | float | None:
    if isinstance(expr, ast.Literal) and isinstance(
            expr.value, (int, float)) and not isinstance(expr.value, bool):
        return expr.value
    return None


def _fold_one(expr: ast.Expr, notes: list[str]) -> ast.Expr:
    """Fold one node whose children are already folded."""
    if isinstance(expr, ast.ArithmeticExpr):
        left = _literal_number(expr.left)
        right = _literal_number(expr.right)
        if left is None or right is None:
            return expr
        try:
            folded = values.arithmetic(expr.op, left, right)
        except QueryEvaluationError:
            return expr  # keep runtime errors at runtime
        notes.append(f"constant-folding: {left} {expr.op} {right}"
                     f" -> {folded}")
        return ast.Literal(folded, expr.offset)
    if isinstance(expr, ast.UnaryExpr):
        value = _literal_number(expr.operand)
        if value is None:
            return expr
        result = -value if expr.op == "-" else value
        notes.append(f"constant-folding: {expr.op}{value} -> {result}")
        return ast.Literal(result, expr.offset)
    if isinstance(expr, ast.ComparisonExpr) and expr.style in (
            "general", "value"):
        if not (isinstance(expr.left, ast.Literal)
                and isinstance(expr.right, ast.Literal)):
            return expr
        try:
            if expr.style == "general":
                result = values.general_compare(
                    expr.op, [expr.left.value], [expr.right.value])
            else:
                result = values.value_compare(
                    expr.op, [expr.left.value], [expr.right.value])[0]
        except QueryEvaluationError:
            return expr  # keep runtime errors at runtime
        notes.append(f"constant-folding: comparison -> {result}")
        return ast.Literal(result, expr.offset)
    if isinstance(expr, (ast.AndExpr, ast.OrExpr)):
        return _fold_connective(expr, notes)
    if isinstance(expr, ast.IfExpr) and isinstance(
            expr.condition, ast.Literal):
        taken = values.effective_boolean_value([expr.condition.value])
        notes.append(f"constant-folding: if({expr.condition.value!r}) -> "
                     f"{'then' if taken else 'else'} branch")
        return expr.then if taken else expr.otherwise
    if isinstance(expr, ast.RangeExpr):
        lower = _literal_number(expr.lower)
        upper = _literal_number(expr.upper)
        if (isinstance(lower, int) and isinstance(upper, int)
                and upper - lower < 1024):
            notes.append(f"constant-folding: {lower} to {upper}")
            return ast.SequenceExpr(tuple(
                ast.Literal(i, expr.offset)
                for i in range(lower, upper + 1)), expr.offset)
    return expr


def _fold_connective(expr: ast.AndExpr | ast.OrExpr,
                     notes: list[str]) -> ast.Expr:
    """Short-circuit and/or over literal operands.

    Literal operands that cannot decide the result are dropped; a
    literal operand that decides it truncates the operand list there
    (operands *before* it must still run — they may raise).
    """
    is_or = isinstance(expr, ast.OrExpr)
    kept: list[ast.Expr] = []
    decided = False
    for operand in expr.operands:
        if isinstance(operand, ast.Literal):
            truthy = values.effective_boolean_value([operand.value])
            if truthy == is_or:   # decides the connective
                decided = True
                break
            continue              # neutral literal: drop it
        kept.append(operand)
    if not kept:
        result = decided if is_or else not decided
        notes.append(f"constant-folding: {'or' if is_or else 'and'} -> "
                     f"{result}")
        return ast.Literal(result, expr.offset)
    if decided:
        kept.append(ast.Literal(is_or, expr.offset))
    if len(kept) == len(expr.operands):
        return expr
    notes.append(f"constant-folding: simplified "
                 f"{'or' if is_or else 'and'} operands")
    return replace(expr, operands=tuple(kept))


# ---------------------------------------------------------------------------
# rule: anchor normalization + step fusion
# ---------------------------------------------------------------------------

_DOS_NODE = ast.Step("descendant-or-self", ast.KindTest("node"))


def _normalize_anchor(expr: ast.Expr, notes: list[str]) -> ast.Expr:
    """``//x`` → explicit root + ``descendant-or-self::node()`` step."""
    if isinstance(expr, ast.PathExpr) and expr.anchor == "descendant":
        notes.append("anchor-normalization: // -> "
                     "/descendant-or-self::node()/")
        return replace(expr, anchor="root",
                       steps=(_DOS_NODE,) + expr.steps)
    return expr


def _is_dos_node(step) -> bool:
    return (isinstance(step, ast.Step)
            and step.axis == "descendant-or-self"
            and isinstance(step.test, ast.KindTest)
            and step.test.kind == "node"
            and not step.test.hierarchies
            and not step.predicates)


def _position_free_boolean(predicates: tuple[ast.Expr, ...]) -> bool:
    """True when every predicate filters identically regardless of the
    candidate grouping: statically boolean-valued and never reading
    ``position()``/``last()``."""
    return all(is_statically_boolean(p) and not uses_position(p)
               for p in predicates)


def _fuse_steps(expr: ast.Expr, notes: list[str]) -> ast.Expr:
    if not isinstance(expr, ast.PathExpr) or len(expr.steps) < 2:
        return expr
    steps = list(expr.steps)
    changed = True
    while changed:
        changed = False
        for i in range(len(steps) - 1):
            first, second = steps[i], steps[i + 1]
            if not isinstance(first, ast.Step) or not isinstance(
                    second, ast.Step):
                continue
            if (_is_dos_node(first) and second.axis == "child"
                    and _position_free_boolean(second.predicates)):
                steps[i:i + 2] = [replace(second, axis="descendant")]
                notes.append("step-fusion: descendant-or-self::node()/"
                             "child::T -> descendant::T")
                changed = True
                break
            if (second.axis == "self"
                    and isinstance(second.test, ast.NameTest)
                    and isinstance(first.test, ast.WildcardTest)
                    and not first.test.hierarchies
                    and first.axis != "attribute"
                    and not first.predicates
                    and _position_free_boolean(second.predicates)):
                steps[i:i + 2] = [replace(second, axis=first.axis)]
                notes.append(f"step-fusion: {first.axis}::*/self::"
                             f"{second.test.name} -> {first.axis}::"
                             f"{second.test.name}")
                changed = True
                break
    if len(steps) == len(expr.steps):
        return expr
    return replace(expr, steps=tuple(steps))


# ---------------------------------------------------------------------------
# static analyses (used by the planner for the plan-level rules)
# ---------------------------------------------------------------------------


def uses_focus(expr: ast.Expr) -> bool:
    """True when evaluating ``expr`` reads the *incoming* focus.

    Sub-expressions that establish their own focus (step and filter
    predicates, expression steps) do not count; a relative path or a
    context-defaulting zero-argument function call does.
    """
    if isinstance(expr, ast.ContextItem):
        return True
    if isinstance(expr, ast.PathExpr):
        if expr.primary is not None:
            return uses_focus(expr.primary)
        return expr.anchor == "relative"
    if isinstance(expr, ast.FilterExpr):
        return uses_focus(expr.primary)
    if isinstance(expr, ast.FunctionCall):
        if expr.name in _FOCUS_READING or not expr.args:
            return True
        return any(uses_focus(a) for a in expr.args)
    if isinstance(expr, ast.SequenceExpr):
        return any(uses_focus(e) for e in expr.items)
    if isinstance(expr, ast.RangeExpr):
        return uses_focus(expr.lower) or uses_focus(expr.upper)
    if isinstance(expr, (ast.OrExpr, ast.AndExpr, ast.UnionExpr)):
        return any(uses_focus(e) for e in expr.operands)
    if isinstance(expr, (ast.ComparisonExpr, ast.ArithmeticExpr,
                         ast.IntersectExceptExpr)):
        return uses_focus(expr.left) or uses_focus(expr.right)
    if isinstance(expr, ast.UnaryExpr):
        return uses_focus(expr.operand)
    if isinstance(expr, ast.IfExpr):
        return (uses_focus(expr.condition) or uses_focus(expr.then)
                or uses_focus(expr.otherwise))
    if isinstance(expr, ast.FLWORExpr):
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                if uses_focus(clause.sequence):
                    return True
            elif isinstance(clause, ast.LetClause):
                if uses_focus(clause.expression):
                    return True
            elif isinstance(clause, ast.WhereClause):
                if uses_focus(clause.condition):
                    return True
            elif isinstance(clause, ast.OrderByClause):
                if any(uses_focus(spec.key) for spec in clause.specs):
                    return True
        return uses_focus(expr.return_expr)
    if isinstance(expr, ast.QuantifiedExpr):
        return (any(uses_focus(e) for _name, e in expr.bindings)
                or uses_focus(expr.condition))
    if isinstance(expr, ast.ElementConstructor):
        for _name, value in expr.attributes:
            if any(uses_focus(p) for p in value.parts
                   if not isinstance(p, str)):
                return True
        return any(uses_focus(p) for p in expr.content
                   if not isinstance(p, str))
    return False


def uses_position(expr: ast.Expr) -> bool:
    """True when any sub-expression calls ``position()`` or ``last()``.

    Conservative: a nested predicate's own focus also counts, so a
    ``True`` result may overestimate — never underestimate.
    """
    return any(isinstance(sub, ast.FunctionCall)
               and sub.name in _FOCUS_READING
               for sub in ast.walk(expr))


def is_pure(expr: ast.Expr) -> bool:
    """True when re-evaluating ``expr`` can neither produce a different
    value nor observably touch the document (function whitelist)."""
    return all(not isinstance(sub, ast.FunctionCall)
               or sub.name in PURE_FUNCTIONS
               for sub in ast.walk(expr))


def free_variables(expr: ast.Expr) -> frozenset[str]:
    """Variable names ``expr`` reads from its environment."""
    free: set[str] = set()
    _free_vars(expr, frozenset(), free)
    return frozenset(free)


def _free_vars(expr: ast.Expr, bound: frozenset[str],
               free: set[str]) -> None:
    if isinstance(expr, ast.VarRef):
        if expr.name not in bound:
            free.add(expr.name)
        return
    if isinstance(expr, ast.FLWORExpr):
        inner = bound
        for clause in expr.clauses:
            if isinstance(clause, ast.ForClause):
                _free_vars(clause.sequence, inner, free)
                inner = inner | {clause.variable}
                if clause.position_variable:
                    inner = inner | {clause.position_variable}
            elif isinstance(clause, ast.LetClause):
                _free_vars(clause.expression, inner, free)
                inner = inner | {clause.variable}
            elif isinstance(clause, ast.WhereClause):
                _free_vars(clause.condition, inner, free)
            elif isinstance(clause, ast.OrderByClause):
                for spec in clause.specs:
                    _free_vars(spec.key, inner, free)
        _free_vars(expr.return_expr, inner, free)
        return
    if isinstance(expr, ast.QuantifiedExpr):
        inner = bound
        for name, sequence in expr.bindings:
            _free_vars(sequence, inner, free)
            inner = inner | {name}
        _free_vars(expr.condition, inner, free)
        return
    for child in _direct_children(expr):
        _free_vars(child, bound, free)


def _direct_children(expr: ast.Expr) -> list[ast.Expr]:
    children: list[ast.Expr] = []
    _map_children(expr, lambda c: children.append(c) or c)
    return children


def is_statically_boolean(expr: ast.Expr) -> bool:
    """True when ``expr`` can never evaluate to a bare number — so a
    predicate built from it always filters by effective boolean value,
    never positionally."""
    if isinstance(expr, (ast.ComparisonExpr, ast.AndExpr, ast.OrExpr,
                         ast.QuantifiedExpr)):
        return True
    if isinstance(expr, ast.Literal):
        return isinstance(expr.value, str)
    if isinstance(expr, ast.FunctionCall):
        return expr.name in BOOLEAN_FUNCTIONS
    if isinstance(expr, ast.PathExpr):
        # A path ending in an axis step yields nodes (EBV), but an
        # expression-step tail may yield numbers.
        return bool(expr.steps) and all(
            isinstance(step, ast.Step) for step in expr.steps)
    if isinstance(expr, (ast.UnionExpr, ast.IntersectExceptExpr)):
        return True  # node sequences
    if isinstance(expr, ast.IfExpr):
        return (is_statically_boolean(expr.then)
                and is_statically_boolean(expr.otherwise))
    return False


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def rewrite(expr: ast.Expr) -> tuple[ast.Expr, list[str]]:
    """Apply every AST-level rewrite rule; return the new AST + notes."""
    notes: list[str] = []

    def visit(node: ast.Expr) -> ast.Expr:
        node = _fold_one(node, notes)
        node = _normalize_anchor(node, notes)
        node = _fuse_steps(node, notes)
        return node

    return bottom_up(expr, visit), notes
