"""Mask terms — the batched form of a predicate (DESIGN.md §11, §16).

A boolean, position-free predicate whose verdict is a pure function of
the candidate node filters a candidate list with one boolean column per
term.  A term is a hashable tuple (columns are memoised by its value):
``("and" | "or", terms)``, ``("not", term)``, ``("value", function,
constants)`` for a string test of the node's value, or ``("axis",
axis, name, term | None)`` for ``axis::name`` (``[P]``: probing only
the rows of ``name`` that pass ``P``).  The planner sets the bare
extended-axis term — the structural semi-join of arXiv:1010.1147 — on
every plan (:func:`bare_term`); the cost pass decorrelates other
bodies (:func:`of_plan`).  This module is the only code that reads the
tuples, one row of :data:`KINDS` per term kind.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from repro.core.goddag.joins import (JOIN_KERNELS, TREE_EXISTS_AXES,
                                     ColumnarNodeSet, exists_axis_batch)
from repro.core.goddag.nodes import GNode
from repro.core.lang import ast
from repro.core.plan import logical as L
from repro.core.runtime.functions import (STRING_TESTS, default_registry,
                                          string_test)
from repro.errors import FunctionError


class Kind(NamedTuple):
    """One term kind: its direct sub-terms, its share of :func:`render`
    (``nested`` brackets a connective), :func:`work` and :func:`over`,
    and the builtins its per-node body ``calls`` (:func:`guard`)."""

    parts: Callable
    render: Callable
    work: Callable
    over: Callable
    calls: Callable


def _render_connective(term: tuple, nested: bool) -> str:
    kind, operands = term
    rendered = f" {kind} ".join(render(operand, True)
                                for operand in operands)
    return f"({rendered})" if nested else rendered


def _work_connective(stats, term: tuple, rows: float,
                     ctx_name: str | None) -> tuple[float, float]:
    parts = [work(stats, operand, rows, ctx_name) for operand in term[1]]
    return (sum(probes for probes, _rows in parts),
            sum(spanned for _probes, spanned in parts))


def _over_connective(frame, term: tuple, nodes: list) -> np.ndarray:
    kind, operands = term
    operands = iter(operands)
    out = over(frame, next(operands), nodes)
    for operand in operands:
        part = over(frame, operand, nodes)
        out = out & part if kind == "and" else out | part
    return out


_CONNECTIVE = Kind(
    parts=lambda term: term[1],
    render=_render_connective,
    work=_work_connective,
    over=_over_connective,
    calls=lambda term: ())


_NOT = Kind(
    parts=lambda term: (term[1],),
    render=lambda term, nested: f"not({render(term[1])})",
    work=lambda stats, term, rows, ctx_name: work(stats, term[1], rows,
                                                  ctx_name),
    over=lambda frame, term, nodes: ~over(frame, term[1], nodes),
    calls=lambda term: ("not",))


def _render_value(term: tuple, nested: bool) -> str:
    _kind, function, constants = term
    rendered = ", ".join('"{}"'.format(constant.replace('"', '""'))
                         for constant in constants)
    return f"{function}(string(.), {rendered})"


def _over_value(frame, term: tuple, nodes: list) -> np.ndarray:
    """A value term is no step and counts nothing."""
    _kind, function, constants = term
    verdict = string_test(function, *constants)
    return np.fromiter(map(verdict, [node.string_value() for node in nodes]),
                       dtype=bool, count=len(nodes))


_VALUE = Kind(
    parts=lambda term: (),
    render=_render_value,
    # one pass over the candidates, no name column
    work=lambda stats, term, rows, ctx_name: (rows, 0.0),
    over=_over_value,
    # the subject may be written ``string(.)``
    calls=lambda term: (term[1], "string"))


def _render_axis(term: tuple, nested: bool) -> str:
    _kind, axis, name, inner = term
    if inner is None:
        return f"{axis}::{name}"
    return f"{axis}::{name}[{render(inner)}]"


def _work_axis(stats, term: tuple, rows: float,
               ctx_name: str | None) -> tuple[float, float]:
    _kind, axis, name, inner = term
    if inner is None:
        return rows, 0.0
    from repro.core.plan.cost import join_fanout  # cost imports this module

    reached = rows * join_fanout(stats, axis, ctx_name, name)
    probes, spanned = work(stats, inner, reached, name)
    return rows + probes, stats.card(name) + spanned


def _over_axis(frame, term: tuple, nodes: list) -> np.ndarray:
    """Every probe counts as one axis step, run set-at-a-time by the
    join engine."""
    _kind, axis, name, inner = term
    among = None if inner is None else column(frame, name, inner)
    stats = frame.stats
    stats.axis_steps += 1
    stats.batched_steps += 1
    stats.join_steps += 1
    return exists_axis_batch(frame.goddag, axis, nodes, name, among=among)


_AXIS = Kind(
    parts=lambda term: () if term[3] is None else (term[3],),
    render=_render_axis,
    work=_work_axis,
    over=_over_axis,
    calls=lambda term: ())


#: one row per term kind, keyed by a term's first field
KINDS = {
    "and": _CONNECTIVE,
    "or": _CONNECTIVE,
    "not": _NOT,
    "value": _VALUE,
    "axis": _AXIS,
}


def terms(term: tuple):
    """Every term of a mask, the mask itself included."""
    yield term
    for part in KINDS[term[0]].parts(term):
        yield from terms(part)


def render(term: tuple, nested: bool = False) -> str:
    """A term in query syntax (the ``[mask …]`` explain label)."""
    return KINDS[term[0]].render(term, nested)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------


def _single_step(plan: L.Plan) -> L.Plan | None:
    """The step of a relative one-step path, else ``None``."""
    if (isinstance(plan, L.PathOp) and plan.input is None
            and plan.anchor == "relative" and len(plan.steps) == 1):
        return plan.steps[0]
    return None


def bare_term(predicate: L.PredicateOp) -> tuple | None:
    """The term of an ``[extended-axis::name]`` predicate — boolean,
    position-free, no inner predicate — else ``None``.  It is one
    batched existence probe wherever it stands, so the planner sets it
    on every plan."""
    if not (predicate.boolean_only and predicate.position_free):
        return None
    step = _single_step(predicate.plan)
    if (isinstance(step, L.StepOp) and step.axis in JOIN_KERNELS
            and not step.predicates):
        return step_term(step)
    return None


def probe(term: tuple | None) -> tuple[str, str] | None:
    """``(axis, name)`` of a bare extended-axis term, else ``None``."""
    if (term is not None and term[0] == "axis" and term[3] is None
            and term[1] in JOIN_KERNELS):
        return term[1], term[2]
    return None


def of_plan(plan: L.Plan) -> tuple | None:
    """The term of a decorrelatable predicate body, else ``None``.

    The recognised grammar (DESIGN.md §16): ``and`` / ``or`` /
    ``not()`` over ``extended-axis::name`` and, recursively,
    ``extended-axis::name[P]…``, the plain standard-axis probes
    ``ancestor::name``, ``descendant::name`` and ``self::name``, and
    the string tests of :func:`_value_term`.  Every such body is a pure
    function of the context node — no position, no variable, no error
    — so its verdicts form a column.
    """
    if isinstance(plan, L.BoolOp):
        operands = tuple(of_plan(operand) for operand in plan.operands)
        if None in operands:
            return None
        return (plan.kind, operands)
    if isinstance(plan, L.FuncOp):
        if plan.name in STRING_TESTS:
            return _value_term(plan)
        if plan.name != "not" or len(plan.args) != 1:
            return None
        inner = of_plan(plan.args[0])
        return None if inner is None else ("not", inner)
    step = _single_step(plan)
    return None if step is None else step_term(step)


def _value_term(call: L.FuncOp) -> tuple | None:
    """``("value", function, constants)`` for ``matches(S, "p"[, "f"])``,
    ``contains`` / ``starts-with`` / ``ends-with(S, "c")`` with ``S`` the
    context node's string value — ``string(.)``, ``string()`` or ``.``.

    A pattern or flag string that does not compile is no term: its
    error belongs to the first candidate that reaches the call, and a
    column would raise it for a candidate list an earlier ``or``
    operand had already accepted.
    """
    if len(call.args) != 2 and not (call.name == "matches"
                                    and len(call.args) == 3):
        return None
    subject, *constants = call.args
    constants = tuple(L.const_string(arg) for arg in constants)
    if None in constants or not (isinstance(subject, L.ContextOp)
                                 or L.is_context_string(subject)):
        return None
    try:
        string_test(call.name, *constants)
    except FunctionError:
        return None
    return ("value", call.name, constants)


def step_term(step: L.Plan) -> tuple | None:
    """The ``("axis", axis, name, inner)`` term of one probing step."""
    if not (isinstance(step, L.StepOp)
            and isinstance(step.test, ast.NameTest)
            and (step.axis in JOIN_KERNELS
                 or step.axis in TREE_EXISTS_AXES)):
        return None
    inner = None
    if step.predicates:
        # a column holds the nonempty rows of a name; a standard axis
        # also reaches empty elements, so it takes no witness subset
        if step.axis in TREE_EXISTS_AXES:
            return None
        inner = conjunction_term(step.predicates)
        if inner is None:
            return None
    return ("axis", step.axis, step.test.name, inner)


def conjunction_term(predicates: list[L.PredicateOp]) -> tuple | None:
    """Stacked position-free boolean predicates are a conjunction."""
    operands = []
    for predicate in predicates:
        if not (predicate.boolean_only and predicate.position_free):
            return None
        term = of_plan(predicate.plan)
        if term is None:
            return None
        operands.append(term)
    return operands[0] if len(operands) == 1 else ("and", tuple(operands))


def condition_term(plan: L.Plan, variable: str) -> tuple | None:
    """The term of an EBV condition over ``$variable`` — ``$y[P]``
    (stacked predicates conjoin) or ``$y/axis::name[P]`` — else
    ``None``.  With ``$y`` bound to one node both are ``P`` of it."""
    source = getattr(plan, "input", None)
    if not (isinstance(source, L.VarOp) and source.name == variable):
        return None
    if isinstance(plan, L.FilterOp):
        return conjunction_term(plan.predicates)
    if (isinstance(plan, L.PathOp) and plan.anchor == "primary"
            and len(plan.steps) == 1):
        return step_term(plan.steps[0])
    return None


# ---------------------------------------------------------------------------
# estimates
# ---------------------------------------------------------------------------


def work(stats, term: tuple, rows: float,
         ctx_name: str | None) -> tuple[float, float]:
    """``(per-node probes, column rows)``: the Python-level probes the
    per-node loop makes for ``rows`` candidates against the rows the
    mask columns span."""
    return KINDS[term[0]].work(stats, term, rows, ctx_name)


def root_named_ancestor(term: tuple, root_name: str) -> bool:
    """Does the term hold ``xancestor::<root name>[P]``?  The root is
    in no name column, so a subset probe cannot see it as a witness."""
    return root_name in _subset_ancestors(term)


def _subset_ancestors(term: tuple) -> set[str]:
    return {part[2] for part in terms(term)
            if part[0] == "axis" and part[1] == "xancestor"
            and part[3] is not None}


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def compile_filter(op: L.PredicateOp, per_node, *, nodes: bool = False):
    """``fn(frame, candidates) -> candidates``: the set-at-a-time filter
    of a predicate carrying a term, no focus loop.  ``per_node`` — the
    predicate's boolean runner — answers whenever the masks would not
    be the same function (:func:`guard`), for a candidate that is not a
    KyGODDAG node (it raises what it always raised), which no step
    output (``nodes``) holds, and for a bare probe of one candidate: a
    filter re-entered per binding (``$w[overlapping::line]`` in a
    ``for``) keeps its one per-node probe instead of a batch of one."""
    term = op.mask
    op_id = op.op_id
    masks_hold = guard(term)
    bare = probe(term) is not None
    shared = sum(part[0] == "axis" for part in terms(term)) > 1

    def run_mask(frame, candidates: list) -> list:
        if not candidates:
            return candidates
        if not masks_hold(frame) or (bare and len(candidates) == 1):
            return per_node(frame, candidates)
        if not nodes:
            for item in candidates:
                if not isinstance(item, GNode):
                    return per_node(frame, candidates)
        if shared and not isinstance(candidates, ColumnarNodeSet):
            # the axis terms probe the same spans: extract them once
            candidates = ColumnarNodeSet(candidates)
        kept = _select(candidates, over(frame, term, candidates))
        if op_id >= 0:
            actuals = frame.stats.op_actuals
            actuals[op_id] = actuals.get(op_id, 0) + len(kept)
        return kept

    return run_mask


def _select(candidates: list, keep: np.ndarray) -> list:
    """The candidates a boolean column keeps, with the span columns
    they carry."""
    if keep.all():
        return candidates
    if isinstance(candidates, ColumnarNodeSet):
        return candidates.selected(keep)
    return [node for node, flag in zip(candidates, keep) if flag]


def guard(term: tuple):
    """``fn(frame) -> bool``: are the masks of ``term`` the function
    its per-node evaluation computes, in this evaluation?  Not under
    an overridden builtin the body calls, and not where
    ``xancestor::name[P]`` probes the root's name: the root is a
    witness of that axis but a row of no name column."""
    registry = default_registry()
    builtins = [(name, registry[name]) for name in {
        name for part in terms(term) for name in KINDS[part[0]].calls(part)}]
    subset_ancestors = _subset_ancestors(term)

    def masks_hold(frame) -> bool:
        functions = frame.functions
        for name, builtin in builtins:
            if functions.get(name) is not builtin:
                return False
        return frame.goddag.root.name not in subset_ancestors

    return masks_hold


def over(frame, term: tuple, nodes: list) -> np.ndarray:
    """One boolean per node: the verdict of ``term``."""
    return KINDS[term[0]].over(frame, term, nodes)


def epoch(frame) -> tuple:
    """What a verdict computed now stays true under: the span index's
    membership, which inside one evaluation only that evaluation's own
    ``analyze-string`` temporaries move (each one merges into its
    shell's index)."""
    index = frame.goddag.span_index()
    return index, index.incremental_adds


def column(frame, name: str, term: tuple) -> np.ndarray:
    """The verdicts of ``term`` over the rows of ``name``'s interval
    columns, built once per evaluation.

    A column is a pure function of the index contents and the term, so
    the memo is keyed by term value (equal sub-predicates share one
    column) under an epoch that any membership change — an
    ``analyze-string`` temporary of this evaluation — moves.
    """
    now = epoch(frame)
    memo = frame.mask_memo
    if memo is None or memo[0] != now:
        memo = frame.mask_memo = (now, {})
    key = (name, term)
    found = memo[1].get(key)
    if found is None:
        interval = now[0].name_interval(name)
        rows = ColumnarNodeSet(interval.nodes.tolist(), interval.starts,
                               interval.ends)
        found = memo[1][key] = over(frame, term, rows)
    return found
