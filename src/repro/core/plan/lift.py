"""Lifted inner ``for`` clauses: a nested FLWOR loop-lifted (DESIGN.md §16).

A correlated inner ``for $y in $x/axis::test`` whose tuples branch on a
mask condition over ``$y`` runs once over *every* binding of the
enclosing ``for $x``: one batched step computes each binding's
sequence, and each condition is one mask over their union — the
structural-join family of arXiv:1010.1147 applied to the nested
binding instead of one step and one probe per binding.

Both halves live here, as :mod:`~repro.core.plan.masks` holds the mask
terms: eligibility (:func:`lift_inner_fors`, called by
:func:`repro.core.plan.cost.apply_cost`) marks a clause with a
:class:`~repro.core.plan.logical.Lift` and its conditions with
:class:`~repro.core.plan.logical.LiftedCondOp`; execution
(:func:`publish_bindings`, :func:`compile_sequence`,
:func:`compile_condition`) is handed the closures
:mod:`~repro.core.plan.physical` compiled for the clause as written.
This module is the only code that reads or writes ``Frame.lifted``.
"""

from __future__ import annotations

from typing import Callable

from repro.core.goddag.joins import ColumnarNodeSet, descendant_leaves_batch
from repro.core.goddag.nodes import GNode, GRoot, _HierarchyNode
from repro.core.goddag.stats import PlanStats
from repro.core.plan import logical as L
from repro.core.plan import masks
from repro.core.plan.rewrite import PURE_FUNCTIONS
from repro.core.runtime.context import Frame

Runner = Callable[[Frame], list]

#: Steps a lifted inner ``for`` may take from its outer variable: the
#: downward axes, whose per-binding sequences together stay within
#: depth × document size (a ``following::`` step per binding would
#: hold a quadratic number of items at once).
LIFTABLE_AXES = frozenset({
    "child", "descendant", "descendant-or-self", "xdescendant",
})


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------


def _pure(plans: list[L.Plan]) -> bool:
    """Can evaluating ``plans`` leave the document as it found it —
    no ``analyze-string`` temporary, no function the planner cannot
    see?  The same whitelist that hoists loop invariants."""
    for plan in plans:
        for node in L.walk(plan):
            if isinstance(node, (L.UpdatePrimOp, L.CollectionOp)):
                return False
            if isinstance(node, L.FuncOp) and node.name not in PURE_FUNCTIONS:
                return False
    return True


def _condition_sites(clause: L.ForOp, rest: list[L.Plan],
                     return_plan: L.Plan):
    """``(holder, attribute)`` of every condition the tuples of
    ``clause`` branch on while its variable is still theirs: the
    ``where`` clauses after it and the ``if`` chain of the body."""
    for later in rest:
        if isinstance(later, L.WhereOp):
            yield later, "plan"
        elif clause.variable in (later.variable, getattr(
                later, "position_variable", None)):
            return  # rebound: what follows reads another value

    def chain(plan: L.Plan):
        if isinstance(plan, L.IfOp):
            yield plan, "condition"
            yield from chain(plan.then)
            yield from chain(plan.otherwise)

    yield from chain(return_plan)


def _lift_for(clause: L.ForOp, rest: list[L.Plan], return_plan: L.Plan,
              scope: dict[str, tuple[L.ForOp, list[L.Plan]]],
              stats: PlanStats, counter, notes: list[str]) -> None:
    """Mark ``for $y in $x/axis::test`` as lifted over the enclosing
    ``for $x`` when its tuples branch on a mask condition over ``$y``
    and everything ``for $x`` loops over is pure (DESIGN.md §16 names
    every shape left alone)."""
    sequence = clause.sequence
    if clause.position_variable is not None:
        return
    if not (isinstance(sequence, L.PathOp) and sequence.anchor == "primary"
            and isinstance(sequence.input, L.VarOp)
            and len(sequence.steps) == 1):
        return
    step = sequence.steps[0]
    # a hierarchy-restricted test can raise on an unknown name; the
    # batch runs ahead of the bindings and must not raise for them
    if (sequence.input.name not in scope or not isinstance(step, L.StepOp)
            or step.axis not in LIFTABLE_AXES or step.predicates
            or getattr(step.test, "hierarchies", ())):
        return
    sites = []
    for holder, attribute in _condition_sites(clause, rest, return_plan):
        term = masks.condition_term(getattr(holder, attribute),
                                    clause.variable)
        if term is not None and not masks.root_named_ancestor(
                term, stats.root_name):
            sites.append((holder, attribute, term))
    outer, body = scope[sequence.input.name]
    if not sites or not _pure(body):
        return
    lift = L.Lift(next(counter), sequence.input.name)
    for holder, attribute, term in sites:
        if term not in lift.terms:
            lift.terms.append(term)
        setattr(holder, attribute, L.LiftedCondOp(
            getattr(holder, attribute), lift.op_id, clause.variable,
            lift.terms.index(term), term))
    clause.lift = lift
    outer.feeds.append(lift.op_id)
    rendered = ", ".join(f"[{masks.render(term)}]" for term in lift.terms)
    notes.append(
        f"cost: lifted for ${clause.variable} over ${lift.over}: one "
        f"batched {step.axis}::{L.render_test(step.test)} step and one "
        f"mask per condition {rendered} over all bindings")


#: operators that evaluate every child once per evaluation of their
#: own: what an enclosing loop reaches through them it reaches always
_UNCONDITIONAL = (L.SeqOp, L.ConstructOp, L.FuncOp)


def lift_inner_fors(plan: L.Plan, stats: PlanStats, counter,
                    notes: list[str]) -> None:
    """Find every correlated inner ``for`` worth lifting, in place.

    ``scope`` maps a variable to the ``for`` clause binding it and
    everything that clause loops over, which must be pure: between the
    batch and the last tuple nothing may move the document (an
    ``analyze-string`` temporary re-cuts the leaves).  An ordered FLWOR
    runs its return after its loop has ended, so its clauses enter
    nothing and lift nothing.

    The batch runs over *every* binding of the outer clause, so a
    variable stays in scope only while each of its bindings is certain
    to arrive: through ``let`` clauses, sequences, constructors and
    function arguments.  Past a ``where``, a further ``for`` (whose
    sequence may be empty), an ``if`` branch or any operator that runs
    a child per item or not at all, the scope starts empty — a
    selective outer loop would pay for sequences and masks of bindings
    that never reach the inner clause.
    """
    def visit(node: L.Plan, scope: dict) -> None:
        if isinstance(node, L.FLWOROp):
            unordered = node.order_by is None
            scope = dict(scope)
            for position, clause in enumerate(node.clauses):
                rest = node.clauses[position + 1:]
                if isinstance(clause, L.ForOp):
                    visit(clause.sequence, scope)
                    if unordered:
                        _lift_for(clause, rest, node.return_plan, scope,
                                  stats, counter, notes)
                    scope = {}
                    if unordered:
                        scope[clause.variable] = (
                            clause, rest + [node.return_plan])
                elif isinstance(clause, L.OrderOp):
                    for key, _descending, _empty_least in clause.specs:
                        visit(key, scope)
                elif isinstance(clause, L.LetOp):
                    visit(clause.plan, scope)
                    scope.pop(clause.variable, None)
                else:
                    visit(clause.plan, scope)
                    scope = {}  # a where: later clauses see survivors
            visit(node.return_plan, scope)
        elif isinstance(node, L.IfOp):
            visit(node.condition, scope)
            visit(node.then, {})
            visit(node.otherwise, {})
        else:
            if not isinstance(node, _UNCONDITIONAL):
                scope = {}
            for child in L._children(node):
                visit(child, scope)

    visit(plan, {})


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


class _Lifted:
    """What one evaluation holds for one lifted ``for $y in
    $x/axis::test``: per binding of ``$x`` its sequence, per lifted
    condition the verdict of every node in any of them.

    Both are keyed by ``id()`` of nodes the state itself keeps alive,
    and both are pure functions of the node under ``epoch`` — whatever
    ``$x`` or ``$y`` happens to be bound to when they are looked up, a
    hit is the value the clause as written would compute.
    """

    __slots__ = ("epoch", "rows", "verdicts", "__weakref__")

    def __init__(self, epoch: tuple, rows: dict[int, list],
                 verdicts: list[dict[int, bool]]) -> None:
        self.epoch = epoch
        self.rows = rows
        self.verdicts = verdicts


def publish_bindings(sequence_fn: Runner, feeds: tuple[int, ...]) -> Runner:
    """The outer side of a lift: hand the clause's whole sequence to
    the inner clauses lifted over its variable.  Nothing is computed
    here — the first inner clause the loop reaches does that — so a
    body that never gets there costs nothing and no error moves."""
    def run(frame: Frame) -> list:
        sequence = sequence_fn(frame)
        lifted = frame.lifted
        if lifted is None:
            lifted = frame.lifted = {}
        for lift_id in feeds:
            lifted[lift_id] = sequence
        return sequence

    return run


def release_bindings(frame: Frame, feeds: tuple[int, ...]) -> None:
    """The outer clause's loop has ended: what the inner clauses lifted
    over it published or batched goes."""
    for lift_id in feeds:
        frame.lifted.pop(lift_id, None)


def compile_sequence(clause: L.ForOp, per_binding: Runner,
                     step_fn) -> Runner:
    """The sequence of a lifted ``for``: the current binding's row of
    the batch, or — no batch, a binding outside it, the document moved
    since — ``per_binding``, the clause's ordinary path.  ``step_fn``
    is the compiled closure of its one step, ``fn(frame, inputs)``."""
    lift = clause.lift
    lift_id, over = lift.op_id, lift.over
    step = clause.sequence.steps[0]
    step_id = step.op_id
    leaf_slices = step.leaves_only and step.axis in ("descendant",
                                                     "descendant-or-self")
    guards = [masks.guard(term) for term in lift.terms]

    def batch(frame: Frame, bindings: list) -> _Lifted | None:
        for item in bindings:
            if not isinstance(item, GNode):
                return None  # the ordinary path raises when it gets there
        if not all(masks_hold(frame) for masks_hold in guards):
            return None
        epoch = masks.epoch(frame)
        if leaf_slices and all(isinstance(item, (_HierarchyNode, GRoot))
                               for item in bindings):
            stats = frame.stats
            stats.axis_steps += 1
            stats.batched_steps += 1
            sequences, union = descendant_leaves_batch(frame.goddag,
                                                       bindings)
            rows = {id(item): sequence
                    for item, sequence in zip(bindings, sequences)}
        else:
            rows = {}
            members: dict[int, GNode] = {}
            for item in bindings:
                if id(item) not in rows:
                    rows[id(item)] = sequence = step_fn(frame, [item])
                    for node in sequence:
                        members[id(node)] = node
            union = ColumnarNodeSet(members.values())
        keys = [id(node) for node in union]
        return _Lifted(epoch, rows, [
            dict(zip(keys, masks.over(frame, term, union).tolist()))
            for term in lift.terms])

    def run(frame: Frame) -> list:
        lifted = frame.lifted
        state = lifted.get(lift_id) if lifted is not None else None
        if state is not None:
            if state.__class__ is not _Lifted:
                # the outer clause's sequence, published and not yet used
                state = lifted[lift_id] = batch(frame, state)
            elif state.epoch != masks.epoch(frame):
                state = lifted[lift_id] = None
        if state is not None:
            bound = frame.variables.get(over)
            if bound is not None and len(bound) == 1:
                row = state.rows.get(id(bound[0]))
                if row is not None:
                    actuals = frame.stats.op_actuals
                    actuals[lift_id] = actuals.get(lift_id, 0) + len(row)
                    actuals[step_id] = actuals.get(step_id, 0) + len(row)
                    return row
        return per_binding(frame)

    return run


def compile_condition(op: L.LiftedCondOp, as_written):
    """``fn(frame) -> bool``: the batch's verdict for the node ``$y``
    is bound to, else ``as_written``, the condition's own closure —
    also once the epoch has moved under the inner loop (an impure
    override of a whitelisted builtin in an earlier tuple's branch), as
    :func:`masks.column` re-checks on every use."""
    lift_id, variable, slot = op.lift_id, op.variable, op.slot

    def run(frame: Frame) -> bool:
        lifted = frame.lifted
        if lifted is not None:
            state = lifted.get(lift_id)
            if (state.__class__ is _Lifted
                    and state.epoch == masks.epoch(frame)):
                bound = frame.variables.get(variable)
                if bound is not None and len(bound) == 1:
                    verdict = state.verdicts[slot].get(id(bound[0]))
                    if verdict is not None:
                        return verdict
        return as_written(frame)

    return run
