"""The logical plan — stage 3 of the query pipeline.

A small IR of typed operators between the rewritten AST and the
physical closures.  Every operator renders one line of the
``explain()`` tree; annotations computed by the planner (order
sensitivity, pushdown hints, invariance, lifting) appear in
square brackets so golden snapshot tests pin them down.

Operator glossary (DESIGN.md §8):

``const``        a literal sequence, fully folded at compile time
``var``/``.``    variable reference / context item
``seq``          sequence concatenation (the comma operator)
``path``         a location path: anchor or input plan, then steps
``step``         one set-at-a-time axis step (axis, test, predicates)
``interval-join``  an extended-axis step lowered to a vectorized
                 sorted-array join over the span-index columns (§11)
``expr-step``    a non-axis path step, evaluated once per input node
``filter``       predicates over an arbitrary item sequence
``predicate``    one step/filter predicate; ``[mask …]`` is its batched
                 form as ``masks.render`` writes it: the bare
                 ``axis::name`` probe on every plan (§11), and on
                 costed plans the decorrelated bodies (§16) — axis
                 probes and string tests of ``string(.)``, in query
                 syntax
``collection``   the roots of a sharded corpus, resolved at run time
``flwor``        the FLWOR pipeline: one tuple stream, ``order-by`` its
                 last stage; a ``for … [lifted over $x]`` clause runs
                 once over all bindings of ``$x`` (costed plans, §16)
``quantified``   some/every
``union``/``intersect``/``except``  node-set algebra by order key
``construct``    a direct element constructor
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from repro.core.lang import ast


class Plan:
    """Base class of all logical operators."""

    __slots__ = ()


@dataclass
class ConstOp(Plan):
    values: list

    def _label(self) -> str:
        rendered = ", ".join(repr(v) for v in self.values[:4])
        if len(self.values) > 4:
            rendered += f", … ({len(self.values)} items)"
        return f"const ({rendered})"


@dataclass
class VarOp(Plan):
    name: str

    def _label(self) -> str:
        return f"var ${self.name}"


@dataclass
class ContextOp(Plan):
    def _label(self) -> str:
        return "context-item"


@dataclass
class SeqOp(Plan):
    parts: list[Plan]

    def _label(self) -> str:
        return "seq"


@dataclass
class RangeOp(Plan):
    lower: Plan
    upper: Plan

    def _label(self) -> str:
        return "range"


@dataclass
class BoolOp(Plan):
    kind: str  # "and" | "or"
    operands: list[Plan]

    def _label(self) -> str:
        return self.kind


@dataclass
class CompareOp(Plan):
    op: str
    style: str
    left: Plan
    right: Plan

    def _label(self) -> str:
        return f"compare {self.style} '{self.op}'"


@dataclass
class ArithOp(Plan):
    op: str
    left: Plan
    right: Plan

    def _label(self) -> str:
        return f"arith '{self.op}'"


@dataclass
class NegOp(Plan):
    op: str
    operand: Plan

    def _label(self) -> str:
        return f"unary '{self.op}'"


@dataclass
class UnionOp(Plan):
    operands: list[Plan]

    def _label(self) -> str:
        return "union"


@dataclass
class IntersectOp(Plan):
    op: str  # "intersect" | "except"
    left: Plan
    right: Plan

    def _label(self) -> str:
        return self.op


@dataclass
class IfOp(Plan):
    condition: Plan
    then: Plan
    otherwise: Plan

    def _label(self) -> str:
        return "if"


@dataclass
class QuantOp(Plan):
    quantifier: str
    bindings: list[tuple[str, Plan]]
    condition: Plan

    def _label(self) -> str:
        names = ", ".join(f"${name}" for name, _ in self.bindings)
        return f"quantified {self.quantifier} {names}"


@dataclass
class PredicateOp(Plan):
    """One step/filter predicate with its static classification."""

    plan: Plan
    #: statically boolean-valued: filter by EBV, skip the numeric check
    boolean_only: bool = False
    #: a literal integer predicate ``[k]``: direct index pick
    positional_literal: int | None = None
    #: never reads ``position()``/``last()``: candidate order and focus
    #: position are irrelevant to the verdict
    position_free: bool = False
    #: estimated fraction of candidates surviving this predicate, set
    #: by the cost pass (DESIGN.md §16); None on mechanical plans
    est_selectivity: float | None = None
    #: the batched form (:mod:`repro.core.plan.masks`): a mask term,
    #: evaluated set-at-a-time as boolean columns instead of one EBV
    #: evaluation of ``plan`` per candidate.  The planner sets the bare
    #: probe of ``[extended-axis::name]`` on every plan (DESIGN.md §11);
    #: the cost pass decorrelates other bodies into terms (§16).
    mask: tuple | None = None
    #: operator id the executor records the survivor count under
    #: (decorrelated predicates only; assigned by the cost pass)
    op_id: int = -1

    def _label(self) -> str:
        if self.positional_literal is not None:
            return f"predicate [position={self.positional_literal}]"
        if self.mask is not None:
            # masks imports this module
            from repro.core.plan.masks import render

            label = f"predicate [mask {render(self.mask)}]"
        elif self.boolean_only:
            label = "predicate [boolean]"
        else:
            label = "predicate"
        if self.est_selectivity is not None:
            label += f" [sel={self.est_selectivity:.2f}]"
        return label


@dataclass
class StepOp(Plan):
    """One location step, evaluated set-at-a-time over the context."""

    axis: str
    test: ast.NodeTest
    predicates: list[PredicateOp] = field(default_factory=list)
    #: a consumer can observe the step's output order, so it is
    #: document order, duplicate-free (DESIGN.md §8); ``False`` when no
    #: later consumer can observe it and sorts/reversals are skipped
    #: (reverse-axis normalization)
    ordered: bool = True
    #: the step's node test can never match a leaf: the batch axis call
    #: skips materializing partition ranges entirely
    skip_leaves: bool = False
    #: the node test is ``leaf()``: the step is a partition slice
    leaves_only: bool = False
    #: the name of a name test, pushed into the extended axes' per-name
    #: index masks and the standard axes' per-name element slices —
    #: those are exact and skip the test (DESIGN.md §8)
    name_hint: str | None = None
    #: stable operator id assigned by the cost pass; the physical layer
    #: records actual cardinalities under it (DESIGN.md §16)
    op_id: int = -1
    #: estimated output cardinality from the cost pass; None on
    #: mechanical plans (keeps the explain goldens byte-identical)
    est_rows: float | None = None

    def _label(self) -> str:
        flags = []
        if self.skip_leaves:
            flags.append("skip-leaves")
        if self.leaves_only:
            flags.append("leaves-only")
        if not self.ordered:
            flags.append("unordered")
        rendered = f" [{', '.join(flags)}]" if flags else ""
        return f"step {self.axis}::{render_test(self.test)}{rendered}"


@dataclass
class IntervalJoinOp(StepOp):
    """One extended-axis step lowered to a set-at-a-time interval join.

    A :class:`StepOp` specialization (the physical layer and the
    order-normalization rules treat it as a step), carrying the kernel
    family (``containment``, ``containment-reverse``, ``boundary``,
    ``stab``) the join engine will run (DESIGN.md §11).  With
    predicates that are not all mask terms, execution falls back to
    the per-node step machinery — the oracle path.
    """

    kernel: str = ""

    def _label(self) -> str:
        flags = [f"kernel={self.kernel}"] if self.kernel else []
        if self.skip_leaves:
            flags.append("skip-leaves")
        if self.leaves_only:
            flags.append("leaves-only")
        if not self.ordered:
            flags.append("unordered")
        rendered = f" [{', '.join(flags)}]" if flags else ""
        return (f"interval-join {self.axis}::{render_test(self.test)}"
                f"{rendered}")


@dataclass
class ExprStepOp(Plan):
    plan: Plan

    def _label(self) -> str:
        return "expr-step"


@dataclass
class PathOp(Plan):
    """A location path: ``anchor`` or ``input``, then ``steps``."""

    anchor: str  # "root" | "relative" | "primary"
    input: Plan | None
    steps: list[Union[StepOp, ExprStepOp]]
    #: False when every consumer is order-insensitive (EBV, count):
    #: the final merge may skip sorting
    ordered_result: bool = True

    def _label(self) -> str:
        suffix = "" if self.ordered_result else " [unordered-result]"
        return f"path anchor={self.anchor}{suffix}"


@dataclass
class FilterOp(Plan):
    input: Plan
    predicates: list[PredicateOp]

    def _label(self) -> str:
        return "filter"


@dataclass
class FuncOp(Plan):
    name: str
    args: list[Plan]

    def _label(self) -> str:
        return f"call {self.name}()"


@dataclass
class CollectionOp(Plan):
    """``collection("name")``: the roots of a sharded corpus.

    A leaf operator — the planner cannot know the shard layout, so the
    executor resolves it at run time through the ``collection``
    function slot in the frame registry.  Single-document engines have
    no such slot and report the familiar unknown-function error; the
    store's corpus executor injects a resolver that either fans the
    enclosing plan out across shards (scatter-gather) or evaluates it
    against a fused whole-corpus engine (DESIGN.md §13).
    """

    name: str

    def _label(self) -> str:
        return f"collection({self.name!r})"


@dataclass
class Lift:
    """The cost pass's verdict on a correlated inner ``for $y in
    $x/axis::test`` (DESIGN.md §16): run it set-at-a-time over every
    binding of ``$x`` at once."""

    #: operator id: the key of the evaluation's lifted state and of the
    #: clause's ``act=`` (tuples served from the batch)
    op_id: int
    #: the outer ``for`` variable the sequence starts from
    over: str
    #: mask term per lifted condition, by :attr:`LiftedCondOp.slot`
    terms: list[tuple] = field(default_factory=list)


@dataclass
class ForOp(Plan):
    variable: str
    position_variable: str | None
    sequence: Plan
    #: set on a lifted inner ``for`` (costed plans only)
    lift: Lift | None = None
    #: ``Lift.op_id`` of every inner ``for`` lifted over this clause's
    #: variable: its sequence is what they batch over
    feeds: list[int] = field(default_factory=list)

    def _label(self) -> str:
        at = f" at ${self.position_variable}" if self.position_variable \
            else ""
        lifted = f" [lifted over ${self.lift.over}]" if self.lift else ""
        return f"for ${self.variable}{at}{lifted}"


@dataclass
class LetOp(Plan):
    variable: str
    plan: Plan
    #: evaluated once per FLWOR execution instead of once per tuple
    #: (loop-invariant hoisting, applied lazily so error timing and the
    #: empty-stream case match per-tuple evaluation exactly)
    invariant: bool = False

    def _label(self) -> str:
        suffix = " [hoisted-invariant]" if self.invariant else ""
        return f"let ${self.variable}{suffix}"


@dataclass
class WhereOp(Plan):
    plan: Plan
    invariant: bool = False

    def _label(self) -> str:
        suffix = " [hoisted-invariant]" if self.invariant else ""
        return f"where{suffix}"


@dataclass
class LiftedCondOp(Plan):
    """An ``if`` / ``where`` condition over the variable of a lifted
    ``for``: ``$y[P]`` or ``$y/axis::name``, decided for every item of
    every binding's sequence by one mask (DESIGN.md §16).  ``plan`` is
    the condition as written — what runs whenever the evaluation holds
    no verdict for the item ``$y`` is bound to."""

    plan: Plan
    lift_id: int
    variable: str
    #: index into :attr:`Lift.terms`
    slot: int
    term: tuple

    def _label(self) -> str:
        # masks imports this module
        from repro.core.plan.masks import render

        return (f"condition [lifted ${self.variable}: "
                f"mask {render(self.term)}]")


@dataclass
class OrderOp(Plan):
    specs: list[tuple[Plan, bool, bool]]  # (key, descending, empty_least)

    def _label(self) -> str:
        return f"order-by ({len(self.specs)} keys)"


@dataclass
class FLWOROp(Plan):
    clauses: list[Plan]
    return_plan: Plan

    @property
    def order_by(self) -> OrderOp | None:
        """The ``order by`` clause, which the grammar admits only
        last, or ``None``."""
        last = self.clauses[-1] if self.clauses else None
        return last if isinstance(last, OrderOp) else None

    def _label(self) -> str:
        return "flwor"


@dataclass
class ConstructOp(Plan):
    name: str
    attributes: list[tuple[str, list]]  # parts: str | Plan
    content: list  # str | Plan

    def _label(self) -> str:
        return f"construct <{self.name}>"


@dataclass
class UpdatePrimOp(Plan):
    """One update primitive: evaluate child plans against the pre-state
    snapshot, emit pending-update entries (DESIGN.md §9).

    ``kind`` is one of ``insert``, ``delete``, ``replace-value``,
    ``rename``, ``add-markup``, ``remove-markup``; ``args`` are the
    named child plans in evaluation order (targets, sources, values);
    ``detail`` carries static payload (insert location, add-markup
    name/hierarchy) for the explain rendering.
    """

    kind: str
    args: list[tuple[str, Plan]]
    detail: str = ""
    #: static payload consumed by the physical compiler (insert
    #: location, add-markup element name and hierarchy)
    payload: dict = field(default_factory=dict)

    def _label(self) -> str:
        suffix = f" [{self.detail}]" if self.detail else ""
        return f"update {self.kind}{suffix}"


# ---------------------------------------------------------------------------
# explain rendering
# ---------------------------------------------------------------------------


def render_test(test: ast.NodeTest) -> str:
    if isinstance(test, ast.NameTest):
        return test.name
    if isinstance(test, ast.WildcardTest):
        if test.hierarchies:
            return "*('{}')".format(",".join(test.hierarchies))
        return "*"
    inner = ",".join(test.hierarchies)
    if test.kind == "processing-instruction" and test.target:
        inner = test.target
    return f"{test.kind}({inner})"


def is_context_string(plan: Plan) -> bool:
    """``string(.)`` / ``string()`` — the context item's string value."""
    return (isinstance(plan, FuncOp) and plan.name == "string"
            and (not plan.args
                 or (len(plan.args) == 1
                     and isinstance(plan.args[0], ContextOp))))


def const_string(plan: Plan) -> str | None:
    if (isinstance(plan, ConstOp) and len(plan.values) == 1
            and isinstance(plan.values[0], str)):
        return plan.values[0]
    return None


def _children(plan: Plan) -> list[Plan]:
    if isinstance(plan, SeqOp):
        return list(plan.parts)
    if isinstance(plan, RangeOp):
        return [plan.lower, plan.upper]
    if isinstance(plan, BoolOp):
        return list(plan.operands)
    if isinstance(plan, (CompareOp, ArithOp)):
        return [plan.left, plan.right]
    if isinstance(plan, NegOp):
        return [plan.operand]
    if isinstance(plan, UnionOp):
        return list(plan.operands)
    if isinstance(plan, IntersectOp):
        return [plan.left, plan.right]
    if isinstance(plan, IfOp):
        return [plan.condition, plan.then, plan.otherwise]
    if isinstance(plan, QuantOp):
        return [p for _name, p in plan.bindings] + [plan.condition]
    if isinstance(plan, PredicateOp):
        if plan.positional_literal is not None or plan.mask is not None:
            return []  # the label carries the whole story
        return [plan.plan]
    if isinstance(plan, StepOp):
        return list(plan.predicates)
    if isinstance(plan, ExprStepOp):
        return [plan.plan]
    if isinstance(plan, PathOp):
        head = [plan.input] if plan.input is not None else []
        return head + list(plan.steps)
    if isinstance(plan, FilterOp):
        return [plan.input] + list(plan.predicates)
    if isinstance(plan, FuncOp):
        return list(plan.args)
    if isinstance(plan, ForOp):
        return [plan.sequence]
    if isinstance(plan, (LetOp, WhereOp)):
        return [plan.plan]
    if isinstance(plan, LiftedCondOp):
        return []  # like a mask predicate: the label says it all
    if isinstance(plan, OrderOp):
        return [key for key, _d, _e in plan.specs]
    if isinstance(plan, FLWOROp):
        return list(plan.clauses) + [plan.return_plan]
    if isinstance(plan, ConstructOp):
        out: list[Plan] = []
        for _name, parts in plan.attributes:
            out.extend(p for p in parts if isinstance(p, Plan))
        out.extend(p for p in plan.content if isinstance(p, Plan))
        return out
    if isinstance(plan, UpdatePrimOp):
        return [p for _name, p in plan.args]
    return []


def walk(plan: Plan):
    """``plan`` and every plan under it, pre-order — the inner plans
    the explain tree elides (batched predicates, lifted conditions)
    included."""
    yield plan
    if isinstance(plan, (PredicateOp, LiftedCondOp)):
        children = [plan.plan]
    else:
        children = _children(plan)
    for child in children:
        yield from walk(child)


def needs_shell(plan: Plan) -> bool:
    """Does ``plan`` call ``analyze-string``?  Then its evaluations
    create temporary hierarchies, and each runs on a private shell of
    the KyGODDAG (DESIGN.md §8).  Read off the plan, so a query
    compiled from a pre-parsed AST (no text to scan) decides the same
    way."""
    return any(isinstance(node, FuncOp) and node.name == "analyze-string"
               for node in walk(plan))


#: ``explain --analyze`` flags an estimate that missed its actual by
#: more than this factor (either way) with ``!``
MISS_FACTOR = 8.0


def render_plan(plan: Plan, indent: int = 0,
                actuals: dict[int, int] | None = None) -> str:
    """The indented one-operator-per-line explain tree.

    On costed plans each step carries its estimate; with ``actuals``
    (the executor's per-operator cardinality record, keyed by
    ``op_id``) the line becomes ``[est=… act=…]``, with ``!`` flagging
    estimates that missed by more than :data:`MISS_FACTOR`.  A mask
    predicate shows its survivor count as ``[act=…]``, a lifted
    ``for`` the tuples it served from its batch.
    """
    label = plan._label()
    op_id = -1
    if isinstance(plan, PredicateOp):
        op_id = plan.op_id
    elif isinstance(plan, ForOp) and plan.lift is not None:
        op_id = plan.lift.op_id
    if actuals is not None and op_id in actuals:
        label += f" [act={actuals[op_id]}]"
    if isinstance(plan, StepOp) and plan.est_rows is not None:
        annotation = f"est={plan.est_rows:.0f}"
        if actuals is not None and plan.op_id in actuals:
            actual = actuals[plan.op_id]
            annotation += f" act={actual}"
            if (actual > plan.est_rows * MISS_FACTOR + 4
                    or plan.est_rows > actual * MISS_FACTOR + 4):
                annotation += " !"
        label += f" [{annotation}]"
    lines = ["  " * indent + label]
    for child in _children(plan):
        lines.append(render_plan(child, indent + 1, actuals))
    return "\n".join(lines)
