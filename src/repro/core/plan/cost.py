"""Cost-based plan transforms and cardinality estimation (DESIGN.md §16).

The mechanical lowering in :mod:`repro.core.plan.planner` translates
the AST in source order.  ``BENCH_joins.json`` shows per-step spreads
of 8.5×–736× between the interval-join kernels at n=6400, so on
multi-step chains and multi-predicate filters *order* is the headline
win.  This module is the optional pass behind ``use_cost=True``:
given :class:`~repro.core.goddag.stats.PlanStats` it

* reorders stacked ``[extended-axis::name]`` probes by estimated
  selectivity-per-cost (cheap, selective probes first),
* reverses a ``/descendant::A/axis::B`` join pair into
  ``/descendant::B[axis⁻¹::A]`` when the B side is estimated much
  smaller (the extended axes of Definition 1 are symmetric:
  ``b ∈ axis(a) ⟺ a ∈ axis⁻¹(b)``), and
* annotates every step with an estimated output cardinality
  (``op_id``/``est_rows``) so the physical layer can record actuals
  and ``explain()`` can render ``est=…/act=…``, and
* decorrelates nested existence predicates
  (``line[xdescendant::w[xancestor::dmg or …]]``) into mask terms
  (:mod:`repro.core.plan.masks`):
  the inner pattern becomes one boolean column over the name's rows
  and the outer test one subset semi-join, instead of one probe per
  candidate per inner node — constant string tests of the node's value
  (``w[matches(string(.), "…")]``) are columns of the same kind — and
* lifts a correlated inner ``for $y in $x/axis::test`` whose body
  branches on such a pattern over ``$y`` (:mod:`repro.core.plan.lift`,
  eligibility and execution both): its sequences are computed for all
  bindings of ``$x`` in one batched step and the condition is one mask
  over their union.

Every transform preserves item-for-item results — the mechanical
lowering stays on as the differential oracle
(``tests/test_plan_cost.py``).  Estimates only ever change *order*
and *direction*, never the answer.
"""

from __future__ import annotations

import itertools

from repro.core.goddag.joins import JOIN_KERNELS
from repro.core.goddag.stats import PlanStats
from repro.core.lang import ast
from repro.core.plan import lift
from repro.core.plan import logical as L
from repro.core.plan import masks
from repro.core.plan.planner import test_pushdowns

#: Definition 1 axis duality: ``b ∈ axis(a) ⟺ a ∈ REVERSE_AXIS[axis](b)``
#: for nonempty spans (empty spans are excluded by every kernel on both
#: sides, so the symmetric form sees the same pairs).
REVERSE_AXIS = {
    "xdescendant": "xancestor",
    "xancestor": "xdescendant",
    "xfollowing": "xpreceding",
    "xpreceding": "xfollowing",
    "overlapping": "overlapping",
    "preceding-overlapping": "following-overlapping",
    "following-overlapping": "preceding-overlapping",
}

#: Relative per-candidate probe cost by kernel, calibrated against the
#: BENCH_joins.json shapes (boundary ≪ containment < stab: two bisects
#: vs. a bisect plus prefix-max scan vs. pair-materializing stabs).
KERNEL_COST = {
    "boundary": 1.0,
    "containment": 3.0,
    "containment-reverse": 3.0,
    "stab": 5.0,
}

#: Per-element cost of a name-indexed descendant scan relative to one
#: boundary probe (a slice off the per-name interval columns).
SCAN_COST = 0.5

#: Selectivity assumed for predicates the estimator cannot model.
DEFAULT_SEL = 0.5

#: Reversing a join pair must look at least this much cheaper before
#: the pass rewrites it (hysteresis against estimate noise).
REVERSAL_MARGIN = 2.0

#: Decorrelation trade-off (DESIGN.md §16): one row of a vectorized
#: mask column is taken to cost 1/MARGIN of one Python-level per-node
#: probe, so a predicate is decorrelated when its columns span at most
#: MARGIN rows per probe they replace.  Where the candidate count per
#: entry is unknown — a predicate under a relative path or a filter,
#: re-entered from some enclosing loop — the loop is assumed to run
#: MARGIN times with one candidate each.
DECORRELATION_MARGIN = 16.0

# ---------------------------------------------------------------------------
# estimation primitives
# ---------------------------------------------------------------------------


def _test_card(stats: PlanStats, test: ast.NodeTest) -> float:
    """Upper-bound cardinality of one node test over the document."""
    if isinstance(test, ast.NameTest):
        return float(stats.card(test.name))
    elements = sum(per_name for per in stats.cards.values()
                   for per_name in per.values())
    if isinstance(test, ast.WildcardTest):
        return float(elements)
    if test.kind == "leaf":
        return float(stats.leaf_count)
    if test.kind == "text":
        return float(max(0, stats.span_count - elements))
    if test.kind in ("comment", "processing-instruction"):
        return 0.0  # not span-index members; rare and uncounted
    return float(stats.span_count)  # node()


def _ctx_len(stats: PlanStats, ctx_name: str | None) -> float:
    """Mean span length of the context nodes feeding a join."""
    if ctx_name is None:
        return stats.avg_span_len()
    if ctx_name == stats.root_name:
        return float(stats.text_length)
    return stats.avg_len(ctx_name)


def join_fanout(stats: PlanStats, axis: str, ctx_name: str | None,
                name: str) -> float:
    """Expected ``axis::name`` partners per context node (pre-dedup)."""
    count = stats.nonempty(name)
    if not count:
        return 0.0
    text = float(max(1, stats.text_length))
    ctx_len = _ctx_len(stats, ctx_name)
    if axis == "xdescendant":
        return count * ctx_len / text
    if axis == "xancestor":
        # probability one name-span covers a fixed point, times count
        return count * stats.avg_len(name) / text
    if axis in ("overlapping", "preceding-overlapping",
                "following-overlapping"):
        fanout = count * (ctx_len + stats.avg_len(name)) / text
        if axis != "overlapping":
            fanout /= 2.0
        return fanout
    # boundary axes: on average half the name-spans lie to one side
    return count / 2.0


def predicate_selectivity(stats: PlanStats, predicate: L.PredicateOp,
                          ctx_name: str | None) -> float:
    """Estimated surviving fraction for one step predicate: for a bare
    ``[axis::name]`` probe the fraction of context nodes with ≥1
    partner, else :data:`DEFAULT_SEL`."""
    probe = masks.probe(predicate.mask)
    if probe is None:
        return DEFAULT_SEL
    axis, name = probe
    count = stats.nonempty(name)
    if not count:
        return 0.0
    if axis in ("xfollowing", "xpreceding"):
        # an element to one side almost always exists; refine via the
        # start histogram against the name's extent
        entry = stats.names.get(name)
        if entry is None:
            return 1.0
        if axis == "xfollowing":
            return max(0.05, 1.0 - stats.start_fraction_below(
                entry["max_end"]))
        return max(0.05, stats.start_fraction_below(entry["min_start"]))
    if axis == "xancestor":
        return max(0.0, min(1.0, stats.coverage(name)))
    return max(0.0, min(1.0, join_fanout(stats, axis, ctx_name, name)))


def probe_cost(axis: str) -> float:
    """Relative per-candidate cost of one existence probe."""
    return KERNEL_COST.get(JOIN_KERNELS.get(axis, ""), 3.0)


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def _reorder_predicates(step: L.StepOp, stats: PlanStats,
                        notes: list[str]) -> None:
    """Sort stacked bare ``[extended-axis::name]`` probes by benefit.

    Bare probes are boolean and position-free by construction, so the
    conjunction commutes; the classic filter-ordering rank —
    ``(1 - selectivity) / cost`` descending — runs the probes that
    discard the most candidates per unit of work first.  The order is
    fixed at plan time (DESIGN.md §16).
    """
    predicates = step.predicates
    if len(predicates) < 2:
        return
    if not all(masks.probe(p.mask) for p in predicates):
        return
    ctx_name = (step.test.name
                if isinstance(step.test, ast.NameTest) else None)
    for predicate in predicates:
        predicate.est_selectivity = predicate_selectivity(
            stats, predicate, ctx_name)

    def rank(predicate: L.PredicateOp) -> float:
        axis, _name = masks.probe(predicate.mask)
        return -(1.0 - predicate.est_selectivity) / probe_cost(axis)

    reordered = sorted(predicates, key=rank)
    if reordered != predicates:
        step.predicates = reordered
        order = ", ".join(
            f"{masks.render(p.mask)}(sel={p.est_selectivity:.2f})"
            for p in reordered)
        notes.append("cost: reordered probe conjunction on "
                     f"{step.axis}::{L.render_test(step.test)} → {order}")


def _reversible_pair(path: L.PathOp) -> tuple[L.StepOp,
                                              L.IntervalJoinOp] | None:
    """Recognize the ``/descendant::A/axis::B`` shape.

    The narrow gate keeps the rewrite provably result-preserving: a
    root-anchored two-step path whose first step is a bare named
    descendant scan and whose second is an extended-axis join with at
    most bare probes (commutative, so they transfer onto the reversed
    scan unchanged).
    """
    if path.anchor != "root" or path.input is not None:
        return None
    if len(path.steps) != 2:
        return None
    first, second = path.steps
    if type(first) is not L.StepOp or first.axis != "descendant":
        return None
    if not isinstance(first.test, ast.NameTest) or first.predicates:
        return None
    if not isinstance(second, L.IntervalJoinOp):
        return None
    if second.axis not in REVERSE_AXIS:
        return None
    if not isinstance(second.test, ast.NameTest):
        return None
    if not all(masks.probe(p.mask) for p in second.predicates):
        return None
    return first, second


def _reverse_join_pair(path: L.PathOp, stats: PlanStats,
                       notes: list[str]) -> bool:
    """Rewrite ``/descendant::A/axis::B`` → ``/descendant::B[axis⁻¹::A]``
    when the B side is estimated ≥``REVERSAL_MARGIN``× cheaper.

    Correctness: by Definition 1 symmetry the B nodes with an A
    partner under ``axis`` are exactly the B nodes whose ``axis⁻¹``
    contains an A node; both forms produce that node set deduplicated
    in document order.  Skipped when the document root carries either
    name — the root sits outside ``/descendant::`` scans but inside
    per-node axis results, the one asymmetry of the duality.
    """
    pair = _reversible_pair(path)
    if pair is None:
        return False
    first, second = pair
    name_a = first.test.name
    name_b = second.test.name
    if stats.root_name in (name_a, name_b):
        return False
    card_a = float(stats.card(name_a))
    card_b = float(stats.card(name_b))
    if not card_a or not card_b:
        return False
    kernel_cost = KERNEL_COST.get(second.kernel, 3.0)
    forward_cost = card_a * (
        kernel_cost + join_fanout(stats, second.axis, name_a, name_b))
    reverse_axis = REVERSE_AXIS[second.axis]
    reversed_cost = card_b * (SCAN_COST + probe_cost(reverse_axis))
    if reversed_cost * REVERSAL_MARGIN >= forward_cost:
        return False
    skip_leaves, leaves_only, name_hint = test_pushdowns(first.test)
    inner = L.IntervalJoinOp(
        axis=reverse_axis, test=first.test, predicates=[],
        ordered=False, skip_leaves=skip_leaves, leaves_only=leaves_only,
        name_hint=name_hint, kernel=JOIN_KERNELS[reverse_axis])
    probe = L.PredicateOp(
        L.PathOp("relative", None, [inner], ordered_result=False),
        boolean_only=True, position_free=True)
    probe.mask = masks.bare_term(probe)
    skip_leaves, leaves_only, name_hint = test_pushdowns(second.test)
    scan = L.StepOp(
        axis="descendant", test=second.test,
        predicates=[probe] + list(second.predicates),
        ordered=path.ordered_result,
        skip_leaves=skip_leaves, leaves_only=leaves_only,
        name_hint=name_hint)
    path.steps = [scan]
    notes.append(
        f"cost: reversed join pair descendant::{name_a}/"
        f"{second.axis}::{name_b} → descendant::{name_b}"
        f"[{reverse_axis}::{name_a}] "
        f"(est {forward_cost:.0f} vs {reversed_cost:.0f})")
    return True


# ---------------------------------------------------------------------------
# predicate decorrelation
# ---------------------------------------------------------------------------


def _decorrelate(predicate: L.PredicateOp, stats: PlanStats,
                 rows: float | None, ctx_name: str | None,
                 counter, notes: list[str]) -> None:
    """Annotate one predicate with a mask plan when that is cheaper.

    ``rows`` is the estimated candidate count the predicate filters in
    one go, or ``None`` when it is entered per item of some enclosing
    loop.  Re-entered predicates only pay off through the columns the
    evaluation memoises: without one, a kernel call per entry loses to
    the handful of probes it replaces.  A predicate that already
    carries a term — the planner's bare ``[axis::name]`` probe — keeps
    it, and ``xancestor::<root name>[P]`` stays per-node.
    """
    if (predicate.mask is not None
            or not (predicate.boolean_only and predicate.position_free)):
        return
    term = masks.of_plan(predicate.plan)
    if term is None:
        return
    if masks.root_named_ancestor(term, stats.root_name):
        return
    probes, spanned = masks.work(
        stats, term, DECORRELATION_MARGIN if rows is None else rows,
        ctx_name)
    if rows is None and not spanned:
        return
    if spanned > probes * DECORRELATION_MARGIN:
        return
    predicate.mask = term
    predicate.op_id = next(counter)
    notes.append(f"cost: decorrelated predicate [{masks.render(term)}]"
                 " into whole-column masks and subset semi-joins")


# ---------------------------------------------------------------------------
# annotation
# ---------------------------------------------------------------------------


def _estimate_step(stats: PlanStats, step: L.StepOp,
                   ctx_rows: float | None,
                   ctx_name: str | None, counter,
                   notes: list[str]) -> float:
    """Estimated output cardinality of one step (post-dedup); also
    where the step's predicates are offered for decorrelation, each
    against the candidate estimate it will filter."""
    card = _test_card(stats, step.test)
    if isinstance(step, L.IntervalJoinOp) and isinstance(
            step.test, ast.NameTest):
        if ctx_rows is None:
            estimate = card
        else:
            fanout = join_fanout(stats, step.axis, ctx_name,
                                 step.test.name)
            estimate = min(card, ctx_rows * fanout)
    else:
        # standard axes: the name's total population is the honest
        # upper bound; root-anchored descendant scans hit it exactly
        estimate = card
    for predicate in step.predicates:
        ctx = (step.test.name
               if isinstance(step.test, ast.NameTest) else None)
        _decorrelate(predicate, stats,
                     estimate if ctx_rows is not None else None, ctx,
                     counter, notes)
        selectivity = predicate_selectivity(stats, predicate, ctx)
        if predicate.est_selectivity is None:
            predicate.est_selectivity = selectivity
        estimate *= selectivity
    return max(0.0, estimate)


def _root_anchored(path: L.PathOp) -> bool:
    """Does the path start from one document root?  ``collection()``
    resolves to the root of the shard (or fused corpus) a plan runs
    on, so it anchors a path like ``/`` does."""
    return path.anchor == "root" or isinstance(path.input, L.CollectionOp)


def _annotate_path(path: L.PathOp, stats: PlanStats,
                   counter, notes: list[str]) -> None:
    if _root_anchored(path):
        ctx_rows: float | None = 1.0
        ctx_name: str | None = stats.root_name
    else:
        ctx_rows = None
        ctx_name = None
    for step in path.steps:
        if not isinstance(step, L.StepOp):
            ctx_rows = None
            ctx_name = None
            continue
        step.op_id = next(counter)
        step.est_rows = _estimate_step(stats, step, ctx_rows, ctx_name,
                                       counter, notes)
        ctx_rows = step.est_rows
        ctx_name = (step.test.name
                    if isinstance(step.test, ast.NameTest) else None)


def _filter_rows(op: L.FilterOp) -> float | None:
    """Estimated rows a filter's predicates see in one go: the last
    step estimate of a root-anchored input path, else ``None`` (a
    variable bound by an enclosing loop, typically)."""
    source = op.input
    if (isinstance(source, L.PathOp) and _root_anchored(source)
            and source.steps
            and all(isinstance(step, L.StepOp) for step in source.steps)):
        return source.steps[-1].est_rows
    return None


def _walk(plan: L.Plan):
    """``plan`` and every operator under it that runs, pre-order: the
    inner paths of mask and positional predicates are no operators."""
    yield plan
    for child in L._children(plan):
        yield from _walk(child)


def apply_cost(plan: L.Plan, stats: PlanStats,
               notes: list[str]) -> int:
    """Run the cost pass over a freshly-built logical plan, in place.

    Transforms first (join-pair reversal, then predicate reordering —
    reversal synthesizes probes the reorder pass then ranks), then the
    estimate annotation walk, which also decorrelates predicates: a
    pre-order walk, so a predicate turned into a mask plan takes its
    inner steps out of the walk before they are reached.  Inner
    ``for`` clauses are lifted last, so step ids do not depend on
    them.  Returns the number of operators annotated with ``op_id``.
    """
    # each pass re-walks: reversal replaces the steps it rewrites
    for node in list(_walk(plan)):
        if isinstance(node, L.PathOp):
            _reverse_join_pair(node, stats, notes)
    for node in list(_walk(plan)):
        if isinstance(node, L.StepOp):
            _reorder_predicates(node, stats, notes)
    counter = itertools.count()

    def annotate(node: L.Plan) -> None:
        if isinstance(node, L.PathOp):
            _annotate_path(node, stats, counter, notes)
        elif isinstance(node, L.FilterOp):
            annotate(node.input)
            rows = _filter_rows(node)
            for predicate in node.predicates:
                _decorrelate(predicate, stats, rows, None, counter, notes)
                annotate(predicate)
            return
        for child in L._children(node):
            annotate(child)

    annotate(plan)
    lift.lift_inner_fors(plan, stats, counter, notes)
    return next(counter)


def final_estimate(plan: L.Plan) -> tuple[int, float] | None:
    """The last annotated operator's ``(op_id, est_rows)`` — the
    plan's bottom-line cardinality estimate for observability
    (``/statz``, access logs)."""
    best: tuple[int, float] | None = None
    for node in _walk(plan):
        if (isinstance(node, L.StepOp) and node.op_id >= 0
                and node.est_rows is not None):
            if best is None or node.op_id > best[0]:
                best = (node.op_id, node.est_rows)
    return best
