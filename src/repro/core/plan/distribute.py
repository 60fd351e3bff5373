"""Static classification of plans for scatter-gather corpus execution.

Given a compiled logical plan that references ``collection("name")``,
the corpus executor must decide *where* the plan can run (DESIGN.md
§13):

``scatter``
    The whole plan evaluates independently per shard and the gather
    side merges node results by packed okey
    (:func:`repro.core.goddag.okeys.corpus_sort_order`).  Requires the
    top level to be a collection-anchored path whose every step is
    *shard-local*: the step's candidate set for any in-shard context
    node is fully contained in that shard.
``aggregate``
    ``count()``/``sum()``/``exists()``/``empty()`` over a scatterable
    path: workers return one scalar each, the gather side folds them
    (sum / sum / any / all).  Pruned shards contribute the fold
    identity, so pruning stays exact.
``concat``
    A FLWOR whose outer ``for`` binds a scatterable collection path
    confined to a **single hierarchy** (per the corpus
    ``name_hierarchies`` statistics): within one hierarchy the corpus
    order is (shard, preorder), so concatenating per-shard outputs in
    shard order reproduces the unsharded tuple stream.
``fused``
    Everything else — the executor falls back to one engine over the
    reassembled corpus (:func:`repro.store.sharding.fuse_documents`:
    the shard files' columns concatenated, DESIGN.md §13).  Always
    correct, never parallel.

Shard-locality reasoning: shard cuts are element boundaries in every
hierarchy, so an element's ancestors, descendants, attributes, and
*overlapping* nodes (spans intersect ⇒ same shard) are co-resident;
``following``/``preceding``(-sibling) and the boundary-kernel extended
axes reach across cuts and force the fused path, as do node tests
that can observe split text nodes (``text()``/``leaf()``) or the shard
root (the corpus root name, wildcards on self-or-upward axes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.lang import ast
from repro.core.plan import logical as L
from repro.core.plan import masks

#: Axes whose candidate set for an in-shard element context is fully
#: contained in the same shard.
DOWNWARD_AXES = frozenset({"child", "descendant", "attribute"})
SELF_OR_UPWARD_AXES = frozenset({
    "self", "parent", "ancestor", "ancestor-or-self",
    "descendant-or-self"})
OVERLAP_AXES = frozenset({
    "overlapping", "preceding-overlapping", "following-overlapping",
    "xancestor", "xdescendant"})
LOCAL_AXES = DOWNWARD_AXES | SELF_OR_UPWARD_AXES | OVERLAP_AXES

#: Functions whose value depends only on shard-local input sequences.
#: Notably absent: ``position``/``last`` (handled separately — safe
#: except against the corpus-root context), ``root``/``leaves``/
#: ``hierarchies``/``hierarchy`` (whole-document views), ``span``
#: (global character offsets), ``collection`` (no nesting).
LOCAL_FUNCTIONS = frozenset({
    "abs", "avg", "boolean", "ceiling", "concat", "contains", "count",
    "data", "distinct-values", "empty", "ends-with", "exists", "false",
    "floor", "index-of", "insert-before", "local-name", "lower-case",
    "matches", "max", "min", "name", "normalize-space", "not", "number",
    "remove", "replace", "reverse", "round", "starts-with", "string",
    "string-join", "string-length", "subsequence", "substring",
    "substring-after", "substring-before", "sum", "tokenize",
    "translate", "true", "upper-case",
})

#: Aggregates with a per-shard/fold decomposition (fold identity in
#: the comment — what a pruned shard contributes).
AGGREGATE_FOLDS = {
    "count": "sum",    # identity 0
    "sum": "sum",      # identity 0
    "exists": "any",   # identity False
    "empty": "all",    # identity True
}


@dataclass
class Distribution:
    """The executor's routing verdict for one compiled plan."""

    mode: str  # "scatter" | "aggregate" | "concat" | "fused"
    collection: str | None = None
    #: the fold for ``aggregate`` mode (a key of AGGREGATE_FOLDS)
    aggregate: str | None = None
    #: element names every non-empty shard result requires — shards
    #: whose cardinality for any of them is zero are pruned
    required_names: list[str] = field(default_factory=list)
    #: why the plan fell back to fused (explain/debugging)
    reason: str = ""


def find_collections(plan: L.Plan) -> list[str]:
    """Names of every ``collection()`` reference in the plan tree."""
    names: list[str] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, L.CollectionOp):
            names.append(node.name)
        stack.extend(L._children(node))
    return names


def classify(plan: L.Plan, *, root_name: str,
             name_hierarchies: dict[str, list[str]]) -> Distribution:
    """Route ``plan`` to scatter / aggregate / concat / fused.

    ``root_name`` is the corpus root element name (shard roots must
    never surface in distributed results — a GRoot serializes the
    whole shard); ``name_hierarchies`` maps element names to the
    hierarchies they appear in, from the corpus statistics.
    """
    names = find_collections(plan)
    if len(names) != 1:
        return Distribution(
            "fused", collection=names[0] if names else None,
            reason=f"{len(names)} collection() references")
    name = names[0]

    if (isinstance(plan, L.FuncOp) and plan.name in AGGREGATE_FOLDS
            and len(plan.args) == 1):
        inner = classify(plan.args[0], root_name=root_name,
                         name_hierarchies=name_hierarchies)
        if inner.mode == "scatter":
            return Distribution("aggregate", collection=name,
                                aggregate=plan.name,
                                required_names=inner.required_names)
        return Distribution("fused", collection=name, reason=inner.reason)

    if isinstance(plan, L.PathOp) and isinstance(plan.input, L.CollectionOp):
        verdict = _scatterable_steps(plan.steps, root_name)
        if verdict is not None:
            return Distribution("fused", collection=name, reason=verdict)
        return Distribution(
            "scatter", collection=name,
            required_names=_required_names(plan.steps))

    if isinstance(plan, L.FLWOROp):
        verdict = _concatenable_flwor(plan, name, root_name,
                                      name_hierarchies)
        if verdict is None:
            outer = plan.clauses[0]
            assert isinstance(outer, L.ForOp)
            assert isinstance(outer.sequence, L.PathOp)
            return Distribution(
                "concat", collection=name,
                required_names=_required_names(outer.sequence.steps))
        return Distribution("fused", collection=name, reason=verdict)

    return Distribution("fused", collection=name,
                        reason=f"top-level {plan._label()}")


# ---------------------------------------------------------------------------
# step-chain analysis
# ---------------------------------------------------------------------------


def _scatterable_steps(steps: list, root_name: str) -> str | None:
    """None when every step is shard-local, else the blocking reason."""
    if not steps:
        return "bare collection() yields shard roots"
    for index, step in enumerate(steps):
        if not isinstance(step, L.StepOp):
            return f"non-axis step {step._label()}"
        if step.axis not in LOCAL_AXES:
            return f"axis {step.axis} reaches across shard cuts"
        is_final = index == len(steps) - 1
        verdict = _local_test(step, steps[index + 1:], root_name,
                              final=is_final)
        if verdict is not None:
            return verdict
        for predicate in step.predicates:
            verdict = _local_predicate(predicate, root_name,
                                       first_step=index == 0)
            if verdict is not None:
                return verdict
    return None


def _local_test(step: L.StepOp, rest: list, root_name: str,
                *, final: bool) -> str | None:
    test = step.test
    if isinstance(test, ast.NameTest):
        if test.name == root_name:
            return f"name test matches the corpus root <{root_name}>"
        return None
    if isinstance(test, ast.WildcardTest):
        if step.axis in SELF_OR_UPWARD_AXES:
            return f"wildcard on {step.axis} can match the shard root"
        return None
    # KindTest: text()/leaf() observe cut-split text nodes; node() is
    # tolerated mid-chain when a later downward element step screens
    # out roots and split nodes (the ``//`` expansion).
    if test.kind == "node" and not final:
        for later in rest:
            if (isinstance(later, L.StepOp)
                    and later.axis in DOWNWARD_AXES
                    and isinstance(later.test,
                                   (ast.NameTest, ast.WildcardTest))):
                return None
        return "node() not followed by a downward element step"
    return f"{test.kind}() test can observe shard-split nodes"


def _local_predicate(predicate: L.PredicateOp, root_name: str,
                     *, first_step: bool) -> str | None:
    if first_step and predicate.positional_literal is not None:
        return "positional predicate against the corpus-root context"
    if first_step and not predicate.position_free:
        return "position()-reading predicate against the corpus root"
    if predicate.positional_literal is not None:
        return None
    return _local_plan(predicate.plan, root_name,
                       allow_focus=not first_step)


def _local_plan(plan: L.Plan, root_name: str, *,
                allow_focus: bool) -> str | None:
    """None when ``plan`` only reads shard-local state.  The walk
    enters the plans of batched predicates too: a mask term is what its
    plan says."""
    for node in L.walk(plan):
        if isinstance(node, L.CollectionOp):
            return "nested collection() reference"
        if isinstance(node, L.PathOp) and node.anchor == "root":
            return "root-anchored path inside a shard-local context"
        if isinstance(node, L.StepOp):
            if node.axis not in LOCAL_AXES:
                return f"axis {node.axis} reaches across shard cuts"
            verdict = _local_test(node, [], root_name, final=True)
            if verdict is not None:
                return verdict
        if isinstance(node, L.FuncOp):
            if node.name in ("position", "last"):
                if not allow_focus:
                    return f"{node.name}() against the corpus-root context"
            elif node.name not in LOCAL_FUNCTIONS:
                return f"function {node.name}() is not shard-local"
    return None


def _required_names(steps: list) -> list[str]:
    """Element names a shard must contain to produce any result.

    Every axis step with a NameTest emits only nodes of that name, so
    each spine name (and each bare probe's name) must have non-zero
    cardinality in a shard for the shard to contribute — the pruning
    precondition the manifest statistics answer.
    """
    names: list[str] = []
    for step in steps:
        if not isinstance(step, L.StepOp):
            continue
        if step.axis == "attribute":
            # attribute names are not in the element cardinality map
            continue
        if isinstance(step.test, ast.NameTest):
            names.append(step.test.name)
        for predicate in step.predicates:
            probe = masks.probe(predicate.mask)
            if probe is not None:
                _axis, probed = probe
                names.append(probed)
    seen: set[str] = set()
    ordered = []
    for name in names:
        if name not in seen:
            seen.add(name)
            ordered.append(name)
    return ordered


# ---------------------------------------------------------------------------
# FLWOR concat analysis
# ---------------------------------------------------------------------------


def _concatenable_flwor(plan: L.FLWOROp, collection: str, root_name: str,
                        name_hierarchies: dict[str, list[str]],
                        ) -> str | None:
    if plan.order_by is not None:
        return "order-by FLWOR needs a global sort"
    if not plan.clauses or not isinstance(plan.clauses[0], L.ForOp):
        return "FLWOR does not open with a for clause"
    outer = plan.clauses[0]
    if outer.position_variable is not None:
        return "positional for-binding counts across shards"
    sequence = outer.sequence
    if not (isinstance(sequence, L.PathOp)
            and isinstance(sequence.input, L.CollectionOp)):
        return "outer for does not iterate the collection"
    verdict = _scatterable_steps(sequence.steps, root_name)
    if verdict is not None:
        return verdict
    last = sequence.steps[-1]
    if not (isinstance(last, L.StepOp)
            and isinstance(last.test, ast.NameTest)):
        return "outer for-sequence must end in a single-name step"
    hierarchies = name_hierarchies.get(last.test.name, [])
    if len(hierarchies) != 1:
        return (f"<{last.test.name}> spans {len(hierarchies)} hierarchies;"
                " corpus order would interleave shards")
    for clause in plan.clauses[1:]:
        verdict = _local_clause(clause, root_name)
        if verdict is not None:
            return verdict
    return _local_plan(plan.return_plan, root_name, allow_focus=True)


def _local_clause(clause: L.Plan, root_name: str) -> str | None:
    if isinstance(clause, L.ForOp):
        return _local_plan(clause.sequence, root_name, allow_focus=True)
    if isinstance(clause, (L.LetOp, L.WhereOp)):
        return _local_plan(clause.plan, root_name, allow_focus=True)
    return f"clause {clause._label()} blocks shard concatenation"
