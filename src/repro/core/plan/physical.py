"""Physical operators — stage 4 of the query pipeline.

``compile_plan`` turns the logical plan into a tree of Python closures
(``fn(frame) -> list``): dispatch happens once at compile time instead
of per AST node per evaluation, and path steps run **set-at-a-time** —
one batched axis call per step over the whole context sequence, merged
and deduplicated by the packed int64 order keys (DESIGN.md §8).

The :class:`~repro.core.runtime.context.Frame` is the mutable
evaluation state: focus and variable bindings are mutated in place
with save/restore instead of cloning a context per item.  A FLWOR is
one continuation chain over it, ``order by`` the chain's last stage;
the batched form of a predicate is :mod:`~repro.core.plan.masks`' and
that of a lifted inner ``for`` :mod:`~repro.core.plan.lift`'s, both
handed the closures compiled here for the clause as written.

Semantics contract (DESIGN.md §8): a step's *output* is always
document-ordered and duplicate-free; only the candidate order a
predicate can observe is reversed on reverse axes; a dynamic error is
raised when — and only if — the erroring subexpression is reached.
Every runner holds to it item for item, which the differential tests
in ``tests/test_plan_pipeline.py`` check against the reference
tree-walker in ``tests/treewalk.py``.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import QueryEvaluationError
from repro.markup import dom
from repro.core.goddag.axes import (
    axis_candidates,
    axis_exists_named,
    emits_document_order,
    evaluate_axis_batch,
    leaf_candidates,
    picked_candidate,
    tested_candidates,
)
from repro.core.goddag.joins import join_axis_batch
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
from repro.core.lang import ast
from repro.core.plan import lift
from repro.core.plan import logical as L
from repro.core.plan import masks
from repro.core.runtime import values
from repro.core.runtime.context import Frame, QueryOptions, QueryStats
from repro.core.runtime.semantics import (
    REVERSE_AXES,
    append_content,
    copy_dom,
    copy_gnode,
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
from repro.core.goddag.temp import TemporaryHierarchyManager

Runner = Callable[["Frame"], list]

_MISSING = object()


def execute_plan(fn: Runner, goddag, variables=None, options=None,
                 functions=None, shell: bool = False,
                 stats: QueryStats | None = None) -> list:
    """Run a compiled plan with the root as focus.

    With ``shell`` — the plan calls ``analyze-string``
    (:func:`~repro.core.plan.needs_shell`) — it runs on a private
    :meth:`~repro.core.goddag.goddag.KyGoddag.shell` of ``goddag``
    that takes the evaluation's temporary hierarchies; result items
    living in one are copied out and the shell is dropped (Definition
    4(5)).  Without, it runs on ``goddag`` itself, which then takes no
    temporary at all."""
    from repro.core.runtime.functions import default_registry

    registry = dict(default_registry())
    if functions:
        registry.update(functions)
    if shell:
        goddag = goddag.shell()
    frame = Frame(goddag, registry, options or QueryOptions(),
                  TemporaryHierarchyManager(goddag),
                  dict(variables or {}),
                  stats if stats is not None else QueryStats())
    frame.item = goddag.root
    frame.position = 1
    frame.size = 1
    result = fn(frame)
    if shell:
        result = [snapshot(item, goddag) for item in result]
    return result


# ---------------------------------------------------------------------------
# compilation dispatch
# ---------------------------------------------------------------------------


def compile_plan(plan: L.Plan) -> Runner:
    compiler = _COMPILERS.get(type(plan))
    if compiler is None:
        raise TypeError(f"no physical compiler for {type(plan).__name__}")
    return compiler(plan)


def _compile_const(op: L.ConstOp) -> Runner:
    constant = list(op.values)
    return lambda frame: list(constant)


def _compile_var(op: L.VarOp) -> Runner:
    name = op.name
    return lambda frame: list(frame.variable(name))


def _compile_context(op: L.ContextOp) -> Runner:
    return lambda frame: [frame.context_item()]


def _compile_seq(op: L.SeqOp) -> Runner:
    parts = [compile_plan(p) for p in op.parts]

    def run(frame: Frame) -> list:
        out: list = []
        for part in parts:
            out.extend(part(frame))
        return out

    return run


def _compile_range(op: L.RangeOp) -> Runner:
    lower_fn = compile_plan(op.lower)
    upper_fn = compile_plan(op.upper)

    def run(frame: Frame) -> list:
        lower = singleton_number(lower_fn(frame))
        upper = singleton_number(upper_fn(frame))
        if lower is None or upper is None:
            return []
        return list(range(int(lower), int(upper) + 1))

    return run


def _compile_bool(op: L.BoolOp) -> Runner:
    operands = [_compile_ebv(o) for o in op.operands]
    if op.kind == "or":
        def run(frame: Frame) -> list:
            for operand in operands:
                if operand(frame):
                    return [True]
            return [False]
    else:
        def run(frame: Frame) -> list:
            for operand in operands:
                if not operand(frame):
                    return [False]
            return [True]
    return run


def _builtin(name: str):
    from repro.core.runtime.functions import default_registry
    return default_registry()[name]


def _compile_compare(op: L.CompareOp) -> Runner:
    specialized = None
    if op.style == "general" and op.op in ("=", "!="):
        # ``string(.) = 'literal'`` — the workload's hottest predicate
        # shape: compare the context string value directly, skipping the
        # function registry and the general-comparison product loop
        # (string/string comparison coerces neither side).
        sides = (op.left, op.right)
        for this, other in (sides, sides[::-1]):
            constant = L.const_string(other)
            if constant is not None and L.is_context_string(this):
                specialized = (constant, op.op == "=", _builtin("string"))
                break
    left_fn = compile_plan(op.left)
    right_fn = compile_plan(op.right)
    operator, style = op.op, op.style
    if specialized is not None:
        constant, equal, builtin_string = specialized
        string_value = values.string_value
        atomize = values.atomize
        general_compare = values.general_compare

        def run_specialized(frame: Frame) -> list:
            if frame.functions.get("string") is builtin_string:
                value = string_value(atomize(frame.context_item()))
                return [(value == constant) is equal]
            return [general_compare(operator, left_fn(frame),
                                    right_fn(frame))]

        return run_specialized
    if style == "general":
        def run(frame: Frame) -> list:
            return [values.general_compare(operator, left_fn(frame),
                                           right_fn(frame))]
    elif style == "value":
        def run(frame: Frame) -> list:
            return values.value_compare(operator, left_fn(frame),
                                        right_fn(frame))
    else:
        def run(frame: Frame) -> list:
            left = left_fn(frame)
            right = right_fn(frame)
            if not left or not right:
                return []
            left_node = values.singleton_node(left, f"'{operator}'")
            right_node = values.singleton_node(right, f"'{operator}'")
            if operator == "is":
                return [left_node is right_node]
            if not isinstance(left_node, GNode) or not isinstance(
                    right_node, GNode):
                raise QueryEvaluationError(
                    "document-order comparison requires KyGODDAG nodes")
            left_key = frame.goddag.order_key(left_node)
            right_key = frame.goddag.order_key(right_node)
            return [left_key < right_key if operator == "<<" else
                    left_key > right_key]
    return run


def _compile_arith(op: L.ArithOp) -> Runner:
    left_fn = compile_plan(op.left)
    right_fn = compile_plan(op.right)
    operator = op.op

    def run(frame: Frame) -> list:
        left = singleton_number(left_fn(frame))
        right = singleton_number(right_fn(frame))
        if left is None or right is None:
            return []
        return [arithmetic(operator, left, right)]

    return run


def _compile_neg(op: L.NegOp) -> Runner:
    operand_fn = compile_plan(op.operand)
    negate = op.op == "-"

    def run(frame: Frame) -> list:
        value = singleton_number(operand_fn(frame))
        if value is None:
            return []
        return [-value if negate else value]

    return run


def _compile_union(op: L.UnionOp) -> Runner:
    operands = [compile_plan(o) for o in op.operands]

    def run(frame: Frame) -> list:
        nodes: list = []
        for operand in operands:
            nodes.extend(require_gnodes(operand(frame), "union"))
        return frame.goddag.sort_nodes(nodes)

    return run


def _compile_intersect(op: L.IntersectOp) -> Runner:
    left_fn = compile_plan(op.left)
    right_fn = compile_plan(op.right)
    keep_common = op.op == "intersect"
    operator = op.op

    def run(frame: Frame) -> list:
        left = require_gnodes(left_fn(frame), operator)
        right_ids = {id(node)
                     for node in require_gnodes(right_fn(frame), operator)}
        if keep_common:
            kept = [node for node in left if id(node) in right_ids]
        else:
            kept = [node for node in left if id(node) not in right_ids]
        return frame.goddag.sort_nodes(kept)

    return run


def _compile_if(op: L.IfOp) -> Runner:
    condition_fn = _compile_ebv(op.condition)
    then_fn = compile_plan(op.then)
    else_fn = compile_plan(op.otherwise)

    def run(frame: Frame) -> list:
        return then_fn(frame) if condition_fn(frame) else else_fn(frame)

    return run


def _compile_quant(op: L.QuantOp) -> Runner:
    bindings = [(name, compile_plan(p)) for name, p in op.bindings]
    condition_fn = _compile_ebv(op.condition)
    is_some = op.quantifier == "some"
    count = len(bindings)

    def run(frame: Frame) -> list:
        variables = frame.variables

        def recurse(index: int) -> bool:
            if index == count:
                return condition_fn(frame)
            name, sequence_fn = bindings[index]
            old = variables.get(name, _MISSING)
            try:
                for item in sequence_fn(frame):
                    variables[name] = [item]
                    satisfied = recurse(index + 1)
                    if satisfied and is_some:
                        return True
                    if not satisfied and not is_some:
                        return False
            finally:
                if old is _MISSING:
                    variables.pop(name, None)
                else:
                    variables[name] = old
            return not is_some

        return [recurse(0)]

    return run


def _compile_func(op: L.FuncOp) -> Runner:
    arg_fns = [compile_plan(a) for a in op.args]
    name = op.name

    def run(frame: Frame) -> list:
        function = frame.functions.get(name)
        if function is None:
            raise QueryEvaluationError(f"unknown function {name}()")
        return function(frame, [fn(frame) for fn in arg_fns])

    return run


def _compile_collection(op: L.CollectionOp) -> Runner:
    name = op.name

    def run(frame: Frame) -> list:
        resolver = frame.functions.get("collection")
        if resolver is None:
            raise QueryEvaluationError(
                f"collection({name!r}): no corpus executor bound — "
                "collection() is only available through a DocumentStore "
                "corpus query")
        return resolver(frame, [[name]])

    return run


def _compile_construct(op: L.ConstructOp) -> Runner:
    attributes = [
        (attr_name, [part if isinstance(part, str) else compile_plan(part)
                     for part in parts])
        for attr_name, parts in op.attributes]
    content = [piece if isinstance(piece, str) else compile_plan(piece)
               for piece in op.content]
    name = op.name

    def run(frame: Frame) -> list:
        element = dom.Element(name)
        for attr_name, parts in attributes:
            rendered: list[str] = []
            for part in parts:
                if isinstance(part, str):
                    rendered.append(part)
                else:
                    items = part(frame)
                    rendered.append(" ".join(
                        values.string_value(values.atomize(item))
                        for item in items))
            element.set(attr_name, "".join(rendered))
        for piece in content:
            if isinstance(piece, str):
                element.append(dom.Text(piece))
            else:
                append_content(element, piece(frame))
        return [element]

    return run


def _compile_update(op: L.UpdatePrimOp) -> Runner:
    """Update primitives: evaluate targets/sources against the pre-state
    and emit :mod:`repro.core.update.pul` records as the result items.

    Snapshot semantics fall out of the architecture: nothing mutates
    during evaluation, so every child plan sees the untouched document.
    """
    from repro.core.update import pul

    arg_fns = {name: compile_plan(plan) for name, plan in op.args}
    kind = op.kind
    payload = op.payload

    def target_elements(frame: Frame) -> list[GElement]:
        out: list[GElement] = []
        for item in arg_fns["target"](frame):
            if not isinstance(item, GElement):
                shown = getattr(item, "kind", type(item).__name__)
                raise QueryEvaluationError(
                    f"{kind} target must be element nodes; got {shown}")
            if frame.goddag.is_temporary(item.hierarchy):
                raise QueryEvaluationError(
                    f"{kind} cannot target a node of the temporary "
                    f"hierarchy '{item.hierarchy}'")
            out.append(item)
        return out

    def joined_string(frame: Frame, name: str) -> str:
        return " ".join(values.string_value(values.atomize(item))
                        for item in arg_fns[name](frame))

    if kind == "rename":
        def run(frame: Frame) -> list:
            name = pul.require_xml_name(joined_string(frame, "name"),
                                        "rename target name")
            return [pul.RenamePrim(node, name)
                    for node in target_elements(frame)]
        return run

    if kind == "replace-value":
        def run(frame: Frame) -> list:
            value = joined_string(frame, "value")
            return [pul.ReplaceValuePrim(node, value)
                    for node in target_elements(frame)]
        return run

    if kind == "delete":
        def run(frame: Frame) -> list:
            return [pul.DeletePrim(node)
                    for node in target_elements(frame)]
        return run

    if kind == "remove-markup":
        def run(frame: Frame) -> list:
            return [pul.RemoveMarkupPrim(node)
                    for node in target_elements(frame)]
        return run

    if kind == "insert":
        location = payload["location"]
        if location == "into":
            location = "into-last"

        def run(frame: Frame) -> list:
            targets = target_elements(frame)
            if len(targets) != 1:
                # Mirrors XQuery Update's err:XUDY0027: a vanished or
                # multi-node insert anchor must not silently no-op.
                raise QueryEvaluationError(
                    f"insert target must be exactly one element; got "
                    f"{len(targets)}")
            fragment: list = []
            for item in arg_fns["source"](frame):
                if isinstance(item, GNode):
                    fragment.append(copy_gnode(item))
                elif isinstance(item, dom.Node):
                    fragment.append(copy_dom(item))
                else:
                    fragment.append(dom.Text(
                        values.string_value(values.atomize(item))))
            if not fragment:
                return []
            text = "".join(node.text_content() for node in fragment)
            return [pul.InsertPrim(targets[0], location, fragment, text)]
        return run

    if kind == "add-markup":
        element_name = payload["name"]
        hierarchy = payload["hierarchy"]

        def run(frame: Frame) -> list:
            goddag = frame.goddag
            if not goddag.has_hierarchy(hierarchy) \
                    or goddag.is_temporary(hierarchy):
                raise QueryEvaluationError(
                    f"add markup: no persistent hierarchy named "
                    f"'{hierarchy}'")
            pul.require_xml_name(element_name, "add markup element name")
            spans: list[tuple[int, int]] = []
            for item in arg_fns["target"](frame):
                if not isinstance(item, GNode):
                    raise QueryEvaluationError(
                        "add markup target must be nodes; got "
                        f"{type(item).__name__}")
                if (item.hierarchy is not None
                        and goddag.is_temporary(item.hierarchy)):
                    raise QueryEvaluationError(
                        "add markup cannot cover temporary-hierarchy "
                        "nodes")
                spans.append((item.start, item.end))
            if not spans:
                return []
            start = min(span[0] for span in spans)
            end = max(span[1] for span in spans)
            return [pul.AddMarkupPrim(hierarchy, element_name, start, end)]
        return run

    raise TypeError(  # pragma: no cover - planner kinds are exhaustive
        f"no physical compiler for update kind {kind!r}")


# ---------------------------------------------------------------------------
# predicates, filters
# ---------------------------------------------------------------------------


def _compile_predicate(op: L.PredicateOp, nodes: bool = False):
    """A candidate-list filter ``fn(frame, candidates) -> candidates``;
    ``nodes``: the candidates are a step's output, so KyGODDAG nodes."""
    if op.positional_literal is not None:
        position = op.positional_literal

        def run_pick(frame: Frame, candidates: list) -> list:
            if 1 <= position <= len(candidates):
                return [candidates[position - 1]]
            return []

        return run_pick
    if op.boolean_only:
        bool_fn = _compile_ebv(op.plan)

        def run_boolean(frame: Frame, candidates: list) -> list:
            if not candidates:
                return candidates
            old_item = frame.item
            old_position = frame.position
            old_size = frame.size
            size = len(candidates)
            kept: list = []
            try:
                position = 0
                for item in candidates:
                    position += 1
                    frame.item = item
                    frame.position = position
                    frame.size = size
                    if bool_fn(frame):
                        kept.append(item)
            finally:
                frame.item = old_item
                frame.position = old_position
                frame.size = old_size
            return kept

        if op.mask is not None:
            return masks.compile_filter(op, run_boolean, nodes=nodes)
        return run_boolean
    plan_fn = compile_plan(op.plan)

    def run(frame: Frame, candidates: list) -> list:
        if not candidates:
            return candidates
        old_item = frame.item
        old_position = frame.position
        old_size = frame.size
        size = len(candidates)
        kept: list = []
        try:
            position = 0
            for item in candidates:
                position += 1
                frame.item = item
                frame.position = position
                frame.size = size
                if predicate_holds(plan_fn(frame), position):
                    kept.append(item)
        finally:
            frame.item = old_item
            frame.position = old_position
            frame.size = old_size
        return kept

    return run


def _compile_filter(op: L.FilterOp) -> Runner:
    predicate_fns = [_compile_predicate(p) for p in op.predicates]
    input_fn = _compile_picked_path(op)
    if input_fn is None:
        input_fn = compile_plan(op.input)
    else:
        predicate_fns = predicate_fns[1:]  # the path made the pick

    def run(frame: Frame) -> list:
        current = input_fn(frame)
        for predicate in predicate_fns:
            current = predicate(frame, current)
        return current

    return run


def _picks_rows(op: L.Plan) -> bool:
    """Is ``op`` a step whose candidates from the root or a hierarchy
    node are exact per-name index slices (``axes.axis_candidates``), so
    a constant position over them is a pick among the slice's rows
    (``axes.picked_candidate``)?"""
    return (type(op) is L.StepOp
            and op.axis in ("descendant", "following", "preceding")
            and isinstance(op.test, ast.NameTest)
            and op.name_hint == op.test.name
            and op.skip_leaves and not op.leaves_only)


def _compile_picked_path(op: L.FilterOp) -> Runner | None:
    """``(path)[k]`` where the path's last step :func:`_picks_rows` and
    has no predicate of its own: a runner for the path and the ``[k]``,
    whose last step applies the pick itself (:func:`_compile_step`'s
    ``pick``), so that from one context node it fills the picked row
    alone (DESIGN.md §9, the update target).  ``None`` for any other
    filter."""
    path = op.input
    if not (op.predicates and op.predicates[0].positional_literal is not None
            and isinstance(path, L.PathOp) and path.steps):
        return None
    step = path.steps[-1]
    if step.predicates or not step.ordered or not _picks_rows(step):
        return None
    head_fn = compile_plan(L.PathOp(path.anchor, path.input, path.steps[:-1],
                                    path.ordered_result))
    step_fn = _compile_step(step, pick=op.predicates[0])

    def run(frame: Frame) -> list:
        return step_fn(frame, head_fn(frame))

    return run


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def _compile_set_filters(predicates: list[L.PredicateOp]):
    """``[fn(frame, candidates) -> candidates]`` when every predicate
    carries a mask term and so filters a whole candidate set at once,
    else ``None``.  All of them are boolean and position-free, so their
    verdicts cannot depend on how the candidates are grouped per input
    node.
    """
    if not all(p.mask is not None for p in predicates):
        return None
    return [_compile_predicate(p, nodes=True) for p in predicates]


def _compile_join(op: L.IntervalJoinOp):
    """``fn(frame, inputs) -> outputs`` for one interval-join step.

    The whole step is one set-at-a-time sorted-array join
    (:func:`repro.core.goddag.joins.join_axis_batch`): candidates are
    gathered as positions into the span-index columns and merged into
    global document order by one ``np.unique`` over packed order keys.
    Mask predicates filter the joined set with batched existence
    probes (:func:`_compile_set_filters`); any other
    predicate shape falls back to the per-node step machinery
    (:func:`_compile_step`), which is also the oracle path.
    """
    set_filters = _compile_set_filters(op.predicates)
    if set_filters is None:
        return _compile_step(op)
    axis = op.axis
    test_factory = _make_test_factory(op.test, axis)
    skip_leaves = op.skip_leaves
    leaves_only = op.leaves_only
    hint = op.name_hint

    def run(frame: Frame, inputs: list) -> list:
        if not inputs:
            return []
        for item in inputs:
            if not isinstance(item, GNode):
                require_navigable(item)
        goddag = frame.goddag
        stats = frame.stats
        stats.axis_steps += 1
        stats.batched_steps += 1
        stats.join_steps += 1
        # the node test is built per execution: caching it across runs
        # would pin the last-seen goddag inside a long-lived compiled
        # plan, keeping retired MVCC versions resident
        # batched_extended_steps is bumped inside join_axis_batch,
        # only when a kernel actually runs (single-context steps
        # delegate to the per-node walk and must not count).
        out = join_axis_batch(goddag, axis, inputs, hint,
                              skip_leaves=skip_leaves,
                              leaves_only=leaves_only,
                              test=test_factory(goddag), stats=stats)
        for set_filter in set_filters:
            out = set_filter(frame, out)
        return out

    return run


def _make_test_factory(test: ast.NodeTest, axis: str):
    """``factory(goddag) -> (fn(node) -> bool) | None`` (None = match all)."""
    principal_attribute = axis == "attribute"
    if isinstance(test, ast.NameTest):
        name = test.name
        if principal_attribute:
            def match(node):
                return isinstance(node, GAttr) and node.name == name
        else:
            def match(node):
                return (isinstance(node, (GElement, GRoot))
                        and node.name == name)
        return lambda goddag: match
    if isinstance(test, ast.WildcardTest):
        hierarchies = test.hierarchies
        if principal_attribute:
            return lambda goddag: lambda node: isinstance(node, GAttr)
        if not hierarchies:
            return lambda goddag: (
                lambda node: isinstance(node, (GElement, GRoot)))

        def factory(goddag):
            def match(node):
                return (isinstance(node, (GElement, GRoot))
                        and node_in_hierarchies(node, hierarchies, goddag))
            return match
        return factory
    kind = test.kind
    hierarchies = test.hierarchies
    if kind == "node":
        if not hierarchies:
            return lambda goddag: None

        def factory(goddag):
            return lambda node: node_in_hierarchies(node, hierarchies, goddag)
        return factory
    if kind == "text":
        if not hierarchies:
            return lambda goddag: lambda node: isinstance(node, GText)

        def factory(goddag):
            def match(node):
                return (isinstance(node, GText)
                        and node_in_hierarchies(node, hierarchies, goddag))
            return match
        return factory
    if kind == "leaf":
        return lambda goddag: lambda node: isinstance(node, GLeaf)
    if kind == "comment":
        return lambda goddag: lambda node: isinstance(node, GComment)
    if kind == "processing-instruction":
        target = test.target

        def match(node):
            if not isinstance(node, GPi):
                return False
            return target is None or node.target == target
        return lambda goddag: match
    raise QueryEvaluationError(f"unknown node test kind {kind!r}")


def _compile_step(op: L.StepOp, pick: L.PredicateOp | None = None):
    """``fn(frame, inputs) -> outputs`` for one set-at-a-time axis step.

    Output is always document-ordered and duplicate-free unless
    ``op.ordered`` is off, where no consumer can observe the order and
    sorts are skipped.  Predicates see each input node's candidates in
    document order, reversed on reverse axes.

    ``pick`` is a filter's constant ``[k]`` over the output of an
    ordered step with no predicates (:func:`_compile_picked_path`): the
    runner returns only the picked node, read off the rows from one
    context node where ``axes.picked_candidate`` can, and records the
    step's own cardinality as its actual when the step carries an
    operator id.
    """
    axis = op.axis
    reverse = axis in REVERSE_AXES
    #: all predicates carry mask terms: filter the step's batched union
    #: with vectorized probes instead of looping candidates per input
    #: node (DESIGN.md §11)
    set_filters = (_compile_set_filters(op.predicates)
                   if op.predicates else None)
    predicate_fns = ([_compile_predicate(p, nodes=True)
                      for p in op.predicates]
                     if set_filters is None else set_filters)
    test_factory = _make_test_factory(op.test, axis)
    skip_leaves = op.skip_leaves
    leaves_only = op.leaves_only
    hint = op.name_hint
    emit_any = not op.ordered
    # a constant position first over an exact name slice: pick the row
    position = op.predicates[0].positional_literal \
        if op.predicates and _picks_rows(op) else None
    pick_fn = None if pick is None else _compile_predicate(pick)

    def picked_output(frame: Frame, inputs: list, test) -> list:
        """``pick`` over the step's output (its bookkeeping done)."""
        found = None
        if len(inputs) == 1:
            found = picked_candidate(frame.goddag, axis, inputs[0], hint,
                                     pick.positional_literal)
        if found is None:
            out = evaluate_axis_batch(
                frame.goddag, axis, inputs, hint, skip_leaves=skip_leaves,
                leaves_only=leaves_only, test=test)
            found = pick_fn(frame, out), len(out)
        if op.op_id >= 0:
            _add_actual(frame.stats, op.op_id, found[1])
        return found[0]

    def filtered(frame: Frame, node: GNode, test) -> list:
        """The candidates of ``node`` that pass every predicate, in the
        order the predicates see them."""
        goddag = frame.goddag
        ordered = emits_document_order(axis, node)
        if ordered:
            frame.stats.ordered_steps += 1
        picked = None if position is None else picked_candidate(
            goddag, axis, node, hint, position, reverse)
        if picked is not None:
            found, predicates = picked[0], predicate_fns[1:]
        else:
            found = tested_candidates(goddag, axis, node, hint,
                                      skip_leaves, leaves_only, test)
            predicates = predicate_fns
            if not ordered:
                found = goddag.sort_nodes(found)
                if reverse:
                    found.reverse()
        for predicate in predicates:
            found = predicate(frame, found)
        return found

    def run(frame: Frame, inputs: list) -> list:
        if not inputs:
            if pick is not None and op.op_id >= 0:
                _add_actual(frame.stats, op.op_id, 0)
            return []
        for item in inputs:
            if not isinstance(item, GNode):
                require_navigable(item)
        goddag = frame.goddag
        stats = frame.stats
        stats.axis_steps += 1
        stats.batched_steps += 1
        # built per execution — caching across runs would pin retired
        # MVCC goddag versions inside the shared plan cache
        test = test_factory(goddag)
        if not predicate_fns:
            if emit_any:
                if len(inputs) == 1:
                    node = inputs[0]
                    found = tested_candidates(goddag, axis, node, hint,
                                              skip_leaves, leaves_only, test)
                    stats.ordered_steps += 1
                    if emits_document_order(axis, node):
                        return found  # ordered emissions are dup-free
                    # e.g. a leaf's sibling groups repeat the same
                    # leaves once per hierarchy: dedup is mandatory
                    # even though the order is free.
                    seen: set[int] = set()
                    out: list = []
                    for candidate in found:
                        key = id(candidate)
                        if key not in seen:
                            seen.add(key)
                            out.append(candidate)
                    return out
                seen: set[int] = set()
                out: list = []
                for node in inputs:
                    for candidate in tested_candidates(
                            goddag, axis, node, hint, skip_leaves,
                            leaves_only, test):
                        key = id(candidate)
                        if key not in seen:
                            seen.add(key)
                            out.append(candidate)
                stats.ordered_steps += 1
                return out
            if len(inputs) == 1 and emits_document_order(axis, inputs[0]):
                stats.ordered_steps += 1
            if pick is not None:
                return picked_output(frame, inputs, test)
            return evaluate_axis_batch(
                goddag, axis, inputs, hint, skip_leaves=skip_leaves,
                leaves_only=leaves_only, test=test)
        if set_filters is not None:
            # Boolean, position-free existence predicates filter the
            # same set regardless of per-input grouping: take the
            # batched union once, then one vectorized probe per
            # predicate over the whole candidate set.
            found = evaluate_axis_batch(
                goddag, axis, inputs, hint, skip_leaves=skip_leaves,
                leaves_only=leaves_only, test=test)
            if len(inputs) == 1 and emits_document_order(axis, inputs[0]):
                stats.ordered_steps += 1
            for set_filter in set_filters:
                found = set_filter(frame, found)
            return found
        # Predicated: candidates per input in predicate order (reverse
        # axes count positions away from the context node),
        # then one merge across inputs.
        if len(inputs) == 1:
            found = filtered(frame, inputs[0], test)
            if reverse:
                found.reverse()  # outputs are always document-ordered
            return found
        out = []
        seen = set()
        for node in inputs:
            for candidate in filtered(frame, node, test):
                key = id(candidate)
                if key not in seen:
                    seen.add(key)
                    out.append(candidate)
        if emit_any:
            return out
        return goddag.sort_nodes(out)

    return run


# ---------------------------------------------------------------------------
# effective-boolean-value compilation (existence mode)
# ---------------------------------------------------------------------------
#
# Predicates, conditions and and/or operands only consume a plan's
# effective boolean value.  ``_compile_ebv`` produces ``fn(frame) ->
# bool`` closures that skip sequence materialization where possible:
# a single-axis-step relative path becomes an *existence probe* — for
# named ancestor/xancestor tests one bisect into the span index's
# per-name containment arrays instead of a chain walk per call.


def _compile_ebv(plan: L.Plan):
    if isinstance(plan, L.LiftedCondOp):
        return lift.compile_condition(plan, _compile_ebv(plan.plan))
    if isinstance(plan, L.BoolOp):
        operands = [_compile_ebv(o) for o in plan.operands]
        if plan.kind == "or":
            def run_or(frame: Frame) -> bool:
                for operand in operands:
                    if operand(frame):
                        return True
                return False
            return run_or

        def run_and(frame: Frame) -> bool:
            for operand in operands:
                if not operand(frame):
                    return False
            return True
        return run_and
    if (isinstance(plan, L.PathOp) and plan.input is None
            and plan.anchor == "relative" and len(plan.steps) == 1
            and isinstance(plan.steps[0], L.StepOp)):
        step = plan.steps[0]
        if not step.predicates:
            return _compile_step_exists(step)
        # a decorrelated predicate filters the materialized step (the
        # probe below would run it per candidate); a bare one need not
        if all(p.boolean_only and p.position_free
               and (p.mask is None or masks.probe(p.mask))
               for p in step.predicates):
            return _compile_step_exists_predicated(step)
    fn = compile_plan(plan)
    ebv = values.effective_boolean_value
    return lambda frame: ebv(fn(frame))


def _compile_step_exists(op: L.StepOp):
    """``fn(frame) -> bool``: does one axis step from the context item
    yield any test-passing candidate?"""
    axis = op.axis
    named = (isinstance(op.test, ast.NameTest) and axis != "attribute")
    name = op.test.name if named else None
    if named and axis == "ancestor":
        def exists_ancestor(frame: Frame) -> bool:
            node = frame.context_item()
            if not isinstance(node, GNode):
                require_navigable(node)
            frame.stats.axis_steps += 1
            frame.stats.ordered_steps += 1
            goddag = frame.goddag
            if isinstance(node, GLeaf):
                # Containment == ancestry for a leaf: each hierarchy's
                # covering chain is exactly its span containers.
                if goddag.span_index().has_containing_named(
                        name, node.start, node.end):
                    return True
                root = goddag.root
                return bool(root.name == name and goddag.hierarchy_names)
            found, _exact = axis_candidates(goddag, axis, node, name, True)
            return any(isinstance(c, (GElement, GRoot)) and c.name == name
                       for c in found)
        return exists_ancestor
    if named and axis in ("xancestor", "xdescendant", "xfollowing",
                          "xpreceding", "overlapping",
                          "preceding-overlapping",
                          "following-overlapping"):
        # axis_exists_named covers every extended axis in this branch,
        # so there is no per-candidate fallback to mask a gap.
        def exists_masked(frame: Frame) -> bool:
            node = frame.context_item()
            if not isinstance(node, GNode):
                require_navigable(node)
            frame.stats.axis_steps += 1
            frame.stats.ordered_steps += 1
            return bool(axis_exists_named(frame.goddag, axis, node, name))
        return exists_masked
    # Generic probe: materialize the (pushdown-trimmed) candidates and
    # stop at the first test hit — no sort, no dedup, no predicate pass.
    test_factory = _make_test_factory(op.test, axis)
    skip_leaves = op.skip_leaves
    leaves_only = op.leaves_only
    hint = op.name_hint

    def exists_generic(frame: Frame) -> bool:
        node = frame.context_item()
        if not isinstance(node, GNode):
            require_navigable(node)
        frame.stats.axis_steps += 1
        frame.stats.ordered_steps += 1
        goddag = frame.goddag
        found = leaf_candidates(goddag, axis, node) if leaves_only else None
        if found is None:
            found, _exact = axis_candidates(goddag, axis, node, hint,
                                            skip_leaves)
        # no cross-call test cache: it would pin retired MVCC versions
        test = test_factory(goddag)
        if test is None:
            return bool(found)
        return any(test(c) for c in found)

    return exists_generic


def _compile_step_exists_predicated(op: L.StepOp):
    """Existence probe for one step whose predicates are all boolean and
    position-free: probe candidates in emission order, stop at the
    first one that passes the test and every predicate (their verdicts
    cannot depend on candidate order or focus position)."""
    axis = op.axis
    predicate_fns = [_compile_ebv(p.plan) for p in op.predicates]
    test_factory = _make_test_factory(op.test, axis)
    skip_leaves = op.skip_leaves
    leaves_only = op.leaves_only
    hint = op.name_hint

    def exists_predicated(frame: Frame) -> bool:
        node = frame.context_item()
        if not isinstance(node, GNode):
            require_navigable(node)
        frame.stats.axis_steps += 1
        frame.stats.ordered_steps += 1
        goddag = frame.goddag
        found = leaf_candidates(goddag, axis, node) if leaves_only else None
        if found is None:
            found, _exact = axis_candidates(goddag, axis, node, hint,
                                            skip_leaves)
        # no cross-call test cache: it would pin retired MVCC versions
        test = test_factory(goddag)
        old_item = frame.item
        old_position = frame.position
        old_size = frame.size
        size = len(found)
        try:
            position = 0
            for candidate in found:
                position += 1
                if test is not None and not test(candidate):
                    continue
                frame.item = candidate
                frame.position = position
                frame.size = size
                if all(predicate(frame) for predicate in predicate_fns):
                    return True
        finally:
            frame.item = old_item
            frame.position = old_position
            frame.size = old_size
        return False

    return exists_predicated


def _compile_expr_step(op: L.ExprStepOp):
    plan_fn = compile_plan(op.plan)

    def run(frame: Frame, inputs: list) -> list:
        out: list = []
        size = len(inputs)
        old_item = frame.item
        old_position = frame.position
        old_size = frame.size
        try:
            position = 0
            for item in inputs:
                position += 1
                if not isinstance(item, GNode):
                    raise QueryEvaluationError(
                        "path steps navigate KyGODDAG nodes; got "
                        f"{type(item).__name__}")
                frame.item = item
                frame.position = position
                frame.size = size
                out.extend(plan_fn(frame))
        finally:
            frame.item = old_item
            frame.position = old_position
            frame.size = old_size
        node_flags = [isinstance(value, GNode) for value in out]
        if all(node_flags):
            return frame.goddag.sort_nodes(out)
        if any(node_flags):
            raise QueryEvaluationError(
                "a path step may not mix nodes and atomic values")
        return out

    return run


def _record_actuals(step_fn, op_id: int):
    """Wrap one step closure to record its actual output cardinality
    under the cost pass's operator id (summed across executions —
    nested relative paths run per candidate).  Mechanical plans carry
    ``op_id == -1`` and are never wrapped: zero overhead."""
    def run(frame: Frame, inputs: list) -> list:
        out = step_fn(frame, inputs)
        _add_actual(frame.stats, op_id, len(out))
        return out
    return run


def _add_actual(stats, op_id: int, count: int) -> None:
    """Add ``count`` rows to operator ``op_id``'s actual cardinality."""
    stats.op_actuals[op_id] = stats.op_actuals.get(op_id, 0) + count


def _compile_any_step(step: L.Plan):
    if isinstance(step, L.IntervalJoinOp):
        return _compile_join(step)
    if isinstance(step, L.StepOp):
        return _compile_step(step)
    return _compile_expr_step(step)


def _compile_path(op: L.PathOp) -> Runner:
    step_fns = []
    for step in op.steps:
        step_fn = _compile_any_step(step)
        if isinstance(step, L.StepOp) and step.op_id >= 0:
            step_fn = _record_actuals(step_fn, step.op_id)
        step_fns.append(step_fn)
    anchor = op.anchor
    input_fn = compile_plan(op.input) if op.input is not None else None

    def run(frame: Frame) -> list:
        if anchor == "root":
            current: list = [frame.goddag.root]
        elif input_fn is not None:
            current = input_fn(frame)
        else:
            current = [frame.context_item()]
        for step_fn in step_fns:
            current = step_fn(frame, current)
        return current

    return run


# ---------------------------------------------------------------------------
# FLWOR
# ---------------------------------------------------------------------------


def _compile_flwor(op: L.FLWOROp) -> Runner:
    """Continuation-compiled tuple stream over the mutable frame.

    Invariant ``let``/``where`` clauses evaluate on the first tuple of
    each FLWOR execution and reuse the value — lazy loop-invariant
    hoisting that keeps error timing and the empty-stream case exactly
    as evaluating the clause once per tuple would.  An ``order by``,
    which can only be the last clause, is the stream's last stage: the
    chain hands it one snapshot of the bindings per tuple, it sorts the
    snapshots (stable, last key first) and runs the return once per
    snapshot.
    """
    return_fn = compile_plan(op.return_plan)
    order = op.order_by
    cells: list[list] = []

    if order is None:
        def tail(frame: Frame, out: list) -> None:
            out.extend(return_fn(frame))
    else:
        def tail(frame: Frame, out: list) -> None:
            out.append(dict(frame.variables))

    step = tail
    for clause in reversed(op.clauses):
        if clause is not order:
            step = _make_clause(clause, step, cells)

    def run(frame: Frame) -> list:
        out: list = []
        for cell in cells:
            cell[0] = _MISSING
        step(frame, out)
        return out

    if order is None:
        return run
    specs = [(compile_plan(key), descending, empty_least)
             for key, descending, empty_least in order.specs]

    def run_ordered(frame: Frame) -> list:
        tuples = run(frame)
        saved = frame.variables
        try:
            for key_fn, descending, empty_least in reversed(specs):
                keyed = []
                for bindings in tuples:
                    frame.variables = bindings
                    keyed.append((order_key_value(key_fn(frame),
                                                  empty_least), bindings))
                keyed.sort(key=lambda pair: pair[0], reverse=descending)
                tuples = [bindings for _key, bindings in keyed]
            out: list = []
            for bindings in tuples:
                frame.variables = bindings
                out.extend(return_fn(frame))
            return out
        finally:
            frame.variables = saved

    return run_ordered


def _make_clause(clause: L.Plan, nxt, cells: list):
    if isinstance(clause, L.ForOp):
        sequence_fn = compile_plan(clause.sequence)
        if clause.lift is not None:
            sequence_fn = lift.compile_sequence(
                clause, sequence_fn,
                _compile_any_step(clause.sequence.steps[0]))
        feeds = tuple(clause.feeds)
        if feeds:
            sequence_fn = lift.publish_bindings(sequence_fn, feeds)
        variable = clause.variable
        position_variable = clause.position_variable

        def run_for(frame: Frame, out: list) -> None:
            variables = frame.variables
            sequence = sequence_fn(frame)
            old = variables.get(variable, _MISSING)
            old_position = (variables.get(position_variable, _MISSING)
                            if position_variable else None)
            try:
                if position_variable:
                    position = 0
                    for item in sequence:
                        position += 1
                        variables[variable] = [item]
                        variables[position_variable] = [position]
                        nxt(frame, out)
                else:
                    for item in sequence:
                        variables[variable] = [item]
                        nxt(frame, out)
            finally:
                if old is _MISSING:
                    variables.pop(variable, None)
                else:
                    variables[variable] = old
                if position_variable:
                    if old_position is _MISSING:
                        variables.pop(position_variable, None)
                    else:
                        variables[position_variable] = old_position
                if feeds:
                    lift.release_bindings(frame, feeds)

        return run_for
    if isinstance(clause, L.LetOp):
        value_fn = compile_plan(clause.plan)
        variable = clause.variable
        if clause.invariant:
            cell: list = [_MISSING]
            cells.append(cell)

            def run_let(frame: Frame, out: list) -> None:
                value = cell[0]
                if value is _MISSING:
                    value = cell[0] = value_fn(frame)
                variables = frame.variables
                old = variables.get(variable, _MISSING)
                variables[variable] = value
                try:
                    nxt(frame, out)
                finally:
                    if old is _MISSING:
                        variables.pop(variable, None)
                    else:
                        variables[variable] = old

            return run_let

        def run_let(frame: Frame, out: list) -> None:
            value = value_fn(frame)
            variables = frame.variables
            old = variables.get(variable, _MISSING)
            variables[variable] = value
            try:
                nxt(frame, out)
            finally:
                if old is _MISSING:
                    variables.pop(variable, None)
                else:
                    variables[variable] = old

        return run_let
    if isinstance(clause, L.WhereOp):
        condition_fn = _compile_ebv(clause.plan)
        if clause.invariant:
            cell = [_MISSING]
            cells.append(cell)

            def run_where(frame: Frame, out: list) -> None:
                verdict = cell[0]
                if verdict is _MISSING:
                    verdict = cell[0] = condition_fn(frame)
                if verdict:
                    nxt(frame, out)

            return run_where

        def run_where(frame: Frame, out: list) -> None:
            if condition_fn(frame):
                nxt(frame, out)

        return run_where
    raise TypeError(  # pragma: no cover - planner guarantees clause types
        f"unknown FLWOR clause {type(clause).__name__}")



_COMPILERS = {
    L.ConstOp: _compile_const,
    L.VarOp: _compile_var,
    L.ContextOp: _compile_context,
    L.SeqOp: _compile_seq,
    L.RangeOp: _compile_range,
    L.BoolOp: _compile_bool,
    L.CompareOp: _compile_compare,
    L.ArithOp: _compile_arith,
    L.NegOp: _compile_neg,
    L.UnionOp: _compile_union,
    L.IntersectOp: _compile_intersect,
    L.IfOp: _compile_if,
    L.QuantOp: _compile_quant,
    L.FuncOp: _compile_func,
    L.CollectionOp: _compile_collection,
    L.ConstructOp: _compile_construct,
    L.UpdatePrimOp: _compile_update,
    L.FilterOp: _compile_filter,
    L.PathOp: _compile_path,
    L.FLWOROp: _compile_flwor,
}
