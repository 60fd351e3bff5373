"""The query compilation pipeline: parse → rewrite → plan → execute.

This package is the compile step between the language front end and
the array-backed navigation engine (DESIGN.md §8):

1. :mod:`~repro.core.plan.rewrite` — rule-based AST rewrites (constant
   folding, anchor normalization, step fusion) plus the static
   analyses behind the plan-level rules;
2. :mod:`~repro.core.plan.planner` — AST → logical plan, annotating
   order-insensitive steps (reverse-axis normalization) and
   loop-invariant FLWOR clauses (hoisting);
3. :mod:`~repro.core.plan.logical` — the typed operator IR and the
   ``explain()`` rendering;
4. :mod:`~repro.core.plan.physical` — closure compilation and
   set-at-a-time step execution over the batched axis entry point,
   with the batched predicates of :mod:`~repro.core.plan.masks` and
   the lifted inner ``for`` clauses of :mod:`~repro.core.plan.lift`.

:func:`compile_query` produces a :class:`CompiledQuery`; the engine
caches these in an LRU keyed by query text + options, and
:func:`repro.core.runtime.evaluate_query` is the uncached one-shot
form.  This is the only evaluator in the package: the node-at-a-time
tree-walker it is differentially tested against lives in
``tests/treewalk.py``.
"""

from __future__ import annotations

from repro.core.lang import ast
from repro.core.lang.parser import parse_query, parse_xpath
from repro.core.plan.logical import Plan, needs_shell, render_plan
from repro.core.plan.physical import compile_plan, execute_plan
from repro.core.plan.planner import build_plan
from repro.core.plan.rewrite import rewrite
from repro.core.runtime.context import QueryOptions, QueryStats

__all__ = [
    "CompiledQuery",
    "PLAN_VERSION",
    "compile_query",
    "needs_shell",
    "build_plan",
    "rewrite",
    "render_plan",
]

#: Version of the plan pipeline's lowering rules.  Compilation is a
#: pure function of (query text, grammar, *these rules*); caches that
#: may outlive one pipeline revision — the store's cross-document
#: :class:`~repro.store.plancache.SharedPlanCache` — key on it next to
#: :data:`repro.core.lang.GRAMMAR_VERSION` so a rule change orphans
#: stale plans instead of serving them.  Bumped by PR 5 (extended-axis
#: steps and cross-hierarchy predicates lower to interval joins);
#: bumped by PR 7 (``collection()`` lowers to a CollectionOp leaf);
#: bumped by PR 10 (the cost pass: statistics-driven join reversal and
#: predicate reordering — costed plans additionally key on the
#: statistics fingerprint, see ``SharedPlanCache``); bumped by PR 13
#: (costed plans decorrelate nested existence predicates into mask
#: plans); bumped by PR 16 (costed plans lift correlated inner ``for``
#: clauses, and standard-axis probes are mask terms); bumped by PR 18
#: (string tests of the context node's value are mask terms: a cached
#: plan of ``w[matches(string(.), "…")]`` would keep its per-node loop);
#: bumped by PR 30 (``[extended-axis::name]`` is a bare mask term on
#: every plan, filters included: a cached plan would keep the removed
#: semi-join tag); bumped when ``order by`` became the last stage of
#: the one FLWOR chain (an ordered FLWOR's invariant ``let``/``where``
#: are hoisted: a cached plan would run them once per tuple).
PLAN_VERSION = 9


class CompiledQuery:
    """One query compiled through the full pipeline, ready to run."""

    __slots__ = ("text", "source_ast", "rewritten_ast", "plan",
                 "rewrites", "costed", "needs_shell", "_runner")

    def __init__(self, text: str, source_ast: ast.Expr,
                 rewritten_ast: ast.Expr, plan: Plan,
                 rewrites: list[str], runner,
                 costed: bool = False) -> None:
        self.text = text
        self.source_ast = source_ast
        self.rewritten_ast = rewritten_ast
        self.plan = plan
        #: every rewrite/annotation rule application, in order
        self.rewrites = rewrites
        #: True when the statistics-driven cost pass ran (DESIGN.md §16)
        self.costed = costed
        #: True when the plan calls ``analyze-string``: each evaluation
        #: runs on a private shell of the KyGODDAG (:func:`needs_shell`)
        self.needs_shell = needs_shell(plan)
        self._runner = runner

    def execute(self, goddag, variables=None, options=None,
                functions=None, stats: QueryStats | None = None) -> list:
        """Run against a KyGODDAG (lifecycle: see ``execute_plan``)."""
        return execute_plan(self._runner, goddag, variables=variables,
                            options=options, functions=functions,
                            shell=self.needs_shell, stats=stats)

    def explain(self, actuals: dict[int, int] | None = None) -> str:
        """The human-readable pipeline report: query, rewrites, plan.

        On costed plans each step line carries its estimate; pass the
        executor's recorded ``actuals`` (``QueryStats.op_actuals``) to
        render ``[est=… act=…]`` with ``!`` flagging misestimates.
        """
        lines = [f"query: {' '.join(self.text.split())}"]
        lines.append("rewrites:")
        if self.rewrites:
            lines.extend(f"  - {note}" for note in self.rewrites)
        else:
            lines.append("  (none)")
        lines.append("plan:")
        lines.append(render_plan(self.plan, indent=1, actuals=actuals))
        return "\n".join(lines)


def compile_query(query: str | ast.Expr, *, xpath: bool = False,
                  stats=None) -> CompiledQuery:
    """Compile a query (or pre-parsed AST) through the pipeline.

    With ``stats`` (a :class:`~repro.core.goddag.stats.PlanStats`) the
    cost pass runs between planning and closure compilation: join-pair
    reversal, predicate reordering, predicate decorrelation, inner-FLWOR
    lifting, and per-step cardinality estimates (DESIGN.md §16).
    Without it the lowering is purely mechanical — the differential
    oracle the costed path is tested against.
    """
    if isinstance(query, str):
        text = query
        source = parse_xpath(text) if xpath else parse_query(text)
    else:
        source = query
        text = f"<precompiled {type(query).__name__}>"
    rewritten, notes = rewrite(source)
    plan = build_plan(rewritten, notes)
    costed = False
    if stats is not None:
        from repro.core.plan.cost import apply_cost
        costed = apply_cost(plan, stats, notes) > 0
    runner = compile_plan(plan)
    return CompiledQuery(text, source, rewritten, plan, notes, runner,
                         costed=costed)
