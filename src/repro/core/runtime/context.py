"""Static and dynamic evaluation context.

:class:`QueryOptions` collects the documented compatibility knobs;
:class:`EvalContext` carries the focus (context item, position, size),
variable bindings, and the per-query temporary-hierarchy manager that
implements Definition 4(5) (temporary hierarchies die with the query).
Contexts are immutable-ish: focus/variable changes produce shallow
copies so sibling iterations cannot interfere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import QueryEvaluationError
from repro.core.goddag.goddag import KyGoddag
from repro.core.goddag.temp import TemporaryHierarchyManager


@dataclass
class QueryStats:
    """Per-call evaluation counters (DESIGN.md §5, §8).

    One instance lives for exactly one query evaluation; the engine
    attaches it to the :class:`~repro.api.QueryResult`.  The mutable
    module global ``evaluator.LAST_QUERY_STATS`` survives only as a
    deprecated alias mirroring the most recent call.

    Attributes
    ----------
    axis_steps:
        Axis location steps evaluated (one per context item in the
        tree-walking evaluator, one per *batch* in the pipeline).
    ordered_steps:
        Of those, steps served straight from an already-document-ordered
        axis slice — no sort needed.
    batched_steps:
        Pipeline only: steps evaluated set-at-a-time over a whole
        context sequence in one batched axis call.
    join_steps:
        Pipeline only: vectorized interval-join executions — one per
        extended-axis step run through the join engine plus one per
        batched existence probe: a semi-join predicate, or one
        ``axis::name`` term of a decorrelated mask predicate, which
        also counts as one batched axis step (DESIGN.md §11, §16).
    batched_extended_steps:
        Pipeline only: extended-axis steps actually served by the
        set-at-a-time join kernels instead of per-node span arithmetic
        (a subset of ``join_steps``; single-context steps delegated to
        the per-node walk count in ``join_steps`` only).  A predicated
        step whose predicates are neither semi-joins nor mask plans —
        positional, variable-dependent, or outside the decorrelated
        grammar — runs the per-node machinery and counts in neither;
        there every probed candidate is one ``axis_steps``.
    plan_cache_hit:
        Pipeline only: the compiled plan came from the engine's LRU
        cache instead of a fresh parse/rewrite/plan run.
    op_actuals:
        Costed plans only (DESIGN.md §16): actual output cardinality
        per annotated operator, keyed by ``StepOp.op_id`` (summed when
        a nested plan runs the step more than once).  Feed it to
        ``CompiledQuery.explain(actuals=…)`` for ``est=…/act=…`` lines.
    cost_fallbacks:
        Times the adaptive executor abandoned a cost-chosen probe
        order mid-plan because an estimate missed by more than
        ``QueryOptions.cost_fallback_factor``.
    est_rows / act_rows:
        The costed plan's bottom-line estimated cardinality and the
        matching recorded actual (``None`` on mechanical plans) —
        surfaced per-request by the server's access log and /statz.
    """

    axis_steps: int = 0
    ordered_steps: int = 0
    batched_steps: int = 0
    join_steps: int = 0
    batched_extended_steps: int = 0
    plan_cache_hit: bool = False
    op_actuals: dict[int, int] = field(default_factory=dict)
    cost_fallbacks: int = 0
    est_rows: float | None = None
    act_rows: int | None = None

    # -- dict-style compatibility (the legacy stats were a plain dict) --

    def as_dict(self) -> dict[str, int]:
        return {
            "axis_steps": self.axis_steps,
            "ordered_steps": self.ordered_steps,
            "batched_steps": self.batched_steps,
            "join_steps": self.join_steps,
            "batched_extended_steps": self.batched_extended_steps,
        }

    def __getitem__(self, key: str) -> int:
        return self.as_dict()[key]

    def keys(self):
        return self.as_dict().keys()


@dataclass(frozen=True)
class QueryOptions:
    """Documented behavior knobs (DESIGN.md §3).

    Attributes
    ----------
    analyze_strip_dotstar:
        Strip redundant leading/trailing ``.*``/``.*?`` from
        ``analyze-string`` patterns (paper-compat; Example 1 passes
        ``.*un<a>a</a>we.*`` but expects ``<m>`` around ``unawe`` only).
    analyze_wrapper / analyze_match:
        Element names for the temporary hierarchy wrapper and match
        tags (``res``/``m`` per Definition 4).
    analyze_hierarchy_base:
        Base name for temporary hierarchies ("say, rest").
    cost_fallback_factor:
        Adaptive-execution tolerance (DESIGN.md §16): when a costed
        plan's recorded actual cardinality misses its estimate by more
        than this factor, the executor falls back to the safe source
        ordering for the rest of the plan.
    """

    analyze_strip_dotstar: bool = True
    analyze_wrapper: str = "res"
    analyze_match: str = "m"
    analyze_hierarchy_base: str = "rest"
    cost_fallback_factor: float = 8.0


class EvalContext:
    """The dynamic context of one evaluation focus."""

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
        # Shared across all focus clones of one query: the evaluator's
        # sort-avoidance instrumentation (DESIGN.md §5).
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

    def with_variables(self, bindings: dict[str, list]) -> "EvalContext":
        clone = self._clone()
        clone.variables = dict(self.variables)
        clone.variables.update(bindings)
        return clone

    def variable(self, name: str) -> list:
        if name not in self.variables:
            raise QueryEvaluationError(f"undefined variable ${name}")
        return self.variables[name]

    def context_item(self) -> Any:
        if self.item is None:
            raise QueryEvaluationError("the context item is undefined here")
        return self.item
