"""Static and dynamic evaluation context.

:class:`QueryOptions` collects the documented compatibility knobs;
:class:`QueryStats` the per-call counters; :class:`Frame` carries the
focus (context item, position, size), variable bindings, and the
per-query temporary-hierarchy manager (Definition 4: the temporaries
live on the evaluation's shell and die with it).
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

    One instance lives for exactly one query evaluation and is owned by
    its caller: the engine creates one per call and attaches it to the
    :class:`~repro.api.QueryResult`; ``evaluate_query`` and
    ``CompiledQuery.execute`` fill in the one passed as ``stats=``.
    Nothing is kept between queries or shared between threads.

    Attributes
    ----------
    axis_steps:
        Axis location steps evaluated: one per *batch* for a
        set-at-a-time step, one per probed candidate for an existence
        probe.
    ordered_steps:
        Of those, steps served straight from an already-document-ordered
        axis slice — no sort needed.
    batched_steps:
        Steps evaluated set-at-a-time over a whole context sequence in
        one batched axis call.
    join_steps:
        Vectorized interval-join executions — one per extended-axis
        step run through the join engine plus one per batched
        existence probe: one ``axis::name`` term of a mask predicate
        (the bare ``[axis::name]`` probe, or a decorrelated body) or of
        a lifted FLWOR condition, which also counts as one axis step
        and one batched step (DESIGN.md §11, §16).  A value term of a
        mask (a string test over the candidates' values) is no step and
        counts nowhere.
    batched_extended_steps:
        Extended-axis steps actually served by the set-at-a-time join
        kernels instead of per-node span arithmetic
        (a subset of ``join_steps``; single-context steps delegated to
        the per-node walk count in ``join_steps`` only).  A predicated
        step whose predicates do not all carry mask terms — positional,
        variable-dependent, or outside the decorrelated grammar — runs
        the per-node machinery and counts in neither; there every
        probed candidate is one ``axis_steps``.
    plan_cache_hit:
        The compiled plan came from the engine's LRU cache instead of
        a fresh parse/rewrite/plan run.
    op_actuals:
        Costed plans only (DESIGN.md §16): actual output cardinality
        per annotated operator, keyed by ``StepOp.op_id`` (summed when
        a nested plan runs the step more than once); a lifted ``for``
        records the tuples it served from its batch under
        ``Lift.op_id``.  Feed it to
        ``CompiledQuery.explain(actuals=…)`` for ``est=…/act=…`` lines.
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
    est_rows: float | None = None
    act_rows: int | None = None


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
    """

    analyze_strip_dotstar: bool = True
    analyze_wrapper: str = "res"
    analyze_match: str = "m"
    analyze_hierarchy_base: str = "rest"


class Frame:
    """The mutable dynamic context of one query evaluation.

    Focus and variable bindings are changed in place with save/restore
    around each iteration instead of cloning a context per item.  The
    builtin function library reads ``goddag``, ``position``, ``size``,
    ``options``, ``temp_manager`` and ``context_item()`` from it.
    """

    __slots__ = ("goddag", "functions", "options", "temp_manager",
                 "variables", "item", "position", "size", "stats",
                 "mask_memo", "lifted")

    def __init__(self, goddag: KyGoddag, functions: dict[str, Any],
                 options: QueryOptions,
                 temp_manager: TemporaryHierarchyManager,
                 variables: dict[str, list], stats: QueryStats) -> None:
        self.goddag = goddag
        self.functions = functions
        self.options = options
        self.temp_manager = temp_manager
        self.variables = variables
        self.item = None
        self.position = 0
        self.size = 0
        self.stats = stats
        #: ``(epoch, {(name, term): column})`` — the mask columns of
        #: this evaluation (``masks.column``).  They live here
        #: and die with the frame: a compiled plan outlives the
        #: documents it runs against and must never hold one of their
        #: arrays.
        self.mask_memo = None
        #: ``{Lift.op_id: state}`` — what the lifted inner ``for``
        #: clauses of this evaluation batch over and have batched; only
        #: :mod:`repro.core.plan.lift` reads or writes it.  On the frame
        #: for the reason ``mask_memo`` is.
        self.lifted = None

    def context_item(self) -> Any:
        if self.item is None:
            raise QueryEvaluationError("the context item is undefined here")
        return self.item

    def variable(self, name: str) -> list:
        if name not in self.variables:
            raise QueryEvaluationError(f"undefined variable ${name}")
        return self.variables[name]
