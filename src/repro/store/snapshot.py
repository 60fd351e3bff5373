"""Version-pinned snapshots: the reader side of the document store.

A :class:`Snapshot` wraps one frozen :class:`~repro.api.Engine` at one
document version.  Readers that hold a snapshot keep querying exactly
that version — the store's writer never mutates a published engine, it
forks, mutates the fork, and publishes a *new* snapshot — so reads are
lock-free and can never observe partial update state (DESIGN.md §10).

No read writes the published KyGODDAG either, ``analyze-string``
included: a query that calls it makes its Definition 4 temporaries on
a private shell of the structure, dropped when the query hands over
(DESIGN.md §8).  That holds for direct ``snapshot.engine.query(...)``
calls too, which bypass this wrapper: the shell is chosen by the
compiled plan, not by the caller.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.runtime import QueryStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api import Engine, QueryResult
    from repro.store.plancache import SharedPlanCache


class Snapshot:
    """An immutable view of one stored document at one version."""

    __slots__ = ("name", "version", "engine", "_plans")

    def __init__(self, name: str, engine: "Engine",
                 plans: "SharedPlanCache") -> None:
        engine.goddag.freeze()
        self.name = name
        self.version = engine.version
        self.engine = engine
        self._plans = plans

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Snapshot {self.name!r} v{self.version}>"

    # -- queries -------------------------------------------------------------

    def query(self, text: str,
              variables: dict[str, list] | None = None) -> "QueryResult":
        """Evaluate an extended XQuery against this pinned version."""
        return self._run(text, variables, xpath=False)

    def xpath(self, text: str,
              variables: dict[str, list] | None = None) -> "QueryResult":
        """Evaluate a pure extended-XPath expression."""
        return self._run(text, variables, xpath=True)

    def _plan_stats(self):
        """The pinned engine's statistics when costing is on."""
        engine = self.engine
        return engine.plan_stats() if engine.use_cost else None

    def _run(self, text: str, variables, xpath: bool) -> "QueryResult":
        from repro.api import QueryResult

        engine = self.engine
        compiled, hit = self._plans.get(text, engine.options,
                                        xpath=xpath,
                                        stats=self._plan_stats())
        stats = QueryStats(plan_cache_hit=hit)
        items = compiled.execute(engine.goddag, variables=variables,
                                 options=engine.options, stats=stats)
        engine._finalize_stats(compiled, stats)
        return QueryResult(items, stats)

    def explain(self, text: str, xpath: bool = False,
                analyze: bool = False) -> str:
        """The compiled pipeline report (shared-cache compiled).

        ``analyze=True`` runs the query against this pinned version
        and renders actual next to estimated cardinalities.
        """
        engine = self.engine
        compiled, _hit = self._plans.get(text, engine.options,
                                         xpath=xpath,
                                         stats=self._plan_stats())
        if not analyze:
            return compiled.explain()
        stats = QueryStats()
        compiled.execute(engine.goddag, options=engine.options, stats=stats)
        return compiled.explain(actuals=stats.op_actuals)
