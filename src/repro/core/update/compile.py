"""Update-statement compilation: parse → rewrite → plan → primitives.

An update statement rides the exact same pipeline as a query
(DESIGN.md §8): the statement parses through the shared grammar,
rewrite rules fire on the embedded target/source expressions, the
planner emits :class:`~repro.core.plan.logical.UpdatePrimOp` operators,
and the physical layer compiles them to closures whose *result items*
are pending-update primitives.  :meth:`CompiledUpdate.pending` runs the
closures against a KyGODDAG — entirely side-effect free, so target
evaluation sees the pre-state snapshot — and wraps the primitives in a
conflict-checked :class:`~repro.core.update.pul.PendingUpdateList`.
"""

from __future__ import annotations

from repro.core.lang import ast
from repro.core.lang.parser import parse_update
from repro.core.plan.logical import Plan, needs_shell, render_plan
from repro.core.plan.physical import compile_plan, execute_plan
from repro.core.plan.planner import build_plan
from repro.core.plan.rewrite import rewrite
from repro.core.runtime.context import QueryOptions
from repro.core.update.pul import PendingUpdateList


class CompiledUpdate:
    """One update statement compiled through the full pipeline."""

    __slots__ = ("text", "source_ast", "rewritten_ast", "plan",
                 "rewrites", "needs_shell", "_runner")

    def __init__(self, text: str, source_ast: ast.Expr,
                 rewritten_ast: ast.Expr, plan: Plan,
                 rewrites: list[str], runner) -> None:
        self.text = text
        self.source_ast = source_ast
        self.rewritten_ast = rewritten_ast
        self.plan = plan
        self.rewrites = rewrites
        self.needs_shell = needs_shell(plan)
        self._runner = runner

    def pending(self, goddag, variables=None,
                options: QueryOptions | None = None) -> PendingUpdateList:
        """Evaluate targets against the pre-state; collect primitives."""
        items = execute_plan(self._runner, goddag, variables=variables,
                             options=options, shell=self.needs_shell)
        return PendingUpdateList(items)

    def explain(self) -> str:
        """The pipeline report (same shape as ``CompiledQuery``'s)."""
        lines = [f"update: {' '.join(self.text.split())}"]
        lines.append("rewrites:")
        if self.rewrites:
            lines.extend(f"  - {note}" for note in self.rewrites)
        else:
            lines.append("  (none)")
        lines.append("plan:")
        lines.append(render_plan(self.plan, indent=1))
        return "\n".join(lines)


def compile_update(statement: str | ast.Expr) -> CompiledUpdate:
    """Compile an update statement (or a pre-parsed updating AST)."""
    if isinstance(statement, str):
        text = statement
        source = parse_update(text)
    else:
        source = statement
        text = f"<precompiled {type(statement).__name__}>"
    rewritten, notes = rewrite(source)
    plan = build_plan(rewritten, notes)
    runner = compile_plan(plan)
    return CompiledUpdate(text, source, rewritten, plan, notes, runner)
