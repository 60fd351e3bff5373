"""The query runtime: contexts, values, function library, serialization."""

from __future__ import annotations

from typing import Any

from repro.core.goddag.goddag import KyGoddag
from repro.core.lang import ast
from repro.core.runtime.context import Frame, QueryOptions, QueryStats
from repro.core.runtime.functions import default_registry
from repro.core.runtime.serializer import (
    serialize_each,
    serialize_item,
    serialize_items,
)

__all__ = [
    "Frame",
    "QueryOptions",
    "QueryStats",
    "evaluate_query",
    "default_registry",
    "serialize_each",
    "serialize_item",
    "serialize_items",
]


def evaluate_query(goddag: KyGoddag, query: str | ast.Expr,
                   variables: dict[str, list] | None = None,
                   options: QueryOptions | None = None,
                   functions: dict[str, Any] | None = None,
                   stats: QueryStats | None = None) -> list:
    """Compile ``query`` (text or a parsed AST) and run it once against
    ``goddag``; returns the item list.

    The one-shot form of ``compile_query(query).execute(goddag, …)``:
    the root is the initial context item, and ``analyze-string``
    temporaries live in a shell dropped when evaluation finishes
    (Definition 4(5)), result items living in one copied out first.
    ``stats`` is a caller-owned
    :class:`QueryStats` the call fills in.
    """
    # the plan package imports this one (values, context) at load time
    from repro.core.plan import compile_query

    return compile_query(query).execute(
        goddag, variables=variables, options=options, functions=functions,
        stats=stats)
