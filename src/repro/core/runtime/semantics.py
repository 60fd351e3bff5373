"""Node-level semantics every evaluator of the language shares.

The rules here are the language's, not one implementation's: which
axes count predicate positions backwards, what a hierarchy-restricted
node test admits (Definition 2), what may be navigated or combined,
how result items leave a temporary hierarchy (Definition 4(5)) and how
nodes are copied into constructed content.  The compiled pipeline
(``core/plan``) and the reference tree-walker under ``tests/`` both
import them, so the two cannot drift apart on these points; the
matching value-level rules live in :mod:`~repro.core.runtime.values`.
"""

from __future__ import annotations

from typing import Any

from repro.errors import QueryEvaluationError
from repro.markup import dom
from repro.core.goddag.goddag import KyGoddag
from repro.core.goddag.nodes import (
    GAttr,
    GComment,
    GElement,
    GLeaf,
    GNode,
    GPi,
    GText,
)
from repro.core.runtime import values

#: Axes whose predicate positions count *away* from the context node.
REVERSE_AXES = frozenset({
    "ancestor", "ancestor-or-self", "preceding", "preceding-sibling",
    "parent", "xancestor", "xpreceding",
})


def snapshot(item: Any, goddag: KyGoddag) -> Any:
    """Copy items living in temporary hierarchies out of the KyGODDAG,
    so callers never hold a reference into a hierarchy that is dropped
    when the query finishes."""
    if (isinstance(item, GNode) and item.hierarchy is not None
            and goddag.is_temporary(item.hierarchy)):
        return copy_gnode(item)
    return item


def node_in_hierarchies(node: GNode, hierarchies: tuple[str, ...],
                        goddag: KyGoddag) -> bool:
    """Definition 2 hierarchy restriction.

    The shared root and the shared leaves belong to *every* hierarchy;
    unknown hierarchy names are reported (typo safety).
    """
    for name in hierarchies:
        if not goddag.has_hierarchy(name):
            raise QueryEvaluationError(
                f"unknown hierarchy '{name}' in node test")
    if node.hierarchy is None:  # root or leaf: present in all hierarchies
        return True
    return node.hierarchy in hierarchies


def require_navigable(item: Any) -> None:
    """Path steps start from KyGODDAG nodes only."""
    if not isinstance(item, GNode):
        raise QueryEvaluationError(
            "path steps navigate KyGODDAG nodes; got "
            f"{type(item).__name__} (constructed nodes are not "
            f"navigable)")


def require_gnodes(sequence: list, op: str) -> list:
    """``union``/``intersect``/``except`` combine KyGODDAG nodes only."""
    for item in sequence:
        if not isinstance(item, GNode):
            raise QueryEvaluationError(
                f"'{op}' operates on KyGODDAG node sequences")
    return sequence


# ---------------------------------------------------------------------------
# constructed content
# ---------------------------------------------------------------------------


def append_content(element: dom.Element, items: list) -> None:
    """XQuery content rules: nodes are copied; adjacent atomics are
    joined with single spaces into one text node."""
    pending_atoms: list[str] = []

    def flush() -> None:
        if pending_atoms:
            element.append(dom.Text(" ".join(pending_atoms)))
            pending_atoms.clear()

    for item in items:
        if isinstance(item, GAttr):
            element.set(item.name, item.value)
        elif isinstance(item, dom.Attr):
            element.set(item.name, item.value)
        elif isinstance(item, GNode):
            flush()
            element.append(copy_gnode(item))
        elif isinstance(item, dom.Node):
            flush()
            element.append(copy_dom(item))
        else:
            pending_atoms.append(values.string_value(item))
    flush()


def copy_gnode(node: GNode) -> dom.Node:
    """Deep-copy a KyGODDAG node into constructed DOM content."""
    if isinstance(node, GElement):
        element = dom.Element(node.name, dict(node.attributes))
        for child in node.children:
            element.append(copy_gnode(child))
        return element
    if isinstance(node, (GText, GLeaf)):
        return dom.Text(node.string_value())
    if isinstance(node, GComment):
        return dom.Comment(node.data)
    if isinstance(node, GPi):
        return dom.ProcessingInstruction(node.target, node.data)
    raise QueryEvaluationError(
        f"cannot copy a {node.kind} node into constructed content")


def copy_dom(node: dom.Node) -> dom.Node:
    """Deep-copy constructed DOM content."""
    if isinstance(node, dom.Element):
        element = dom.Element(node.name, dict(node.attributes))
        for child in node.children:
            element.append(copy_dom(child))
        return element
    if isinstance(node, dom.Text):
        return dom.Text(node.data)
    if isinstance(node, dom.Comment):
        return dom.Comment(node.data)
    if isinstance(node, dom.ProcessingInstruction):
        return dom.ProcessingInstruction(node.target, node.data)
    if isinstance(node, dom.Document):
        raise QueryEvaluationError(
            "cannot copy a whole document into constructed content")
    raise QueryEvaluationError(
        f"cannot copy node {type(node).__name__} into constructed content")
