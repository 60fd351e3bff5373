"""Reference implementations: literal Definition 1 axes and the seed's
standard-axis walkers.

The ``naive_x*`` functions transcribe the paper's Definition 1
*verbatim*: explicit leaf sets, ``min``/``max`` over the leaf order,
within-hierarchy ancestor/descendant exclusions — with a full scan over
all nodes and no index.  The ``naive_*`` standard axes preserve the
seed implementation — stack walks with seen-sets and full-corpus
linear scans — that the slice-based rewrite in
:mod:`repro.core.goddag.axes` replaced (DESIGN.md §5).  They exist for
two purposes:

* **correctness oracle** — the production axes (interval arithmetic
  over the sorted span index; preorder slices for the standard axes)
  are asserted equal to these on hand-written and
  hypothesis-generated documents (``tests/test_prop_axes.py``);
* **ablation/baseline** — ``benchmarks/test_ablation_axes.py`` measures
  what the sorted span index buys over the O(n·leaves) evaluation, and
  ``benchmarks/test_scaling_standard_axes.py`` measures the slice
  rewrite against these walkers.
"""

from __future__ import annotations

from repro.errors import GoddagError
from repro.core.goddag.goddag import KyGoddag
from repro.core.goddag.nodes import (
    GAttr,
    GElement,
    GLeaf,
    GNode,
    GRoot,
    GText,
    _HierarchyNode,
)


def _span_nodes(goddag: KyGoddag) -> list[GNode]:
    """The domain of Definition 1: root + every element/text node."""
    nodes: list[GNode] = [goddag.root]
    for name in goddag.hierarchy_names:
        nodes.extend(n for n in goddag.nodes_of(name)
                     if isinstance(n, (GElement, GText)))
    return nodes


def _leaf_ids(goddag: KyGoddag, node: GNode) -> frozenset[int]:
    """``leaves(n)`` as an identity set."""
    return frozenset(id(leaf) for leaf in goddag.leaves_of(node))


def _leaf_order(goddag: KyGoddag, node: GNode) -> list[int]:
    """Leaf positions of ``leaves(n)`` under the leaf linear order."""
    return sorted(leaf.start for leaf in goddag.leaves_of(node))


def _is_descendant(node: GNode, other: GNode, goddag: KyGoddag) -> bool:
    """``other ∈ descendant(node)`` within node's hierarchy.

    The root is in every hierarchy, so everything descends from it;
    leaves descend from any node whose leaf set contains them.
    """
    if node is goddag.root:
        return other is not node
    if isinstance(other, GLeaf):
        return id(other) in _leaf_ids(goddag, node)
    if isinstance(node, _HierarchyNode) and isinstance(other,
                                                       _HierarchyNode):
        return node.is_ancestor_of(other)
    return False


def naive_xancestor(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Definition 1, first bullet, written as printed."""
    ln = _leaf_ids(goddag, node)
    if not ln:
        return []
    out: list[GNode] = []
    for m in _span_nodes(goddag):
        if m is node or _is_descendant(node, m, goddag):
            continue
        lm = _leaf_ids(goddag, m)
        if lm and ln <= lm:
            out.append(m)
    return out


def naive_xdescendant(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Definition 1, second bullet (leaves included as candidates)."""
    ln = _leaf_ids(goddag, node)
    if not ln:
        return []
    out: list[GNode] = []
    for m in _span_nodes(goddag):
        if m is node or _is_descendant(m, node, goddag):
            continue
        lm = _leaf_ids(goddag, m)
        if lm and lm <= ln:
            out.append(m)
    if not isinstance(node, GLeaf):
        out.extend(leaf for leaf in goddag.leaves()
                   if id(leaf) in ln)
    return out


def naive_xfollowing(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """``max(leaves(n)) < min(leaves(m))``, scanning every node."""
    positions = _leaf_order(goddag, node)
    if not positions:
        return []
    ceiling = max(positions)
    out: list[GNode] = []
    for m in _span_nodes(goddag) + list(goddag.leaves()):
        other = _leaf_order(goddag, m)
        if other and ceiling < min(other):
            out.append(m)
    return out


def naive_xpreceding(goddag: KyGoddag, node: GNode) -> list[GNode]:
    positions = _leaf_order(goddag, node)
    if not positions:
        return []
    floor = min(positions)
    out: list[GNode] = []
    for m in _span_nodes(goddag) + list(goddag.leaves()):
        other = _leaf_order(goddag, m)
        if other and max(other) < floor:
            out.append(m)
    return out


def naive_overlapping(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Both overlap directions, with the printed min/max conditions."""
    ln = _leaf_ids(goddag, node)
    positions = _leaf_order(goddag, node)
    if not positions:
        return []
    lo, hi = min(positions), max(positions)
    out: list[GNode] = []
    for m in _span_nodes(goddag):
        if m is node:
            continue
        lm = _leaf_ids(goddag, m)
        if not lm or not (ln & lm):
            continue
        other = _leaf_order(goddag, m)
        other_lo, other_hi = min(other), max(other)
        preceding = other_lo < lo <= other_hi and hi > other_hi
        following = other_lo <= hi < other_hi and lo < other_lo
        if preceding or following:
            out.append(m)
    return out


NAIVE_AXES = {
    "xancestor": naive_xancestor,
    "xdescendant": naive_xdescendant,
    "xfollowing": naive_xfollowing,
    "xpreceding": naive_xpreceding,
    "overlapping": naive_overlapping,
}


# ---------------------------------------------------------------------------
# the seed's standard-axis walkers (kept verbatim as the oracle)
# ---------------------------------------------------------------------------


def _naive_leaves_in(goddag: KyGoddag, start: int, end: int) -> list[GNode]:
    """The seed's ``leaves_in``: one bisect plus a bounded Python scan.

    Kept independent of the partition's cached-array fast path so the
    oracle cannot inherit a regression in it (leaf objects still come
    from the canonical per-version cache, as in the seed).
    """
    from bisect import bisect_left

    if start >= end:
        return []
    bounds = goddag.partition.boundaries
    first = bisect_left(bounds, start)
    out: list[GNode] = []
    for index in range(first, len(bounds) - 1):
        leaf_start, leaf_end = bounds[index], bounds[index + 1]
        if leaf_end > end:
            break
        out.append(goddag.partition.leaf_at(leaf_start))
    return out


def _naive_all_leaves(goddag: KyGoddag) -> list[GNode]:
    """The seed's ``leaves()``: rebuilt from the spans on every call,
    one canonical leaf looked up per cell."""
    return [goddag.partition.leaf_at(start)
            for start, _end in goddag.partition.leaf_spans()]


def naive_child(goddag: KyGoddag, node: GNode) -> list[GNode]:
    if isinstance(node, GRoot):
        return goddag.root_children()
    if isinstance(node, GElement):
        return list(node.children)
    if isinstance(node, GText):
        return _naive_leaves_in(goddag, node.start, node.end)
    return []


def naive_parent(goddag: KyGoddag, node: GNode) -> list[GNode]:
    if isinstance(node, GLeaf):
        return list(goddag.text_parents_of_leaf(node))
    if isinstance(node, GAttr):
        return [node.owner]
    parent = goddag.parent_of(node)
    return [parent] if parent is not None else []


def naive_descendant(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """The seed's stack walk over child edges, with a seen-set."""
    out: list[GNode] = []
    seen: set[int] = set()
    stack = naive_child(goddag, node)
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        out.append(current)
        stack.extend(naive_child(goddag, current))
    return out


def naive_ancestor(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """The seed's stack walk over parent edges, with a seen-set."""
    out: list[GNode] = []
    seen: set[int] = set()
    stack = naive_parent(goddag, node)
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        out.append(current)
        stack.extend(naive_parent(goddag, current))
    return out


def _naive_sibling_lists(goddag: KyGoddag,
                         node: GNode) -> list[list[GNode]]:
    if isinstance(node, GLeaf):
        return [naive_child(goddag, parent)
                for parent in goddag.text_parents_of_leaf(node)]
    parent = goddag.parent_of(node)
    if parent is None or isinstance(node, GAttr):
        return []
    if isinstance(parent, GRoot):
        return [goddag.root_children(node.hierarchy)]
    return [naive_child(goddag, parent)]


def _naive_identity_index(nodes: list[GNode], node: GNode) -> int:
    """The seed's linear child scan."""
    for position, candidate in enumerate(nodes):
        if candidate is node:
            return position
    raise GoddagError("node is not among its parent's children")


def naive_following_sibling(goddag: KyGoddag, node: GNode) -> list[GNode]:
    out: list[GNode] = []
    for siblings in _naive_sibling_lists(goddag, node):
        index = _naive_identity_index(siblings, node)
        out.extend(siblings[index + 1:])
    return out


def naive_preceding_sibling(goddag: KyGoddag, node: GNode) -> list[GNode]:
    out: list[GNode] = []
    for siblings in _naive_sibling_lists(goddag, node):
        index = _naive_identity_index(siblings, node)
        out.extend(siblings[:index])
    return out


def naive_following(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """The seed's full-component and full-leaf-list scans (including
    the redundant ``node.end <= len(goddag.text)`` guard)."""
    if isinstance(node, GRoot):
        return []
    if isinstance(node, GLeaf):
        return naive_xfollowing(goddag, node)
    if isinstance(node, GAttr):
        return naive_following(goddag, node.owner)
    assert isinstance(node, _HierarchyNode)
    out: list[GNode] = [
        other for other in goddag.nodes_of(node.hierarchy)
        if other.preorder > node.subtree_end
    ]
    if node.end <= len(goddag.text):
        out.extend(leaf for leaf in _naive_all_leaves(goddag)
                   if leaf.start >= node.end)
    return out


def naive_preceding(goddag: KyGoddag, node: GNode) -> list[GNode]:
    if isinstance(node, GRoot):
        return []
    if isinstance(node, GLeaf):
        return naive_xpreceding(goddag, node)
    if isinstance(node, GAttr):
        return naive_preceding(goddag, node.owner)
    assert isinstance(node, _HierarchyNode)
    out: list[GNode] = [
        other for other in goddag.nodes_of(node.hierarchy)
        if other.subtree_end < node.preorder
    ]
    out.extend(leaf for leaf in _naive_all_leaves(goddag)
               if leaf.end <= node.start)
    return out


NAIVE_STANDARD_AXES = {
    "child": naive_child,
    "parent": naive_parent,
    "descendant": naive_descendant,
    "ancestor": naive_ancestor,
    "following-sibling": naive_following_sibling,
    "preceding-sibling": naive_preceding_sibling,
    "following": naive_following,
    "preceding": naive_preceding,
}
