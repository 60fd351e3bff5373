"""All navigation axes over a KyGODDAG, as contiguous-array operations.

Standard XPath axes follow the paper's §3 rules: applied to a non-root
node they stay within that node's DOM tree component; applied to the
root they cross into all components.  Leaves are shared between
hierarchies, so axes from a leaf climb/scan *all* hierarchies (this is
what makes query I.2's ``$leaf[ancestor::w and ancestor::dmg]`` work).

Because a component stores its rows in preorder, a node's
``preorder`` is its row, and each row records its subtree's last row,
the standard axes are row slices, whose nodes the component makes as
they are asked for (DESIGN.md §5):

* ``descendant``  — ``nodes[preorder+1 : subtree_end+1]`` plus the leaf
  range covered by the node's span;
* ``following``   — ``nodes[subtree_end+1 :]`` plus a bisect into the
  partition's boundary array for the trailing leaves;
* ``preceding``   — the ``nodes[: preorder]`` prefix minus the ancestor
  chain (a vectorized ``subtree_end < preorder`` mask), plus the
  leading leaves;
* ``ancestor``    — the parent chain (each hierarchy node has exactly
  one within-hierarchy parent).

The seed's stack walkers survive in ``tests/naive.py`` as the
property-test oracle.

Extended axes implement Definition 1 via span arithmetic on the
:class:`~repro.core.goddag.index.SpanIndex` (see DESIGN.md §3 for the
leaf-set ⇒ interval reduction, verified by property tests).

Every axis function takes ``(goddag, node)`` and returns a list of
nodes.  The emission order is unspecified in general — callers sort by
document order — but :func:`emits_document_order` names the axis/context
combinations whose results are *already* document-ordered, letting the
evaluator skip the sort entirely.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

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

AxisFunction = Callable[[KyGoddag, GNode], list[GNode]]

# ---------------------------------------------------------------------------
# standard axes
# ---------------------------------------------------------------------------


def axis_self(goddag: KyGoddag, node: GNode) -> list[GNode]:
    return [node]


def axis_child(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Children: component roots under the root, element children,
    and — per the KyGODDAG edge set — leaves under text nodes."""
    if isinstance(node, GRoot):
        return goddag.root_children()
    if isinstance(node, GElement):
        return list(node.children)
    if isinstance(node, GText):
        return goddag.partition.leaves_in(node.start, node.end)
    return []


def axis_parent(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Parent(s).  A leaf has one text-node parent per hierarchy."""
    if isinstance(node, GLeaf):
        return list(goddag.text_parents_of_leaf(node))
    if isinstance(node, GAttr):
        return [node.owner]
    parent = goddag.parent_of(node)
    return [parent] if parent is not None else []


def axis_descendant(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Descendants, in document order: a preorder slice plus a leaf range.

    Within one hierarchy a node's subtree occupies the contiguous
    preorder interval ``(preorder, subtree_end]``, and — because element
    content is contiguous and markup never crosses leaf boundaries —
    its leaves are exactly the partition cells inside ``[start, end)``.
    """
    if isinstance(node, GRoot):
        # Every non-root node descends from the shared root.
        out: list[GNode] = []
        for name in goddag.hierarchy_names:
            out.extend(goddag.nodes_of(name))
        out.extend(goddag.partition.leaves())
        return out
    if not isinstance(node, _HierarchyNode):
        return []  # leaves and attributes have no children
    out: list[GNode] = goddag._components[node.hierarchy].fill(
        slice(node.preorder + 1, node.subtree_end + 1))
    out.extend(goddag.partition.leaves_in(node.start, node.end))
    return out


def axis_descendant_or_self(goddag: KyGoddag, node: GNode) -> list[GNode]:
    return [node] + axis_descendant(goddag, node)


def axis_ancestor(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Ancestors: the parent chain(s).

    A hierarchy node has exactly one within-hierarchy parent, so its
    ancestors are one O(depth) chain walk; a leaf takes the union of
    one chain per hierarchy (sharing only the root).
    """
    if isinstance(node, GRoot):
        return []
    if isinstance(node, GAttr):
        return [node.owner] + axis_ancestor(goddag, node.owner)
    if isinstance(node, GLeaf):
        out: list[GNode] = []
        for text in goddag.text_parents_of_leaf(node):
            current: GNode | None = text
            while isinstance(current, _HierarchyNode):
                out.append(current)
                current = current.parent
        if out:
            out.append(goddag.root)
        return out
    out = []
    current = node.parent
    while current is not None:
        out.append(current)
        current = current.parent
    out.append(goddag.root)  # the chain's stored links stop below it
    return out


def axis_ancestor_or_self(goddag: KyGoddag, node: GNode) -> list[GNode]:
    return [node] + axis_ancestor(goddag, node)


def axis_attribute(goddag: KyGoddag, node: GNode) -> list[GNode]:
    if isinstance(node, GElement):
        return list(node.attribute_nodes)
    return []


def _sibling_groups(goddag: KyGoddag,
                    node: GNode) -> list[tuple[list[GNode], int]]:
    """``(siblings, position)`` per parent this node participates in.

    Positions come from cached child→position identity maps
    (:meth:`GElement.child_position`, a component's
    :meth:`~repro.core.goddag.goddag._HierarchyComponent.top_position`)
    or, for leaves, from boundary-array arithmetic — never a linear
    scan.
    """
    if isinstance(node, GLeaf):
        partition = goddag.partition
        groups: list[tuple[list[GNode], int]] = []
        for parent in goddag.text_parents_of_leaf(node):
            siblings = partition.leaves_in(parent.start, parent.end)
            position = (partition.leaf_index(node.start)
                        - partition.leaf_index(parent.start))
            groups.append((siblings, position))
        return groups
    parent = goddag.parent_of(node)
    if parent is None or isinstance(node, GAttr):
        return []
    try:
        if isinstance(parent, GRoot):
            # Siblings stay within the node's own component (paper §3).
            component = goddag._components[node.hierarchy]
            return [(component.top_nodes, component.top_position(node))]
        assert isinstance(parent, GElement)
        return [(parent.children, parent.child_position(node))]
    except KeyError:
        raise GoddagError(
            "node is not among its parent's children") from None


def axis_following_sibling(goddag: KyGoddag, node: GNode) -> list[GNode]:
    out: list[GNode] = []
    for siblings, position in _sibling_groups(goddag, node):
        out.extend(siblings[position + 1:])
    return out


def axis_preceding_sibling(goddag: KyGoddag, node: GNode) -> list[GNode]:
    out: list[GNode] = []
    for siblings, position in _sibling_groups(goddag, node):
        out.extend(siblings[:position])
    return out


def axis_following(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Nodes after ``node`` in its component, plus leaves after its span.

    ``other.preorder > node.subtree_end`` is exactly the preorder slice
    past the node's subtree, and the trailing leaves are one bisect into
    the partition (DESIGN.md §5).  For the shared root nothing follows;
    for a leaf this coincides with ``xfollowing`` (leaves belong to
    every hierarchy).
    """
    if isinstance(node, GRoot):
        return []
    if isinstance(node, GLeaf):
        return axis_xfollowing(goddag, node)
    if isinstance(node, GAttr):
        return axis_following(goddag, node.owner)
    assert isinstance(node, _HierarchyNode)
    out: list[GNode] = goddag._components[node.hierarchy].fill(
        slice(node.subtree_end + 1, None))
    out.extend(goddag.partition.leaves_from(node.end))
    return out


def axis_preceding(goddag: KyGoddag, node: GNode) -> list[GNode]:
    """Nodes before ``node`` in its component, plus leaves before it.

    The candidates are the rows before ``preorder``; the ancestors
    interleaved in them are masked out with one vectorized
    ``subtree_end < preorder`` comparison, and only the rows left are
    filled.
    """
    if isinstance(node, GRoot):
        return []
    if isinstance(node, GLeaf):
        return axis_xpreceding(goddag, node)
    if isinstance(node, GAttr):
        return axis_preceding(goddag, node.owner)
    assert isinstance(node, _HierarchyNode)
    out: list[GNode] = _preceding_rows(goddag, node)
    out.extend(goddag.partition.leaves_until(node.start))
    return out


def _preceding_rows(goddag: KyGoddag, node: _HierarchyNode) -> list[GNode]:
    """The nodes of ``node``'s hierarchy that end before it starts."""
    component = goddag._components[node.hierarchy]
    preorder = node.preorder
    return component.fill(np.flatnonzero(
        component.subtree_ends[:preorder] < preorder).tolist())


# ---------------------------------------------------------------------------
# extended axes (Definition 1)
# ---------------------------------------------------------------------------
#
# All implementations are slice-based: a binary search finds the
# contiguous candidate range in the start- or end-sorted index, and the
# remaining conditions are vectorized over that slice only — O(log n +
# candidates) per evaluation.  ``name`` is an optional pushdown hint
# (node-test name); it never changes results, only skips candidates the
# caller would discard.


def axis_xancestor(goddag: KyGoddag, node: GNode,
                   name: str | None = None) -> list[GNode]:
    """``{m ∉ descendant(n) ∪ {n} : leaves(n) ⊆ leaves(m)}``.

    Within one hierarchy, every node whose span contains ``n.start``
    lies on the ancestor chain of the text node covering ``n.start``
    (element boundaries cannot fall inside a text node), so containment
    candidates are the union of one chain per hierarchy plus the root.
    """
    if not node.has_leaves:
        return []
    index = goddag.span_index()
    out: list[GNode] = []
    root = goddag.root
    if root is not node and not index.is_descendant_or_self(node, root):
        if name is None or root.name == name:
            out.append(root)
    from bisect import bisect_right

    for hierarchy in goddag.hierarchy_names:
        component = goddag._components[hierarchy]
        position = bisect_right(component.text_starts, node.start) - 1
        if position < 0:
            continue
        current: GNode | None = component.text_nodes[position]
        while current is not None and current is not root:
            if (current.start <= node.start and current.end >= node.end
                    and current is not node
                    and not index.is_descendant_or_self(node, current)
                    and (name is None or current.name == name)):
                out.append(current)
            current = current.parent
    return out


def axis_xdescendant(goddag: KyGoddag, node: GNode,
                     name: str | None = None,
                     include_leaves: bool = True) -> list[GNode]:
    """``{m ∉ ancestor(n) ∪ {n} : leaves(m) ⊆ leaves(n)}``.

    Includes leaves inside the node's span: they are never ancestors.
    """
    if not node.has_leaves:
        return []
    if isinstance(node, GLeaf):
        return []  # any span-equal node is on the leaf's parent chain
    index = goddag.span_index()
    left, right = index.start_slice(node.start, node.end)
    if name is not None:
        # Name-first: the per-name mask is precomputed and usually
        # empties the slice, skipping the span/exclusion arithmetic.
        mask = index.name_mask(name)[left:right] & \
            index.nonempty[left:right]
        if not mask.any():
            return []
        mask = mask & (index.ends[left:right] <= node.end)
    else:
        mask = (index.ends[left:right] <= node.end) & \
            index.nonempty[left:right]
    mask &= ~index.ancestor_or_self_exclusion(node, left, right)
    out = index.select_slice(left, right, mask)
    if name is None and include_leaves:  # leaves carry no name
        out.extend(goddag.partition.leaves_in(node.start, node.end))
    return out


def axis_xfollowing(goddag: KyGoddag, node: GNode,
                    name: str | None = None,
                    include_leaves: bool = True) -> list[GNode]:
    """``{m : max(leaves(n)) < min(leaves(m))}`` — span entirely after."""
    if not node.has_leaves:
        return []
    index = goddag.span_index()
    left, right = index.start_slice(node.end, len(goddag.text) + 1)
    mask = index.nonempty[left:right]
    if name is not None:
        mask = index.name_mask(name)[left:right] & mask
        if not mask.any():
            return []
    out = index.select_slice(left, right, mask)
    if name is None and include_leaves:
        out.extend(goddag.partition.leaves_from(node.end))
    return out


def axis_xpreceding(goddag: KyGoddag, node: GNode,
                    name: str | None = None,
                    include_leaves: bool = True) -> list[GNode]:
    """``{m : min(leaves(n)) > max(leaves(m))}`` — span entirely before."""
    if not node.has_leaves:
        return []
    index = goddag.span_index()
    left, right = index.end_slice(1, node.start + 1)
    mask = index.e_nonempty[left:right]
    if name is not None:
        mask = index.e_name_mask(name)[left:right] & mask
        if not mask.any():
            return []
    out = index.select_end_slice(left, right, mask)
    if name is None and include_leaves:
        out.extend(goddag.partition.leaves_until(node.start))
    return out


def axis_preceding_overlapping(goddag: KyGoddag, node: GNode,
                               name: str | None = None) -> list[GNode]:
    """Nodes that start before ``node`` and end inside it.

    Definition 1: ``leaves(n) ∩ leaves(m) ≠ ∅``,
    ``min(leaves(n)) ∈ (min(leaves(m)), max(leaves(m))]``, and
    ``max(leaves(n)) > max(leaves(m))`` — in span form
    ``m.start < n.start < m.end < n.end``.
    """
    if not node.has_leaves:
        return []
    index = goddag.span_index()
    left, right = index.end_slice(node.start + 1, node.end)
    if name is not None:
        mask = index.e_name_mask(name)[left:right]
        if not mask.any():
            return []
        mask = mask & (index.e_starts[left:right] < node.start)
    else:
        mask = index.e_starts[left:right] < node.start
    return index.select_end_slice(left, right, mask)


def axis_following_overlapping(goddag: KyGoddag, node: GNode,
                               name: str | None = None) -> list[GNode]:
    """Nodes that start inside ``node`` and end after it
    (``n.start < m.start < n.end < m.end``)."""
    if not node.has_leaves:
        return []
    index = goddag.span_index()
    left, right = index.start_slice(node.start + 1, node.end)
    if name is not None:
        mask = index.name_mask(name)[left:right]
        if not mask.any():
            return []
        mask = mask & (index.ends[left:right] > node.end)
    else:
        mask = index.ends[left:right] > node.end
    return index.select_slice(left, right, mask)


def axis_overlapping(goddag: KyGoddag, node: GNode,
                     name: str | None = None) -> list[GNode]:
    """The union of the two overlap directions (Definition 1).

    Emission-order audit (PR 5): the concatenation is *not* globally
    document-ordered — each sublist comes out span-sorted (end order,
    then start order), and Definition 3 orders nodes by hierarchy rank
    before position, so a preceding-overlapping node of a later
    hierarchy can trail a following-overlapping node it precedes.  The
    two sublists are disjoint for one context (``m.end < n.end`` vs
    ``m.end > n.end``), so the list is duplicate-free, and every
    consumer sorts: ``overlapping`` is not in :data:`ORDERED_AXES`, so
    the evaluator, the batch entry point and the existence probes all
    merge by order key.  Locked by
    ``tests/test_extended_axis_joins.py::TestOverlappingEmissionOrder``.
    """
    return (axis_preceding_overlapping(goddag, node, name)
            + axis_following_overlapping(goddag, node, name))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

AXES: dict[str, AxisFunction] = {
    "self": axis_self,
    "child": axis_child,
    "parent": axis_parent,
    "descendant": axis_descendant,
    "descendant-or-self": axis_descendant_or_self,
    "ancestor": axis_ancestor,
    "ancestor-or-self": axis_ancestor_or_self,
    "attribute": axis_attribute,
    "following-sibling": axis_following_sibling,
    "preceding-sibling": axis_preceding_sibling,
    "following": axis_following,
    "preceding": axis_preceding,
    "xancestor": axis_xancestor,
    "xdescendant": axis_xdescendant,
    "xfollowing": axis_xfollowing,
    "xpreceding": axis_xpreceding,
    "preceding-overlapping": axis_preceding_overlapping,
    "following-overlapping": axis_following_overlapping,
    "overlapping": axis_overlapping,
}

EXTENDED_AXES = frozenset({
    "xancestor", "xdescendant", "xfollowing", "xpreceding",
    "preceding-overlapping", "following-overlapping", "overlapping",
})

#: Forward axes whose slice-based implementations above emit results in
#: global document order already (Definition 3): same-hierarchy nodes
#: come out in preorder and all leaves trail all hierarchy nodes.  From
#: a *leaf*, ``following``/``following-sibling`` mix hierarchies and are
#: excluded (see :func:`emits_document_order`).
ORDERED_AXES = frozenset({
    "self", "child", "attribute", "descendant", "descendant-or-self",
    "following", "following-sibling",
})


def emits_document_order(axis: str, node: GNode) -> bool:
    """True when ``AXES[axis](goddag, node)`` is already in document
    order (and duplicate-free), so callers may skip sorting."""
    if axis not in ORDERED_AXES:
        return False
    if isinstance(node, GLeaf):
        # following(leaf) delegates to xfollowing (start-sorted across
        # hierarchies) and a leaf's sibling groups span hierarchies.
        return axis not in ("following", "following-sibling")
    return True


def evaluate_axis(goddag: KyGoddag, axis: str, node: GNode,
                  name: str | None = None) -> list[GNode]:
    """Evaluate ``axis`` from ``node``.

    ``name`` is an optional *pushdown hint*: when given, extended axes
    intersect a precomputed per-name mask instead of materializing all
    candidates.  Here the hint only narrows — callers still apply the
    node test, and leaving it out changes no result; the slices of the
    per-name element index that :func:`axis_candidates` reports as
    exact are the one place a name is contractual.
    """
    function = AXES.get(axis)
    if function is None:
        raise GoddagError(f"unknown axis '{axis}'")
    if name is not None and axis in EXTENDED_AXES:
        return function(goddag, node, name)
    return function(goddag, node)


# ---------------------------------------------------------------------------
# batched (set-at-a-time) entry point — DESIGN.md §8
# ---------------------------------------------------------------------------
#
# The query pipeline evaluates each path step as ONE call over the whole
# context sequence.  Two pushdown hints let it skip materializing whole
# node classes the step's node test could never accept:
#
# * ``skip_leaves``  — the test only matches named/element-ish nodes, so
#   the leaf ranges the slice axes normally append are never built;
# * ``leaves_only``  — the test is ``leaf()``, so for the span-covering
#   axes the result is a single partition slice and the (much larger)
#   hierarchy-node slices are never touched.
#
# Both only narrow what is materialized, and the caller's node test
# (``test``) decides — with one contractual exception: a ``name`` makes
# ``descendant`` / ``following`` / ``preceding`` from the root or a
# hierarchy node a slice of the per-name element index
# (``_HierarchyComponent.name_entry``: the rows whose kind is element
# and whose name id is the name's), which holds exactly the elements of
# that name on the axis.  ``axis_candidates`` reports such a slice as
# *exact* and the test is not run over it again, so there ``name`` must
# be the name ``test`` selects (the planner derives both from one name
# test).  Everything else — extended axes, ``descendant-or-self`` (its
# ``[node]`` prefix), leaf and attribute contexts, an absent name —
# stays a superset that ``test`` filters.

#: Axes whose leaf contribution is one contiguous partition range keyed
#: by the context node's span.
_LEAF_RANGE_AXES = frozenset({
    "descendant", "descendant-or-self", "following", "preceding", "child",
})


def axis_candidates(goddag: KyGoddag, axis: str, node: GNode,
                    name: str | None = None,
                    skip_leaves: bool = False
                    ) -> tuple[list[GNode], bool]:
    """``(candidates, exact)`` of one axis step from one node, honoring
    pushdowns.

    With ``skip_leaves`` the slice axes return only their hierarchy-node
    slices (no partition range is materialized), and a ``name`` turns
    the span-covering axes into bisected slices of the per-name element
    index; other axes fall back to :func:`evaluate_axis` plus a leaf
    filter.  ``exact`` says the candidates are such an index slice —
    exactly the elements named ``name`` on the axis, nothing for a name
    test to drop; otherwise they are a superset the caller's node test
    filters (the contract is spelled out above).
    """
    if not skip_leaves:
        return evaluate_axis(goddag, axis, node, name), False
    if axis in ("descendant", "descendant-or-self"):
        prefix: list[GNode] = []
        if axis == "descendant-or-self" and not isinstance(node, GLeaf):
            prefix = [node]
        exact = name is not None and axis == "descendant"
        if isinstance(node, GRoot):
            out = prefix
            for hierarchy in goddag.hierarchy_names:
                if name is not None:
                    entry = goddag._components[hierarchy].name_entry(name)
                    if entry is not None:
                        out.extend(entry.nodes)
                else:
                    out.extend(goddag.nodes_of(hierarchy))
            return out, exact
        if not isinstance(node, _HierarchyNode):
            return prefix, False
        if name is not None:
            entry = goddag._components[node.hierarchy].name_entry(name)
            if entry is None:
                return prefix, exact
            return prefix + entry.nodes[
                _named(entry, "descendant", node)], exact
        return prefix + goddag._components[node.hierarchy].fill(
            slice(node.preorder + 1, node.subtree_end + 1)), False
    if axis == "following":
        if isinstance(node, GRoot):
            return [], False
        if isinstance(node, GLeaf):
            return axis_xfollowing(goddag, node, name,
                                   include_leaves=False), False
        if isinstance(node, GAttr):
            return axis_candidates(goddag, axis, node.owner, name,
                                   True)[0], False
        if name is not None:
            entry = goddag._components[node.hierarchy].name_entry(name)
            if entry is None:
                return [], True
            return entry.nodes[_named(entry, axis, node)], True
        return goddag._components[node.hierarchy].fill(
            slice(node.subtree_end + 1, None)), False
    if axis == "preceding":
        if isinstance(node, GRoot):
            return [], False
        if isinstance(node, GLeaf):
            return axis_xpreceding(goddag, node, name,
                                   include_leaves=False), False
        if isinstance(node, GAttr):
            return axis_candidates(goddag, axis, node.owner, name,
                                   True)[0], False
        if name is not None:
            entry = goddag._components[node.hierarchy].name_entry(name)
            if entry is None:
                return [], True
            nodes = entry.nodes
            return [nodes[at] for at in
                    _named(entry, axis, node).tolist()], True
        return _preceding_rows(goddag, node), False
    if axis == "child" and isinstance(node, GText):
        return [], False  # a text node's children are exactly its leaves
    if axis in ("xdescendant", "xfollowing", "xpreceding"):
        function = AXES[axis]
        return function(goddag, node, name, include_leaves=False), False
    out = evaluate_axis(goddag, axis, node, name)
    if any(isinstance(candidate, GLeaf) for candidate in out):
        return [c for c in out if not isinstance(c, GLeaf)], False
    return out, False


def _named(entry, axis: str, node: _HierarchyNode) -> slice | np.ndarray:
    """Which of ``entry``'s elements (a per-name index entry of
    ``node``'s own hierarchy) lie on ``axis`` — ``descendant``,
    ``following`` or ``preceding`` — from ``node``: a slice of the
    entry, or its positions in preorder."""
    preorders = entry.preorders
    if axis == "descendant":
        return slice(
            int(np.searchsorted(preorders, node.preorder, side="right")),
            int(np.searchsorted(preorders, node.subtree_end, side="right")))
    if axis == "following":
        return slice(int(np.searchsorted(preorders, node.subtree_end,
                                         side="right")), None)
    before = int(np.searchsorted(preorders, node.preorder, side="left"))
    return np.flatnonzero(entry.subtree_ends[:before] < node.preorder)


def tested_candidates(goddag: KyGoddag, axis: str, node: GNode,
                      name: str | None, skip_leaves: bool,
                      leaves_only: bool, test) -> list[GNode]:
    """The candidates of one axis step from one node that pass ``test``
    (``None`` = match all): the leaf range, the pushed-down candidates
    filtered, or an exact name slice as it is."""
    exact = False
    found = leaf_candidates(goddag, axis, node) if leaves_only else None
    if found is None:
        found, exact = axis_candidates(goddag, axis, node, name, skip_leaves)
    if test is None or exact:
        return found
    return [candidate for candidate in found if test(candidate)]


def picked_candidate(goddag: KyGoddag, axis: str, node: GNode, name: str,
                     position: int, reverse: bool = False
                     ) -> tuple[list[GNode], int] | None:
    """``([candidates[position - 1]], len(candidates))`` — ``[]`` when
    ``position`` is out of range, counted from the end with ``reverse``
    — of the exact name slice ``axis_candidates(goddag, axis, node,
    name, True)`` returns, read off the per-name index rows
    (:attr:`_NameEntry.preorders`): only the picked row is filled.
    ``None`` where that step is no exact slice, for the caller to take
    the candidates.  Where several hierarchies hold the name (the
    root's descendants), their runs follow one another in rank order,
    which is document order.
    """
    if isinstance(node, GRoot) and axis == "descendant":
        entries = [goddag._components[hierarchy].name_entry(name)
                   for hierarchy in goddag.hierarchy_names]
        runs = [(entry.component, entry.preorders)
                for entry in entries if entry is not None]
    elif isinstance(node, _HierarchyNode) \
            and axis in ("descendant", "following", "preceding"):
        entry = goddag._components[node.hierarchy].name_entry(name)
        runs = [] if entry is None else [
            (entry.component, entry.preorders[_named(entry, axis, node)])]
    else:
        return None
    count = sum(len(rows) for _component, rows in runs)
    if not 1 <= position <= count:
        return [], count
    at = count - position if reverse else position - 1
    for component, rows in runs:
        if at < len(rows):
            break
        at -= len(rows)
    return [component.node(int(rows[at]))], count


def leaf_candidates(goddag: KyGoddag, axis: str,
                    node: GNode) -> list[GNode] | None:
    """The leaf-only candidates of one axis step, as a partition slice.

    Returns ``None`` when ``axis`` has no leaf-range shortcut from this
    node (the caller falls back to the full candidate list).
    """
    if axis not in _LEAF_RANGE_AXES:
        return None
    partition = goddag.partition
    if axis in ("descendant", "descendant-or-self"):
        if isinstance(node, GLeaf):
            return [node] if axis == "descendant-or-self" else []
        if isinstance(node, GRoot):
            return partition.leaves()
        if not isinstance(node, _HierarchyNode):
            return []
        return partition.leaves_in(node.start, node.end)
    if isinstance(node, (GRoot, GAttr)):
        return None  # rare shapes: use the generic path
    if axis == "following":
        return partition.leaves_from(node.end)
    if axis == "preceding":
        return partition.leaves_until(node.start)
    if axis == "child":
        if isinstance(node, GText):
            return partition.leaves_in(node.start, node.end)
        return []  # only text nodes parent leaves
    return None


def axis_exists_named(goddag: KyGoddag, axis: str, node: GNode,
                      name: str) -> bool | None:
    """Existence probe: does ``axis::name`` yield anything from ``node``?

    Returns ``None`` when the axis has no mask-only fast path (the
    caller falls back to materializing candidates).  Valid only for a
    plain name test on a non-attribute axis: the per-name masks match
    elements exactly (text nodes carry no name), and the root never
    falls inside these slices (its span is the whole text).
    """
    if axis == "xdescendant":
        if not node.has_leaves or isinstance(node, GLeaf):
            return False
        index = goddag.span_index()
        left, right = index.start_slice(node.start, node.end)
        mask = index.name_mask(name)[left:right] & \
            index.nonempty[left:right]
        if not mask.any():
            return False
        mask = mask & (index.ends[left:right] <= node.end)
        if not mask.any():
            return False
        mask &= ~index.ancestor_or_self_exclusion(node, left, right)
        return bool(mask.any())
    if axis == "xfollowing":
        if not node.has_leaves:
            return False
        index = goddag.span_index()
        left, right = index.start_slice(node.end, len(goddag.text) + 1)
        mask = index.name_mask(name)[left:right] & \
            index.nonempty[left:right]
        return bool(mask.any())
    if axis == "xpreceding":
        if not node.has_leaves:
            return False
        index = goddag.span_index()
        left, right = index.end_slice(1, node.start + 1)
        mask = index.e_name_mask(name)[left:right] & \
            index.e_nonempty[left:right]
        return bool(mask.any())
    if axis in ("overlapping", "preceding-overlapping",
                "following-overlapping"):
        if not node.has_leaves:
            return False
        index = goddag.span_index()
        if axis != "following-overlapping":
            left, right = index.end_slice(node.start + 1, node.end)
            mask = index.e_name_mask(name)[left:right]
            if mask.any() and bool(
                    (mask & (index.e_starts[left:right]
                             < node.start)).any()):
                return True
            if axis == "preceding-overlapping":
                return False
        left, right = index.start_slice(node.start + 1, node.end)
        mask = index.name_mask(name)[left:right]
        if not mask.any():
            return False
        return bool((mask & (index.ends[left:right] > node.end)).any())
    if axis == "xancestor":
        if not node.has_leaves:
            return False
        index = goddag.span_index()
        root = goddag.root
        if (root.name == name and root is not node
                and not index.is_descendant_or_self(node, root)):
            return True
        # Containment via the per-name prefix-max arrays, minus the
        # Definition 1 descendant-or-self exclusion (rank-masked).
        starts, ends, max_ends, ranks, preorders, _subs = \
            index.name_containment(name)
        position = int(np.searchsorted(starts, node.start, side="right"))
        if position == 0 or int(max_ends[position - 1]) < node.end:
            return False
        if isinstance(node, GRoot):
            return False  # every element descends from the root
        mask = ends[:position] >= node.end
        if isinstance(node, _HierarchyNode):
            rank = goddag.hierarchy_rank(node.hierarchy)
            mask &= ~((ranks[:position] == rank)
                      & (preorders[:position] >= node.preorder)
                      & (preorders[:position] <= node.subtree_end))
        return bool(mask.any())
    return None


def evaluate_axis_batch(goddag: KyGoddag, axis: str, nodes: list[GNode],
                        name: str | None = None, *,
                        skip_leaves: bool = False,
                        leaves_only: bool = False,
                        test=None) -> list[GNode]:
    """One batched axis call over a whole context sequence.

    Returns the union of per-node candidates (filtered by ``test`` when
    given), deduplicated and merged into global document order by the
    packed int64 order keys — one ``sort_nodes`` per *step* instead of
    one per context item.  A single already-ordered emission skips even
    that (:func:`emits_document_order`).  ``name``, when given with a
    ``test``, must be the element name that test selects: exact name
    slices (:func:`axis_candidates`) are not tested again.
    """
    if not nodes:
        return []
    if len(nodes) == 1:
        out = tested_candidates(goddag, axis, nodes[0], name, skip_leaves,
                                leaves_only, test)
        if not emits_document_order(axis, nodes[0]):
            out = goddag.sort_nodes(out)
        return out
    out = []
    for node in nodes:
        out.extend(tested_candidates(goddag, axis, node, name, skip_leaves,
                                     leaves_only, test))
    return goddag.sort_nodes(out)
