"""Structural invariant checking for the KyGODDAG (DESIGN.md §9).

``check_invariants`` raises :class:`~repro.errors.GoddagError` on the
first violation.  It is the post-apply safety net of the transactional
update engine: every code path that mutates a KyGODDAG in place
(hierarchy replacement, in-place renames, base-text rebuilds) must
leave a structure indistinguishable from a from-scratch build, and this
module is the executable statement of what that means:

* hierarchy ranks are unique and registration order follows rank, so
  the Definition 3 node order is well defined;
* per component: every column row agrees with its node object — kind,
  name, span, parent, preorder (``nodes[i].preorder == i``), subtree
  end, order key, attributes, comment/PI data; forks, saves and the
  span index read the columns, queries read the nodes — subtree
  intervals nest, child spans tile their parent's span in order, and
  text nodes tile the base text exactly;
* the order-key columns are the packed Definition 3 keys of their rank
  and row, so (with the row check) no node caches a stale key, and the
  global ``iter_nodes`` order is strictly increasing;
* the partition's boundary refcounts equal the contribution of every
  registered component (plus the permanent text ends), and its leaf
  list tiles the text;
* the span index (when built) holds exactly the span-bearing nodes, in
  key order, each entry carrying the span, subtree end and name of the
  row its rank and preorder name — and, once the node columns are
  gathered, that row's node object.

The second bullet is the only one that walks node objects, and it is
the only one ``components=`` narrows: a commit passes the hierarchies
whose component it built and gets every other bullet — each of them a
statement about columns of *all* hierarchies — in full (DESIGN.md §9).
Whatever a column holds is compared as a column (NumPy, or one list
comparison), never by a Python branch per node and attribute, and the
net creates nothing it checks: a lazy cache nobody has filled yet (a
mapped hierarchy's nodes, the span index's node columns, leaf list,
text index, boundary list) is derived from what the net did check, so
there is nothing to compare it with — and a commit's net attaches no
hierarchy it did not rebuild.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GoddagError
from repro.core.goddag.index import _end_keys, _start_keys
from repro.core.goddag.nodes import (
    GComment,
    GElement,
    GPi,
    GText,
    _HierarchyNode,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.goddag.goddag import KyGoddag, _HierarchyComponent


def _fail(message: str) -> None:
    raise GoddagError(f"invariant violation: {message}")


def check_invariants(goddag: "KyGoddag",
                     components: Iterable[str] | None = None) -> None:
    """Verify the structural contract; raise on the first breach.

    Without ``components`` this is the whole net.  With it, the
    per-node passes run over the named hierarchies only — the caller
    vouches that every other component is the object a verified
    version holds — and everything else runs unchanged.
    """
    names = goddag.hierarchy_names
    if components is not None:
        wanted = set(components)
        names = [name for name in names if name in wanted]
    _check_ranks(goddag)
    _check_root_tables(goddag)
    for name in names:
        _check_component(goddag, name)
    _check_order_keys(goddag)
    _check_partition(goddag)
    _check_span_index(goddag)


# ---------------------------------------------------------------------------
# hierarchies
# ---------------------------------------------------------------------------


def _check_ranks(goddag: "KyGoddag") -> None:
    ranks = [goddag.hierarchy_rank(name) for name in goddag.hierarchy_names]
    if len(set(ranks)) != len(ranks):
        _fail(f"duplicate hierarchy ranks {ranks}")
    if ranks != sorted(ranks):
        _fail(f"hierarchy registration order {goddag.hierarchy_names} "
              f"does not follow rank order {ranks}")


def _check_root_tables(goddag: "KyGoddag") -> None:
    """The root resolves its children and attributes in each hierarchy
    through the components this structure holds: its table is theirs."""
    if goddag.root.components is not goddag._components:
        _fail(f"the root's component table {list(goddag.root.components)} "
              f"is not the structure's {goddag.hierarchy_names}")


#: node class per kind code of the ``kinds`` column
_KIND_CLASSES = (GElement, GText, GComment, GPi)

#: node attribute -> the column it must repeat, row by row
_NODE_COLUMNS = {"start": "starts", "end": "ends",
                 "subtree_end": "subtree_ends"}


def _check_component(goddag: "KyGoddag", name: str) -> None:
    component = goddag._components[name]
    _check_rows(goddag, component)
    # From here on a node attribute and its column row are one value.
    count = len(component.nodes)
    length = len(goddag.text)
    rows = np.arange(count)
    starts, ends = component.starts, component.ends
    subtree_ends = component.subtree_ends
    bad = (subtree_ends < rows) | (subtree_ends >= count)
    if bad.any():
        position = int(np.argmax(bad))
        _fail(f"hierarchy '{name}' node {position} has subtree_end "
              f"{subtree_ends[position]} outside [{position}, {count})")
    bad = (starts < 0) | (starts > ends) | (ends > length)
    if bad.any():
        position = int(np.argmax(bad))
        _fail(f"hierarchy '{name}' node {position} span "
              f"[{starts[position]},{ends[position]}) escapes the text "
              f"(length {length})")
    bad = (component.kinds >= 2) & (starts != ends)
    if bad.any():
        _fail(f"hierarchy '{name}' comment/PI node {int(np.argmax(bad))} "
              f"has a non-empty span")
    bad = (component.kinds != 0) & (subtree_ends != rows)
    if bad.any():
        _fail(f"hierarchy '{name}' non-element node "
              f"{int(np.argmax(bad))} has a subtree")
    # a top-level node stores no parent: it is shared between versions
    _check_children(name, None, component.top_nodes, 0, count - 1, 0,
                    length)
    for node in component.nodes:
        if isinstance(node, GElement):
            _check_children(name, node, node.children, node.preorder + 1,
                            node.subtree_end, node.start, node.end)
    _check_text_tiling(goddag, component)


def _check_rows(goddag: "KyGoddag",
                component: "_HierarchyComponent") -> None:
    """Every column row agrees with its node object."""
    name = component.name
    nodes = component.nodes
    count = len(nodes)
    if any(len(getattr(component, key)) != count for key in (
            "kinds", "name_ids", "starts", "ends", "parents",
            "subtree_ends", "okeys")):
        _fail(f"hierarchy '{name}' holds {count} nodes but columns of "
              f"other lengths")

    def compare(what: str, found: list, expected: list) -> None:
        if found != expected:
            position = next(
                row for row, pair in enumerate(zip(found, expected))
                if pair[0] is not pair[1] and pair[0] != pair[1])
            _fail(f"hierarchy '{name}' row {position}: column says "
                  f"{what} {expected[position]!r}, node "
                  f"{nodes[position]!r} has {found[position]!r}")

    kinds = component.kinds.tolist()
    compare("class", list(map(type, nodes)),
            [_KIND_CLASSES[kind] for kind in kinds])
    compare("preorder", list(map(attrgetter("preorder"), nodes)),
            list(range(count)))
    compare("hierarchy", list(map(attrgetter("_hierarchy"), nodes)),
            [name] * count)
    for attribute, column in _NODE_COLUMNS.items():
        compare(attribute, list(map(attrgetter(attribute), nodes)),
                getattr(component, column).tolist())
    # a key is cached when a file supplied it or a sort asked for it
    okeys = component.okeys.tolist()
    compare("order key", [okey if node._okey is None else node._okey
                          for node, okey in zip(nodes, okeys)], okeys)
    if (component.parents >= np.arange(count)).any():
        _fail(f"hierarchy '{name}' parents column names a row at or "
              f"after the child's own")
    compare("parent", list(map(attrgetter("_parent"), nodes)),
            [nodes[parent] if parent >= 0 else None
             for parent in component.parents.tolist()])
    names = component.names
    compare("name", [node.name for node in nodes],
            [names[name_id] if name_id >= 0 else None
             for name_id in component.name_ids.tolist()])
    attrs = dict(component.attrs)
    data = {**dict(component.comments), **dict(component.pis)}
    for position, kind in enumerate(kinds):
        node = nodes[position]
        if kind == 0:
            if (node.attributes or position in attrs) \
                    and node.attributes != attrs.get(position):
                _fail(f"hierarchy '{name}' attributes of row {position} "
                      f"diverge from its node {node!r}")
        elif kind >= 2 and node.data != data.get(position):
            _fail(f"hierarchy '{name}' data of row {position} diverges "
                  f"from its node {node!r}")


def _check_children(name: str, parent, children, first_preorder: int,
                    last_subtree_end: int, span_start: int,
                    span_end: int) -> None:
    expected = first_preorder
    cursor = span_start
    for child in children:
        if not isinstance(child, _HierarchyNode):
            _fail(f"hierarchy '{name}' has a foreign child node "
                  f"{child!r}")
        if child.parent is not parent:
            _fail(f"hierarchy '{name}' node {child.preorder} has a stale "
                  f"parent link")
        if child.preorder != expected:
            _fail(f"hierarchy '{name}' child preorders are not "
                  f"contiguous: expected {expected}, found "
                  f"{child.preorder}")
        if child.start != cursor:
            _fail(f"hierarchy '{name}' node {child.preorder} starts at "
                  f"{child.start}, expected {cursor} (children must tile "
                  f"their parent's span)")
        cursor = child.end
        expected = child.subtree_end + 1
    if children and cursor != span_end:
        _fail(f"hierarchy '{name}' children of the node spanning "
              f"[{span_start},{span_end}) stop at {cursor}")
    if children and expected != last_subtree_end + 1:
        _fail(f"hierarchy '{name}' subtree interval mismatch: children "
              f"end at preorder {expected - 1}, parent subtree_end is "
              f"{last_subtree_end}")


def _check_text_tiling(goddag: "KyGoddag", component) -> None:
    """The text rows tile the base text (the row check made rows and
    nodes one value); a text index somebody built agrees with them."""
    rows = np.flatnonzero(component.kinds == 1)  # the text rows
    starts, ends = component.starts[rows], component.ends[rows]
    index = component._text_index
    if index is not None:
        nodes = component.nodes
        if index[1] != [nodes[row] for row in rows.tolist()]:
            _fail(f"hierarchy '{component.name}' text_nodes list diverges "
                  f"from the component nodes")
        if index[0] != starts.tolist():
            _fail(f"hierarchy '{component.name}' text_starts is stale")
    edges = np.concatenate(([0], ends))
    torn = starts != edges[:-1]
    if torn.any():
        _fail(f"hierarchy '{component.name}' text nodes do not tile "
              f"the base text at offset {edges[int(np.argmax(torn))]}")
    if edges[-1] != len(goddag.text):
        _fail(f"hierarchy '{component.name}' text nodes cover {edges[-1]} "
              f"of {len(goddag.text)} characters")


# ---------------------------------------------------------------------------
# global order
# ---------------------------------------------------------------------------


def _check_order_keys(goddag: "KyGoddag") -> None:
    """No stale cached key, and ``iter_nodes`` order strictly increases.

    Hierarchy nodes: the ``okeys`` column must be the packed key of its
    rank and row (the row check ties every node's cached key to it);
    such keys increase with the row and — ranks following registration
    order — from one component to the next, above the root's 0 and
    below every leaf's tier.  A leaf's key is its tier over its start
    offset, so leaf keys increase exactly when the leaf list follows
    the strictly increasing boundaries (the partition check); what is
    left is that no listed leaf caches another key.
    """
    from repro.core.goddag.goddag import pack_okeys

    for name in goddag.hierarchy_names:
        component = goddag._components[name]
        expected = pack_okeys(component.rank, len(component.okeys))
        if not np.array_equal(component.okeys, expected):
            position = int(np.argmax(component.okeys != expected))
            _fail(f"stale cached order key on "
                  f"{component.nodes[position]!r}: cached "
                  f"{component.okeys[position]}, recomputed "
                  f"{expected[position]}")
    for node in (goddag.root, *(goddag.partition._leaves_list or ())):
        cached = node._okey
        if cached is not None \
                and cached != goddag._compute_order_key(node):
            _fail(f"stale cached order key on {node!r}: cached "
                  f"{cached}, recomputed "
                  f"{goddag._compute_order_key(node)}")


# ---------------------------------------------------------------------------
# partition
# ---------------------------------------------------------------------------


def _check_partition(goddag: "KyGoddag") -> None:
    partition = goddag.partition
    length = len(goddag.text)
    if partition.length != length:
        _fail(f"partition length {partition.length} diverges from the "
              f"text length {length}")
    # the permanent text ends (one boundary when the text is empty),
    # then every boundary column
    contributed = [np.unique([0, length])]
    for name in goddag.hierarchy_names:
        component = goddag._components[name]
        contributed += (component.starts, component.ends)
    offsets, counts = np.unique(np.concatenate(contributed),
                                return_counts=True)
    bounds = offsets.tolist()
    if partition._refcounts is None:  # restored, not spliced since
        held, held_counts = partition._restored
        same = np.array_equal(held, offsets) \
            and np.array_equal(held_counts, counts)
    else:
        same = partition._refcounts == dict(zip(bounds, counts.tolist()))
    if not same:
        _fail("partition boundary refcounts diverge from the registered "
              "hierarchy boundaries")
    # The lazy read structures, where somebody has built them (each is
    # otherwise derived, on first use, from the multiset just checked).
    if partition._sorted is not None and partition._sorted != bounds:
        _fail("partition boundary list is not the sorted distinct "
              "offset set")
    if partition._bounds_array is not None \
            and not np.array_equal(partition._bounds_array, offsets):
        _fail("partition boundary array diverges from the boundary list")
    leaves = partition._leaves_list
    if leaves is not None and (
            list(map(attrgetter("start"), leaves)) != bounds[:-1]
            or list(map(attrgetter("end"), leaves)) != bounds[1:]):
        # ``bounds`` is the sorted distinct offsets from 0 to
        # ``length``: a leaf list that pairs them up tiles the text
        _fail("partition leaf list diverges from the boundary spans")
    if offsets[0] != 0 or offsets[-1] != length:
        _fail("partition leaves do not tile the text")


# ---------------------------------------------------------------------------
# span index
# ---------------------------------------------------------------------------


def _check_span_index(goddag: "KyGoddag") -> None:
    index = goddag._index
    if index is None:
        return
    components = [goddag._components[name]
                  for name in goddag.hierarchy_names]
    expected_count = 1 + sum(len(component.span_rows())
                             for component in components)
    if len(index) != expected_count:
        _fail(f"span index holds {len(index)} entries, expected "
              f"{expected_count}")
    root = goddag.root
    # gathered node columns, or none: an index that gathered them holds
    # only attached hierarchies, and one that did not attaches nothing
    gathered = index._nodes is not None
    sides = (
        ("start", index._s_keys, _start_keys, index._nodes, index.starts,
         index.ends, index.ranks, index.preorders, index._names),
        ("end", index._e_keys, _end_keys, index._e_nodes, index.e_starts,
         index.ends_sorted, index.e_ranks, index.e_preorders,
         index._e_names))
    for (side, keys, pack, nodes, starts, ends, ranks, preorders,
         names) in sides:
        if len(keys) and bool((np.diff(keys) < 0).any()):
            _fail(f"span index {side}-sorted keys are out of order")
        if not np.array_equal(keys, pack(np.asarray(starts),
                                         np.asarray(ends))):
            _fail(f"span index {side}-sorted keys diverge from the "
                  f"span columns")
        at_root = np.flatnonzero(ranks == -1)
        if (len(at_root) != 1
                or (gathered and nodes[at_root[0]] is not root)
                or (starts[at_root[0]], ends[at_root[0]],
                    preorders[at_root[0]], names[at_root[0]])
                != (root.start, root.end, -1, root.name)):
            _fail(f"span index {side}-side root entry is stale")
        seen = 1
        for component in components:
            at = ranks == component.rank
            found = preorders[at]
            seen += len(found)
            if not np.array_equal(np.sort(found), component.span_rows()):
                _fail(f"span index {side}-side entries of hierarchy "
                      f"'{component.name}' are not its span nodes")
            stale = ((names[at] != component.row_names(found))
                     | (starts[at] != component.starts[found])
                     | (ends[at] != component.ends[found]))
            if gathered:
                stale |= nodes[at] != component.node_arrays()[0][found]
            if side == "start":
                stale |= (index.subtree_ends[at]
                          != component.subtree_ends[found])
            if stale.any():
                position = int(np.flatnonzero(at)[np.argmax(stale)])
                _fail(f"span index {side}-side entry {position} (row "
                      f"{preorders[position]} of '{component.name}') is "
                      f"stale")
        if seen != len(ranks):
            _fail(f"span index {side}-side holds entries of an "
                  f"unregistered hierarchy")
    if index.subtree_ends[index.ranks == -1].tolist() != [-1]:
        _fail("span index start-side root entry is stale")
