"""Structural invariant checking for the KyGODDAG (DESIGN.md §9).

``check_invariants`` raises :class:`~repro.errors.GoddagError` on the
first violation.  It is the post-apply safety net of the transactional
update engine: every code path that mutates a KyGODDAG in place
(hierarchy replacement, in-place renames, base-text rebuilds) must
leave a structure indistinguishable from a from-scratch build, and this
module is the executable statement of what that means:

* hierarchy ranks are unique and registration order follows rank, so
  the Definition 3 node order is well defined;
* per component: every filled row agrees with its node object — kind,
  name, span, parent, preorder (``nodes[i].preorder == i``), subtree
  end, order key, attributes, comment/PI data, and the child list once
  it has been read; forks, saves and the span index read the columns,
  queries read the nodes — subtree intervals nest, children's rows are
  contiguous, child spans tile their parent's span in order, and text
  nodes tile the base text exactly;
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

The second bullet is the only one that reads node objects — those of
the rows somebody filled — and ``components=`` narrows it to the
hierarchies whose component a commit built.  It narrows the last one
too: key order, the keys against the spans, the root entry and every
hierarchy's entry count still cover the whole index, and the entries
of a built hierarchy are compared in full, but those of any other —
its component the object a verified version holds, its entries moved
only by merges that keep their relative order — are proven on integer
columns: they are its span rows in the order its own permutation sorts
them, each carrying that row's span and subtree end.  Their names moved
with the preorders they were verified beside and are not compared
again; gathered node columns, which a commit's merge drops, are
compared wherever they exist.  Every other bullet is a statement about
columns of *all* hierarchies and runs in full (DESIGN.md §9).

Whatever a column holds is compared as a column (NumPy, or one list
comparison), never by a Python branch per node and attribute, and the
net creates nothing it checks: a lazy cache nobody has filled yet (a
row's node, a node's parent or children, the span index's node
columns, leaf list, text index, boundary list) is derived from what the
net did check, so there is nothing to compare it with — and a commit's
net fills no row.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import attrgetter
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GoddagError
from repro.core.goddag.index import _end_keys, _object_column, _start_keys
from repro.core.goddag.nodes import (
    UNREAD,
    GComment,
    GElement,
    GPi,
    GText,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.goddag.goddag import KyGoddag, _HierarchyComponent


def _fail(message: str) -> None:
    raise GoddagError(f"invariant violation: {message}")


def check_invariants(goddag: "KyGoddag",
                     components: Iterable[str] | None = None) -> None:
    """Verify the structural contract; raise on the first breach.

    Without ``components`` this is the whole net.  With it, the
    per-node passes and the full comparison of span-index entries run
    over the named hierarchies only — the caller vouches that every
    other component is the object a verified version holds, and their
    entries are proven on integer columns — and everything else runs
    unchanged.
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
    _check_span_index(goddag, None if components is None else set(names))


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
    # From here on a filled node and its column row are one value.
    count = len(component.kinds)
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
    _check_children(name, component, length)
    _check_text_tiling(goddag, component)


def _check_rows(goddag: "KyGoddag",
                component: "_HierarchyComponent") -> None:
    """Every filled row agrees with its node object."""
    name = component.name
    count = len(component.kinds)
    if any(len(getattr(component, key)) != count for key in (
            "name_ids", "starts", "ends", "parents", "subtree_ends",
            "okeys")):
        _fail(f"hierarchy '{name}' holds {count} rows but columns of "
              f"other lengths")
    if (component.parents >= np.arange(count)).any():
        _fail(f"hierarchy '{name}' parents column names a row at or "
              f"after the child's own")
    if (component.parents < -1).any():
        _fail(f"hierarchy '{name}' parents column names a row below "
              f"-1, the root")
    objects = component._objects
    if objects is None:
        return  # nobody has asked for a node
    if len(objects) != count:
        _fail(f"hierarchy '{name}' holds {len(objects)} node slots for "
              f"{count} rows")
    filled = component.filled()
    if len(filled) != count - component._unfilled:
        _fail(f"hierarchy '{name}' counts {count - component._unfilled} "
              f"filled rows, holds {len(filled)}")
    rows = filled.tolist()
    nodes = [objects[row] for row in rows]

    def compare(what: str, found: list, expected: list) -> None:
        if found != expected:
            position = next(
                index for index, pair in enumerate(zip(found, expected))
                if pair[0] is not pair[1] and pair[0] != pair[1])
            _fail(f"hierarchy '{name}' row {rows[position]}: column says "
                  f"{what} {expected[position]!r}, node "
                  f"{nodes[position]!r} has {found[position]!r}")

    def column(key: str) -> list:
        return getattr(component, key)[filled].tolist()

    kinds = column("kinds")
    compare("class", list(map(type, nodes)),
            [_KIND_CLASSES[kind] for kind in kinds])
    compare("preorder", list(map(attrgetter("preorder"), nodes)), rows)
    compare("hierarchy", list(map(attrgetter("_hierarchy"), nodes)),
            [name] * len(rows))
    compare("component", list(map(attrgetter("_component"), nodes)),
            [component] * len(rows))
    for attribute, key in _NODE_COLUMNS.items():
        compare(attribute, list(map(attrgetter(attribute), nodes)),
                column(key))
    # a key is cached when a file supplied it or a sort asked for it
    compare("order key", [okey if node._okey is None else node._okey
                          for node, okey in zip(nodes, column("okeys"))],
            column("okeys"))
    # a parent is stored once somebody has read it
    read = [index for index, node in enumerate(nodes)
            if node._parent is not UNREAD]
    parents = column("parents")
    compare("parent", [nodes[index]._parent for index in read],
            [objects[parents[index]] if parents[index] >= 0 else None
             for index in read])
    names = component.names
    compare("name", [node.name for node in nodes],
            [names[name_id] if name_id >= 0 else None
             for name_id in column("name_ids")])
    attrs = dict(component.attrs)
    data = {**dict(component.comments), **dict(component.pis)}
    for row, kind, node in zip(rows, kinds, nodes):
        if kind == 0:
            if (node.attributes or row in attrs) \
                    and node.attributes != attrs.get(row):
                _fail(f"hierarchy '{name}' attributes of row {row} "
                      f"diverge from its node {node!r}")
        elif kind >= 2 and node.data != data.get(row):
            _fail(f"hierarchy '{name}' data of row {row} diverges "
                  f"from its node {node!r}")
    # a child list is stored once somebody has read it: the children
    # are the rows whose parent the element is, in row order
    read = [node for node in nodes
            if isinstance(node, GElement) and node._children is not None]
    if read:
        order = np.argsort(component.parents, kind="stable")
        bounds = np.searchsorted(component.parents[order],
                                 [[node.preorder for node in read],
                                  [node.preorder + 1 for node in read]])
        for node, low, high in zip(read, *bounds.tolist()):
            if node._children != [objects[row]
                                  for row in order[low:high].tolist()]:
                _fail(f"hierarchy '{name}' child list of row "
                      f"{node.preorder} diverges from its rows")


def _check_children(name: str, component: "_HierarchyComponent",
                    length: int) -> None:
    """The tree the ``parents`` column draws, against the spans and
    subtree ends: each node's children are contiguous in row order (the
    first right after its parent, each next right after the subtree
    before it), their spans tile the parent's span in order, and the
    last child's subtree ends the parent's — the root's span is the
    whole text, its subtree every row."""
    count = len(component.kinds)
    if not count:
        return
    rows = np.arange(count)
    parents, starts, ends = component.parents, component.starts, \
        component.ends
    subtree_ends = component.subtree_ends
    # children grouped by parent, each group in row order
    order = np.argsort(parents, kind="stable")
    grouped = parents[order]
    same = grouped[1:] == grouped[:-1]
    sibling = np.full(count, -1)  # the previous sibling of each row
    sibling[order[1:][same]] = order[:-1][same]
    last = order[np.append(~same, True)]  # the last child of each parent
    after = sibling >= 0
    before = np.maximum(sibling, 0)
    top = parents < 0
    up = np.maximum(parents, 0)
    bad = np.where(after, subtree_ends[before] + 1, parents + 1) != rows
    if bad.any():
        position = int(np.argmax(bad))
        _fail(f"hierarchy '{name}' child preorders are not contiguous: "
              f"node {position} follows neither its parent nor its "
              f"previous sibling's subtree")
    edge = np.where(after, ends[before], np.where(top, 0, starts[up]))
    bad = starts != edge
    if bad.any():
        position = int(np.argmax(bad))
        _fail(f"hierarchy '{name}' node {position} starts at "
              f"{starts[position]}, expected {edge[position]} (children "
              f"must tile their parent's span)")
    bad = ends[last] != np.where(top[last], length, ends[up[last]])
    if bad.any():
        position = int(last[np.argmax(bad)])
        _fail(f"hierarchy '{name}' children of the node at row "
              f"{parents[position]} stop at {ends[position]}, before "
              f"their parent's end")
    expected = np.where(top[last], count - 1, subtree_ends[up[last]])
    bad = subtree_ends[last] != expected
    if bad.any():
        position = int(np.argmax(bad))
        _fail(f"hierarchy '{name}' subtree interval mismatch: children "
              f"end at preorder {subtree_ends[last[position]]}, parent "
              f"subtree_end is {expected[position]}")


def _check_text_tiling(goddag: "KyGoddag", component) -> None:
    """The text rows tile the base text (the row check made rows and
    nodes one value); a text index somebody built agrees with them."""
    rows = np.flatnonzero(component.kinds == 1)  # the text rows
    starts, ends = component.starts[rows], component.ends[rows]
    index = component._text_index
    if index is not None:
        objects = component._objects
        if index[1] != [objects[row] for row in rows.tolist()]:
            _fail(f"hierarchy '{component.name}' text_nodes list diverges "
                  f"from the component nodes")
        if index[0].tolist() != starts.tolist():
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
            _fail(f"stale cached order key on row {position} of "
                  f"'{name}': cached {component.okeys[position]}, "
                  f"recomputed {expected[position]}")
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
    held, held_counts = partition.export_arrays()
    if not (np.array_equal(held, offsets)
            and np.array_equal(held_counts, counts)):
        _fail("partition boundary refcounts diverge from the registered "
              "hierarchy boundaries")
    # The lazy read structures, where somebody has built them (each is
    # otherwise derived, on first use, from the multiset just checked).
    if partition._sorted is not None and partition._sorted != bounds:
        _fail("partition boundary list is not the sorted distinct "
              "offset set")
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


def _check_span_index(goddag: "KyGoddag",
                      built: set[str] | None) -> None:
    """The index against the columns.  Key order, the keys against the
    spans, the root entry and every hierarchy's entry count are checked
    over the whole index; each entry of a hierarchy in ``built`` (all,
    when ``None``) is compared in full with the row it names.  Another
    hierarchy's component is the object a verified version holds, and
    its entries are that version's, only moved by merges that keep
    their relative order: they are proven on integer columns — its
    entries are its span rows in its sort order, each with that row's
    span and subtree end — and their names, which moved with them, are
    not compared again; gathered nodes are, wherever they exist
    (DESIGN.md §9)."""
    index = goddag._index
    if index is None:
        return
    index._flush_pending()
    components = [goddag._components[name]
                  for name in goddag.hierarchy_names]
    span_rows = [component.span_rows() for component in components]
    # the root once, each hierarchy its span rows
    expected_count = 1 + sum(len(rows) for rows in span_rows)
    root = goddag.root
    # gathered node columns, or none: an index that gathered them holds
    # only filled rows, and one that did not fills nothing
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
        if len(ranks) != expected_count:
            _fail(f"span index {side}-side holds {len(ranks)} entries, "
                  f"expected {expected_count}")
        at_root = np.flatnonzero(ranks == -1)
        if (len(at_root) != 1
                or (gathered and nodes[at_root[0]] is not root)
                or (starts[at_root[0]], ends[at_root[0]],
                    preorders[at_root[0]], names[at_root[0]])
                != (root.start, root.end, -1, root.name)):
            _fail(f"span index {side}-side root entry is stale")
        for component, rows in zip(components, span_rows):
            # positions, not a mask: one scan, then every column a gather
            at = np.flatnonzero(ranks == component.rank)
            if len(at) != len(rows):
                _fail(f"span index {side}-side holds {len(at)} entries "
                      f"of hierarchy '{component.name}', which has "
                      f"{len(rows)} span nodes")
            found = preorders[at]
            if built is None or component.name in built:
                if not np.array_equal(np.sort(found), rows):
                    _fail(f"span index {side}-side entries of hierarchy "
                          f"'{component.name}' are not its span nodes")
                stale = names[at] != component.row_names(found)
            else:
                # the span rows in the order the hierarchy's own
                # permutation sorts them — each row once, equal keys
                # by row: the stable order every merge keeps
                held = keys[at]
                if not np.array_equal(
                        found, rows[component.perms()[side == "end"]]) \
                        or bool(((held[1:] == held[:-1])
                                 & (found[1:] <= found[:-1])).any()):
                    _fail(f"span index {side}-side entries of hierarchy "
                          f"'{component.name}' are not its span nodes "
                          f"in {side} order")
                stale = np.zeros(len(found), dtype=bool)
            stale |= ((starts[at] != component.starts[found])
                      | (ends[at] != component.ends[found]))
            if gathered:
                objects = component._objects or [None] * len(
                    component.kinds)
                stale |= nodes[at] != _object_column(
                    [objects[row] for row in found.tolist()])
            if side == "start":
                stale |= (index.subtree_ends[at]
                          != component.subtree_ends[found])
            if stale.any():
                position = int(at[np.argmax(stale)])
                _fail(f"span index {side}-side entry {position} (row "
                      f"{preorders[position]} of '{component.name}') is "
                      f"stale")
    if index.subtree_ends[index.ranks == -1].tolist() != [-1]:
        _fail("span index start-side root entry is stale")
