"""A sorted span index over KyGODDAG nodes, incrementally maintained.

The extended axes of Definition 1 are pure interval predicates over
node spans (DESIGN.md §3).  The index keeps all span-bearing nodes
(root, elements, text nodes — of every hierarchy, including temporary
ones) in two sorted orders:

* by ``start`` — so *starts within a range* queries (``xdescendant``,
  ``following-overlapping``, ``xfollowing``) are a binary search plus a
  contiguous slice;
* by ``end`` — so *ends within a range* queries
  (``preceding-overlapping``, ``xpreceding``) are too.

Each slice is then refined with vectorized numpy comparisons, making an
axis evaluation O(log n + candidates) instead of O(n).

Membership changes are incremental (DESIGN.md §6): every hierarchy
contributes a *sub-index* of per-hierarchy sorted arrays.  Adding a
hierarchy merges its sub-arrays into the global arrays at positions
found by ``np.searchsorted``; removing one (an update replacing it)
compresses the global arrays through a rank mask and drops the
sub-index.  ``analyze-string``'s temporary hierarchies (Definition 4)
merge into an evaluation's :meth:`SpanIndex.shell` the same way — O(n)
vectorized array surgery into new arrays instead of a full Python-level
rebuild, the S-ANALYZE hot path measured by
``benchmarks/test_scaling_standard_axes.py``.
"""

from __future__ import annotations

import threading
from copy import copy
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import GoddagError
from repro.core.goddag.nodes import GNode, GRoot, _HierarchyNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.goddag.goddag import KyGoddag, _HierarchyComponent

#: Spans are packed into int64 merge keys as (start << 32) | ...;
#: offsets must stay below 2^31 for the keys to remain positive
#: (enforced at sub-index construction).
_OFFSET_BITS = 32
_OFFSET_MASK = (1 << _OFFSET_BITS) - 1
_OFFSET_LIMIT = 1 << 31


def _start_keys(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Merge keys realizing the (start asc, end desc) start order."""
    return (starts << _OFFSET_BITS) | (_OFFSET_MASK - ends)


def _end_keys(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Merge keys realizing the (end asc, start asc) end order."""
    return (ends << _OFFSET_BITS) | starts


def _object_column(nodes: list) -> np.ndarray:
    """``nodes`` as an object array (the index's node columns)."""
    column = np.empty(len(nodes), dtype=object)
    column[:] = nodes
    return column


def _pack_okeys(ranks: np.ndarray, preorders: np.ndarray) -> np.ndarray:
    """Packed Definition 3 order keys for span-index rows (vectorized).

    Mirrors :meth:`KyGoddag._pack_hierarchy_key` for hierarchy nodes
    (tier 1, minor 0) — including its overflow guard, so a join-only
    query path can never sort on silently wrapped keys.  The root
    (rank -1) keys to 0, exactly its packed order key.  Leaves and
    attributes never appear in the span index.
    """
    if len(ranks) and (int(ranks.max()) >= 1 << 16
                       or int(preorders.max()) >= 1 << 32):
        raise GoddagError(
            "document-order key overflow: hierarchy rank/preorder "
            "exceeds the packed int64 layout (see DESIGN.md §1)")
    keys = (np.int64(1) << np.int64(61)) | (ranks << np.int64(45)) \
        | (preorders << np.int64(13))
    return np.where(ranks == -1, np.int64(0), keys)


class _NameInterval:
    """Per-name interval-join columns (DESIGN.md §11).

    Start-sorted parallel arrays over the nonempty *elements* named
    ``name`` (root excluded), the same multiset re-sorted by the end
    order, running containment bounds (prefix max / suffix min of the
    end offsets), and packed Definition 3 order keys — everything the
    set-at-a-time kernels of :mod:`repro.core.goddag.joins` consume.
    The existence fast paths' containment tuples
    (:meth:`SpanIndex.name_containment`) are views of the same arrays,
    so each name is gathered exactly once.
    """

    __slots__ = ("nodes", "starts", "ends", "ranks", "preorders",
                 "subtree_ends", "okeys",
                 "prefix_max_ends", "suffix_min_ends",
                 "e_order", "e_nodes", "e_starts", "e_ends", "e_okeys")

    def __init__(self, nodes: np.ndarray, starts: np.ndarray,
                 ends: np.ndarray, ranks: np.ndarray,
                 preorders: np.ndarray,
                 subtree_ends: np.ndarray) -> None:
        self.nodes = nodes
        self.starts = starts
        self.ends = ends
        self.ranks = ranks
        self.preorders = preorders
        self.subtree_ends = subtree_ends
        self.okeys = _pack_okeys(ranks, preorders)
        if len(ends):
            self.prefix_max_ends = np.maximum.accumulate(ends)
            self.suffix_min_ends = np.minimum.accumulate(ends[::-1])[::-1]
        else:
            self.prefix_max_ends = ends
            self.suffix_min_ends = ends
        e_order = np.argsort(_end_keys(starts, ends), kind="stable")
        #: start-sorted row of each end-sorted entry: carries a row
        #: mask over the start order into the end order
        self.e_order = e_order
        self.e_nodes = nodes[e_order]
        self.e_starts = starts[e_order]
        self.e_ends = ends[e_order]
        self.e_okeys = self.okeys[e_order]

    def __len__(self) -> int:
        return len(self.starts)


class _SubIndex:
    """One hierarchy's span nodes as sorted parallel sub-arrays (the
    node columns only when ``objects`` are given)."""

    __slots__ = ("rank", "s_keys", "s_nodes", "s_starts", "s_ends",
                 "s_preorders", "s_subtree_ends", "s_names",
                 "e_keys", "e_nodes", "e_starts", "e_ends", "e_names",
                 "e_preorders")

    def __init__(self, rank: int, objects: np.ndarray | None,
                 names: np.ndarray, starts: np.ndarray, ends: np.ndarray,
                 preorders: np.ndarray, subtree_ends: np.ndarray,
                 perms: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> None:
        self.rank = rank
        if len(ends) and int(ends.max()) >= _OFFSET_LIMIT:
            raise GoddagError(
                "span offsets exceed 2^31; the packed int64 merge keys "
                "of the span index cannot represent this text")
        s_keys = _start_keys(starts, ends)
        e_keys = _end_keys(starts, ends)
        if perms is None:
            perms = (np.argsort(s_keys, kind="stable"),
                     np.argsort(e_keys, kind="stable"))
        s_order, e_order = perms
        self.s_keys = s_keys[s_order]
        self.s_starts = starts[s_order]
        self.s_ends = ends[s_order]
        self.s_preorders = preorders[s_order]
        self.s_subtree_ends = subtree_ends[s_order]
        self.s_names = names[s_order]
        self.e_keys = e_keys[e_order]
        self.s_nodes = self.e_nodes = None
        if objects is not None:
            self.s_nodes = objects[s_order]
            self.e_nodes = objects[e_order]
        self.e_starts = starts[e_order]
        self.e_ends = ends[e_order]
        self.e_names = names[e_order]
        self.e_preorders = preorders[e_order]

    @classmethod
    def of_root(cls, root: GNode) -> "_SubIndex":
        """The shared root's one-entry sub-index (rank -1).  The root
        carries no preorder bookkeeping; -1 matches the rank guard in
        ``ancestor_or_self_exclusion``."""
        objects = np.empty(1, dtype=object)
        objects[0] = root
        names = np.empty(1, dtype=object)
        names[0] = root.name
        minus_one = np.full(1, -1, dtype=np.int64)
        return cls(-1, objects, names, np.zeros(1, dtype=np.int64),
                   np.array([root.end], dtype=np.int64), minus_one,
                   minus_one)

    @classmethod
    def of_component(cls, component: "_HierarchyComponent",
                     with_nodes: bool) -> "_SubIndex":
        """A hierarchy's Definition 1 domain — its element and text
        nodes — read off the component's columns; its node objects
        only ``with_nodes``."""
        rows = component.span_rows()
        objects = _object_column(component.fill(rows.tolist())) \
            if with_nodes else None
        return cls(component.rank, objects, component.row_names(rows),
                   component.starts[rows], component.ends[rows], rows,
                   component.subtree_ends[rows], component.perms())

    def __len__(self) -> int:
        return len(self.s_keys)


class _MergedSub:
    """What the index remembers of a hierarchy it holds: the rank (the
    compression mask of :meth:`SpanIndex.remove_component`), the size
    (its empty-component early-out) and the component, whose nodes the
    index's node columns gather on first use.  The per-hierarchy sorted
    arrays of a :class:`_SubIndex` exist only during the merge — and
    never for a restored index, which does not replay one."""

    __slots__ = ("rank", "count", "component")

    def __init__(self, rank: int, count: int,
                 component: "_HierarchyComponent") -> None:
        self.rank = rank
        self.count = count
        self.component = component

    def __len__(self) -> int:
        return self.count


class SpanIndex:
    """Sorted parallel arrays over all span-bearing nodes.

    An index belongs to one version of a document but holds no
    reference to its KyGODDAG — only to that version's root, the one
    node it cannot share: :meth:`fork` hands the next version the same
    arrays, and a version nobody holds any more is freed with its last
    reference, not by the cycle collector.

    The two node columns are a fill-once cache over the numeric ones:
    entry ``i`` is node ``preorders[i]`` of the hierarchy ranked
    ``ranks[i]``.  An index gathers them — filling every row of every
    hierarchy it holds — the first time :attr:`nodes` or
    :attr:`e_nodes` is read, under the index's lock; until then
    membership changes, forks and renames edit the numeric and name
    columns only, and a version's merge or reseat drops gathered
    columns rather than fill a new component (DESIGN.md §10).
    """

    def __init__(self, goddag: "KyGoddag") -> None:
        self.root = goddag.root
        self._lock = threading.Lock()
        self._base: SpanIndex | None = None
        self._shadowed: set[str] = set()
        self._subs: dict[str, _MergedSub] = {}
        self._name_masks: dict[str, np.ndarray] = {}
        self._e_name_masks: dict[str, np.ndarray] = {}
        self._intervals: dict[str, _NameInterval] = {}
        self._okeys: np.ndarray | None = None
        self._e_okeys: np.ndarray | None = None
        # Hierarchies registered but not yet merged into the arrays.
        # Membership changes are applied *lazily* on the next read: an
        # analyze-string temporary whose evaluation never touches an
        # extended axis costs no array surgery at all (its shell is
        # dropped with the add still queued).
        self._pending: list = []
        self.incremental_adds = 0
        self.incremental_removes = 0
        # Seed the global arrays with the shared root (rank -1, never
        # removed), then merge every registered hierarchy in.
        self._seed_root()
        for name in goddag.hierarchy_names:
            self.add_component(goddag._components[name])
        self._flush_pending()
        self.incremental_adds = 0

    def _seed_root(self) -> None:
        """Global arrays holding the shared root alone (rank -1, never
        removed)."""
        root = _SubIndex.of_root(self.root)
        self._nodes = root.s_nodes
        self.starts = root.s_starts
        self.ends = root.s_ends
        self.ranks = np.full(1, -1, dtype=np.int64)
        self.preorders = root.s_preorders
        self.subtree_ends = root.s_subtree_ends
        self._names = root.s_names
        self._s_keys = root.s_keys
        self._e_nodes = root.e_nodes
        self.e_starts = root.e_starts
        self.ends_sorted = root.e_ends
        self.e_ranks = np.full(1, -1, dtype=np.int64)
        self.e_preorders = root.e_preorders
        self._e_names = root.e_names
        self._e_keys = root.e_keys
        self._refresh_nonempty()

    def __len__(self) -> int:
        self._flush_pending()
        return len(self.ranks)

    def _refresh_nonempty(self) -> None:
        self.nonempty = self.starts < self.ends
        self.e_nonempty = self.e_starts < self.ends_sorted

    # -- the node columns: gathered on first use ----------------------------

    @property
    def nodes(self) -> np.ndarray:
        """The node of each start-sorted entry (gathered on first use)."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._fill_nodes()[0]
        return nodes

    @property
    def e_nodes(self) -> np.ndarray:
        """The node of each end-sorted entry (gathered on first use)."""
        nodes = self._e_nodes
        if nodes is None:
            nodes = self._fill_nodes()[1]
        return nodes

    def _fill_nodes(self) -> tuple[np.ndarray, np.ndarray]:
        with self._lock:
            if self._nodes is None:
                base = self._base
                if base is not None:
                    # a shell that has merged nothing: its base's arrays
                    nodes, e_nodes = base.nodes, base.e_nodes
                else:
                    nodes, e_nodes = self._gather(
                        self.root,
                        lambda component: _object_column(component.nodes))
                self._e_nodes = e_nodes
                self._nodes = nodes  # the guard, assigned last
            return self._nodes, self._e_nodes

    def _gather(self, root_value, column) -> tuple[np.ndarray, np.ndarray]:
        """One object column in both sorted orders: entry ``i`` is
        ``column(component)[preorders[i]]`` of the hierarchy ranked
        ``ranks[i]``, and ``root_value`` for the root.  One table of
        every held component's rows and two gathers through it, however
        many hierarchies there are."""
        subs = list(self._subs.values())
        base = np.zeros(max((sub.rank for sub in subs), default=-1) + 2,
                        dtype=np.int64)
        base[0] = 1  # rank -1, preorder -1: the root, table row 0
        pieces = [np.empty(1, dtype=object)]
        pieces[0][0] = root_value
        offset = 1
        for sub in subs:
            rows = column(sub.component)
            base[sub.rank + 1] = offset
            pieces.append(rows)
            offset += len(rows)
        table = np.concatenate(pieces)
        return (table[base[self.ranks + 1] + self.preorders],
                table[base[self.e_ranks + 1] + self.e_preorders])

    # -- persistence (the .mhxb cold-load path, DESIGN.md §10) ---------------

    #: the numeric columns of both sorted orders: ``.mhxb`` block name
    #: under ``index/`` -> attribute
    COLUMNS = {"s_keys": "_s_keys", "starts": "starts", "ends": "ends",
               "ranks": "ranks", "preorders": "preorders",
               "subtree_ends": "subtree_ends", "e_keys": "_e_keys",
               "e_starts": "e_starts", "e_ends": "ends_sorted",
               "e_ranks": "e_ranks"}

    def fork(self, root: GRoot) -> "SpanIndex":
        """The next version's index: this one's arrays around ``root``.

        All thirteen numeric and name columns, both ``nonempty`` masks
        and every cached mask, interval and order-key column are handed
        over as they are — membership changes replace arrays, never
        write them.  The two node columns, if they are gathered, are
        copied once, to seat the new version's root; if not, the fork
        gathers its own on first use.  The two name columns turn
        read-only on both sides, so whichever side renames next copies
        them first (:meth:`rename_node`).
        """
        self._flush_pending()
        with self._lock:  # a reader may be gathering the node columns
            nodes, e_nodes = self._nodes, self._e_nodes
        fork = copy(self)
        fork.root = root
        fork._lock = threading.Lock()
        fork._subs = self._subs.copy()
        fork._name_masks = self._name_masks.copy()
        fork._e_name_masks = self._e_name_masks.copy()
        fork._intervals = self._intervals.copy()
        fork._pending = []
        fork.incremental_adds = fork.incremental_removes = 0
        fork._nodes = fork._e_nodes = None
        if nodes is not None:
            fork._nodes = nodes.copy()
            fork._nodes[self.ranks == -1] = root
            fork._e_nodes = e_nodes.copy()
            fork._e_nodes[self.e_ranks == -1] = root
        self._names.setflags(write=False)
        self._e_names.setflags(write=False)
        return fork

    def shell(self) -> "SpanIndex":
        """An evaluation's index over this one (DESIGN.md §8): the same
        arrays around the same root, which the shell's temporaries
        merge into as new arrays.

        Until the first merge, the node columns, name masks and order
        keys are this index's, read — and, where nobody has yet, filled
        — here.  After it, the positional ones are the shell's own,
        while the interval of a name no temporary holds is still this
        index's (:meth:`name_interval`).  Nothing the shell fills on
        behalf of its temporaries is written here.
        """
        self._flush_pending()
        shell = copy(self)
        shell._lock = threading.Lock()
        shell._subs = self._subs.copy()
        shell._name_masks = {}
        shell._e_name_masks = {}
        shell._intervals = {}
        shell._pending = []
        shell.incremental_adds = shell.incremental_removes = 0
        shell._base = self
        shell._shadowed = set()
        return shell

    def _shares_base(self) -> bool:
        """Is this a shell whose arrays are still its base's?"""
        base = self._base
        return base is not None and self._s_keys is base._s_keys

    @classmethod
    def restore(cls, root: GRoot, columns: dict[str, np.ndarray],
                components: list["_HierarchyComponent"]) -> "SpanIndex":
        """Rebuild a span index around existing numeric columns.

        ``columns`` holds both sorted orders as a ``.mhxb`` file has
        them — they may stay memory-mapped, and nothing is re-sorted or
        re-merged.  The end-sorted preorder column, which the file does
        not carry, comes from each hierarchy's end permutation; the two
        name columns from the components' name columns, through it.
        The node columns are left to their first reader, so restoring
        makes no node.
        """
        index = cls.__new__(cls)
        index.root = root
        index._lock = threading.Lock()
        index._base = None
        index._shadowed = set()
        index._name_masks = {}
        index._e_name_masks = {}
        index._intervals = {}
        index._okeys = None
        index._e_okeys = None
        index._pending = []
        index.incremental_adds = 0
        index.incremental_removes = 0
        for key, attribute in cls.COLUMNS.items():
            setattr(index, attribute, columns[key])
        e_ranks = index.e_ranks
        e_preorders = np.full(len(e_ranks), -1, dtype=np.int64)
        index._subs = {}
        for component in components:
            rows = component.span_rows()
            e_preorders[e_ranks == component.rank] = \
                rows[component.perms()[1]]
            index._subs[component.name] = _MergedSub(
                component.rank, len(rows), component)
        index.e_preorders = e_preorders
        index._names, index._e_names = index._gather(
            root.name, lambda component: component.row_names())
        index._nodes = index._e_nodes = None
        index._refresh_nonempty()
        return index

    def freeze(self) -> None:
        """Flush pending membership changes and mark the numeric arrays
        read-only — accidental in-place writes then raise instead of
        tearing a concurrent snapshot reader (DESIGN.md §10).  Array
        *replacement* stays possible — a fork's update and a shell's
        temporaries merge into fresh arrays."""
        self._flush_pending()
        self.okey_columns()
        for array in (self._s_keys, self.starts, self.ends, self.ranks,
                      self.preorders, self.subtree_ends, self._e_keys,
                      self.e_starts, self.ends_sorted, self.e_ranks,
                      self.e_preorders):
            array.setflags(write=False)

    # -- incremental maintenance --------------------------------------------

    def add_component(self, component: "_HierarchyComponent") -> None:
        """Queue one hierarchy for merging into the global arrays.

        The merge itself is deferred to the next index read
        (:meth:`_flush_pending`); the counter tracks membership changes
        handled without a rebuild, flushed or not.
        """
        self._pending.append(component)
        self.incremental_adds += 1

    def _flush_pending(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        for component in pending:
            self._merge_component(component)

    def _merge_component(self, component: "_HierarchyComponent") -> None:
        # A shell's node columns follow along: it takes its base's
        # first and fills its temporary's span rows (small; a gather
        # after the merge would be the shell's alone, once per
        # evaluation).  A version's are dropped, to be gathered again
        # by their next reader: a commit fills no row of a component
        # it merges.
        filled = self._base is not None
        if filled and self._nodes is None:
            self._fill_nodes()
        sub = _SubIndex.of_component(component, with_nodes=filled)
        # once merged, only the rank, the size and the component (for
        # the node gather) are ever read again
        self._subs[component.name] = _MergedSub(component.rank, len(sub),
                                                component)
        if len(sub):
            positions = np.searchsorted(self._s_keys, sub.s_keys,
                                        side="right")
            self._s_keys = np.insert(self._s_keys, positions, sub.s_keys)
            self.starts = np.insert(self.starts, positions, sub.s_starts)
            self.ends = np.insert(self.ends, positions, sub.s_ends)
            self.ranks = np.insert(self.ranks, positions,
                                   np.int64(sub.rank))
            self.preorders = np.insert(self.preorders, positions,
                                       sub.s_preorders)
            self.subtree_ends = np.insert(self.subtree_ends, positions,
                                          sub.s_subtree_ends)
            self._names = np.insert(self._names, positions, sub.s_names)
            e_positions = np.searchsorted(self._e_keys, sub.e_keys,
                                          side="right")
            self._e_keys = np.insert(self._e_keys, e_positions, sub.e_keys)
            self.e_starts = np.insert(self.e_starts, e_positions,
                                      sub.e_starts)
            self.ends_sorted = np.insert(self.ends_sorted, e_positions,
                                         sub.e_ends)
            self.e_ranks = np.insert(self.e_ranks, e_positions,
                                     np.int64(sub.rank))
            self._e_names = np.insert(self._e_names, e_positions,
                                      sub.e_names)
            self.e_preorders = np.insert(self.e_preorders, e_positions,
                                         sub.e_preorders)
            if filled:
                self._nodes = np.insert(self._nodes, positions, sub.s_nodes)
                self._e_nodes = np.insert(self._e_nodes, e_positions,
                                          sub.e_nodes)
            else:
                self._nodes = self._e_nodes = None
            self._refresh_nonempty()
        names = {name for name in sub.s_names if name is not None}
        if self._base is not None:
            self._shadowed |= names
        self._clear_derived(names=names)

    def remove_component(self, component: "_HierarchyComponent") -> None:
        """Drop one hierarchy: cancel its queued add, or compress the
        global arrays when it was already merged."""
        for position, pending in enumerate(self._pending):
            if pending is component:
                del self._pending[position]
                self.incremental_removes += 1
                return
        sub = self._subs.pop(component.name, None)
        if sub is None or not len(sub):
            return
        keep = self.ranks != sub.rank
        # read off the live name column, not the sub-index's own table:
        # in-place renames patch only the former
        names = {name for name in self._names[~keep] if name is not None}
        self._s_keys = self._s_keys[keep]
        self.starts = self.starts[keep]
        self.ends = self.ends[keep]
        self.ranks = self.ranks[keep]
        self.preorders = self.preorders[keep]
        self.subtree_ends = self.subtree_ends[keep]
        self._names = self._names[keep]
        e_keep = self.e_ranks != sub.rank
        self._e_keys = self._e_keys[e_keep]
        self.e_starts = self.e_starts[e_keep]
        self.ends_sorted = self.ends_sorted[e_keep]
        self.e_preorders = self.e_preorders[e_keep]
        self.e_ranks = self.e_ranks[e_keep]
        self._e_names = self._e_names[e_keep]
        if self._nodes is not None:
            self._nodes = self._nodes[keep]
            self._e_nodes = self._e_nodes[e_keep]
        self._refresh_nonempty()
        self._clear_derived(names=names)
        self.incremental_removes += 1

    def reseat_component(self, component: "_HierarchyComponent") -> None:
        """Point one hierarchy's entries at ``component``'s nodes.

        For a component that replaces its twin row for row
        (:meth:`_HierarchyComponent.private_copy`): spans, ranks and
        preorders stand, so only this version's two node columns change
        — they are dropped, to be gathered from ``component`` by their
        next reader, so that a rename fills no row of the copy but its
        target — and the per-name interval caches, which gathered the
        twin's nodes, reset.
        """
        self._flush_pending()
        held = self._subs[component.name]
        self._subs[component.name] = _MergedSub(held.rank, held.count,
                                                component)
        self._nodes = self._e_nodes = None
        self._intervals.clear()

    def rename_node(self, node: GNode) -> None:
        """Patch the name arrays after an in-place element rename.

        The node's spans (and therefore its packed merge keys and array
        positions) are unchanged, so the patch is two bisects into the
        sorted key arrays plus a rank and preorder match over the
        (tiny) equal-key runs — no node column is read.  Name columns
        another version shares (:meth:`fork`) are copied before the
        first write.
        """
        self._flush_pending()
        if not self._names.flags.writeable:
            self._names = self._names.copy()
            self._e_names = self._e_names.copy()
        rank = self._subs[node.hierarchy].rank
        start, end = int(node.start), int(node.end)
        for keys, ranks, preorders, names, key in (
                (self._s_keys, self.ranks, self.preorders, self._names,
                 (start << _OFFSET_BITS) | (_OFFSET_MASK - end)),
                (self._e_keys, self.e_ranks, self.e_preorders,
                 self._e_names, (end << _OFFSET_BITS) | start)):
            left = int(np.searchsorted(keys, key, side="left"))
            right = int(np.searchsorted(keys, key, side="right"))
            names[left:right][(ranks[left:right] == rank)
                              & (preorders[left:right] == node.preorder)] \
                = node.name
        # Spans, ranks and preorders are untouched: the order-key
        # columns stay valid; only the name-derived caches reset.
        self._name_masks.clear()
        self._e_name_masks.clear()
        self._intervals.clear()

    def reset_root(self) -> None:
        """Re-seed the root entry after a base-text length change.

        Callable only while no hierarchy is merged or pending (the
        update applier removes every component first): the global
        arrays then hold exactly the root, whose span must track the
        new text length.
        """
        if self._subs or self._pending:
            raise GoddagError(
                "reset_root requires all hierarchy components to be "
                "removed first")
        self._seed_root()
        self._clear_derived()

    def _clear_derived(self, names=None) -> None:
        """Invalidate caches after a membership change.

        The boolean name masks and packed order-key columns are
        *positional* (parallel to the global arrays), so any membership
        change stales them wholesale — the order keys rebuild with two
        vectorized packs on next use.  The per-name containment and
        interval caches hold gathered *values* (a node's spans and
        order key never change once registered), so a change only
        stales the names the changed component actually contains —
        pass them as ``names`` to keep every other name's arrays warm
        across an update or a shell's temporaries.  ``names=None``
        clears everything.
        """
        self._name_masks.clear()
        self._e_name_masks.clear()
        self._okeys = None
        self._e_okeys = None
        if names is None:
            self._intervals.clear()
            return
        for name in names:
            self._intervals.pop(name, None)

    # -- name pushdown -------------------------------------------------------

    def name_mask(self, name: str) -> np.ndarray:
        """Mask (start-sorted order) of nodes named ``name``."""
        self._flush_pending()
        mask = self._name_masks.get(name)
        if mask is None:
            if self._shares_base():
                return self._base.name_mask(name)
            mask = self._names == name
            self._name_masks[name] = mask
        return mask

    def e_name_mask(self, name: str) -> np.ndarray:
        """Mask (end-sorted order) of nodes named ``name``."""
        self._flush_pending()
        mask = self._e_name_masks.get(name)
        if mask is None:
            if self._shares_base():
                return self._base.e_name_mask(name)
            mask = self._e_names == name
            self._e_name_masks[name] = mask
        return mask

    def name_containment(self, name: str) -> tuple:
        """Per-name containment arrays (DESIGN.md §8).

        ``(starts, ends, max_ends, ranks, preorders, subtree_ends)``
        over the nonempty *elements* named ``name`` (the root excluded),
        start-sorted, where ``max_ends`` is the running maximum of
        ``ends``.  ``span ⊇ [s, e)`` existence is then one bisect plus
        one prefix-max lookup: a container named ``name`` exists iff
        some entry starts at or before ``s`` and the prefix max end
        reaches ``e``.  A view of the cached :meth:`name_interval`
        columns — one gather per name serves both the existence fast
        paths and the join kernels.
        """
        interval = self.name_interval(name)
        return (interval.starts, interval.ends, interval.prefix_max_ends,
                interval.ranks, interval.preorders, interval.subtree_ends)

    def has_containing_named(self, name: str, start: int,
                             end: int) -> bool:
        """True iff a nonempty element named ``name`` spans ``[start,
        end)`` or wider (root excluded)."""
        starts, _ends, max_ends, _r, _p, _s = self.name_containment(name)
        position = int(starts.searchsorted(start, side="right"))
        return position > 0 and int(max_ends[position - 1]) >= end

    # -- interval-join columns (DESIGN.md §11) -------------------------------

    def okey_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Packed Definition 3 order keys, in both sort orders.

        ``(start-sorted, end-sorted)`` parallel to ``nodes`` /
        ``e_nodes``.  Join kernels gather these per candidate position,
        so one ``np.unique`` over the gathered keys is simultaneously
        the step's deduplication *and* its global document-order merge
        — no per-node Python key computation.
        """
        self._flush_pending()
        if self._okeys is None:
            if self._shares_base():
                return self._base.okey_columns()
            # Guard attribute assigned last: racing fills on a shared
            # frozen snapshot must never expose a half-built pair.
            self._e_okeys = _pack_okeys(self.e_ranks, self.e_preorders)
            self._okeys = _pack_okeys(self.ranks, self.preorders)
        return self._okeys, self._e_okeys

    def name_interval(self, name: str) -> _NameInterval:
        """The cached per-name interval-join columns (DESIGN.md §11):
        a shell's are its base's for every name its temporaries do not
        hold."""
        self._flush_pending()
        interval = self._intervals.get(name)
        if interval is None:
            if self._base is not None and name not in self._shadowed:
                return self._base.name_interval(name)
            mask = self.name_mask(name) & self.nonempty & (self.ranks != -1)
            interval = _NameInterval(self.nodes[mask], self.starts[mask],
                                     self.ends[mask], self.ranks[mask],
                                     self.preorders[mask],
                                     self.subtree_ends[mask])
            self._intervals[name] = interval
        return interval

    # -- range slices -----------------------------------------------------------

    def start_slice(self, lo: int, hi: int) -> tuple[int, int]:
        """Positions whose ``start`` lies in ``[lo, hi)``."""
        self._flush_pending()
        starts = self.starts
        return (int(starts.searchsorted(lo, side="left")),
                int(starts.searchsorted(hi, side="left")))

    def end_slice(self, lo: int, hi: int) -> tuple[int, int]:
        """End-sorted positions whose ``end`` lies in ``[lo, hi)``."""
        self._flush_pending()
        ends = self.ends_sorted
        return (int(ends.searchsorted(lo, side="left")),
                int(ends.searchsorted(hi, side="left")))

    # -- selection ---------------------------------------------------------------

    def select_slice(self, left: int, right: int,
                     mask: np.ndarray) -> list[GNode]:
        """Nodes at true positions of ``mask`` over ``[left, right)``."""
        return self.nodes[left:right][mask].tolist()

    def select_end_slice(self, left: int, right: int,
                         mask: np.ndarray) -> list[GNode]:
        """Like :meth:`select_slice`, over the end-sorted arrays."""
        return self.e_nodes[left:right][mask].tolist()

    # -- exclusion helpers --------------------------------------------------------

    def ancestor_or_self_exclusion(self, node: GNode, left: int,
                                   right: int) -> np.ndarray:
        """Mask over ``[left, right)``: same-hierarchy ancestors-or-self.

        Used by ``xdescendant`` (Definition 1 excludes
        ``ancestor(n) ∪ {n}``).  The root never appears inside a start
        slice for a non-root context unless ``n.start == 0``; it is
        matched by its rank (-1) guard below.
        """
        ranks = self.ranks[left:right]
        preorders = self.preorders[left:right]
        subtree_ends = self.subtree_ends[left:right]
        if node is self.root or not isinstance(node, _HierarchyNode):
            # The root has no proper ancestors; a leaf's only indexed
            # ancestor beyond its text chains is the root — and leaf
            # contexts never reach here (xdescendant(leaf) is empty).
            return ranks == -1
        rank = self._subs[node.hierarchy].rank
        mask = (ranks == rank) & (preorders <= node.preorder) & \
            (subtree_ends >= node.preorder)
        mask |= ranks == -1  # the root
        return mask

    def is_descendant_or_self(self, node: GNode, other: GNode) -> bool:
        """True when ``other`` is ``node`` or its within-hierarchy
        descendant (including, for the root, every hierarchy node)."""
        if other is node:
            return True
        if node is self.root:
            return isinstance(other, _HierarchyNode)
        if not isinstance(node, _HierarchyNode):
            return False
        return node.is_ancestor_of(other)
