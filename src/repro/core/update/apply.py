"""The update applier: every primitive is a row edit (DESIGN.md §9).

``apply_pending`` applies a validated :class:`PendingUpdateList`
atomically to a live KyGODDAG.  A hierarchy there is the rows of its
:class:`~repro.core.goddag.goddag._HierarchyComponent`, and each
primitive edits a working copy of the rows of the hierarchy it touches
— nothing registered is written, so a statement that fails leaves
nothing to undo:

* a rename sets a row's name; ``remove markup`` drops one row, whose
  children take its parent; ``add markup`` splits at most two text rows
  and inserts one element row over the covered children;
* ``replace value of`` / ``delete`` / ``insert`` splice one row range
  in their owner hierarchy (in that kind order) and contribute one
  base-text edit in pre-state offsets, which every other hierarchy
  absorbs in its text rows' lengths.

Each copy is finished by re-deriving every span from one ``cumsum``
over the text rows' lengths (:func:`~repro.core.goddag.goddag.row_spans`,
which the XML tokenizer numbers its rows with too) and by
:func:`~repro.core.goddag.goddag.normal_rows`, the normalisation the
corpus fuse shares; the new components then replace the old ones
through ``replace_hierarchy``, or, when the text changed,
``rebuild_hierarchies``.  No DOM is built or walked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import UpdateConflictError, UpdateError
from repro.core.goddag.goddag import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    _ComponentWriter,
    _HierarchyComponent,
    _push_children,
    normal_rows,
    row_spans,
)
from repro.core.update.pul import (
    AddMarkupPrim,
    DeletePrim,
    InsertPrim,
    PendingUpdateList,
    RemoveMarkupPrim,
    ReplaceValuePrim,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.goddag.goddag import KyGoddag


@dataclass
class UpdateApplyStats:
    """What one apply did — returned by :func:`apply_pending`."""

    counts: dict[str, int] = field(default_factory=dict)
    #: hierarchies re-registered through the incremental splice path
    replaced_hierarchies: list[str] = field(default_factory=list)
    #: elements renamed fully in place (no re-registration at all)
    renamed_in_place: int = 0
    #: every hierarchy the apply changed: the re-registered ones and
    #: those renamed in place — what the net walks and an engine's
    #: document re-seats
    changed_hierarchies: list[str] = field(default_factory=list)
    #: net base-text growth in characters (0 for markup-only updates)
    text_delta: int = 0
    text_changed: bool = False

    @property
    def applied(self) -> int:
        """Total primitives applied."""
        return sum(self.counts.values())


@dataclass
class _TextEdit:
    """One base-text splice in pre-state offsets."""

    start: int
    end: int
    replacement: str
    owner: str  # hierarchy whose rows absorbed this edit structurally


def apply_pending(goddag: "KyGoddag", pending: PendingUpdateList, *,
                  check: bool = False) -> UpdateApplyStats:
    """Apply a pending update list atomically; return apply statistics.

    Conflict and applicability errors raise before anything registered
    changes: every edit is made on working copies, which are registered
    at the end.  ``check`` runs the invariant net over what this list
    changed (``changed_hierarchies``, DESIGN.md §9).
    """
    if goddag.frozen:
        goddag._frozen_violation("apply an update")
    stats = _Applier(goddag, pending).run()
    if check:
        goddag.check_invariants(stats.changed_hierarchies)
    return stats


class _Applier:
    def __init__(self, goddag: "KyGoddag",
                 pending: PendingUpdateList) -> None:
        self.goddag = goddag
        self.pending = pending
        self.edits: list[_TextEdit] = []
        #: the working copies, in rank order
        self.rows: dict[str, _Rows] = {}

    def _resolve(self, node) -> None:
        """``node`` must be the registered node at its preorder."""
        goddag = self.goddag
        if not goddag.has_hierarchy(node.hierarchy) \
                or goddag.is_temporary(node.hierarchy):
            raise UpdateError(
                f"target hierarchy '{node.hierarchy}' is not part of "
                f"this document")
        if not goddag.holds(node):
            raise UpdateError(
                "target node does not belong to this document's "
                "KyGODDAG (stale reference?)")

    # -- driver --------------------------------------------------------------

    def run(self) -> UpdateApplyStats:
        pending = self.pending
        for primitive in pending:
            node = getattr(primitive, "node", None) \
                or getattr(primitive, "target", None)
            if node is not None:
                self._resolve(node)
        self._build_edits(pending)
        self._check_edit_conflicts()
        self._validate_add_markup(pending)

        for primitive in pending.of_kind("rename"):
            rows = self.rows.get(primitive.node.hierarchy)
            if rows is not None:
                rows.rename(primitive.node.preorder, primitive.name)
        for primitive in pending.of_kind("remove-markup"):
            self.rows[primitive.node.hierarchy].unwrap(
                primitive.node.preorder)
        for primitive in pending.of_kind("add-markup"):
            self.rows[primitive.hierarchy].wrap(
                primitive.start, primitive.end, primitive.name)
        # The documented kind order (replace → delete → insert), not
        # statement order: comma-combined statements then compose
        # order-independently (e.g. an insert into a replaced node
        # lands *after* the replacement clears it, whichever side of
        # the comma it was written on).
        for kind in ("replace-value", "delete", "insert"):
            for primitive in pending.of_kind(kind):
                self._apply_owner(primitive)
        text = self._splice_text()
        for edit in self.edits:
            for name, rows in self.rows.items():
                if name != edit.owner:
                    rows.absorb(edit)
        return self._register(text, [rows.finish(len(text))
                                     for rows in self.rows.values()])

    # -- edit construction ---------------------------------------------------

    def _build_edits(self, pending) -> None:
        """The base-text edits the statement implies, and a working copy
        of each hierarchy it touches: the one each structural primitive
        changes, or all of them once a text edit shifts every span."""
        touched: set[str] = set()
        for primitive in pending:
            if isinstance(primitive, RemoveMarkupPrim):
                touched.add(primitive.node.hierarchy)
            elif isinstance(primitive, AddMarkupPrim):
                touched.add(primitive.hierarchy)
            elif isinstance(primitive, ReplaceValuePrim):
                node = primitive.node
                touched.add(node.hierarchy)
                if node.start < node.end or primitive.value:
                    self.edits.append(_TextEdit(
                        node.start, node.end, primitive.value,
                        node.hierarchy))
            elif isinstance(primitive, DeletePrim):
                node = primitive.node
                touched.add(node.hierarchy)
                if node.start < node.end:
                    self.edits.append(_TextEdit(
                        node.start, node.end, "", node.hierarchy))
            elif isinstance(primitive, InsertPrim):
                target = primitive.target
                touched.add(target.hierarchy)
                point = (target.start
                         if primitive.location in ("into-first", "before")
                         else target.end)
                if primitive.text:
                    self.edits.append(_TextEdit(
                        point, point, primitive.text, target.hierarchy))
        components = self.goddag.components()
        for name, component in components.items():
            if name in touched or (self.edits and not component.temporary):
                self.rows[name] = _Rows(component)

    def _check_edit_conflicts(self) -> None:
        """Text edits must be pairwise disjoint (DESIGN.md §9).

        Two removal/replacement ranges compare half-open, so deleting
        or replacing *adjacent* siblings in one statement is fine (the
        right-to-left splice keeps every pre-state offset valid).  A
        zero-width insertion point compares closed against everything —
        two inserts at one point, or an insert on the boundary of a
        removed range, have no single unambiguous outcome and conflict.
        """
        ordered = sorted(self.edits, key=lambda e: (e.start, e.end))
        for left, right in zip(ordered, ordered[1:]):
            degenerate = (left.start == left.end
                          or right.start == right.end)
            touches = (right.start <= left.end if degenerate
                       else right.start < left.end)
            if touches:
                raise UpdateConflictError(
                    f"conflicting text edits: [{left.start},{left.end}) "
                    f"and [{right.start},{right.end}) overlap (insertion "
                    f"points additionally conflict with touching "
                    f"endpoints)")

    def _validate_add_markup(self, pending) -> None:
        """Fail *before* any edit when a wrap would properly overlap."""
        length = len(self.goddag.text)
        for primitive in pending.of_kind("add-markup"):
            if not (0 <= primitive.start <= primitive.end <= length):
                raise UpdateError(
                    f"add markup span [{primitive.start},"
                    f"{primitive.end}) escapes the text "
                    f"(length {length})")
            self.rows[primitive.hierarchy].wrap_parent(primitive.start,
                                                       primitive.end)

    def _apply_owner(self, primitive) -> None:
        if isinstance(primitive, InsertPrim):
            target = primitive.target
            rows = self.rows[target.hierarchy]
            row = rows.row(target.preorder)
            below = int(rows.subtree_ends[row]) + 1
            at, parent = {
                "into-first": (row + 1, row),
                "into-last": (below, row),
                "before": (row, int(rows.parents[row])),
                "after": (below, int(rows.parents[row])),
            }[primitive.location]
            rows.splice(at, at, parent,
                        rows.fragment(primitive.fragment, primitive.text))
            return
        node = primitive.node
        rows = self.rows[node.hierarchy]
        row = rows.row(node.preorder)
        below = int(rows.subtree_ends[row]) + 1
        if isinstance(primitive, ReplaceValuePrim):
            rows.splice(row + 1, below, row,
                        _one_row(KIND_TEXT, length=len(primitive.value))
                        if primitive.value else None)
        else:  # delete
            rows.splice(row, below, int(rows.parents[row]))

    def _splice_text(self) -> str:
        text = self.goddag.text
        for edit in sorted(self.edits, key=lambda e: e.start,
                           reverse=True):
            text = text[:edit.start] + edit.replacement + text[edit.end:]
        return text

    # -- registration --------------------------------------------------------

    def _register(self, text: str, components: list[_HierarchyComponent]
                  ) -> UpdateApplyStats:
        goddag = self.goddag
        stats = UpdateApplyStats(counts=self.pending.counts())
        stats.replaced_hierarchies = list(self.rows)
        stats.changed_hierarchies = list(self.rows)
        if self.edits:
            stats.text_changed = True
            stats.text_delta = len(text) - len(goddag.text)
            goddag.rebuild_hierarchies(text, components)
        else:
            for component in components:
                goddag.replace_hierarchy(component)
        for primitive in self.pending.of_kind("rename"):
            node = primitive.node
            if node.hierarchy in self.rows:
                continue  # the new component has the new name
            # Targets resolved against the pre-state; an earlier rename
            # may since have taken the hierarchy private, and its nodes
            # are then the targets' twins, row for row.
            goddag.rename_element(
                goddag._components[node.hierarchy].node(node.preorder),
                primitive.name)
            stats.renamed_in_place += 1
            if node.hierarchy not in stats.changed_hierarchies:
                stats.changed_hierarchies.append(node.hierarchy)
        return stats


# ---------------------------------------------------------------------------
# the rows of one hierarchy, while a statement edits them
# ---------------------------------------------------------------------------


#: the working columns of :class:`_Rows`, all spliced alike
_WORKING = ("kinds", "name_ids", "starts", "ends", "lengths", "parents",
            "subtree_ends", "origin", "data")

#: the component list that keys a row's ``data``, by the row's kind
_KEYED = {KIND_ELEMENT: "attrs", KIND_COMMENT: "comments", KIND_PI: "pis"}


def _data(component: _HierarchyComponent) -> np.ndarray:
    """Per row of ``component``, the attributes, comment or PI data it
    keys to that row (None: none)."""
    data = np.full(len(component.kinds), None, dtype=object)
    for key in _KEYED.values():
        for row, value in getattr(component, key):
            data[row] = value
    return data


def _one_row(kind: int, name_id: int = -1, start: int = -1, end: int = -1,
             length: int = 0) -> dict[str, np.ndarray]:
    """A block of one childless row, for :meth:`_Rows.splice`."""
    return {"kinds": np.array([kind], dtype=np.int8),
            "name_ids": np.array([name_id], dtype=np.int64),
            "starts": np.array([start], dtype=np.int64),
            "ends": np.array([end], dtype=np.int64),
            "lengths": np.array([length], dtype=np.int64),
            "parents": np.array([-1], dtype=np.int64),
            "subtree_ends": np.array([0], dtype=np.int64),
            "origin": np.array([-1], dtype=np.int64),
            "data": np.full(1, None, dtype=object)}


class _Rows:
    """One hierarchy's rows while a statement edits them.

    Fresh arrays over the component's columns — the component may be
    held by other versions and by a document, so it is never written —
    plus, per row, the length of its text (text rows only), its
    ``origin`` (its row in the component; -1 for a row the statement
    made) and its ``data`` (what :data:`_KEYED` lists for it).  Spans
    stay pre-state offsets until :meth:`finish` derives them from the
    lengths; a made row's span is ``(-1, -1)``, so it never takes an
    edit another hierarchy owns.
    """

    def __init__(self, component: _HierarchyComponent) -> None:
        self.component = component
        self.names = component.names
        self._interned: dict[str, int] | None = None
        self.kinds = np.array(component.kinds)
        self.name_ids = np.array(component.name_ids)
        self.starts = np.array(component.starts)
        self.ends = np.array(component.ends)
        self.lengths = np.where(self.kinds == KIND_TEXT,
                                self.ends - self.starts, 0)
        self.parents = np.array(component.parents)
        self.subtree_ends = np.array(component.subtree_ends)
        self.origin = np.arange(len(self.kinds), dtype=np.int64)
        self.data = _data(component)

    # -- lookups --------------------------------------------------------------

    def row(self, preorder: int) -> int:
        """Where the component's row ``preorder`` is now."""
        found = np.flatnonzero(self.origin == preorder)
        if not len(found):  # pragma: no cover - conflict rules prevent it
            raise UpdateError(
                f"internal: row {preorder} of hierarchy "
                f"'{self.component.name}' is gone")
        return int(found[0])

    def children(self, parent: int) -> np.ndarray:
        """The child rows of ``parent`` (-1: the root), in order."""
        if parent < 0:
            return np.flatnonzero(self.parents == -1)
        low, high = parent + 1, int(self.subtree_ends[parent]) + 1
        return np.flatnonzero(self.parents[low:high] == parent) + low

    def intern(self, name: str) -> int:
        """The id of ``name`` in this hierarchy's name table, which is
        copied before it grows (the old one may be shared)."""
        ids = self._interned
        if ids is None:
            ids = self._interned = {
                known: ident for ident, known in enumerate(self.names)}
        ident = ids.get(name)
        if ident is None:
            ident = ids[name] = len(self.names)
            self.names = [*self.names, name]
        return ident

    # -- edits ------------------------------------------------------------

    def splice(self, low: int, high: int, parent: int,
               block: dict[str, np.ndarray] | None = None) -> None:
        """Rows ``[low, high)`` — whole subtrees under ``parent`` — give
        way to ``block``: rows in preorder whose parents and subtree
        ends count from its first row, top rows' parent -1.

        A row past the range moves by the difference, and so does a
        subtree end past it or of an ancestor of ``parent`` (or
        ``parent`` itself), whose subtree holds the range.
        """
        count = 0 if block is None else len(block["kinds"])
        delta = count - (high - low)
        parents, subtree_ends = self.parents, self.subtree_ends
        moved = subtree_ends >= high
        ancestor = parent
        while ancestor >= 0:
            moved[ancestor] = True
            ancestor = int(parents[ancestor])
        self.parents = np.where(parents >= high, parents + delta, parents)
        self.subtree_ends = np.where(moved, subtree_ends + delta,
                                     subtree_ends)
        if block is not None:
            block = {**block,
                     "parents": np.where(block["parents"] < 0, parent,
                                         block["parents"] + low),
                     "subtree_ends": block["subtree_ends"] + low}
        for key in _WORKING:
            column = getattr(self, key)
            setattr(self, key, np.concatenate(
                (column[:low], column[high:]) if block is None
                else (column[:low], block[key], column[high:])))

    def rename(self, preorder: int, name: str) -> None:
        self.name_ids[self.row(preorder)] = self.intern(name)

    def unwrap(self, preorder: int) -> None:
        """Drop one element row; its children take its parent."""
        row = self.row(preorder)
        parents = self.parents
        parents = np.where(parents == row, parents[row], parents)
        self.parents = np.where(parents > row, parents - 1, parents)
        subtree_ends = self.subtree_ends
        self.subtree_ends = np.where(subtree_ends >= row,
                                     subtree_ends - 1, subtree_ends)
        for key in _WORKING:
            setattr(self, key, np.delete(getattr(self, key), row))

    def wrap_parent(self, start: int, end: int) -> int:
        """The deepest element row whose span holds ``[start, end)``
        such that no child element properly overlaps it (-1: the root).

        For a non-degenerate range the descent also enters equal-extent
        children (new markup nests innermost); a zero-width marker
        descends only into children strictly containing its point.
        Raises :class:`~repro.errors.UpdateError` on proper overlap.
        """
        kinds, starts, ends = self.kinds, self.starts, self.ends
        parent = -1
        while True:
            children = self.children(parent)
            elements = children[kinds[children] == KIND_ELEMENT]
            c_starts, c_ends = starts[elements], ends[elements]
            if start < end:
                holds = (c_starts <= start) & (end <= c_ends)
            else:
                holds = (c_starts < start) & (end < c_ends)
            inner = np.flatnonzero(holds)
            if not len(inner):
                break
            parent = int(elements[inner[0]])
        crossing = ((c_starts < c_ends) & (c_starts < end)
                    & (start < c_ends)
                    & ~((start <= c_starts) & (c_ends <= end))
                    & ~((c_starts <= start) & (end <= c_ends)))
        if crossing.any():
            row = int(elements[np.flatnonzero(crossing)[0]])
            raise UpdateError(
                f"add markup [{start},{end}) would properly overlap "
                f"<{self.names[self.name_ids[row]]}> "
                f"[{starts[row]},{ends[row]}) within one hierarchy")
        return parent

    def split(self, parent: int, offset: int) -> None:
        """Split the text child of ``parent`` that holds ``offset``
        strictly inside, so a wrap boundary falls between children;
        both halves keep pre-state spans."""
        children = self.children(parent)
        texts = children[self.kinds[children] == KIND_TEXT]
        inside = texts[(self.starts[texts] < offset)
                       & (offset < self.ends[texts])]
        if not len(inside):
            return
        row = int(inside[0])
        end = int(self.ends[row])
        self.splice(row + 1, row + 1, parent,
                    _one_row(KIND_TEXT, start=offset, end=end,
                             length=end - offset))
        self.ends[row] = offset
        self.lengths[row] = offset - self.starts[row]

    def wrap(self, start: int, end: int, name: str) -> None:
        """``add markup``: one element row over ``[start, end)``."""
        parent = self.wrap_parent(start, end)
        self.split(parent, start)
        self.split(parent, end)
        children = self.children(parent)
        c_starts, c_ends = self.starts[children], self.ends[children]
        if start < end:
            # Post-split, every child is fully inside or outside the
            # range; a zero-width child at the right boundary stays out
            # (it closes before the new markup opens).
            covered = np.flatnonzero(
                (start <= c_starts) & (c_ends <= end)
                & ~((c_starts == c_ends) & (c_starts == end)))
            if not len(covered) \
                    or covered[-1] - covered[0] + 1 != len(covered):
                raise UpdateError(  # pragma: no cover - tiling
                    f"internal: add markup [{start},{end}) found no "
                    f"contiguous content to wrap")
            at = int(children[covered[0]])
            last = int(self.subtree_ends[children[covered[-1]]])
        else:
            # Zero-width marker: before the first child at or past the
            # point, else at the end.
            after = np.flatnonzero(c_starts >= start)
            if len(after):
                at = int(children[after[0]])
            elif parent < 0:
                at = len(self.kinds)
            else:
                at = int(self.subtree_ends[parent]) + 1
            last = at - 1
        self.splice(at, at, parent,
                    _one_row(KIND_ELEMENT, self.intern(name), start, end))
        # the covered rows, one further on now, are the new row's subtree
        covered_rows = self.parents[at + 1:last + 2]
        covered_rows[covered_rows == parent] = at
        self.subtree_ends[at] = last + 1

    def fragment(self, fragment: list, text: str) -> dict[str, np.ndarray]:
        """The rows of an ``insert``'s constructed content, as a block:
        pushed through the row writer over the fragment's own text."""
        component = self.component
        writer = _ComponentWriter(text, None, component.name,
                                  component.rank)
        _push_children(fragment, writer.add, writer.close)
        part = writer.finish()
        ids = np.array([*map(self.intern, part.names), -1],
                       dtype=np.int64)
        unplaced = np.full(len(part.kinds), -1, dtype=np.int64)
        return {"kinds": part.kinds, "name_ids": ids[part.name_ids],
                "starts": unplaced, "ends": unplaced,
                "lengths": np.where(part.kinds == KIND_TEXT,
                                    part.ends - part.starts, 0),
                "parents": part.parents,
                "subtree_ends": part.subtree_ends, "origin": unplaced,
                "data": _data(part)}

    def absorb(self, edit: _TextEdit) -> None:
        """Take a base-text edit another hierarchy owns into the text
        rows' lengths: the removed range off the rows it crosses, the
        replacement into the row holding the edit start — for a pure
        insertion, the row holding the preceding character."""
        start, end = edit.start, edit.end
        texts = self.kinds == KIND_TEXT
        starts, ends = self.starts, self.ends
        if start == end:
            holds = texts & (((starts < start) & (start <= ends))
                             | ((start == 0) & (starts == 0)))
        else:
            self.lengths -= np.where(texts, np.clip(
                np.minimum(ends, end) - np.maximum(starts, start), 0,
                None), 0)
            holds = texts & (starts <= start) & (start < ends)
        anchor = np.flatnonzero(holds)
        if len(anchor):
            self.lengths[anchor[0]] += len(edit.replacement)
        elif edit.replacement:
            # No text row to hold it (the base text was empty): one at
            # the end of the root element.
            count = len(self.kinds)
            self.splice(count, count, -1,
                        _one_row(KIND_TEXT, length=len(edit.replacement)))

    # -- the new component ------------------------------------------------

    def finish(self, length: int) -> _HierarchyComponent:
        """The component these rows are over a base text of ``length``
        characters: spans from the lengths, then :func:`normal_rows`."""
        component = self.component
        held = int(self.lengths.sum())
        if held != length:  # pragma: no cover - safety net
            raise UpdateError(
                f"internal: update applier broke alignment of hierarchy "
                f"'{component.name}': its text rows hold {held} of "
                f"{length} characters")
        starts, ends = row_spans(self.lengths, self.subtree_ends)
        columns, renumber = normal_rows({
            "kinds": self.kinds, "name_ids": self.name_ids,
            "starts": starts, "ends": ends,
            "parents": self.parents, "subtree_ends": self.subtree_ends})
        # normal_rows drops text rows only, which carry no data
        keyed: dict[str, list] = {key: [] for key in _KEYED.values()}
        data = self.data
        for row in np.flatnonzero(np.not_equal(data, None)).tolist():
            keyed[_KEYED[int(self.kinds[row])]].append(
                [int(renumber[row]), data[row]])
        return _HierarchyComponent(
            component.name, component.rank, component.temporary,
            names=self.names, columns=columns, **keyed,
            prolog=component.prolog, epilog=component.epilog,
            root_attrs=component.root_attrs)
