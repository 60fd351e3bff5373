"""The update applier: snapshot apply over DOM + incremental goddag patch.

``apply_pending`` consumes a validated :class:`PendingUpdateList` and
applies it atomically to a multihierarchical document and its live
KyGODDAG.  The algorithm (DESIGN.md §9):

1. **Resolve** every target against the pre-state: each KyGODDAG
   element maps to its DOM node by component preorder (the component
   list and the DOM preorder coincide by construction).
2. **Structural phase** (text unchanged): renames, ``remove markup``
   unwraps, ``add markup`` in-place wraps.  All preserve the identity
   of untouched DOM nodes, so later primitives' resolved references
   stay valid.
3. **Text phase**: ``replace value of``/``delete``/``insert`` each
   mutate their *owner* hierarchy structurally (in that fixed kind
   order, so comma-combined statements are order-independent) and
   contribute one base text edit ``(start, end, replacement)`` in
   pre-state offsets.  Removal/replacement ranges must be pairwise
   disjoint half-open; zero-width insertion points compare closed
   (else :class:`~repro.errors.UpdateConflictError`).  Every other
   hierarchy absorbs each edit through its aligned text nodes —
   trimmed over the removed range, with the replacement anchored at
   the text node containing the edit start (for pure insertions: the
   node containing the preceding character, so boundary markup stays
   closed).
4. **Re-align**: hierarchy DOMs are normalized (adjacent text merged,
   empty text dropped — exactly the canonicalization a serialize/parse
   round trip would apply) and the document re-verifies alignment,
   re-recording every text span.  With the base text unchanged this —
   like every other DOM step — runs over the *dirty* hierarchies only,
   the ones a markup primitive restructures: a hierarchy whose DOM was
   never materialized (``.mhxb`` cold load, store fork) stays that way,
   and a rename reaches it through the KyGODDAG alone.
5. **Goddag patch**: renames apply in place (on a private copy of the
   hierarchy, when another version holds the component too);
   structurally-changed hierarchies re-register through
   :meth:`~repro.core.goddag.goddag.KyGoddag.replace_hierarchy`
   (partition boundary splicing + span-index component surgery); a text
   change re-registers every hierarchy via ``rebuild_hierarchies``.
   No XML is re-parsed and the span index is never rebuilt from
   scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import AlignmentError, UpdateConflictError, UpdateError
from repro.markup import dom
from repro.core.goddag.nodes import GElement
from repro.core.update.pul import (
    AddMarkupPrim,
    DeletePrim,
    InsertPrim,
    PendingUpdateList,
    RemoveMarkupPrim,
    ReplaceValuePrim,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cmh.document import MultihierarchicalDocument
    from repro.core.goddag.goddag import KyGoddag


@dataclass
class UpdateApplyStats:
    """What one apply did — returned by :func:`apply_pending`."""

    counts: dict[str, int] = field(default_factory=dict)
    #: hierarchies re-registered through the incremental splice path
    replaced_hierarchies: list[str] = field(default_factory=list)
    #: elements renamed fully in place (no re-registration at all)
    renamed_in_place: int = 0
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
    owner: str  # hierarchy whose DOM absorbed this edit structurally


def apply_pending(document: "MultihierarchicalDocument",
                  goddag: "KyGoddag", pending: PendingUpdateList, *,
                  check: bool = False) -> UpdateApplyStats:
    """Apply a pending update list atomically; return apply statistics.

    Conflict and applicability errors raise before anything mutates;
    once mutation starts, only internal invariant failures can raise
    (and those indicate a bug, not a bad statement).  ``check`` runs
    the invariant net over what this list changed: the hierarchies
    whose component is another object afterwards, plus the ones a
    rename wrote in place (DESIGN.md §9).
    """
    if goddag.frozen:
        # Refuse up front: the per-method guards in the goddag layer
        # would only fire in the patch phase, after the DOM mutated.
        goddag._frozen_violation("apply an update")
    held = goddag.components()
    applier = _Applier(document, goddag, pending)
    stats = applier.run()
    if check:
        goddag.check_invariants(
            {*goddag.changed_components(held),
             *(node.hierarchy for node, _element, _name
               in applier.renames)})
    return stats


class _Applier:
    def __init__(self, document, goddag, pending) -> None:
        self.document = document
        self.goddag = goddag
        self.pending = pending
        self._dom_maps: dict[str, list[dom.Node]] = {}
        self.dirty: set[str] = set()
        self.edits: list[_TextEdit] = []
        self.renames: list[tuple[GElement, dom.Element, str]] = []

    # -- pre-state resolution ------------------------------------------------

    def _dom_map(self, hierarchy: str) -> list[dom.Node]:
        """The DOM nodes of one hierarchy in component preorder."""
        nodes = self._dom_maps.get(hierarchy)
        if nodes is None:
            root = self.document.hierarchies[hierarchy].document.root
            nodes = [node for node in root.iter() if node is not root
                     and isinstance(node, (dom.Element, dom.Text,
                                           dom.Comment,
                                           dom.ProcessingInstruction))]
            self._dom_maps[hierarchy] = nodes
        return nodes

    def _resolve(self, node: GElement) -> dom.Element | None:
        """The DOM element behind ``node`` — ``None`` when its
        hierarchy has no DOM yet and the statement does not need one
        (a rename: the KyGODDAG side is then the whole change, where
        the DOM will be derived from the KyGODDAG — a hierarchy that
        is its own columns has to be told)."""
        hierarchy = self.document.hierarchies.get(node.hierarchy)
        if hierarchy is None:
            raise UpdateError(
                f"target hierarchy '{node.hierarchy}' is not part of "
                f"this document")
        registered = self.goddag.nodes_of(node.hierarchy)
        if not (0 <= node.preorder < len(registered)
                and registered[node.preorder] is node):
            raise UpdateError(
                "target node does not belong to this document's "
                "KyGODDAG (stale reference?)")
        if hierarchy.follows_goddag and node.hierarchy not in self.dirty:
            return None
        nodes = self._dom_map(node.hierarchy)
        if node.preorder >= len(nodes):
            raise UpdateError(
                "target node does not line up with the document DOM "
                "(stale reference?)")
        resolved = nodes[node.preorder]
        if not isinstance(resolved, dom.Element) \
                or resolved.name != node.name:
            raise UpdateError(
                "target node does not line up with the document DOM "
                "(stale reference?)")
        return resolved

    # -- driver --------------------------------------------------------------

    def run(self) -> UpdateApplyStats:
        pending = self.pending
        self._build_edits(pending)
        # Resolve every node reference against the untouched pre-state.
        resolved: dict[int, dom.Element | None] = {}
        for primitive in pending:
            node = getattr(primitive, "node", None) \
                or getattr(primitive, "target", None)
            if node is not None:
                resolved[id(primitive)] = self._resolve(node)
        self.renames = [(primitive.node, resolved[id(primitive)],
                         primitive.name)
                        for primitive in pending.of_kind("rename")]
        self._check_edit_conflicts()
        self._validate_add_markup(pending)

        # Mutation starts here.
        for node, element, name in self.renames:
            if element is not None:
                element.name = name
        for primitive in pending.of_kind("remove-markup"):
            self._unwrap(resolved[id(primitive)], primitive.node)
        for primitive in pending.of_kind("add-markup"):
            self._wrap(primitive)
        # The documented kind order (replace → delete → insert), not
        # statement order: comma-combined statements then compose
        # order-independently (e.g. an insert into a replaced node
        # lands *after* the replacement clears it, whichever side of
        # the comma it was written on).
        for kind in ("replace-value", "delete", "insert"):
            for primitive in pending.of_kind(kind):
                self._apply_owner(primitive, resolved[id(primitive)])
        new_text = self._splice_text()
        self._propagate_edits()
        for name in self.dirty:
            self.document.hierarchies[name].document.normalize()
        old_text = self.document.text
        self.document.text = new_text
        try:
            self.document.verify_alignment(self.dirty)
        except AlignmentError as error:  # pragma: no cover - safety net
            self.document.text = old_text
            raise UpdateError(
                f"internal: update applier broke alignment: {error}"
            ) from error
        return self._patch_goddag(old_text, new_text)

    # -- edit construction ---------------------------------------------------

    def _build_edits(self, pending) -> None:
        """The base-text edits the statement implies, and its dirty
        set: the hierarchies whose DOM it works on — the one each
        structural primitive changes, or all of them once a text edit
        shifts every span."""
        for primitive in pending:
            if isinstance(primitive, RemoveMarkupPrim):
                self.dirty.add(primitive.node.hierarchy)
            elif isinstance(primitive, AddMarkupPrim):
                self.dirty.add(primitive.hierarchy)
            elif isinstance(primitive, ReplaceValuePrim):
                node = primitive.node
                self.dirty.add(node.hierarchy)
                if node.start < node.end or primitive.value:
                    self.edits.append(_TextEdit(
                        node.start, node.end, primitive.value,
                        node.hierarchy))
            elif isinstance(primitive, DeletePrim):
                node = primitive.node
                self.dirty.add(node.hierarchy)
                if node.start < node.end:
                    self.edits.append(_TextEdit(
                        node.start, node.end, "", node.hierarchy))
            elif isinstance(primitive, InsertPrim):
                target = primitive.target
                self.dirty.add(target.hierarchy)
                point = (target.start
                         if primitive.location in ("into-first", "before")
                         else target.end)
                if primitive.text:
                    self.edits.append(_TextEdit(
                        point, point, primitive.text, target.hierarchy))
        if self.edits:
            self.dirty.update(self.document.hierarchies)

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
        """Fail *before* mutation when a wrap would properly overlap."""
        for primitive in pending.of_kind("add-markup"):
            root = self.document.hierarchies[
                primitive.hierarchy].document.root
            length = len(self.document.text)
            if not (0 <= primitive.start <= primitive.end <= length):
                raise UpdateError(
                    f"add markup span [{primitive.start},"
                    f"{primitive.end}) escapes the text "
                    f"(length {length})")
            _find_wrap_parent(root, primitive.start, primitive.end)

    # -- structural mutation -------------------------------------------------

    def _unwrap(self, element: dom.Element, node: GElement) -> None:
        parent = element.parent
        if parent is None:  # pragma: no cover - conflict rules prevent it
            raise UpdateError(
                f"remove markup target <{node.name}> is already detached")
        index = _child_index(parent, element)
        children = list(element.children)
        for child in children:
            child.parent = parent
        element.children = []
        element.parent = None
        parent.children[index:index + 1] = children

    def _wrap(self, primitive: AddMarkupPrim) -> None:
        root = self.document.hierarchies[
            primitive.hierarchy].document.root
        start, end = primitive.start, primitive.end
        parent = _find_wrap_parent(root, start, end)
        _split_text_child(parent, start)
        _split_text_child(parent, end)
        spans = _child_spans(parent)
        children = parent.children
        if start < end:
            # Post-split, every child is fully inside or outside the
            # range; a zero-width child at the right boundary stays out
            # (it closes before the new markup opens).
            indices = [
                index for index, (c_start, c_end) in enumerate(spans)
                if start <= c_start and c_end <= end
                and not (c_start == c_end == end)]
            if not indices:  # pragma: no cover - tiling guarantees one
                raise UpdateError(
                    f"internal: add markup [{start},{end}) found no "
                    f"content to wrap")
            if indices != list(range(indices[0], indices[-1] + 1)):
                raise UpdateError(  # pragma: no cover - tiling
                    "internal: add markup wrap range is not contiguous")
            first = indices[0]
        else:
            # Zero-width marker: before the first child at or past the
            # point, else at the end.
            indices = []
            first = len(children)
            for index, (c_start, _c_end) in enumerate(spans):
                if c_start >= start:
                    first = index
                    break
        moved = [children[index] for index in indices]
        wrapper = dom.Element(primitive.name)
        for child in moved:
            child.parent = wrapper
        wrapper.children = moved
        wrapper.parent = parent
        if indices:
            parent.children[first:first + len(indices)] = [wrapper]
        else:
            parent.children.insert(first, wrapper)

    def _apply_owner(self, primitive, element: dom.Element) -> None:
        if isinstance(primitive, ReplaceValuePrim):
            for child in element.children:
                child.parent = None
            element.children = []
            if primitive.value:
                element.append(dom.Text(primitive.value))
        elif isinstance(primitive, DeletePrim):
            element.detach()
        elif isinstance(primitive, InsertPrim):
            fragment = primitive.fragment
            if primitive.location == "into-first":
                for offset, node in enumerate(fragment):
                    element.insert(offset, node)
            elif primitive.location == "into-last":
                for node in fragment:
                    element.append(node)
            else:
                parent = element.parent
                if parent is None:
                    # The anchor was deleted by an earlier primitive
                    # (text-bearing fragments conflict on intervals
                    # first); an empty fragment next to a deleted
                    # anchor vanishes with it.
                    return
                index = _child_index(parent, element)
                if primitive.location == "after":
                    index += 1
                for offset, node in enumerate(fragment):
                    parent.insert(index + offset, node)

    # -- text propagation ----------------------------------------------------

    def _splice_text(self) -> str:
        text = self.document.text
        for edit in sorted(self.edits, key=lambda e: e.start,
                           reverse=True):
            text = text[:edit.start] + edit.replacement + text[edit.end:]
        return text

    def _propagate_edits(self) -> None:
        if not self.edits:
            return
        ordered = sorted(self.edits, key=lambda e: e.start, reverse=True)
        for name, hierarchy in self.document.hierarchies.items():
            texts = [node for node in hierarchy.document.root.iter_text()
                     if node.start is not None]
            pending_unanchored: list[_TextEdit] = []
            for edit in ordered:
                if edit.owner == name:
                    continue
                if not self._apply_edit_to_nodes(texts, edit):
                    pending_unanchored.append(edit)
            for edit in pending_unanchored:
                if edit.replacement:
                    # No aligned text node exists (empty base text):
                    # materialize one at the end of the root element.
                    hierarchy.document.root.append(
                        dom.Text(edit.replacement))

    @staticmethod
    def _apply_edit_to_nodes(texts: list[dom.Text],
                             edit: _TextEdit) -> bool:
        start, end, repl = edit.start, edit.end, edit.replacement
        anchored = not repl
        for node in texts:
            a, b = node.start, node.end
            if start == end:  # pure insertion
                if a < start <= b or (start == 0 and a == 0):
                    node.data = (node.data[:start - a] + repl
                                 + node.data[start - a:])
                    return True
                continue
            if b <= start or a >= end:
                continue
            lo, hi = max(a, start), min(b, end)
            middle = ""
            if a <= start < b:
                middle = repl
                anchored = True
            node.data = (node.data[:lo - a] + middle
                         + node.data[hi - a:])
        return anchored

    # -- goddag patch --------------------------------------------------------

    def _patch_goddag(self, old_text: str,
                      new_text: str) -> UpdateApplyStats:
        goddag = self.goddag
        stats = UpdateApplyStats(counts=self.pending.counts())
        text_changed = bool(self.edits)
        if text_changed:
            goddag.rebuild_hierarchies(new_text, {
                name: hierarchy.document
                for name, hierarchy in self.document.hierarchies.items()})
            stats.replaced_hierarchies = list(self.document.hierarchies)
            stats.text_changed = True
            stats.text_delta = len(new_text) - len(old_text)
        else:
            for name in self.document.hierarchy_names:
                if name in self.dirty:
                    goddag.replace_hierarchy(
                        name, self.document.hierarchies[name].document)
                    stats.replaced_hierarchies.append(name)
        replaced = set(stats.replaced_hierarchies)
        for node, _element, name in self.renames:
            if node.hierarchy in replaced:
                continue  # the rebuilt component read the renamed DOM
            # Targets resolved against the pre-state; an earlier rename
            # may since have taken the hierarchy private, and its nodes
            # are then the targets' twins, row for row.
            goddag.rename_element(
                goddag.nodes_of(node.hierarchy)[node.preorder], name)
            stats.renamed_in_place += 1
        return stats


# ---------------------------------------------------------------------------
# DOM helpers
# ---------------------------------------------------------------------------


def _child_index(parent: dom.ParentNode, child: dom.Node) -> int:
    for index, candidate in enumerate(parent.children):
        if candidate is child:
            return index
    raise UpdateError("internal: node is not a child of its parent")


def _child_spans(element: dom.Element) -> list[tuple[int, int]]:
    """Each child's span, derived from the aligned text node spans.

    Elements inherit the extent of their text content; zero-width
    children (empty elements, comments, PIs) sit at the position of
    the following content (falling back to the preceding content's
    end).  Only valid between alignment and mutation of the text
    layout — exactly the window the wrap operation runs in.
    """
    raw = [_subtree_span(child) for child in element.children]
    spans: list[tuple[int, int] | None] = []
    cursor: int | None = None
    for start, end in raw:
        if start is None:
            spans.append(None)
        else:
            spans.append((start, end))
            cursor = end
    # Resolve zero-width placeholders: next known start, else previous
    # known end, else 0 (an all-empty hierarchy over empty text).
    following: int | None = None
    for index in range(len(spans) - 1, -1, -1):
        if spans[index] is None:
            spans[index] = (following, following) \
                if following is not None else None
        else:
            following = spans[index][0]
    cursor = 0
    resolved: list[tuple[int, int]] = []
    for span in spans:
        if span is None:
            span = (cursor, cursor)
        resolved.append(span)
        cursor = span[1]
    return resolved


def _subtree_span(node: dom.Node) -> tuple[int | None, int | None]:
    if isinstance(node, dom.Text):
        return node.start, node.end
    if isinstance(node, dom.Element):
        first = last = None
        for text in node.iter_text():
            if text.start is None:
                continue
            if first is None:
                first = text.start
            last = text.end
        return first, last
    return None, None


def _find_wrap_parent(root: dom.Element, start: int,
                      end: int) -> dom.Element:
    """The deepest element whose span contains ``[start, end)`` such
    that no child element properly overlaps the range.

    For a non-degenerate range the descent also enters equal-extent
    children (new markup nests innermost); a zero-width marker descends
    only into children strictly containing its point.  Raises
    :class:`~repro.errors.UpdateError` on proper overlap.
    """
    parent = root
    while True:
        descended = False
        for child in parent.children:
            if not isinstance(child, dom.Element):
                continue
            c_start, c_end = _subtree_span(child)
            if c_start is None:
                continue
            if start < end:
                contains = c_start <= start and end <= c_end
            else:
                contains = c_start < start and end < c_end
            if contains:
                parent = child
                descended = True
                break
        if not descended:
            break
    for child in parent.children:
        if not isinstance(child, dom.Element):
            continue
        c_start, c_end = _subtree_span(child)
        if c_start is None or c_start == c_end:
            continue
        overlaps = c_start < end and start < c_end
        contained = start <= c_start and c_end <= end
        contains = c_start <= start and end <= c_end
        if overlaps and not contained and not contains:
            raise UpdateError(
                f"add markup [{start},{end}) would properly overlap "
                f"<{child.name}> [{c_start},{c_end}) within one "
                f"hierarchy")
    return parent


def _split_text_child(parent: dom.Element, offset: int) -> None:
    """Split a text child of ``parent`` at ``offset`` (pre-state span),
    so the wrap boundary falls between children."""
    for index, child in enumerate(parent.children):
        if not isinstance(child, dom.Text) or child.start is None:
            continue
        if child.start < offset < child.end:
            left = dom.Text(child.data[:offset - child.start])
            left.start, left.end = child.start, offset
            right = dom.Text(child.data[offset - child.start:])
            right.start, right.end = offset, child.end
            left.parent = right.parent = parent
            child.parent = None
            parent.children[index:index + 1] = [left, right]
            return
