"""The reference update applier: DOM surgery over a re-parsed document.

A :class:`RebuildOracle` keeps a document only as its *serialized* form
(base text + one XML string per hierarchy).  Every update re-parses the
strings into DOMs of its own (``tests.dombuild.dom_document``), builds
a fresh KyGODDAG from them to evaluate the statement's targets,
applies the pending update list to those **DOMs** with
:func:`apply_to_dom`, and re-serializes — the slowest correct
implementation imaginable, and deliberately so.  It shares no editing
code with the package's applier (``repro.core.update.apply``, which
edits rows): the update fuzzers compare the two after every step, byte
for byte on serialization, item for item on a probe query set, and
column for column on every hierarchy the step changed.

The same class doubles as the rebuild-per-update baseline of
``benchmarks/test_update_throughput.py``.

The DOM applier (DESIGN.md §9, as it stood before updates became row
edits):

1. **Resolve** every target to its DOM node by component preorder (the
   component list and the DOM preorder coincide by construction).
2. **Structural phase** (text unchanged): renames, ``remove markup``
   unwraps, ``add markup`` in-place wraps.  All preserve the identity
   of untouched DOM nodes, so later primitives' resolved references
   stay valid.
3. **Text phase**: ``replace value of``/``delete``/``insert`` each
   mutate their *owner* hierarchy structurally, in that kind order, and
   contribute one base-text edit in pre-state offsets; every other
   hierarchy absorbs each edit through its aligned text nodes — trimmed
   over the removed range, with the replacement anchored at the text
   node containing the edit start (for pure insertions: the node
   containing the preceding character).
4. **Re-align**: the DOMs are normalized (adjacent text merged, empty
   text dropped) and held against the new text again
   (``tests.dombuild.align``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cmh import MultihierarchicalDocument
from repro.core.goddag import KyGoddag
from repro.core.goddag.nodes import GElement
from repro.core.update import compile_update
from repro.core.update.pul import (
    AddMarkupPrim,
    DeletePrim,
    InsertPrim,
    PendingUpdateList,
    RemoveMarkupPrim,
    ReplaceValuePrim,
)
from repro.errors import UpdateConflictError, UpdateError
from repro.markup import dom

from tests.dombuild import DomDocument, dom_document


class RebuildOracle:
    """Serialized-state document with rebuild-per-update semantics."""

    def __init__(self, document: MultihierarchicalDocument) -> None:
        self.text = document.text
        self.sources = {name: hierarchy.to_xml()
                        for name, hierarchy in document.hierarchies.items()}

    # -- state ---------------------------------------------------------------

    def document(self) -> MultihierarchicalDocument:
        """A fresh document parsed from the serialized state."""
        return MultihierarchicalDocument.from_xml(self.text,
                                                  dict(self.sources))

    def goddag(self) -> KyGoddag:
        """A from-scratch KyGODDAG of the current state."""
        return KyGoddag.build(self.document())

    # -- updates -------------------------------------------------------------

    def apply(self, statement: str, variables=None) -> None:
        """Apply one update by full re-parse, DOM surgery, re-serialize."""
        document = dom_document(self.text, self.sources)
        goddag = KyGoddag.build(document.package())
        goddag.span_index()
        pending = compile_update(statement).pending(goddag,
                                                    variables=variables)
        apply_to_dom(document, goddag, pending)
        self.text = document.text
        self.sources = {name: document.to_xml(name)
                        for name in document.hierarchy_names}

    # -- probing -------------------------------------------------------------

    def query_strings(self, queries: list[str]) -> list[list[str]]:
        """Each probe query's per-item serializations, freshly rebuilt."""
        from repro.api import Engine

        engine = Engine(self.document())
        return [engine.query(query).strings() for query in queries]


# ---------------------------------------------------------------------------
# the DOM applier
# ---------------------------------------------------------------------------


@dataclass
class _TextEdit:
    """One base-text splice in pre-state offsets."""

    start: int
    end: int
    replacement: str
    owner: str  # hierarchy whose DOM absorbed this edit structurally


def apply_to_dom(document: DomDocument, goddag: KyGoddag,
                 pending: PendingUpdateList) -> None:
    """Apply ``pending`` — evaluated against ``goddag``, which was built
    from ``document`` — to ``document``'s DOMs and text.  Conflict and
    applicability errors raise before any DOM mutates; ``goddag`` is
    left as it was."""
    _DomApplier(document, goddag, pending).run()


class _DomApplier:
    def __init__(self, document, goddag, pending) -> None:
        self.document = document
        self.goddag = goddag
        self.pending = pending
        self._dom_maps: dict[str, list[dom.Node]] = {}
        self.dirty: set[str] = set()
        self.edits: list[_TextEdit] = []

    def _dom_map(self, hierarchy: str) -> list[dom.Node]:
        """The DOM nodes of one hierarchy in component preorder."""
        nodes = self._dom_maps.get(hierarchy)
        if nodes is None:
            root = self.document[hierarchy].root
            nodes = [node for node in root.iter() if node is not root
                     and isinstance(node, (dom.Element, dom.Text,
                                           dom.Comment,
                                           dom.ProcessingInstruction))]
            self._dom_maps[hierarchy] = nodes
        return nodes

    def _resolve(self, node: GElement) -> dom.Element:
        if node.hierarchy not in self.document.hierarchies:
            raise UpdateError(
                f"target hierarchy '{node.hierarchy}' is not part of "
                f"this document")
        registered = self.goddag.nodes_of(node.hierarchy)
        if not (0 <= node.preorder < len(registered)
                and registered[node.preorder] is node):
            raise UpdateError(
                "target node does not belong to this document's "
                "KyGODDAG (stale reference?)")
        nodes = self._dom_map(node.hierarchy)
        resolved = nodes[node.preorder] \
            if node.preorder < len(nodes) else None
        if not isinstance(resolved, dom.Element) \
                or resolved.name != node.name:
            raise UpdateError(
                "target node does not line up with the document DOM "
                "(stale reference?)")
        return resolved

    def run(self) -> None:
        pending = self.pending
        self._build_edits(pending)
        resolved: dict[int, dom.Element] = {}
        for primitive in pending:
            node = getattr(primitive, "node", None) \
                or getattr(primitive, "target", None)
            if node is not None:
                resolved[id(primitive)] = self._resolve(node)
        self._check_edit_conflicts()
        self._validate_add_markup(pending)

        # Mutation starts here.
        for primitive in pending.of_kind("rename"):
            resolved[id(primitive)].name = primitive.name
        for primitive in pending.of_kind("remove-markup"):
            _unwrap(resolved[id(primitive)])
        for primitive in pending.of_kind("add-markup"):
            self._wrap(primitive)
        for kind in ("replace-value", "delete", "insert"):
            for primitive in pending.of_kind(kind):
                _apply_owner(primitive, resolved[id(primitive)])
        new_text = self._splice_text()
        self._propagate_edits()
        for name in self.dirty:
            self.document[name].normalize()
        self.document.text = new_text
        self.document.realign()

    def _build_edits(self, pending) -> None:
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
        for primitive in pending.of_kind("add-markup"):
            root = self.document[primitive.hierarchy].root
            length = len(self.document.text)
            if not (0 <= primitive.start <= primitive.end <= length):
                raise UpdateError(
                    f"add markup span [{primitive.start},"
                    f"{primitive.end}) escapes the text "
                    f"(length {length})")
            _find_wrap_parent(root, primitive.start, primitive.end)

    def _wrap(self, primitive: AddMarkupPrim) -> None:
        root = self.document[primitive.hierarchy].root
        start, end = primitive.start, primitive.end
        parent = _find_wrap_parent(root, start, end)
        _split_text_child(parent, start)
        _split_text_child(parent, end)
        spans = _child_spans(parent)
        children = parent.children
        if start < end:
            indices = [
                index for index, (c_start, c_end) in enumerate(spans)
                if start <= c_start and c_end <= end
                and not (c_start == c_end == end)]
            assert indices and indices == list(
                range(indices[0], indices[-1] + 1)), "wrap not contiguous"
            first = indices[0]
        else:
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
            texts = [node for node in hierarchy.root.iter_text()
                     if node.start is not None]
            for edit in ordered:
                if edit.owner == name:
                    continue
                if not _apply_edit_to_nodes(texts, edit) \
                        and edit.replacement:
                    # No aligned text node exists (empty base text):
                    # materialize one at the end of the root element.
                    hierarchy.root.append(
                        dom.Text(edit.replacement))


def _apply_owner(primitive, element: dom.Element) -> None:
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
                return  # the anchor went with an earlier primitive
            index = _child_index(parent, element)
            if primitive.location == "after":
                index += 1
            for offset, node in enumerate(fragment):
                parent.insert(index + offset, node)


def _apply_edit_to_nodes(texts: list[dom.Text], edit: _TextEdit) -> bool:
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
        node.data = node.data[:lo - a] + middle + node.data[hi - a:]
    return anchored


def _unwrap(element: dom.Element) -> None:
    parent = element.parent
    index = _child_index(parent, element)
    children = list(element.children)
    for child in children:
        child.parent = parent
    element.children = []
    element.parent = None
    parent.children[index:index + 1] = children


def _child_index(parent: dom.ParentNode, child: dom.Node) -> int:
    for index, candidate in enumerate(parent.children):
        if candidate is child:
            return index
    raise AssertionError("node is not a child of its parent")


def _child_spans(element: dom.Element) -> list[tuple[int, int]]:
    """Each child's span, derived from the aligned text node spans:
    zero-width children (empty elements, comments, PIs) sit at the
    position of the following content, else the preceding content's
    end."""
    spans: list[tuple[int, int] | None] = [
        None if start is None else (start, end)
        for start, end in map(_subtree_span, element.children)]
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
    that no child element properly overlaps the range (a non-degenerate
    range also descends into equal-extent children; a zero-width marker
    only into children strictly containing its point)."""
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
