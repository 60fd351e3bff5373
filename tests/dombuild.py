"""The reference ingest: parse, align, walk the DOM.

How every document came in before XML was tokenized straight into
columns (DESIGN.md §15): :func:`repro.markup.parser.parse` builds a
DOM per encoding, the document aligns it against the base text, and
:class:`ComponentBuilder` — the walker that then lived in
``repro.core.goddag.goddag`` — turns the aligned DOM into a hierarchy
component with its own interning, its own text comparison and its own
row bookkeeping.  :func:`span_document` is likewise the DOM-building
nesting walk ``SpanSet.to_document`` used to be.

None of it is part of the package.  It is the independent side of the
differential suite (``tests/test_streaming.py``): the package's row
writer, fed by its tokenizer, its DOM walk and its span walk, has to
produce these columns and, through the shared file writer, these bytes.
:func:`fuse_dom_documents` is the corpus reassembled node by node, which
the column fuse of ``repro.store.sharding`` is held against
(``tests/test_sharding.py::TestFuse``).
It shares with the package the column container
(``_HierarchyComponent``), the parser and ``.mhxb`` packing — nothing
that writes a row.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.cmh.spans import SpanSet
from repro.core.goddag.goddag import (
    COLUMNS,
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    _HierarchyComponent,
)
from repro.errors import CMHError, GoddagError
from repro.markup import dom
from repro.markup.parser import parse
from repro.store.mhxb import write_container


def dom_document(text: str,
                 sources: dict[str, str]) -> MultihierarchicalDocument:
    """``from_xml`` as it was: one parsed, aligned DOM per hierarchy."""
    document = MultihierarchicalDocument(text)
    for name, source in sources.items():
        document.add_hierarchy(Hierarchy(name, parse(source)))
    return document


def span_document(spans: SpanSet, root_name: str) -> dom.Document:
    """``SpanSet.to_document`` as it was: root element + nested spans +
    text, built node by node."""
    document = dom.Document()
    root = dom.Element(root_name)
    document.append(root)
    # Stack of (element, its end offset); root pseudo-entry last.
    stack: list[tuple[dom.Element, int]] = [(root, len(spans.text))]
    cursor = 0
    for span in spans.sorted_spans():
        cursor = _emit_text(spans.text, stack, cursor, span.start)
        while stack[-1][1] <= span.start and len(stack) > 1:
            stack.pop()
        parent, parent_end = stack[-1]
        if span.end > parent_end:
            raise CMHError(
                f"span <{span.name}> [{span.start}, {span.end}) "
                f"escapes its enclosing element ending at {parent_end}")
        element = dom.Element(span.name, span.attributes_dict)
        parent.append(element)
        stack.append((element, span.end))
    _emit_text(spans.text, stack, cursor, len(spans.text))
    return document


def _emit_text(base: str, stack: list[tuple[dom.Element, int]],
               cursor: int, target: int) -> int:
    """Emit text from ``cursor`` to ``target``, popping closed spans."""
    while cursor < target:
        while stack[-1][1] <= cursor and len(stack) > 1:
            stack.pop()
        element, end = stack[-1]
        stop = min(target, end)
        if stop > cursor:
            text = dom.Text(base[cursor:stop])
            text.start, text.end = cursor, stop
            element.append(text)
            cursor = stop
        elif len(stack) > 1:
            stack.pop()
        else:
            break
    while stack[-1][1] <= cursor and len(stack) > 1:
        stack.pop()
    return cursor


def fuse_dom_documents(shards: list[MultihierarchicalDocument],
                       ) -> MultihierarchicalDocument:
    """``repro.store.fuse_documents`` as it was: the parts' top-level
    nodes cloned under a fresh root per hierarchy, ``normalize()`` to
    merge the text nodes the cuts split, and the alignment pass of
    ``add_hierarchy``."""
    text = "".join(shard.text for shard in shards)
    fused = MultihierarchicalDocument(text)
    first = shards[0]
    for name in first.hierarchy_names:
        shard_root = first[name].root
        document = dom.Document()
        root = dom.Element(shard_root.name, shard_root.attributes)
        document.append(root)
        for shard in shards:
            for child in shard[name].root.children:
                root.append(child.clone())
        root.normalize()
        fused.add_hierarchy(Hierarchy(name, document))
    return fused


def document_level_nodes(hier_doc: dom.Document) -> tuple[list, list]:
    """Comments/PIs outside the root element: they exist only in the
    DOM, not in the KyGODDAG, and ride along as component metadata."""
    prolog: list[list] = []
    epilog: list[list] = []
    target = prolog
    for child in hier_doc.children:
        if isinstance(child, dom.Element):
            target = epilog
        elif isinstance(child, dom.Comment):
            target.append(["comment", child.data])
        elif isinstance(child, dom.ProcessingInstruction):
            target.append(["pi", child.target, child.data])
    return prolog, epilog


class ComponentBuilder:
    """Translates one aligned DOM tree into a hierarchy component.

    One preorder walk fills the columns — a row's number is its
    preorder, an element's subtree ends at the last row written when
    the walk leaves it — and verifies on the way that the text nodes
    spell out the base text.
    """

    def __init__(self, text: str, root_name: str, name: str, rank: int,
                 temporary: bool) -> None:
        self.text = text
        self.root_name = root_name
        self.name = name
        self.rank = rank
        self.temporary = temporary
        self.cursor = 0
        self.names: list[str] = []
        self.interned: dict[str, int] = {}
        self.kinds: list[int] = []
        self.name_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.subtree_ends: list[int] = []
        self.attrs: list[list] = []
        self.comments: list[list] = []
        self.pis: list[list] = []

    def build_from_dom(self, document: dom.Document
                       ) -> _HierarchyComponent:
        root_element = document.root
        if root_element.name != self.root_name:
            raise GoddagError(
                f"hierarchy '{self.name}' has root element "
                f"'{root_element.name}', expected '{self.root_name}'")
        self._convert(root_element.children, -1)
        if self.cursor != len(self.text):
            raise GoddagError(
                f"hierarchy '{self.name}' text covers {self.cursor} "
                f"of {len(self.text)} characters")
        prolog, epilog = document_level_nodes(document)
        columns = {key: np.asarray(getattr(self, key), dtype=np.int64)
                   for key in COLUMNS[:-1]}
        columns["kinds"] = columns["kinds"].astype(np.int8)
        return _HierarchyComponent(
            self.name, self.rank, self.temporary, names=self.names,
            columns=columns, attrs=self.attrs, comments=self.comments,
            pis=self.pis, prolog=prolog, epilog=epilog,
            root_attrs=dict(root_element.attributes), fresh=True)

    def _intern(self, name: str) -> int:
        ident = self.interned.get(name)
        if ident is None:
            ident = self.interned[name] = len(self.names)
            self.names.append(name)
        return ident

    def _row(self, kind: int, name_id: int, end: int, parent: int) -> int:
        position = len(self.kinds)
        self.kinds.append(kind)
        self.name_ids.append(name_id)
        self.starts.append(self.cursor)
        self.ends.append(end)
        self.parents.append(parent)
        self.subtree_ends.append(position)
        return position

    def _convert(self, children: list[dom.Node], parent: int) -> None:
        for node in children:
            if isinstance(node, dom.Text):
                start = self.cursor
                end = start + len(node.data)
                if self.text[start:end] != node.data:
                    raise GoddagError(
                        f"hierarchy '{self.name}' text diverges from "
                        f"the base text at offset {start}")
                self._row(KIND_TEXT, -1, end, parent)
                self.cursor = end
            elif isinstance(node, dom.Element):
                position = self._row(KIND_ELEMENT, self._intern(node.name),
                                     -1, parent)
                if node.attributes:
                    self.attrs.append([position, dict(node.attributes)])
                self._convert(node.children, position)
                self.ends[position] = self.cursor
                self.subtree_ends[position] = len(self.kinds) - 1
            elif isinstance(node, dom.Comment):
                position = self._row(KIND_COMMENT, -1, self.cursor, parent)
                self.comments.append([position, node.data])
            elif isinstance(node, dom.ProcessingInstruction):
                position = self._row(KIND_PI, self._intern(node.target),
                                     self.cursor, parent)
                self.pis.append([position, node.data])
            # doctype/etc. — nothing to represent


def reference_components(document: MultihierarchicalDocument
                         ) -> list[_HierarchyComponent]:
    """Every hierarchy's DOM through :class:`ComponentBuilder`."""
    root_name = document.root_name
    return [ComponentBuilder(document.text, root_name, name, rank,
                             False).build_from_dom(hierarchy.document)
            for rank, (name, hierarchy)
            in enumerate(document.hierarchies.items())]


def reference_save(document: MultihierarchicalDocument,
                   path: str | Path) -> list[_HierarchyComponent]:
    """Write the ``.mhxb`` file of ``document``'s reference components;
    returns them."""
    components = reference_components(document)
    write_container(path, root=document.root_name, text=document.text,
                    components=components)
    return components


def assert_same_columns(got: list[_HierarchyComponent],
                        want: list[_HierarchyComponent]) -> None:
    """Two component lists hold the same hierarchies, column for
    column (name ids compared through their tables)."""
    assert [c.name for c in got] == [c.name for c in want]
    for mine, theirs in zip(got, want):
        assert mine.rank == theirs.rank
        for key in COLUMNS:
            if key == "name_ids":
                continue
            left, right = getattr(mine, key), getattr(theirs, key)
            assert left.dtype == right.dtype, (mine.name, key)
            assert np.array_equal(left, right), (mine.name, key)
        assert [mine.names[i] if i >= 0 else None
                for i in mine.name_ids.tolist()] == \
            [theirs.names[i] if i >= 0 else None
             for i in theirs.name_ids.tolist()], mine.name
        for key in ("attrs", "comments", "pis", "prolog", "epilog",
                    "root_attrs"):
            assert getattr(mine, key) == getattr(theirs, key), \
                (mine.name, key)
