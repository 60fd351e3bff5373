"""Multihierarchical documents: a base text plus aligned encodings.

Paper, Section 3: *"A multihierarchical XML document d over a CMH H is a
collection of XML documents d1, ..., dn, and a string S, such that for
all i, di is an encoding of S using markup from the DTD Di, with
root r."*

:class:`MultihierarchicalDocument` stores the hierarchies in
registration order (this order is what makes the paper's Definition 3
node order stable).  Every hierarchy it holds is *columns* — the rows a
KyGODDAG holds (DESIGN.md §15), written by the one row writer, which
holds the encoding's text against ``S`` and its root against the
shared one on the way in.  A DOM is either an input, walked once into
rows (:meth:`MultihierarchicalDocument.add_hierarchy`), or an output
built from the rows (:attr:`Hierarchy.document`); nothing reads an
output back, and nobody writes a hierarchy in place: a change — an
update, validation defaults — registers a new :class:`Hierarchy`.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import AlignmentError, CMHError, ValidationError
from repro.markup import dom
from repro.markup.dtd import DTD
from repro.markup.serializer import serialize
from repro.markup.validate import validate
from repro.cmh.schema import ConcurrentMarkupHierarchy
from repro.cmh.spans import SpanSet


class Hierarchy:
    """One named markup hierarchy over the base text: its columns.

    A hierarchy a document holds is ``(name, component, text,
    root_name)``: the rows (a
    :class:`~repro.core.goddag.goddag._HierarchyComponent`) the row
    writer made over ``text`` under the shared root ``root_name``.
    Nobody writes them.  Its DOM is an export, built from the rows on
    each call (:attr:`document`, :attr:`root`): editing one changes
    that DOM and nothing else.

    ``Hierarchy(name, dom)`` is the one way a DOM comes in: an input
    that :meth:`MultihierarchicalDocument.add_hierarchy` walks once into
    columns.  The document holds those, not the DOM.
    """

    def __init__(self, name: str, document: dom.Document) -> None:
        self.name = name
        self.root_name = document.root.name
        self.component = None  # an input holds no rows
        self.text: str | None = None
        self._input = document

    @classmethod
    def from_columns(cls, component, text: str,
                     root_name: str) -> "Hierarchy":
        """The hierarchy that is ``component``, written over ``text``
        under ``root_name``."""
        hierarchy = cls.__new__(cls)
        hierarchy.name = component.name
        hierarchy.root_name = root_name
        hierarchy.component = component
        hierarchy.text = text
        hierarchy._input = None
        return hierarchy

    @property
    def document(self) -> dom.Document:
        """A new DOM document of the hierarchy, text nodes aligned: an
        export of the rows, the hierarchy's own to nobody.  (Of an
        input, the DOM it was given.)"""
        if self.component is None:
            return self._input
        return self.component.build_dom(self.text, self.root_name)

    @property
    def root(self) -> dom.Element:
        """The root element of a new export (:attr:`document`)."""
        return self.document.root

    def validate(self, dtd: DTD) -> "Hierarchy":
        """Validate the encoding against ``dtd`` — the one validator, on
        an export — and return the hierarchy that holds the result.

        Validation writes the attribute defaults ``dtd`` declares into
        the export it reads; under a DTD that declares any, the
        validated export is walked back into columns at this
        hierarchy's rank, and that is the hierarchy returned.  Under
        any other it is this one."""
        export = self.document
        validate(export, dtd)
        if not any(attribute.default_value is not None
                   for element in dtd.elements.values()
                   for attribute in element.attributes.values()):
            return self
        return Hierarchy.from_columns(
            _walk(export, self.text, self.root_name, self.name,
                  self.component.rank),
            self.text, self.root_name)

    def to_xml(self) -> str:
        """Serialize the hierarchy to XML: written from the rows, no
        DOM built (of an input, its DOM serialized)."""
        if self.component is None:
            return serialize(self._input)
        from repro.core.goddag.render import hierarchy_xml

        return hierarchy_xml(self.component, self.text, self.root_name)


def _walk(document: dom.Document, text: str, root_name: str | None,
          name: str, rank: int):
    """The columns of ``document`` at ``rank``: one walk of the DOM into
    the row writer, which raises the document's errors."""
    from repro.core.goddag.goddag import _ComponentWriter, dom_component

    return dom_component(_ComponentWriter(text, root_name, name, rank),
                         document)


class MultihierarchicalDocument:
    """A base text ``S`` with one aligned XML encoding per hierarchy."""

    def __init__(self, text: str,
                 hierarchies: Iterable[Hierarchy] = ()) -> None:
        self.text = text
        self.hierarchies: dict[str, Hierarchy] = {}
        self.cmh: ConcurrentMarkupHierarchy | None = None
        for hierarchy in hierarchies:
            self.add_hierarchy(hierarchy)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_xml(cls, text: str,
                 sources: Mapping[str, str]) -> "MultihierarchicalDocument":
        """Build from XML source strings, one per hierarchy name.

        Each source is tokenized straight into columns (DESIGN.md §15).
        Input the tokenizer does not take on (a DOCTYPE, CDATA,
        carriage returns, …) is parsed, and the parser's DOM walked into
        the same row writer; its DOCTYPE name and internal subset are
        not kept.
        """
        from repro.markup.streaming import _add_xml

        document = cls(text)
        for name, source in sources.items():
            _add_xml(document, name, source)
        return document

    def add_hierarchy(self, hierarchy: Hierarchy) -> Hierarchy:
        """Register ``hierarchy`` at the next rank; returns the
        hierarchy the document holds.

        An input (``Hierarchy(name, dom)``) is walked once into columns
        by the row writer, which raises ``CMHError`` for a root other
        than the document's and ``AlignmentError`` for text that is not
        ``S``; the DOM is not kept.  A hierarchy another document holds
        comes in the same way, as an export.
        """
        name = hierarchy.name
        if name in self.hierarchies:
            raise CMHError(f"duplicate hierarchy name '{name}'")
        return self.add_columns(
            _walk(hierarchy.document, self.text,
                  self.root_name if self.hierarchies else None, name,
                  len(self.hierarchies)),
            hierarchy.root_name)

    def add_columns(self, columns, root_name: str) -> Hierarchy:
        """Register the hierarchy that is ``columns``, as the row writer
        made them over this document's text and root at the next rank
        (nothing is left to verify)."""
        hierarchy = Hierarchy.from_columns(columns, self.text, root_name)
        self.hierarchies[hierarchy.name] = hierarchy
        return hierarchy

    def add_spans(self, name: str, spans: SpanSet,
                  root_name: str | None = None) -> Hierarchy:
        """Register the hierarchy ``spans`` marks up — properly nesting
        spans over ``S`` — written straight into columns by the span
        walk, without a DOM.  ``root_name`` names the root of a
        document's first hierarchy; a later one shares the document's.
        """
        from repro.core.goddag.goddag import _ComponentWriter, span_component

        if name in self.hierarchies:
            raise CMHError(f"duplicate hierarchy name '{name}'")
        text = self.text
        if spans.text != text:
            if text.startswith(spans.text):
                raise falls_short(name, text, len(spans.text))
            raise diverges(name, text, 0, spans.text)
        root = self.root_name if root_name is None else root_name
        if self.hierarchies and root != self.root_name:
            raise other_root(name, root, self.root_name)
        return self.add_columns(span_component(
            _ComponentWriter(text, root, name, len(self.hierarchies)),
            spans.sorted_spans()), root)

    def reseat(self, text: str, components: Iterable) -> None:
        """Hold ``components`` — written over ``text`` at the ranks of
        the hierarchies of their names — in place of those hierarchies,
        and ``text`` as ``S``: what an update changed (a text edit
        changes every hierarchy)."""
        self.text = text
        root_name = self.root_name
        for component in components:
            self.hierarchies[component.name] = Hierarchy.from_columns(
                component, text, root_name)

    def remove_hierarchy(self, name: str) -> Hierarchy:
        """Remove and return the named hierarchy; the ones after it
        move up a rank, as re-ranked copies."""
        if name not in self.hierarchies:
            raise CMHError(f"no hierarchy named '{name}'")
        removed = self.hierarchies.pop(name)
        for rank, hierarchy in enumerate(list(self.hierarchies.values())):
            if hierarchy.component.rank != rank:
                self.hierarchies[hierarchy.name] = Hierarchy.from_columns(
                    hierarchy.component.reranked(rank), hierarchy.text,
                    hierarchy.root_name)
        return removed

    # -- access ---------------------------------------------------------

    @property
    def hierarchy_names(self) -> list[str]:
        """Hierarchy names in registration order."""
        return list(self.hierarchies)

    @property
    def root_name(self) -> str:
        """The shared root element name."""
        if not self.hierarchies:
            raise CMHError("document has no hierarchies")
        return next(iter(self.hierarchies.values())).root_name

    def __getitem__(self, name: str) -> Hierarchy:
        return self.hierarchies[name]

    def __contains__(self, name: str) -> bool:
        return name in self.hierarchies

    def __len__(self) -> int:
        return len(self.hierarchies)

    # -- schema ----------------------------------------------------------

    def attach_cmh(self, cmh: ConcurrentMarkupHierarchy) -> None:
        """Attach a CMH schema and validate every hierarchy against it.

        The CMH's hierarchy names must cover this document's hierarchy
        names, and each encoding must be valid per its DTD; the
        document then holds what validation returned
        (:meth:`Hierarchy.validate`).
        """
        validated: dict[str, Hierarchy] = {}
        for name, hierarchy in self.hierarchies.items():
            if name not in cmh.dtds:
                raise CMHError(
                    f"document hierarchy '{name}' has no DTD in the CMH")
            if hierarchy.root_name != cmh.root:
                raise CMHError(
                    f"hierarchy '{name}' root '{hierarchy.root_name}' "
                    f"differs from the CMH root '{cmh.root}'")
            try:
                validated[name] = hierarchy.validate(cmh.dtds[name])
            except ValidationError as error:
                raise ValidationError(
                    f"hierarchy '{name}': {error}") from error
        self.hierarchies.update(validated)
        self.cmh = cmh

    # -- forking -----------------------------------------------------------

    def clone(self) -> "MultihierarchicalDocument":
        """An independent copy: hierarchies are never written, so it
        holds the same ones, and the same CMH schema (immutable once
        parsed).  ``DocumentStore.add(document=...)`` registers a clone
        so the caller keeps ownership of theirs."""
        copy = MultihierarchicalDocument(self.text)
        copy.hierarchies = dict(self.hierarchies)
        copy.cmh = self.cmh
        return copy


def other_root(name: str, root_name: str, expected: str) -> CMHError:
    """The error of hierarchy ``name`` whose root is not the document's."""
    return CMHError(
        f"hierarchy '{name}' has root '{root_name}' but the document "
        f"root is '{expected}'")


def diverges(name: str, text: str, cursor: int,
             data: str) -> AlignmentError:
    """The error of hierarchy ``name`` whose text, from ``cursor`` on,
    reads ``data`` where the base text does not."""
    limit = min(len(text) - cursor, len(data))
    offset = cursor + next((index for index in range(limit)
                            if text[cursor + index] != data[index]), limit)
    return AlignmentError(
        f"hierarchy '{name}' diverges from the base text at offset "
        f"{offset}: expected {text[offset:offset + 20]!r}, encoding has "
        f"{data[offset - cursor:offset - cursor + 20]!r}",
        hierarchy=name, offset=offset)


def falls_short(name: str, text: str, cursor: int) -> AlignmentError:
    """The error of hierarchy ``name`` whose text ends at ``cursor``,
    before the base text does."""
    return AlignmentError(
        f"hierarchy '{name}' covers only the first {cursor} of "
        f"{len(text)} characters of the base text",
        hierarchy=name, offset=cursor)
