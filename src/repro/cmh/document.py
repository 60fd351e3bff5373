"""Multihierarchical documents: a base text plus aligned encodings.

Paper, Section 3: *"A multihierarchical XML document d over a CMH H is a
collection of XML documents d1, ..., dn, and a string S, such that for
all i, di is an encoding of S using markup from the DTD Di, with
root r."*

:class:`MultihierarchicalDocument` stores the hierarchies in
registration order (this order is what makes the paper's Definition 3
node order stable) and verifies the alignment invariant: the
concatenated text content of every hierarchy equals ``S``.  During
alignment every text node is annotated with its character span.

A hierarchy that came in as XML source, or that an update wrote, is
first of all *columns* — the rows the KyGODDAG holds (DESIGN.md §15) —
and becomes a DOM when somebody asks for one; the update engine edits
the rows, never a DOM (§9).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping
from functools import partial

from repro.errors import AlignmentError, CMHError, ValidationError
from repro.markup import dom
from repro.markup.dtd import DTD
from repro.markup.serializer import serialize
from repro.markup.validate import validate
from repro.cmh.schema import ConcurrentMarkupHierarchy


class Hierarchy:
    """One named markup hierarchy: a DOM document over the base text.

    The DOM is either given or built on first access by ``loader`` —
    how an engine assembled around a KyGODDAG (``.mhxb`` cold load,
    store fork) defers each hierarchy's DOM until a serialization
    needs that one (DESIGN.md §10).

    A hierarchy that came in as XML source, or that an update wrote,
    is *columns* (:meth:`from_columns`) until its DOM is handed out
    (:attr:`document`, :attr:`root`); from then on it is the DOM,
    because whoever holds a DOM may write it — user code, or
    :meth:`validate` setting DTD defaults (DESIGN.md §15).  Updates
    write no DOM: an engine re-seats the hierarchies it changed as
    columns, and a DOM handed out before is a rendering of the old
    version.  Which of the two a hierarchy is stays in here: a reader
    asks :meth:`columns_at` or :meth:`validate`.
    """

    def __init__(self, name: str, document: dom.Document | None = None,
                 *, loader: Callable[[], dom.Document] | None = None,
                 root_name: str | None = None) -> None:
        if (document is None) == (loader is None):
            raise CMHError(
                f"hierarchy '{name}' needs exactly one of a DOM "
                f"document and a loader")
        self.name = name
        self._document = document
        self._loader = loader
        self._columns = None  # the hierarchy is a DOM, or will be one
        self._root_name = root_name

    @classmethod
    def from_columns(cls, columns, text: str, root_name: str) -> "Hierarchy":
        """The hierarchy that is ``columns``: the rows a KyGODDAG holds
        (a :class:`~repro.core.goddag.goddag._HierarchyComponent`), as
        the row writer made them over ``text`` under ``root_name``.  Its
        DOM is read off them when somebody first asks."""
        hierarchy = cls(
            columns.name, root_name=root_name,
            loader=partial(columns.build_dom, text, root_name))
        hierarchy._columns = columns
        return hierarchy

    @property
    def materialized(self) -> bool:
        """True once the DOM exists (always, unless built lazily)."""
        return self._document is not None

    def _dom(self) -> dom.Document:
        """The DOM, for a reader in here that hands it to nobody and
        writes nothing."""
        document = self._document
        if document is None:
            document = self._document = self._loader()
        return document

    @property
    def document(self) -> dom.Document:
        """The hierarchy's DOM document (handed out: the hierarchy is
        no longer its columns)."""
        self._columns = None
        return self._dom()

    @property
    def root(self) -> dom.Element:
        """The hierarchy's root element."""
        return self.document.root

    @property
    def root_name(self) -> str:
        """The root element's name (no DOM is built to tell it)."""
        if self._document is None and self._root_name is not None:
            return self._root_name
        return self._dom().root.name

    def columns_at(self, rank: int):
        """The columns this hierarchy still is, if they were written
        for a hierarchy ranked ``rank`` — they stay the document's, and
        nobody writes them.  ``None`` says walk :attr:`document`: the
        DOM has been handed out, or hierarchies were removed or
        reordered since."""
        columns = self._columns
        if columns is not None and columns.rank == rank:
            return columns
        return None

    def validate(self, dtd: DTD) -> None:
        """Validate the encoding against ``dtd``.

        Validation writes the attribute defaults ``dtd`` declares into
        the DOM it reads, so where there is one to write the DOM is
        handed out: the columns would not have it.  Under any other
        DTD validation only reads."""
        writes = any(attribute.default_value is not None
                     for element in dtd.elements.values()
                     for attribute in element.attributes.values())
        validate(self.document if writes else self._dom(), dtd)

    def to_xml(self) -> str:
        """Serialize the hierarchy back to XML."""
        return serialize(self._dom())

    def clone(self) -> "Hierarchy":
        """An independent copy: of the DOM, node by node — or, of a
        hierarchy that still is its columns, another holder of them."""
        if self._columns is None:
            return Hierarchy(self.name, self.document.clone())
        copy = Hierarchy(self.name, loader=self._loader,
                         root_name=self._root_name)
        copy._columns = self._columns
        return copy


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

        Each source is tokenized straight into columns (DESIGN.md §15)
        and its DOM left for whoever asks first.  Input the tokenizer
        does not take on (a DOCTYPE, CDATA, carriage returns, …) goes
        through the parser, and that DOM stays the hierarchy's: its
        ``doctype_name`` and internal ``dtd`` are nowhere else.
        """
        from repro.markup.streaming import _add_xml

        document = cls(text)
        for name, source in sources.items():
            _add_xml(document, name, source)
        return document

    def add_hierarchy(self, hierarchy: Hierarchy) -> Hierarchy:
        """Register ``hierarchy``, verifying name uniqueness, the shared
        root, and text alignment (which also records text-node spans)."""
        if hierarchy.name in self.hierarchies:
            raise CMHError(
                f"duplicate hierarchy name '{hierarchy.name}'")
        if self.hierarchies and hierarchy.root_name != self.root_name:
            raise CMHError(
                f"hierarchy '{hierarchy.name}' has root "
                f"'{hierarchy.root_name}' but the document root is "
                f"'{self.root_name}'")
        self._align(hierarchy)
        self.hierarchies[hierarchy.name] = hierarchy
        return hierarchy

    def add_columns(self, columns, root_name: str) -> Hierarchy:
        """Register the hierarchy that is ``columns``
        (:meth:`Hierarchy.from_columns`).  Nothing is left to verify:
        the row writer that made them held every row against this
        document's text and root."""
        hierarchy = Hierarchy.from_columns(columns, self.text, root_name)
        self.hierarchies[hierarchy.name] = hierarchy
        return hierarchy

    def remove_hierarchy(self, name: str) -> Hierarchy:
        """Remove and return the named hierarchy."""
        if name not in self.hierarchies:
            raise CMHError(f"no hierarchy named '{name}'")
        return self.hierarchies.pop(name)

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
        names, and each encoding must be valid per its DTD.
        """
        for name, hierarchy in self.hierarchies.items():
            if name not in cmh.dtds:
                raise CMHError(
                    f"document hierarchy '{name}' has no DTD in the CMH")
            if hierarchy.root_name != cmh.root:
                raise CMHError(
                    f"hierarchy '{name}' root '{hierarchy.root_name}' "
                    f"differs from the CMH root '{cmh.root}'")
            try:
                hierarchy.validate(cmh.dtds[name])
            except ValidationError as error:
                raise ValidationError(
                    f"hierarchy '{name}': {error}") from error
        self.cmh = cmh

    # -- alignment ---------------------------------------------------------

    def _align(self, hierarchy: Hierarchy) -> None:
        """Verify the hierarchy's text equals ``S``; record text spans."""
        cursor = 0
        text = self.text
        for node in hierarchy.document.root.iter():
            if not isinstance(node, dom.Text):
                continue
            end = cursor + len(node.data)
            if text[cursor:end] != node.data:
                raise diverges(hierarchy.name, text, cursor, node.data)
            node.start, node.end = cursor, end
            cursor = end
        if cursor != len(text):
            raise falls_short(hierarchy.name, text, cursor)

    def verify_alignment(self) -> None:
        """Re-check every hierarchy's alignment (after a DOM was
        written)."""
        for hierarchy in self.hierarchies.values():
            self._align(hierarchy)

    # -- forking -----------------------------------------------------------

    def clone(self) -> "MultihierarchicalDocument":
        """An independent deep copy sharing only immutable pieces.

        Every hierarchy DOM is cloned node-by-node (text spans survive,
        so no re-alignment pass is needed); the CMH schema — immutable
        once parsed — is shared.  ``DocumentStore.add(document=...)``
        registers a clone so the caller keeps ownership of theirs; the
        store's own versions fork from arrays instead (DESIGN.md §10).
        """
        copy = MultihierarchicalDocument(self.text)
        for name, hierarchy in self.hierarchies.items():
            copy.hierarchies[name] = hierarchy.clone()
        copy.cmh = self.cmh
        return copy


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
