"""Multihierarchical documents: a base text plus aligned encodings.

Paper, Section 3: *"A multihierarchical XML document d over a CMH H is a
collection of XML documents d1, ..., dn, and a string S, such that for
all i, di is an encoding of S using markup from the DTD Di, with
root r."*

:class:`MultihierarchicalDocument` stores the hierarchies in
registration order (this order is what makes the paper's Definition 3
node order stable) and verifies the alignment invariant: the
concatenated text content of every hierarchy equals ``S``.  During
alignment every text node is annotated with its character span, which
is what the KyGODDAG builder consumes.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping

from repro.errors import AlignmentError, CMHError, ValidationError
from repro.markup import dom, parse
from repro.markup.serializer import serialize
from repro.markup.validate import validate
from repro.cmh.schema import ConcurrentMarkupHierarchy


class Hierarchy:
    """One named markup hierarchy: a DOM document over the base text.

    The DOM is either given or built on first access by ``loader`` —
    how an engine assembled around a KyGODDAG (``.mhxb`` cold load,
    store fork) defers each hierarchy's DOM until an update or a
    serialization needs that one (DESIGN.md §10).
    """

    def __init__(self, name: str, document: dom.Document | None = None,
                 *, loader: Callable[[], dom.Document] | None = None
                 ) -> None:
        if (document is None) == (loader is None):
            raise CMHError(
                f"hierarchy '{name}' needs exactly one of a DOM "
                f"document and a loader")
        self.name = name
        self._document = document
        self._loader = loader

    @property
    def materialized(self) -> bool:
        """True once the DOM exists (always, unless built lazily)."""
        return self._document is not None

    @property
    def document(self) -> dom.Document:
        """The hierarchy's DOM document."""
        document = self._document
        if document is None:
            document = self._document = self._loader()
        return document

    @property
    def root(self) -> dom.Element:
        """The hierarchy's root element."""
        return self.document.root

    def to_xml(self) -> str:
        """Serialize the hierarchy back to XML."""
        return serialize(self.document)


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
        """Build from XML source strings, one per hierarchy name."""
        document = cls(text)
        for name, source in sources.items():
            document.add_hierarchy(Hierarchy(name, parse(source)))
        return document

    def add_hierarchy(self, hierarchy: Hierarchy) -> Hierarchy:
        """Register ``hierarchy``, verifying name uniqueness, the shared
        root, and text alignment (which also records text-node spans)."""
        if hierarchy.name in self.hierarchies:
            raise CMHError(
                f"duplicate hierarchy name '{hierarchy.name}'")
        if self.hierarchies:
            existing_root = next(iter(self.hierarchies.values())).root.name
            if hierarchy.root.name != existing_root:
                raise CMHError(
                    f"hierarchy '{hierarchy.name}' has root "
                    f"'{hierarchy.root.name}' but the document root is "
                    f"'{existing_root}'")
        self._align(hierarchy)
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
        return next(iter(self.hierarchies.values())).root.name

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
            if hierarchy.root.name != cmh.root:
                raise CMHError(
                    f"hierarchy '{name}' root '{hierarchy.root.name}' "
                    f"differs from the CMH root '{cmh.root}'")
            try:
                validate(hierarchy.document, cmh.dtds[name])
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
                offset = _first_divergence(text, cursor, node.data)
                raise AlignmentError(
                    f"hierarchy '{hierarchy.name}' diverges from the base "
                    f"text at offset {offset}: expected "
                    f"{text[offset:offset + 20]!r}, encoding has "
                    f"{node.data[offset - cursor:offset - cursor + 20]!r}",
                    hierarchy=hierarchy.name, offset=offset)
            node.start, node.end = cursor, end
            cursor = end
        if cursor != len(text):
            raise AlignmentError(
                f"hierarchy '{hierarchy.name}' covers only the first "
                f"{cursor} of {len(text)} characters of the base text",
                hierarchy=hierarchy.name, offset=cursor)

    def verify_alignment(self, names: Iterable[str] | None = None
                         ) -> None:
        """Re-check alignment after mutation: of every hierarchy, or of
        the ``names`` a mutation touched when the text is unchanged."""
        for name in self.hierarchies if names is None else names:
            self._align(self.hierarchies[name])

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
            copy.hierarchies[name] = Hierarchy(
                name, hierarchy.document.clone())
        copy.cmh = self.cmh
        return copy


def _first_divergence(text: str, cursor: int, data: str) -> int:
    """Offset in ``text`` of the first mismatching character."""
    limit = min(len(text) - cursor, len(data))
    for index in range(limit):
        if text[cursor + index] != data[index]:
            return cursor + index
    return cursor + limit
