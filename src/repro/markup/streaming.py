"""XML source → hierarchy columns: the tokenizer side of the ingest.

A hierarchy inside a KyGODDAG is a table of rows in document order, a
pure function of the *order* of start tags, end tags and text in its
encoding.  So XML does not pass through a DOM on its way in:
``_scan`` goes over the source once and pushes what it finds
into the row writer of :mod:`repro.core.goddag.goddag`, the one
producer of hierarchy columns (DESIGN.md §15).
``MultihierarchicalDocument.from_xml`` — and with it
``Engine.from_xml``, ``load_mhx``, the CLI — is built on it;
:class:`StreamingBuilder` is such a document taken one encoding at a
time, which goes on from the columns straight to ``.mhxb`` files
without creating a node object: the columns *are*
hierarchy components, so the file is written by the function that
writes an engine's (:func:`repro.store.mhxb.write_container`) and a
streamed ``.mhxb`` is a saved engine.

Tokenization is optimistic: a regex scanner handles the common shape
of document-centric XML (no DOCTYPE, CDATA, carriage returns, or
non-predefined entities) and raises the internal ``_FastPathMiss`` on
*anything* it is not bit-perfectly sure about; the caller then goes
through the canonical :func:`repro.markup.parser.parse`, so the error
taxonomy — ``MarkupError`` with line/column, ``CMHError``,
``AlignmentError`` — is the parser's and the document's.  A failed
hierarchy is dropped with its writer: nothing half-built is left.
Standoff annotation layers (token/sentence/entity character spans from
NLP pipelines) enter through :meth:`StreamingBuilder.add_layer`, as
sorted spans pushed into the same writer.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable

from repro.cmh.document import Hierarchy, MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet
from repro.core.goddag.goddag import (KIND_COMMENT, KIND_ELEMENT, KIND_PI,
                                      KIND_TEXT, _ComponentWriter,
                                      hierarchy_components, span_component)
from repro.errors import CMHError, MarkupError
from repro.markup.entities import PREDEFINED, decode_char_reference
from repro.markup.parser import parse
from repro.store.mhxb import write_container, write_engine

__all__ = ["StreamingBuilder", "stream_save"]


class _FastPathMiss(Exception):
    """Internal: the optimistic tokenizer met input it cannot replicate
    bit-perfectly; the caller re-runs through the canonical parser."""


# ASCII-only name/attribute shapes.  The canonical parser additionally
# accepts non-ASCII name characters (and the middle dot) — those miss
# the fast path and fall back, they are not rejected.
_XML_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_NAME_RE = re.compile(_XML_NAME)
_END_RE = re.compile(rf"</({_XML_NAME})[ \t\r\n]*>")
_ATTR_RE = re.compile(
    rf"[ \t\r\n]+({_XML_NAME})[ \t\r\n]*=[ \t\r\n]*"
    r"(\"[^\"<&\t\r\n]*\"|'[^'<&\t\r\n]*')")
_TAG_CLOSE_RE = re.compile(r"[ \t\r\n]*(/?)>")
_WS = " \t\r\n"


def _decode_text(chunk: str) -> str:
    """Resolve predefined/character references in a raw text chunk.

    Misses on anything the canonical parser treats specially: carriage
    returns (line-ending normalization), the ``]]>`` ban, unterminated
    or non-predefined entity references.
    """
    if "\r" in chunk or "]]>" in chunk:
        raise _FastPathMiss
    if "&" not in chunk:
        return chunk
    parts: list[str] = []
    position = 0
    while True:
        amp = chunk.find("&", position)
        if amp < 0:
            parts.append(chunk[position:])
            return "".join(parts)
        parts.append(chunk[position:amp])
        semi = chunk.find(";", amp + 1)
        if semi < 0:
            raise _FastPathMiss
        body = chunk[amp + 1:semi]
        if body.startswith("#"):
            try:
                parts.append(decode_char_reference(body[1:]))
            except MarkupError:
                raise _FastPathMiss from None
        else:
            expansion = PREDEFINED.get(body)
            if expansion is None:
                raise _FastPathMiss
            parts.append(expansion)
        position = semi + 1


def _fast_pi(source: str, lt: int) -> tuple[str, str, int] | None:
    """Match a processing instruction at ``lt``; ``None`` to miss."""
    match = _NAME_RE.match(source, lt + 2)
    if match is None:
        return None
    target = match.group()
    if target.lower() == "xml":
        return None
    position = match.end()
    after_ws = position
    n = len(source)
    while after_ws < n and source[after_ws] in _WS:
        after_ws += 1
    if after_ws > position:
        close = source.find("?>", after_ws)
        if close < 0:
            return None
        return target, source[after_ws:close], close + 2
    if source.startswith("?>", position):
        return target, "", position + 2
    return None


def _scan(source: str, writer: _ComponentWriter) -> None:
    """Optimistic one-pass tokenizer over well-shaped XML, pushing
    into ``writer``.

    Raises ``_FastPathMiss`` on any construct it cannot replicate
    bit-perfectly (DOCTYPE, CDATA, carriage returns, general entities,
    non-ASCII names, malformed markup) — what it has pushed by then is
    always a prefix of what a walk of the canonical parser's DOM
    pushes, so the caller can drop the writer and go through
    :func:`repro.markup.parser.parse`.
    """
    add, close = writer.add, writer.close
    if source.startswith("\ufeff"):
        source = source[1:]
    position = 0
    # The canonical scanner treats an EOF peek ("") as whitespace —
    # which the empty-slice substring test here replicates — so a bare
    # "<?xml" prefix also takes (and fails) the declaration branch.
    if source.startswith("<?xml") and source[5:6] in _WS:
        declared = source.find("?>", 5)
        if declared < 0:
            raise _FastPathMiss
        position = declared + 2
    stack: list[str] = []  # names of the open elements, the root's first
    root_done = False
    while True:
        lt = source.find("<", position)
        if lt < 0:
            if stack or not root_done:
                raise _FastPathMiss
            if source[position:].strip(_WS):
                raise _FastPathMiss
            return
        if lt > position:
            chunk = source[position:lt]
            if stack:
                add(KIND_TEXT, None, _decode_text(chunk))
            elif chunk.strip(_WS):
                raise _FastPathMiss
        position = lt
        following = source[lt + 1:lt + 2]
        if following == "/":
            if not stack:
                raise _FastPathMiss
            match = _END_RE.match(source, lt)
            if match is None or match.group(1) != stack.pop():
                raise _FastPathMiss
            if stack:
                close()
            else:
                root_done = True
            position = match.end()
        elif following == "!":
            if not source.startswith("<!--", lt):
                raise _FastPathMiss  # DOCTYPE, CDATA, other declarations
            end = source.find("-->", lt + 4)
            if end < 0:
                raise _FastPathMiss
            data = source[lt + 4:end]
            if "--" in data:
                raise _FastPathMiss
            if stack:
                add(KIND_COMMENT, None, data)
            else:
                writer.aside(["comment", data])
            position = end + 3
        elif following == "?":
            matched = _fast_pi(source, lt)
            if matched is None:
                raise _FastPathMiss
            target, data, position = matched
            if stack:
                add(KIND_PI, target, data)
            else:
                writer.aside(["pi", target, data])
        else:
            if not stack and root_done:
                raise _FastPathMiss  # content after the document element
            match = _NAME_RE.match(source, lt + 1)
            if match is None:
                raise _FastPathMiss
            name = match.group()
            cursor = match.end()
            attrs: dict[str, str] | None = None
            while True:
                close_match = _TAG_CLOSE_RE.match(source, cursor)
                if close_match is not None:
                    self_closing = close_match.group(1) == "/"
                    cursor = close_match.end()
                    break
                attr_match = _ATTR_RE.match(source, cursor)
                if attr_match is None:
                    raise _FastPathMiss
                attr_name = attr_match.group(1)
                if attrs is None:
                    attrs = {}
                elif attr_name in attrs:
                    raise _FastPathMiss  # duplicate attribute
                attrs[attr_name] = attr_match.group(2)[1:-1]
                cursor = attr_match.end()
            if stack:
                add(KIND_ELEMENT, name, attrs)
                if self_closing:
                    close()
            else:
                writer.root(name, attrs)
                root_done = self_closing
            if not self_closing:
                stack.append(name)
            position = cursor


def _add_xml(document: MultihierarchicalDocument, name: str,
             source: str) -> None:
    """Register one XML encoding with ``document`` (``from_xml`` has
    the rules); a failure leaves the document as it was.

    The parser reads a source to its end before anything is aligned,
    so a well-formedness error further on outranks the alignment or
    root error the scan stopped at.
    """
    hierarchies = document.hierarchies
    if name in hierarchies:
        raise CMHError(f"duplicate hierarchy name '{name}'")
    writer = _ComponentWriter(
        document.text, document.root_name if hierarchies else None,
        name, len(hierarchies))
    try:
        _scan(source, writer)
        document.add_columns(writer.finish(), writer.root_name)
        return
    except _FastPathMiss:
        pass  # parsed below, outside the handler: its errors stand alone
    except CMHError:
        parse(source)
        raise
    document.add_hierarchy(Hierarchy(name, parse(source)))


class StreamingBuilder:
    """XML encodings and standoff layers over one base text, straight
    to ``.mhxb`` files: columns, and never a node object.

    Feed it XML encodings (:meth:`add_hierarchy`) and/or standoff span
    layers (:meth:`add_layer`), then :meth:`save` — the file is, byte
    for byte, what ``save_engine`` writes for the engine built from the
    same input, so ``Engine.from_mhxb`` loads it with the DOM still
    lazy.  What has been fed so far is :attr:`document`, the document
    ``from_xml`` would have made of it; a corpus is cut out of that
    (:func:`repro.store.sharding.save_shards`).
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.document = MultihierarchicalDocument(text)

    @property
    def hierarchy_names(self) -> list[str]:
        return self.document.hierarchy_names

    def add_hierarchy(self, name: str, source: str) -> None:
        """Tokenize one XML encoding straight into columns.

        The optimistic scanner handles common document-centric XML;
        anything else goes through the canonical parser, so errors
        carry the parser's and the document's exact taxonomy and
        messages.  On failure the builder is left exactly as before
        the call.
        """
        _add_xml(self.document, name, source)

    def add_layer(self, name: str, spans: Iterable) -> None:
        """Register a standoff annotation layer as a new hierarchy.

        ``spans`` are :class:`repro.cmh.spans.Span` objects or
        ``(start, end, name[, attributes[, depth_hint]])`` tuples of
        character offsets into the base text — the shape NLP pipelines
        emit for token/sentence/entity layers.  Semantics (ordering,
        overlap rejection, nesting) are those of
        ``SpanSet(text, spans)``, registered without building a DOM.
        """
        document = self.document
        span_set = SpanSet(self.text, [_as_span(span) for span in spans])
        root_name = document.root_name
        if name in document.hierarchies:
            raise CMHError(f"duplicate hierarchy name '{name}'")
        document.add_columns(span_component(
            _ComponentWriter(self.text, root_name, name,
                             len(document.hierarchies)),
            span_set.sorted_spans()), root_name)

    def save(self, path: str | Path, *, durability: str = "off") -> int:
        """Write the columns as a ``.mhxb`` container; returns its size."""
        document = self.document
        return write_container(
            path, root=document.root_name if document.hierarchies else None,
            text=self.text, components=list(hierarchy_components(document)),
            durability=durability)

    def publish(self, path: str | Path, *, durability: str = "off",
                options=None):
        """:meth:`save`, and the engine over the columns just written —
        the same file bytes, the engine a cold load would make of them,
        but built from what is in hand (DESIGN.md §15): the file is not
        read back, and every hierarchy's nodes come from the row
        writer's own lists.  The engine takes private copies of the
        columns, so the builder can go on."""
        document = self.document
        return write_engine(
            path, root=document.root_name if document.hierarchies else None,
            text=self.text,
            components=list(hierarchy_components(document, own=True)),
            durability=durability, options=options)


def _as_span(span) -> Span:
    """Coerce a ``(start, end, name[, attrs[, depth_hint]])`` tuple."""
    if isinstance(span, Span):
        return span
    start, end, name, *rest = span
    attributes: tuple = ()
    depth_hint = 0
    if rest:
        attributes = rest[0]
        if isinstance(attributes, dict):
            attributes = tuple(attributes.items())
        else:
            attributes = tuple(tuple(item) for item in attributes)
        if len(rest) > 1:
            depth_hint = rest[1]
    return Span(int(start), int(end), str(name), attributes, depth_hint)


def _ingest(text: str, sources: dict[str, str],
            layers: dict[str, Iterable] | None) -> StreamingBuilder:
    """A builder fed with ``sources``, then with ``layers``."""
    builder = StreamingBuilder(text)
    for name, source in sources.items():
        builder.add_hierarchy(name, source)
    for name, spans in (layers or {}).items():
        builder.add_layer(name, spans)
    return builder


def stream_save(text: str, sources: dict[str, str], path: str | Path, *,
                layers: dict[str, Iterable] | None = None,
                durability: str = "off") -> int:
    """One-shot streaming ingest: encodings (+ optional standoff span
    layers) over a shared base text, straight to ``path``.  Returns the
    container size in bytes; the file is byte-identical to
    ``save_engine`` of the engine built from the same input."""
    return _ingest(text, sources, layers).save(path, durability=durability)
