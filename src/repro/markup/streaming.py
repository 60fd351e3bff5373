"""XML source → hierarchy columns: the tokenizer side of the ingest.

A hierarchy inside a KyGODDAG is a table of rows in document order, a
pure function of the *order* of start tags, end tags and text in its
encoding.  So XML does not pass through a DOM on its way in:
``_tokenize`` splits the source by one regular expression, numbers the
rows of the whole encoding by array arithmetic and hands them to the
row writer of :mod:`repro.core.goddag.goddag`, the one producer of
hierarchy columns (DESIGN.md §15).
``MultihierarchicalDocument.from_xml`` — and with it
``Engine.from_xml``, ``load_mhx``, the CLI — is built on it;
:class:`StreamingBuilder` is such a document taken one encoding at a
time, which goes on from the columns straight to ``.mhxb`` files
without creating a node object: the columns *are*
hierarchy components, so the file is written by the function that
writes an engine's (:func:`repro.store.mhxb.write_container`) and a
streamed ``.mhxb`` is a saved engine.

Tokenization is optimistic: the tokenizer handles the common shape
of document-centric XML (no DOCTYPE, CDATA, carriage returns, or
non-predefined entities) and raises the internal ``_FastPathMiss`` on
*anything* it is not bit-perfectly sure about; the caller then goes
through the canonical :func:`repro.markup.parser.parse`, so the error
taxonomy — ``MarkupError`` with line/column, ``CMHError``,
``AlignmentError`` — is the parser's and the document's, and the
parser's DOM goes through the document's DOM door into the same row
writer.  A failed hierarchy is dropped with its writer: nothing
half-built is left.
Standoff annotation layers (token/sentence/entity character spans from
NLP pipelines) enter through :meth:`StreamingBuilder.add_layer`, as
sorted spans pushed into the same writer.
"""

from __future__ import annotations

import re
from itertools import compress
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.cmh.document import Hierarchy, MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet
from repro.core.goddag.goddag import (KIND_COMMENT, KIND_ELEMENT, KIND_PI,
                                      KIND_TEXT, _ComponentWriter,
                                      hierarchy_components)
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
# the fast path and fall back, they are not rejected.  A source with a
# carriage return misses before the split, so whitespace is three
# characters here.
_XML_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*"
_S = r"[ \t\n]"
#: one token — a tag (1 end marker, 2 name, 3 raw attribute run,
#: 4 self-close marker), a comment (5 its data: XML 1.0 production
#: [15], no "--" inside and no "-" last) or a PI (6 target, not
#: "xml"; 7 data) — and whatever it does not take leaves a "<" in
#: the text around it
_TOKEN_RE = re.compile(
    rf"<(?:(/?)({_XML_NAME})"
    rf"((?:{_S}+{_XML_NAME}{_S}*={_S}*"
    r"""(?:"[^"<&\t\n]*"|'[^'<&\t\n]*'))*)"""
    rf"{_S}*(/?)>"
    r"|!--((?:[^-]|-[^-])*)-->"
    rf"|\?(?![Xx][Mm][Ll][ \t\n?])({_XML_NAME})(?:{_S}+(.*?))?\?>)",
    re.DOTALL)
_STRIDE = _TOKEN_RE.groups + 1  # of the re.split list: text, then groups
_ATTR_RE = re.compile(
    rf"{_S}+({_XML_NAME}){_S}*={_S}*(\"[^\"]*\"|'[^']*')")
_WS = " \t\r\n"


def _decode_text(chunk: str) -> str:
    """Resolve predefined/character references in a raw text chunk.

    Misses on a reference the canonical parser treats otherwise: an
    unterminated, malformed or non-predefined one (carriage returns and
    ``]]>`` miss the whole source before).
    """
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


def _attributes(runs: list[str]) -> list[dict[str, str]]:
    """The attributes of each tag given its raw attribute run, by one
    split of the runs joined with a NUL: a gap between two attributes
    is empty, except where a run ends."""
    pieces = _ATTR_RE.split("\0".join(runs))
    maps: list[dict[str, str]] = []
    for gap, name, quoted in zip(pieces[::3], pieces[1::3], pieces[2::3]):
        if gap or not maps:
            maps.append({})
        attributes = maps[-1]
        if name in attributes:
            raise _FastPathMiss  # duplicate attribute
        attributes[name] = quoted[1:-1]
    return maps


def _tokenize(source: str) -> dict:
    """One XML encoding, tokenized: the document element (``root``,
    ``root_attrs``), the comments and PIs around it (``prolog``,
    ``epilog``), and the keyword arguments of the row writer's
    whole-encoding door (:meth:`_ComponentWriter.encoding`) for the
    rows inside it.

    One pass of :data:`_TOKEN_RE` splits the source into tags,
    comments, PIs and the text between them; the rest is arithmetic
    over whole arrays (DESIGN.md §15).  Raises ``_FastPathMiss`` on any
    construct it cannot replicate bit-perfectly (DOCTYPE, CDATA,
    carriage returns, general entities, non-ASCII names, malformed
    markup); the caller then parses with
    :func:`repro.markup.parser.parse`.
    """
    if "\r" in source:
        raise _FastPathMiss
    if source.startswith("\ufeff"):
        source = source[1:]
    # The canonical scanner treats an EOF peek ("") as whitespace —
    # which the empty-slice substring test here replicates — so a bare
    # "<?xml" prefix also takes (and fails) the declaration branch.
    if source.startswith("<?xml") and source[5:6] in _WS:
        declared = source.find("?>", 5)
        if declared < 0:
            raise _FastPathMiss
        source = source[declared + 2:]
    parts = _TOKEN_RE.split(source)
    chunks = parts[::_STRIDE]  # the text before each token, and the tail
    joined = "".join(chunks)
    if "<" in joined or "]]>" in joined:
        raise _FastPathMiss
    markers, names, raws, closes, comments, targets, data = (
        parts[group::_STRIDE] for group in range(1, _STRIDE))
    del parts
    count = len(markers)
    # Per token: what it is, and the depth after it.
    marker = np.array(markers, dtype=object)
    start, end = marker == "", marker == "/"
    empty = np.array(closes, dtype=object) == "/"
    attributed = list(compress(range(count), raws))  # tags with any
    if (end & empty).any() or end[attributed].any():
        raise _FastPathMiss  # "</name/>", "</name a='1'>"
    opens = start & ~empty
    step = opens.astype(np.int64) - end
    depth = np.cumsum(step)
    before = depth - step
    top = np.flatnonzero(start & (before == 0))
    if len(top) != 1 or depth.min() < 0 or depth[-1]:
        raise _FastPathMiss  # no root, a second one, or unbalanced tags
    root = int(top[0])
    close = root + int(np.argmax(depth[root:] == 0))  # the root's end tag
    if "".join(chunks[:root + 1] + chunks[close + 1:]).strip(_WS):
        raise _FastPathMiss  # text before or after the document element
    # End tags pair with start tags: stably sorted on the depth inside
    # them, one level's tags alternate start, end, start, end.
    paired = np.flatnonzero(opens | end)
    inside = np.where(end[paired], before[paired], depth[paired])
    order = np.argsort(inside, kind="stable")
    paired, inside = paired[order], inside[order]
    starts_at, ends_at = paired[::2], paired[1::2]
    label = np.array(names, dtype=object)
    if not opens[starts_at].all() \
            or (label[starts_at] != label[ends_at]).any():
        raise _FastPathMiss
    # Comments and PIs: around the root element kept aside, inside it
    # rows.
    others = np.flatnonzero(~(start | end)).tolist()
    asides = {token: ["comment", comments[token]]
              if comments[token] is not None
              else ["pi", targets[token], data[token] or ""]
              for token in others}
    tokens = dict(
        root=names[root],
        root_attrs=_attributes([raws[root]])[0] if raws[root] else {},
        prolog=[asides[token] for token in others if token < root],
        epilog=[asides[token] for token in others if token > close])
    # Inside the root, slot 2i holds text chunk i and slot 2i + 1 the
    # token after it; the slots that are rows number the rows.
    texts = chunks[root + 1:close + 1]
    if "&" in joined:
        texts = [_decode_text(chunk) if "&" in chunk else chunk
                 for chunk in texts]
    inner = slice(root + 1, close)
    size = max(2 * len(texts) - 1, 0)
    lengths = np.zeros(size, dtype=np.int64)
    lengths[::2] = np.fromiter(map(len, texts), np.int64, len(texts))
    kinds = np.full(size, -1, dtype=np.int8)
    kinds[::2][lengths[::2] > 0] = KIND_TEXT
    kinds[1::2][start[inner]] = KIND_ELEMENT
    others = [token for token in others if root < token < close]
    for token in others:
        kinds[2 * (token - root) - 1] = \
            KIND_COMMENT if asides[token][0] == "comment" else KIND_PI
    levels = np.empty(size, dtype=np.int64)  # how many elements hold it
    levels[::2] = depth[root:close]
    levels[1::2] = before[inner]
    slots = np.flatnonzero(kinds >= 0)
    row_at = np.cumsum(kinds >= 0) - 1  # a slot's row, or the last before
    token_row = np.full(count, -1, dtype=np.int64)  # the root's is -1
    token_row[inner] = row_at[1::2]
    # A row's parent is the last start tag before it one level up: the
    # last (level, token) key of the start tags, in pairing order, below
    # the row's.
    keys = inside[::2] * (count + 1) + starts_at
    at = slots // 2 + root + 1  # the token after a row, or its own
    parents = token_row[starts_at[np.searchsorted(
        keys, levels[slots] * (count + 1) + at) - 1]]
    # an element's subtree ends with the last row before its end tag
    subtree_ends = np.arange(len(slots), dtype=np.int64)
    elements = token_row[starts_at[1:]]  # in pairing order; root first
    subtree_ends[elements] = token_row[ends_at[1:]]
    kinds = kinds[slots]
    # names (element and PI target), interned in order of first use
    named = np.flatnonzero((kinds == KIND_ELEMENT) | (kinds == KIND_PI))
    labels = [names[token] or targets[token]
              for token in at[named].tolist()]
    table = {name: index
             for index, name in enumerate(dict.fromkeys(labels))}
    name_ids = np.full(len(slots), -1, dtype=np.int64)
    name_ids[named] = list(map(table.__getitem__, labels))
    keyed: dict[str, list] = {"comment": [], "pi": []}
    for token in others:
        entry = asides[token]
        keyed[entry[0]].append([int(token_row[token]), entry[-1]])
    attributed = [token for token in attributed if root < token < close]
    return tokens | dict(
        kinds=kinds, name_ids=name_ids, parents=parents,
        subtree_ends=subtree_ends, lengths=lengths[slots],
        texts=[text for text in texts if text], names=list(table),
        attrs=[list(entry) for entry in zip(
            token_row[attributed].tolist(),
            _attributes([raws[token] for token in attributed]))],
        comments=keyed["comment"], pis=keyed["pi"])


def _add_xml(document: MultihierarchicalDocument, name: str,
             source: str) -> None:
    """Register one XML encoding with ``document`` (``from_xml`` has
    the rules); a failure leaves the document as it was.

    The parser reads a source to its end before anything is aligned,
    so a well-formedness error anywhere outranks the alignment or root
    error the writer raised.
    """
    hierarchies = document.hierarchies
    if name in hierarchies:
        raise CMHError(f"duplicate hierarchy name '{name}'")
    writer = _ComponentWriter(
        document.text, document.root_name if hierarchies else None,
        name, len(hierarchies))
    try:
        rows = _tokenize(source)
        for entry in rows.pop("prolog"):
            writer.aside(entry)
        writer.root(rows.pop("root"), rows.pop("root_attrs"))
        for entry in rows.pop("epilog"):
            writer.aside(entry)
        document.add_columns(writer.encoding(**rows), writer.root_name)
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
    same input, so ``Engine.from_mhxb`` loads it.  What has been fed so
    far is :attr:`document`, the document
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

        The optimistic tokenizer handles common document-centric XML;
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
        self.document.add_spans(
            name, SpanSet(self.text, [_as_span(span) for span in spans]))

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
        read back, and no node object is made — the engine makes a
        row's node when a query first asks for it, as it does over a
        mapped file.  The engine takes private copies of the columns,
        so the builder can go on."""
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
