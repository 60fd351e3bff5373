"""Streaming bulk ingest: a DOM-free KyGODDAG table builder.

The canonical ingest path (``MultihierarchicalDocument.from_xml`` →
``Engine`` → ``save_engine``) materializes a full DOM per hierarchy,
re-walks it into ``GElement``/``GText`` hierarchy nodes, and only then
flattens those into the array tables that ``.mhxb`` actually stores.
For bulk ingest all three intermediate object graphs are waste: the
tables, the partition boundary multiset, and the SpanIndex columns are
each a pure function of the *event stream* (start-tag / end-tag / text
/ comment / PI in document order).

:class:`StreamingBuilder` therefore consumes iterparse-style events and
writes node tables directly:

* **preorder is event order** — a start/text/comment/PI event receives
  the next sequential table index, and at an element's end event its
  ``subtree_end`` is simply ``counter - 1``;
* **order keys vectorize** — table rows always carry ``minor == 0``, so
  a hierarchy's packed Definition 3 keys are
  ``(1 << 61) | (rank << 45) | (arange(count) << 13)``;
* **partition boundaries are a Counter** — the multiset seeded with
  ``{0, len(text)}`` plus every node's start and end offset;
* **the tables are hierarchy components** — the column form a live
  KyGODDAG holds (:class:`~repro.core.goddag.goddag._HierarchyComponent`,
  here without node objects), so the file is written by the very
  function that saves an engine, :func:`repro.store.mhxb.write_container`.

The output is therefore **byte-identical** to ``save_engine`` on the
same input (``tests/test_streaming.py`` enforces this differentially), so loaders,
CRC verification, sharded stores, and the server need no new code: a
streamed ``.mhxb`` *is* a saved engine, and the DOM stays lazy behind
``Engine.from_mhxb``/``Engine.document``.

Tokenization is optimistic: a regex fast path handles the common shape
of document-centric XML (no DOCTYPE, CDATA, carriage returns, or
non-predefined entities) and raises the internal ``_FastPathMiss`` on
*anything* it is not bit-perfectly sure about, falling back to the
canonical :func:`repro.markup.parser.parse` so the error taxonomy —
``MarkupError`` with line/column, ``CMHError``, ``AlignmentError`` —
is exactly the DOM path's.  A failed ``add_hierarchy``/``add_layer``
never leaves a half-built table behind.

Standoff annotation layers (token/sentence/entity character spans from
NLP pipelines) enter through :meth:`StreamingBuilder.add_layer`, which
replays :class:`repro.cmh.spans.SpanSet` semantics as synthetic events.

See DESIGN.md §15 for the full design discussion.
"""

from __future__ import annotations

import re
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from repro.cmh.document import _first_divergence
from repro.cmh.spans import Span, SpanSet
from repro.core.goddag.goddag import (KIND_COMMENT as _KIND_COMMENT,
                                      KIND_ELEMENT as _KIND_ELEMENT,
                                      KIND_PI as _KIND_PI,
                                      KIND_TEXT as _KIND_TEXT,
                                      _HierarchyComponent)
from repro.errors import (AlignmentError, CMHError, MarkupError,
                          ReproError, StoreError)
from repro.markup import dom
from repro.markup.entities import PREDEFINED, decode_char_reference
from repro.markup.parser import parse
from repro.store.mhxb import write_container
from repro.store.sharding import (CorpusStats, ShardStats, balanced_cuts,
                                  valid_cut_positions)

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


def _fast_events(source: str) -> Iterator[tuple]:
    """Optimistic one-pass tokenizer over well-shaped XML.

    Yields ``("start", name, attrs-or-None)``, ``("end",)``,
    ``("text", data)``, ``("comment", data)``, ``("pi", target, data)``
    and the document-level ``("doc_comment", data)`` /
    ``("doc_pi", target, data)`` variants.  Raises ``_FastPathMiss``
    on any construct it cannot replicate bit-perfectly (DOCTYPE,
    CDATA, carriage returns, general entities, non-ASCII names,
    malformed markup) — events already yielded are always a prefix of
    the canonical parser's stream, so the caller can roll back and
    replay through :func:`repro.markup.parser.parse`.
    """
    if source.startswith("﻿"):
        source = source[1:]
    position = 0
    # The canonical scanner treats an EOF peek ("") as whitespace —
    # which the empty-slice substring test here replicates — so a bare
    # "<?xml" prefix also takes (and fails) the declaration branch.
    if source.startswith("<?xml") and source[5:6] in _WS:
        close = source.find("?>", 5)
        if close < 0:
            raise _FastPathMiss
        position = close + 2
    stack: list[str] = []
    started = False
    root_done = False
    n = len(source)
    while True:
        lt = source.find("<", position)
        if lt < 0:
            if stack or not started:
                raise _FastPathMiss
            if source[position:].strip(_WS):
                raise _FastPathMiss
            return
        if lt > position:
            chunk = source[position:lt]
            if stack:
                yield ("text", _decode_text(chunk))
            elif chunk.strip(_WS):
                raise _FastPathMiss
        position = lt
        following = source[lt + 1:lt + 2]
        if following == "/":
            if not stack:
                raise _FastPathMiss
            match = _END_RE.match(source, lt)
            if match is None or match.group(1) != stack[-1]:
                raise _FastPathMiss
            stack.pop()
            yield ("end",)
            if not stack:
                root_done = True
            position = match.end()
        elif following == "!":
            if not source.startswith("<!--", lt):
                raise _FastPathMiss  # DOCTYPE, CDATA, other declarations
            close = source.find("-->", lt + 4)
            if close < 0:
                raise _FastPathMiss
            data = source[lt + 4:close]
            if "--" in data:
                raise _FastPathMiss
            yield ("comment", data) if stack else ("doc_comment", data)
            position = close + 3
        elif following == "?":
            matched = _fast_pi(source, lt)
            if matched is None:
                raise _FastPathMiss
            target, data, position = matched
            yield ("pi", target, data) if stack else ("doc_pi", target, data)
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
                if attr_match is None or attr_match.end() > n:
                    raise _FastPathMiss
                attr_name = attr_match.group(1)
                if attrs is None:
                    attrs = {}
                elif attr_name in attrs:
                    raise _FastPathMiss  # duplicate attribute
                attrs[attr_name] = attr_match.group(2)[1:-1]
                cursor = attr_match.end()
            yield ("start", name, attrs)
            started = True
            if self_closing:
                yield ("end",)
                if not stack:
                    root_done = True
            else:
                stack.append(name)
            position = cursor


def _dom_events(document: dom.Document) -> Iterator[tuple]:
    """Replay a parsed DOM as the same event stream, iteratively."""
    for child in document.children:
        if isinstance(child, dom.Element):
            yield ("start", child.name, dict(child.attributes) or None)
            stack = [iter(child.children)]
            while stack:
                try:
                    node = next(stack[-1])
                except StopIteration:
                    stack.pop()
                    yield ("end",)
                    continue
                if isinstance(node, dom.Element):
                    yield ("start", node.name, dict(node.attributes) or None)
                    stack.append(iter(node.children))
                elif isinstance(node, dom.Text):
                    yield ("text", node.data)
                elif isinstance(node, dom.Comment):
                    yield ("comment", node.data)
                elif isinstance(node, dom.ProcessingInstruction):
                    yield ("pi", node.target, node.data)
        elif isinstance(child, dom.Comment):
            yield ("doc_comment", child.data)
        elif isinstance(child, dom.ProcessingInstruction):
            yield ("doc_pi", child.target, child.data)


def _span_events(text: str, spans: Sequence[Span],
                 root_name: str) -> list[tuple]:
    """Synthesize the event stream a ``SpanSet.to_document`` DOM would
    replay, without building it.  ``spans`` must be pre-sorted."""
    events: list[tuple] = [("start", root_name, None)]
    out = events.append
    stack: list[int] = [len(text)]  # open-element end offsets; root last
    cursor = 0

    def emit_text(target: int) -> int:
        nonlocal cursor
        while cursor < target:
            while stack[-1] <= cursor and len(stack) > 1:
                stack.pop()
                out(("end",))
            stop = min(target, stack[-1])
            if stop > cursor:
                out(("text", text[cursor:stop]))
                cursor = stop
            elif len(stack) > 1:
                stack.pop()
                out(("end",))
            else:
                break
        while stack[-1] <= cursor and len(stack) > 1:
            stack.pop()
            out(("end",))
        return cursor

    for span in spans:
        emit_text(span.start)
        while stack[-1] <= span.start and len(stack) > 1:
            stack.pop()
            out(("end",))
        parent_end = stack[-1]
        if span.end > parent_end:
            raise CMHError(
                f"span <{span.name}> [{span.start}, {span.end}) escapes "
                f"its enclosing element ending at {parent_end}")
        out(("start", span.name, span.attributes_dict or None))
        stack.append(span.end)
    emit_text(len(text))
    while len(stack) > 1:
        stack.pop()
        out(("end",))
    out(("end",))  # close the root
    return events


class _HierarchyTables:
    """Flat per-hierarchy node tables in ``.mhxb`` row order."""

    __slots__ = ("name", "kinds", "name_ids", "starts", "ends", "parents",
                 "subtree_ends", "attrs", "comments", "pis", "prolog",
                 "epilog", "root_attrs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.kinds: list[int] = []
        self.name_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.subtree_ends: list[int] = []
        self.attrs: list[list] = []
        self.comments: list[list] = []
        self.pis: list[list] = []
        self.prolog: list[list] = []
        self.epilog: list[list] = []
        self.root_attrs: dict[str, str] = {}


class StreamingBuilder:
    """One-pass, DOM-free builder of ``.mhxb`` engine state.

    Feed it XML encodings (:meth:`add_hierarchy`) and/or standoff span
    layers (:meth:`add_layer`) over one shared base text, then
    :meth:`save` — the file is byte-identical to the DOM path's
    ``save_engine`` output, so ``Engine.from_mhxb`` loads it with the
    DOM still lazy.  :meth:`save_shards` cuts the same tables at
    fragment boundaries valid in every hierarchy, mirroring
    ``shard_document`` file-for-file.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._tables: dict[str, _HierarchyTables] = {}
        self._root_name: str | None = None

    @property
    def hierarchy_names(self) -> list[str]:
        return list(self._tables)

    @property
    def root_name(self) -> str:
        if self._root_name is None:
            raise CMHError("document has no hierarchies")
        return self._root_name

    def _intern(self, name: str) -> int:
        position = self._name_ids.get(name)
        if position is None:
            position = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return position

    # ------------------------------------------------------------------
    # ingestion

    def add_hierarchy(self, name: str, source: str) -> None:
        """Tokenize one XML encoding straight into node tables.

        The optimistic tokenizer handles common document-centric XML;
        anything else replays through the canonical parser, so errors
        carry the DOM path's exact taxonomy and messages.  On failure
        the builder is left exactly as before the call.
        """
        mark = len(self._names)
        try:
            self._consume(name, _fast_events(source))
            return
        except _FastPathMiss:
            self._unintern(mark)
        except CMHError:
            # The DOM path fully parses before aligning, so a later
            # well-formedness error outranks the CMH/alignment one.
            self._unintern(mark)
            parse(source)
            raise
        document = parse(source)
        try:
            self._consume(name, _dom_events(document))
        except CMHError:
            self._unintern(mark)
            raise

    def add_layer(self, name: str, spans: Iterable) -> None:
        """Register a standoff annotation layer as a new hierarchy.

        ``spans`` are :class:`repro.cmh.spans.Span` objects or
        ``(start, end, name[, attributes[, depth_hint]])`` tuples of
        character offsets into the base text — the shape NLP pipelines
        emit for token/sentence/entity layers.  Semantics (ordering,
        overlap rejection, nesting) are exactly
        ``SpanSet(text, spans).to_document(root_name)`` followed by
        ``add_hierarchy``, without building the DOM.
        """
        span_set = SpanSet(self.text, [_as_span(span) for span in spans])
        events = _span_events(self.text, span_set.sorted_spans(),
                              self.root_name)
        mark = len(self._names)
        try:
            self._consume(name, iter(events))
        except CMHError:
            self._unintern(mark)
            raise

    def _unintern(self, mark: int) -> None:
        for name in self._names[mark:]:
            del self._name_ids[name]
        del self._names[mark:]

    def _consume(self, name: str, events: Iterator[tuple]) -> None:
        if name in self._tables:
            raise CMHError(f"duplicate hierarchy name '{name}'")
        text = self.text
        length = len(text)
        intern = self._intern
        tables = _HierarchyTables(name)
        kinds = tables.kinds
        name_ids = tables.name_ids
        starts = tables.starts
        ends = tables.ends
        parents = tables.parents
        subtrees = tables.subtree_ends
        cursor = 0
        counter = 0
        stack: list[int] = []
        root_seen = False
        root_name = self._root_name
        for event in events:
            kind = event[0]
            if kind == "text":
                data = event[1]
                end = cursor + len(data)
                if text[cursor:end] != data:
                    offset = _first_divergence(text, cursor, data)
                    raise AlignmentError(
                        f"hierarchy '{name}' diverges from the base text "
                        f"at offset {offset}: expected "
                        f"{text[offset:offset + 20]!r}, encoding has "
                        f"{data[offset - cursor:offset - cursor + 20]!r}",
                        hierarchy=name, offset=offset)
                kinds.append(_KIND_TEXT)
                name_ids.append(-1)
                starts.append(cursor)
                ends.append(end)
                parents.append(stack[-1] if stack else -1)
                subtrees.append(counter)
                counter += 1
                cursor = end
            elif kind == "start":
                element_name, attrs = event[1], event[2]
                if not root_seen:
                    root_seen = True
                    if root_name is None:
                        root_name = element_name
                    elif element_name != root_name:
                        raise CMHError(
                            f"hierarchy '{name}' has root "
                            f"'{element_name}' but the document root is "
                            f"'{root_name}'")
                    if attrs:
                        tables.root_attrs = dict(attrs)
                    continue
                kinds.append(_KIND_ELEMENT)
                name_ids.append(intern(element_name))
                starts.append(cursor)
                ends.append(-1)
                parents.append(stack[-1] if stack else -1)
                subtrees.append(-1)
                if attrs:
                    tables.attrs.append([counter, dict(attrs)])
                stack.append(counter)
                counter += 1
            elif kind == "end":
                if stack:
                    position = stack.pop()
                    ends[position] = cursor
                    subtrees[position] = counter - 1
                elif cursor != length:
                    raise AlignmentError(
                        f"hierarchy '{name}' covers only the first "
                        f"{cursor} of {length} characters of the base "
                        f"text", hierarchy=name, offset=cursor)
            elif kind == "comment":
                kinds.append(_KIND_COMMENT)
                name_ids.append(-1)
                starts.append(cursor)
                ends.append(cursor)
                parents.append(stack[-1] if stack else -1)
                subtrees.append(counter)
                tables.comments.append([counter, event[1]])
                counter += 1
            elif kind == "pi":
                kinds.append(_KIND_PI)
                name_ids.append(intern(event[1]))
                starts.append(cursor)
                ends.append(cursor)
                parents.append(stack[-1] if stack else -1)
                subtrees.append(counter)
                tables.pis.append([counter, event[2]])
                counter += 1
            elif kind == "doc_comment":
                target_list = tables.epilog if root_seen else tables.prolog
                target_list.append(["comment", event[1]])
            else:  # "doc_pi"
                target_list = tables.epilog if root_seen else tables.prolog
                target_list.append(["pi", event[1], event[2]])
        self._root_name = root_name
        self._tables[name] = tables

    # ------------------------------------------------------------------
    # persistence

    def save(self, path: str | Path, *, durability: str = "off") -> int:
        """Write the tables as a ``.mhxb`` container; returns its size.

        Same writer as ``save_engine``, fed the same column form: the
        two match byte for byte.
        """
        if not self._tables:
            raise ReproError("cannot save an empty document to .mhxb")
        components: list[_HierarchyComponent] = []
        boundaries: Counter[int] = Counter({0: 1, len(self.text): 1})
        for rank, (name, tables) in enumerate(self._tables.items()):
            columns = {
                key: np.asarray(getattr(tables, key), dtype=np.int64)
                for key in ("name_ids", "starts", "ends", "parents",
                            "subtree_ends")}
            columns["kinds"] = np.asarray(tables.kinds, dtype=np.int8)
            components.append(_HierarchyComponent(
                name, rank, False, names=self._names, columns=columns,
                attrs=tables.attrs, comments=tables.comments,
                pis=tables.pis, prolog=tables.prolog,
                epilog=tables.epilog, root_attrs=tables.root_attrs))
            boundaries.update(tables.starts)
            boundaries.update(tables.ends)
        offsets = sorted(boundaries)
        partition = (np.array(offsets, dtype=np.int64),
                     np.array([boundaries[offset] for offset in offsets],
                              dtype=np.int64))
        return write_container(
            path, root=self._root_name, version=len(self._tables),
            text=self.text, components=components, partition=partition,
            dtds=None, durability=durability)

    # ------------------------------------------------------------------
    # sharding

    def _element_span_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Pooled non-empty element spans, as ``_element_spans`` sees
        them — but read off the tables instead of walking a DOM."""
        span_starts: list[int] = []
        span_ends: list[int] = []
        for tables in self._tables.values():
            for kind, start, end in zip(tables.kinds, tables.starts,
                                        tables.ends):
                if kind == _KIND_ELEMENT and end > start:
                    span_starts.append(start)
                    span_ends.append(end)
        return (np.asarray(sorted(span_starts), dtype=np.int64),
                np.asarray(sorted(span_ends), dtype=np.int64))

    def shard_bounds(self, n_shards: int) -> list[tuple[int, int]]:
        """``[lo, hi)`` bounds replicating ``choose_cuts`` exactly."""
        if not self._tables:
            raise StoreError("cannot shard a document with no hierarchies")
        if n_shards < 1:
            raise StoreError(f"shard count must be >= 1, got {n_shards}")
        total = len(self.text)
        if n_shards == 1:
            cuts: list[int] = []
        else:
            starts, ends = self._element_span_columns()
            cuts = balanced_cuts(valid_cut_positions(starts, ends, total),
                                 total, n_shards)
        bounds = [0, *cuts, total]
        return list(zip(bounds, bounds[1:]))

    def _slice(self, lo: int, hi: int) -> "StreamingBuilder":
        """A new builder holding this one's tables cut to ``[lo, hi)``,
        row-for-row what ``shard_document`` would rebuild via DOM."""
        shard = StreamingBuilder(self.text[lo:hi])
        shard._root_name = self._root_name
        total = len(self.text)
        for name, tables in self._tables.items():
            out = _HierarchyTables(name)
            out.root_attrs = dict(tables.root_attrs)
            kinds = tables.kinds
            starts = tables.starts
            ends = tables.ends
            subtrees = tables.subtree_ends
            name_ids = tables.name_ids
            attrs_map = {position: value for position, value in tables.attrs}
            comments_map = {position: value
                            for position, value in tables.comments}
            pis_map = {position: value for position, value in tables.pis}
            count = len(kinds)

            def copy_range(first: int, last: int) -> None:
                base = len(out.kinds) - first
                for row in range(first, last + 1):
                    out.kinds.append(kinds[row])
                    kind = kinds[row]
                    if kind in (_KIND_ELEMENT, _KIND_PI):
                        out.name_ids.append(
                            shard._intern(self._names[name_ids[row]]))
                    else:
                        out.name_ids.append(-1)
                    out.starts.append(starts[row] - lo)
                    out.ends.append(ends[row] - lo)
                    out.parents.append(
                        -1 if row == first else tables.parents[row] + base)
                    out.subtree_ends.append(subtrees[row] + base)
                    new_row = row + base
                    if kind == _KIND_ELEMENT and row in attrs_map:
                        out.attrs.append([new_row, dict(attrs_map[row])])
                    elif kind == _KIND_COMMENT:
                        out.comments.append([new_row, comments_map[row]])
                    elif kind == _KIND_PI:
                        out.pis.append([new_row, pis_map[row]])

            row = 0
            while row < count:
                kind = kinds[row]
                start, end = starts[row], ends[row]
                if kind == _KIND_TEXT:
                    piece_lo = max(start, lo)
                    piece_hi = min(end, hi)
                    if piece_lo < piece_hi:
                        index = len(out.kinds)
                        out.kinds.append(_KIND_TEXT)
                        out.name_ids.append(-1)
                        out.starts.append(piece_lo - lo)
                        out.ends.append(piece_hi - lo)
                        out.parents.append(-1)
                        out.subtree_ends.append(index)
                    row += 1
                    continue
                last = subtrees[row]
                if start == end:
                    # zero-length node/subtree: owned by the shard whose
                    # half-open range contains its offset (the final
                    # shard also owns the text-end position)
                    if lo <= start < hi or (start == total and hi == total):
                        copy_range(row, last)
                    row = last + 1
                    continue
                if end <= lo or start >= hi:
                    row = last + 1
                    continue
                if start < lo or end > hi:
                    raise StoreError(
                        f"element <{self._names[name_ids[row]]}> spans "
                        f"[{start}, {end}) across the shard cut at "
                        f"[{lo}, {hi}) — cut selection must only produce "
                        "element-boundary positions")
                copy_range(row, last)
                row = last + 1
            shard._tables[name] = out
        return shard

    def save_shards(self, n_shards: int,
                    path_for: Callable[[int], str | Path], *,
                    durability: str = "off") -> CorpusStats:
        """Cut the tables into ``n_shards`` files, byte-identical to
        the ``shard_document`` → ``save_engine`` pipeline, and return
        the same :class:`CorpusStats`."""
        bounds = self.shard_bounds(n_shards)
        shard_stats: list[ShardStats] = []
        name_hierarchies: dict[str, set[str]] = {}
        for index, (lo, hi) in enumerate(bounds):
            shard = self._slice(lo, hi)
            shard.save(path_for(index), durability=durability)
            cards: dict[str, int] = {}
            for hierarchy_name, tables in shard._tables.items():
                for kind, name_id in zip(tables.kinds, tables.name_ids):
                    if kind == _KIND_ELEMENT:
                        element_name = shard._names[name_id]
                        cards[element_name] = cards.get(element_name, 0) + 1
                        name_hierarchies.setdefault(
                            element_name, set()).add(hierarchy_name)
            shard_stats.append(ShardStats(
                lo=lo, hi=hi, words=len(self.text[lo:hi].split()),
                cards=cards))
        return CorpusStats(
            root_name=self.root_name,
            hierarchy_names=list(self._tables),
            name_hierarchies={name: sorted(names) for name, names
                              in name_hierarchies.items()},
            shards=shard_stats)


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


def stream_save(text: str, sources: dict[str, str], path: str | Path, *,
                layers: dict[str, Iterable] | None = None,
                durability: str = "off") -> int:
    """One-shot streaming ingest: encodings (+ optional standoff span
    layers) over a shared base text, straight to ``path``.  Returns the
    container size in bytes; the file is byte-identical to the DOM
    path's ``save_engine`` output on the same input."""
    builder = StreamingBuilder(text)
    for name, source in sources.items():
        builder.add_hierarchy(name, source)
    for name, spans in (layers or {}).items():
        builder.add_layer(name, spans)
    return builder.save(path, durability=durability)
