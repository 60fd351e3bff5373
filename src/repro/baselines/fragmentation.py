"""The fragmentation encoding: one tree, overlap split into fragments.

Every element of every hierarchy is emitted into a single well-formed
document.  When two elements properly overlap, the one that must close
"through" the other is split into fragments.  Fragments carry

* ``fid`` — the fragment group id, ``<hierarchy>.<serial>``, linking
  the pieces of one original element;
* ``part`` — ``I``/``M``/``F`` (initial/middle/final) on split
  elements, following the TEI convention.

``defragment`` inverts the encoding back into per-hierarchy documents
(used by the round-trip property tests): fragments of one group are
contiguous, so each original element is recovered as the convex hull of
its fragments' character spans.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import BaselineError
from repro.markup import dom
from repro.cmh.document import MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet, spans_of

FID_ATTRIBUTE = "fid"
PART_ATTRIBUTE = "part"


@dataclass
class _SpanRecord:
    """One original element during the sweep."""

    start: int
    end: int
    name: str
    attributes: dict[str, str]
    hierarchy: str
    rank: int
    depth: int
    fid: str
    fragments: list[dom.Element] = field(default_factory=list)


def fragment_document(document: MultihierarchicalDocument,
                      hierarchy_order: list[str] | None = None
                      ) -> dom.Document:
    """Merge all hierarchies into one fragmented document.

    ``hierarchy_order`` breaks nesting ties between same-extent elements
    of different hierarchies (earlier = outer); defaults to the
    document's registration order.
    """
    order = hierarchy_order or document.hierarchy_names
    records = _collect_records(document, order)
    return _sweep(document.text, document.root_name, records)


def _collect_records(document: MultihierarchicalDocument,
                     order: list[str]) -> list[_SpanRecord]:
    records: list[_SpanRecord] = []
    for rank, name in enumerate(order):
        hierarchy = document[name]
        serial = 0
        for span in spans_of(hierarchy.document):
            serial += 1
            records.append(_SpanRecord(
                start=span.start, end=span.end, name=span.name,
                attributes=span.attributes_dict, hierarchy=name, rank=rank,
                depth=span.depth_hint, fid=f"{name}.{serial}"))
    return records


def _sweep(text: str, root_name: str,
           records: list[_SpanRecord]) -> dom.Document:
    boundaries = sorted({0, len(text)}
                        | {r.start for r in records}
                        | {r.end for r in records})
    opens_at: dict[int, list[_SpanRecord]] = {}
    closes_at: dict[int, set[int]] = {}
    for record in records:
        if record.start == record.end:
            continue  # zero-length spans are emitted as empty elements
        opens_at.setdefault(record.start, []).append(record)
        closes_at.setdefault(record.end, set()).add(id(record))
    empties_at: dict[int, list[_SpanRecord]] = {}
    for record in records:
        if record.start == record.end:
            empties_at.setdefault(record.start, []).append(record)

    root_document = dom.Document()
    root = dom.Element(root_name)
    root_document.append(root)
    # The stack holds (record-or-None, element); None marks the root.
    stack: list[tuple[_SpanRecord | None, dom.Element]] = [(None, root)]

    def open_fragment(record: _SpanRecord) -> None:
        element = dom.Element(record.name, dict(record.attributes))
        element.set(FID_ATTRIBUTE, record.fid)
        stack[-1][1].append(element)
        record.fragments.append(element)
        stack.append((record, element))

    for position, offset in enumerate(boundaries):
        # 1. close / suspend-and-resume
        pending = closes_at.get(offset, set())
        if pending:
            suspended: list[_SpanRecord] = []
            while pending:
                record, _element = stack.pop()
                if record is None:
                    raise BaselineError(
                        "fragmentation sweep underflowed the root")
                if id(record) in pending:
                    pending.discard(id(record))
                else:
                    suspended.append(record)
            for record in reversed(suspended):
                open_fragment(record)
        # 2. point (zero-length) elements
        for record in empties_at.get(offset, []):
            element = dom.Element(record.name, dict(record.attributes))
            element.set(FID_ATTRIBUTE, record.fid)
            stack[-1][1].append(element)
            record.fragments.append(element)
        # 3. opens: longer extents (then earlier hierarchies, outer
        #    depth hints) become outer elements
        for record in sorted(opens_at.get(offset, []),
                             key=lambda r: (-r.end, r.rank, r.depth)):
            open_fragment(record)
        # 4. text run to the next boundary
        if position + 1 < len(boundaries):
            next_offset = boundaries[position + 1]
            if next_offset > offset:
                text_node = dom.Text(text[offset:next_offset])
                text_node.start, text_node.end = offset, next_offset
                stack[-1][1].append(text_node)
    if len(stack) != 1:
        raise BaselineError("unclosed elements after fragmentation sweep")
    _assign_parts(records)
    return root_document


def _assign_parts(records: list[_SpanRecord]) -> None:
    for record in records:
        fragments = record.fragments
        if len(fragments) <= 1:
            continue
        for index, fragment in enumerate(fragments):
            if index == 0:
                fragment.set(PART_ATTRIBUTE, "I")
            elif index == len(fragments) - 1:
                fragment.set(PART_ATTRIBUTE, "F")
            else:
                fragment.set(PART_ATTRIBUTE, "M")


def defragment(document: dom.Document) -> MultihierarchicalDocument:
    """Invert :func:`fragment_document` into per-hierarchy documents."""
    from repro.baselines.flatquery import text_offsets

    offsets, text = text_offsets(document)
    groups: dict[str, list[dom.Element]] = {}
    for element in document.root.iter_elements():
        fid = element.get(FID_ATTRIBUTE)
        if fid is None:
            raise BaselineError(
                f"element '{element.name}' lacks a {FID_ATTRIBUTE} "
                f"attribute; not a fragmentation encoding")
        groups.setdefault(fid, []).append(element)
    span_sets: dict[str, SpanSet] = {}
    depth_counter = 0
    for fid, elements in groups.items():
        hierarchy, _dot, _serial = fid.rpartition(".")
        if not hierarchy:
            raise BaselineError(f"malformed fragment id {fid!r}")
        starts = [offsets[id(e)][0] for e in elements]
        ends = [offsets[id(e)][1] for e in elements]
        attributes = {
            key: value for key, value in elements[0].attributes.items()
            if key not in (FID_ATTRIBUTE, PART_ATTRIBUTE)
        }
        span_sets.setdefault(hierarchy, SpanSet(text))
        depth_counter += 1
        span_sets[hierarchy].add(Span(
            min(starts), max(ends), elements[0].name,
            tuple(attributes.items()), depth_hint=depth_counter))
    result = MultihierarchicalDocument(text)
    for hierarchy, spans in span_sets.items():
        result.add_spans(hierarchy, spans, document.root.name)
    return result
