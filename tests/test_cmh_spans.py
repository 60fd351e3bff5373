"""Tests for the span-list hierarchy representation."""

from __future__ import annotations

import random

import pytest

from repro.errors import CMHError
from repro.cmh.spans import Span, SpanSet, spans_of
from repro.markup import parse, serialize


class TestSpanValidation:
    def test_negative_extent_rejected(self):
        with pytest.raises(CMHError, match="negative extent"):
            Span(5, 3, "a")

    def test_out_of_bounds_rejected(self):
        spans = SpanSet("abc")
        with pytest.raises(CMHError, match="exceeds"):
            spans.add(Span(0, 4, "a"))

    def test_proper_overlap_rejected(self):
        spans = SpanSet("abcdef")
        spans.add(Span(0, 4, "a"))
        with pytest.raises(CMHError, match="overlaps"):
            spans.add(Span(2, 6, "b"))

    @pytest.mark.parametrize("seed", range(6))
    def test_first_offender_in_insertion_order(self, seed):
        """Small and large sets (the check walks a containment forest
        past a few spans) name the span the full pairwise rule finds
        first among those added before."""
        def crosses(a: Span, b: Span) -> bool:
            if a.start >= b.end or b.start >= a.end:
                return False
            return not ((b.start <= a.start and a.end <= b.end)
                        or (a.start <= b.start and b.end <= a.end))

        rng = random.Random(seed)
        for _ in range(200):
            length = rng.randint(1, 60)
            spans, added = SpanSet("x" * length), []
            for _ in range(rng.randint(1, 60)):
                start = rng.randint(0, length)
                span = Span(start, rng.randint(start, length), "s")
                first = next((other for other in added
                              if crosses(span, other)), None)
                if first is None:
                    spans.add(span)
                    added.append(span)
                    continue
                with pytest.raises(CMHError) as caught:
                    spans.add(span)
                assert f"overlaps <s> [{first.start}, {first.end})" \
                    in str(caught.value)
            assert spans.spans == added

    def test_nesting_allowed(self):
        spans = SpanSet("abcdef")
        spans.add(Span(0, 6, "outer"))
        spans.add(Span(2, 4, "inner"))
        assert len(spans.spans) == 2

    def test_disjoint_allowed(self):
        spans = SpanSet("abcdef")
        spans.add(Span(0, 2, "a"))
        spans.add(Span(4, 6, "b"))
        assert len(spans.spans) == 2

    def test_zero_length_span_allowed(self):
        spans = SpanSet("abc")
        spans.add(Span(1, 1, "milestone"))
        doc = spans.to_document("r")
        assert serialize(doc) == "<r>a<milestone/>bc</r>"


class TestToDocument:
    def test_simple_tiling(self):
        spans = SpanSet("hello world", [Span(0, 5, "w"), Span(6, 11, "w")])
        doc = spans.to_document("r")
        assert serialize(doc) == "<r><w>hello</w> <w>world</w></r>"
        assert doc.root.text_content() == "hello world"

    def test_nested_structure(self):
        spans = SpanSet("abcdef", [
            Span(0, 6, "outer"), Span(1, 3, "inner"),
        ])
        assert serialize(spans.to_document("r")) == \
            "<r><outer>a<inner>bc</inner>def</outer></r>"

    def test_attributes_carried(self):
        spans = SpanSet("ab", [Span(0, 2, "w", (("n", "1"),))])
        assert serialize(spans.to_document("r")) == '<r><w n="1">ab</w></r>'

    def test_identical_extents_use_depth_hint(self):
        spans = SpanSet("ab", [
            Span(0, 2, "inner", depth_hint=1),
            Span(0, 2, "outer", depth_hint=0),
        ])
        assert serialize(spans.to_document("r")) == \
            "<r><outer><inner>ab</inner></outer></r>"

    def test_text_node_offsets_set(self):
        spans = SpanSet("hello world", [Span(0, 5, "w")])
        doc = spans.to_document("r")
        texts = list(doc.root.iter_text())
        assert [(t.start, t.end) for t in texts] == [(0, 5), (5, 11)]

    def test_empty_text(self):
        doc = SpanSet("").to_document("r")
        assert serialize(doc) == "<r/>"

    def test_span_covering_all(self):
        spans = SpanSet("xy", [Span(0, 2, "a")])
        assert serialize(spans.to_document("r")) == "<r><a>xy</a></r>"


class TestSpansOf:
    def test_round_trip(self):
        source = "<r><a>one<b>two</b></a> <c>three</c></r>"
        doc = parse(source)
        spans = spans_of(doc)
        rebuilt = SpanSet(doc.root.text_content(), spans).to_document("r")
        assert serialize(rebuilt) == source

    def test_extents(self):
        doc = parse("<r><a>ab<b>cd</b></a>ef</r>")
        extents = {(s.start, s.end, s.name) for s in spans_of(doc)}
        assert extents == {(0, 4, "a"), (2, 4, "b")}

    def test_include_root(self):
        doc = parse("<r>ab</r>")
        spans = spans_of(doc, include_root=True)
        assert [(s.start, s.end, s.name) for s in spans] == [(0, 2, "r")]

    def test_empty_element_zero_span(self):
        doc = parse("<r>a<pb/>b</r>")
        spans = spans_of(doc)
        assert [(s.start, s.end, s.name) for s in spans] == [(1, 1, "pb")]
