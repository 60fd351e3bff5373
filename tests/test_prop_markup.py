"""Property tests: XML serialize∘parse round-trips and span algebra."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markup import parse, serialize
from repro.markup.dom import Comment, Document, Element, Text
from repro.markup.serializer import escape_attribute, escape_text
from repro.cmh.spans import SpanSet, spans_of

from tests.strategies import base_texts, examples, span_sets

SETTINGS = settings(max_examples=examples(60), deadline=None)

_names = st.sampled_from(["a", "b", "w", "line", "ϸ"])
_attr_values = st.text(alphabet="ab<>&\"'\n\tϸ ", max_size=8)
_text_values = st.text(alphabet="ab<>&ϸ ", min_size=1, max_size=12)


@st.composite
def dom_trees(draw, depth: int = 0) -> Element:
    element = Element(draw(_names))
    for key in draw(st.lists(_names, max_size=2, unique=True)):
        element.set(key, draw(_attr_values))
    if depth < 3:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            kind = draw(st.sampled_from(["text", "element", "comment"]))
            if kind == "text":
                element.append(Text(draw(_text_values)))
            elif kind == "comment":
                element.append(Comment("c"))
            else:
                element.append(draw(dom_trees(depth=depth + 1)))
    return element


def signature(element: Element):
    children = []
    for child in element.children:
        if isinstance(child, Element):
            children.append(signature(child))
        elif isinstance(child, Text):
            if children and isinstance(children[-1], str):
                children[-1] += child.data  # adjacent text merges
            else:
                children.append(child.data)
        elif isinstance(child, Comment):
            children.append(("comment", child.data))
    return (element.name, tuple(sorted(element.attributes.items())),
            tuple(children))


@SETTINGS
@given(tree=dom_trees())
def test_serialize_parse_round_trip(tree):
    document = Document()
    document.append(tree)
    reparsed = parse(serialize(document))
    assert signature(reparsed.root) == signature(tree)


@SETTINGS
@given(text=st.text(alphabet="ab<>&\"'ϸ \n", max_size=20))
def test_text_escaping_round_trips(text):
    source = f"<a>{escape_text(text)}</a>"
    # Bare CR would be line-end-normalized; the alphabet avoids it.
    assert parse(source).root.text_content() == text


@SETTINGS
@given(value=st.text(alphabet="ab<>&\"'ϸ \n\t", max_size=20))
def test_attribute_escaping_round_trips(value):
    source = f'<a x="{escape_attribute(value)}"/>'
    assert parse(source).root.get("x") == value


@SETTINGS
@given(data=st.data())
def test_span_set_document_round_trip(data):
    text = data.draw(base_texts())
    spans = data.draw(span_sets(text))
    document = spans.to_document("r")
    assert document.root.text_content() == text
    recovered = sorted((s.start, s.end, s.name)
                       for s in spans_of(document))
    expected = sorted((s.start, s.end, s.name) for s in spans.spans)
    assert recovered == expected


@SETTINGS
@given(data=st.data())
def test_span_document_reparse_stable(data):
    text = data.draw(base_texts())
    spans = data.draw(span_sets(text))
    serialized = serialize(spans.to_document("r"))
    reparsed = parse(serialized)
    assert reparsed.root.text_content() == text
    assert serialize(reparsed) == serialized


@SETTINGS
@given(data=st.data())
def test_rebuilding_from_extracted_spans_is_identity(data):
    text = data.draw(base_texts())
    spans = data.draw(span_sets(text))
    document = spans.to_document("r")
    rebuilt = SpanSet(text, spans_of(document)).to_document("r")
    assert serialize(rebuilt) == serialize(document)
