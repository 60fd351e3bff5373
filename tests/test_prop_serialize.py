"""Property tests: the row writer prints what the node walk prints.

KyGODDAG elements serialize from their component's columns
(``repro.core.goddag.render``, DESIGN.md §11 *Serialization from
rows*); ``tests/nodewalk.py`` is the recursive walk over node objects
it replaced.  Here the two are compared byte for byte on drawn
documents whose text holds ``&``, ``<`` and ``>``, whose attribute
values hold every character an attribute value escapes, and whose
hierarchies hold comments, PIs, empty and nested elements: every item
kind, mixed sequences in both modes, elements after an in-place rename,
on a fork, on a cold-loaded snapshot and out of ``analyze-string``, and
each hierarchy written back as XML.
"""

from __future__ import annotations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.bench.workloads import corpus_at_size
from repro.core.goddag import KyGoddag, serialize_node
from repro.core.goddag.nodes import GElement
from repro.core.runtime import (
    evaluate_query,
    serialize_each,
    serialize_item,
    serialize_items,
)
from repro.markup import dom
from repro.markup.serializer import serialize
from repro.store import save_engine

from tests import nodewalk
from tests.strategies import (
    ELEMENT_NAMES,
    ESCAPED_ALPHABET,
    examples,
    multihierarchical_documents,
)

SETTINGS = settings(max_examples=examples(40), deadline=None)

DOCUMENTS = multihierarchical_documents(alphabet=ESCAPED_ALPHABET,
                                        decorated=True)

#: every item kind a query hands out: the root, each hierarchy node,
#: each leaf, each attribute (the root's among them)
EVERY_ITEM = "(/, /descendant::node(), /descendant::leaf(), //@*, /@*)"

#: atomic values and constructed nodes, escapable characters included
OTHERS = [1, 2.5, True, "a&b", "<", "", dom.Text("x&<>"),
          dom.Element("c", {"k": 'v"&'}), dom.Comment("c")]


def assert_prints_as_the_node_walk(items: list) -> None:
    """Each item alone, the items one by one, and the sequence in both
    modes print as the node walk prints them."""
    got = serialize_each(items)
    assert got == [serialize_item(item) for item in items]
    assert got == nodewalk.strings(items)
    for mode in ("paper", "xquery"):
        assert serialize_items(items, mode) \
            == nodewalk.serialize_items(items, mode), mode


def hierarchy_nodes(goddag: KyGoddag) -> list:
    return [node for name in goddag.hierarchy_names
            for node in goddag.nodes_of(name)]


@SETTINGS
@given(document=DOCUMENTS)
def test_every_item_kind(document):
    goddag = KyGoddag.build(document)
    items = evaluate_query(goddag, EVERY_ITEM)
    assert_prints_as_the_node_walk(items)
    for node in hierarchy_nodes(goddag):
        assert serialize_node(node) == nodewalk.serialize_node(node)
    for name in goddag.hierarchy_names:
        assert serialize_node(goddag.root, name) \
            == nodewalk.serialize_node(goddag.root, name)


@st.composite
def mixed_sequences(draw, goddag: KyGoddag) -> list:
    """Runs of consecutive leaves (adjacent spans), of one hierarchy's
    elements, single nodes in any order, atomics and constructed
    nodes, concatenated."""
    leaves = goddag.leaves()
    nodes = hierarchy_nodes(goddag)
    elements = [node for node in nodes if isinstance(node, GElement)]
    pool = [*nodes, *leaves, *OTHERS]
    items: list = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("leaves", "elements", "one")))
        source = {"leaves": leaves, "elements": elements}.get(kind, pool)
        if not source:
            continue
        start = draw(st.integers(min_value=0, max_value=len(source) - 1))
        stop = start + 1 if kind == "one" else draw(
            st.integers(min_value=start, max_value=len(source)))
        run = source[start:stop]
        if draw(st.booleans()):
            run = run[::-1]  # the same items, no span adjacent to the next
        items += run
    return items


@SETTINGS
@given(document=DOCUMENTS, data=st.data())
def test_mixed_sequences(document, data):
    goddag = KyGoddag.build(document)
    assert_prints_as_the_node_walk(data.draw(mixed_sequences(goddag)))
    assert_prints_as_the_node_walk(evaluate_query(goddag, """
        (//leaf(), 1, "a", //leaf()[1], <x a="&amp;">{//*[1]}</x>,
         reverse(//leaf()), //text(), 2, //*, "b", 3)"""))


@SETTINGS
@given(document=DOCUMENTS, data=st.data())
def test_elements_after_an_in_place_rename(document, data):
    """The first rename renames a private copy, the second the copy in
    place; the tags the row writer made before each are not reused."""
    goddag = KyGoddag.build(document)
    for _ in range(2):
        elements = [node for node in hierarchy_nodes(goddag)
                    if isinstance(node, GElement)]
        assume(elements)
        serialize_each(elements)  # the tag tables are made
        target = data.draw(st.sampled_from(elements))
        goddag.rename_element(target, data.draw(
            st.sampled_from(ELEMENT_NAMES + ("renamed", "other"))))
        assert_prints_as_the_node_walk(evaluate_query(goddag, EVERY_ITEM))


@SETTINGS
@given(document=DOCUMENTS, data=st.data())
def test_elements_on_a_fork(document, data):
    goddag = KyGoddag.build(document)
    before = serialize_each(evaluate_query(goddag, EVERY_ITEM))
    fork = goddag.fork()
    assert_prints_as_the_node_walk(evaluate_query(fork, EVERY_ITEM))
    elements = [node for node in hierarchy_nodes(fork)
                if isinstance(node, GElement)]
    if elements:
        fork.rename_element(data.draw(st.sampled_from(elements)),
                            "renamed")
        assert_prints_as_the_node_walk(evaluate_query(fork, EVERY_ITEM))
    # the version the fork came from prints as it did
    assert serialize_each(evaluate_query(goddag, EVERY_ITEM)) == before


@SETTINGS
@given(document=DOCUMENTS)
def test_elements_of_a_cold_loaded_snapshot(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("serialize") / "doc.mhxb"
    save_engine(Engine(document), path)
    engine = Engine.from_mhxb(path)
    # the row writer first, on rows only the query has filled
    got = engine.query(EVERY_ITEM)
    strings = got.strings()
    assert strings == nodewalk.strings(got.items)
    assert_prints_as_the_node_walk(got.items)


@SETTINGS
@given(document=DOCUMENTS,
       needle=st.text(alphabet="abϸx", min_size=1, max_size=2))
def test_analyze_string_temporaries(document, needle):
    """Q-II.1's and Q-III.1's shapes: content copied out of temporary
    hierarchies, constructed elements around it, atomics between."""
    goddag = KyGoddag.build(document)
    for query in (
            f'analyze-string(/, "{needle}")',
            f'analyze-string((/descendant::*[1], /)[1], "{needle}")',
            f"""for $w in /descendant::*[matches(string(.), "{needle}")]
                return (let $res := analyze-string($w, "{needle}")
                        return for $n in $res/child::node() return
                          if ($n/self::m) then <b>{{string($n)}}</b>
                          else string($n), <br/>)""",
            f"""for $w in /descendant::*[matches(string(.), "{needle}")]
                return (let $res := analyze-string($w, "{needle}")
                        return for $leaf in $res/descendant::leaf() return
                          if ($leaf/xancestor::m)
                          then <i><b>{{$leaf}}</b></i> else $leaf, <br/>)"""):
        assert_prints_as_the_node_walk(evaluate_query(goddag, query))


# ---------------------------------------------------------------------------
# a hierarchy written back as XML, without a DOM
# ---------------------------------------------------------------------------


def assert_xml_is_the_dom_export(document) -> None:
    for hierarchy in document.hierarchies.values():
        assert hierarchy.to_xml() == serialize(hierarchy.component.build_dom(
            hierarchy.text, hierarchy.root_name)), hierarchy.name


@SETTINGS
@given(document=DOCUMENTS)
def test_hierarchy_xml_is_the_dom_export(document):
    assert_xml_is_the_dom_export(document)


def test_hierarchy_xml_of_the_paper_and_a_manuscript(boethius_doc):
    assert_xml_is_the_dom_export(boethius_doc)
    assert_xml_is_the_dom_export(corpus_at_size(800))
