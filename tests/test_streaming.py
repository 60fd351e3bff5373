"""Differential tests for the ingest (DESIGN.md §15).

XML reaches an engine, a ``.mhxb`` file or a corpus through one row
writer fed by the tokenizer (``repro.markup.streaming``).  The contract
is strict: on any input its columns — and, through the shared file
writer, its bytes — are those of the **reference ingest**
(``tests/dombuild.py``: ``markup.parser.parse`` → alignment → the seed's
DOM walker, which shares no row-writing code with the package), and on
any *bad* input the raised exception is the reference's exact type and
message, with the builder left untouched.  Every test here therefore
runs both sides and compares — columns and bytes on success,
``(type, str)`` on failure.
"""

from __future__ import annotations

import json
import pathlib
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet
from repro.corpus.boethius import BASE_TEXT, ENCODINGS
from repro.core.goddag.goddag import (KIND_TEXT, _ComponentWriter,
                                      _HierarchyComponent,
                                      hierarchy_components)
from repro.corpus.generator import GeneratorConfig, generate_document
from repro.errors import (AlignmentError, CMHError, MarkupError, ReproError,
                          StoreError)
from repro.markup import dom
from repro.markup.parser import parse
from repro.markup.serializer import serialize
from repro.markup.streaming import (StreamingBuilder, _FastPathMiss,
                                    _tokenize, stream_save)
from repro.store import DocumentStore
from repro.store.sharding import save_shards, shard_bounds, shard_document

from tests.dombuild import (DomDocument, assert_same_columns, dom_document,
                            reference_components, reference_save,
                            shard_dom_document, span_document)
from tests.strategies import (examples, multihierarchical_documents,
                              span_sets)


def fast_scan(source: str) -> None:
    """Run the optimistic tokenizer alone (it raises on a miss)."""
    _tokenize(source)


def columns_of(holder) -> list:
    """The hierarchies of a document (or of a builder's), as columns."""
    return list(hierarchy_components(getattr(holder, "document", holder)))


def columns_held(document, name: str):
    """The columns ``document``'s hierarchy ``name`` is."""
    return document[name].component


def assert_identical(tmp_path, text: str, sources: dict[str, str]) -> None:
    """Every door XML comes in by agrees with the reference ingest."""
    reference = tmp_path / "reference.mhxb"
    expected = reference_save(dom_document(text, sources), reference)
    # the tokenizer → file door
    builder = StreamingBuilder(text)
    for name, source in sources.items():
        builder.add_hierarchy(name, source)
    assert_same_columns(columns_of(builder), expected)
    builder.save(tmp_path / "stream.mhxb")
    assert (tmp_path / "stream.mhxb").read_bytes() == reference.read_bytes()
    # the tokenizer → document → engine door
    engine = Engine.from_xml(text, sources)
    assert_same_columns(list(engine.goddag.components().values()), expected)
    engine.save_mhxb(tmp_path / "engine.mhxb")
    assert (tmp_path / "engine.mhxb").read_bytes() == reference.read_bytes()
    # and, with no writer on either side: the DOM read off the columns
    # is the parser's
    root_name = builder.document.root_name
    for component, source in zip(columns_of(builder), sources.values()):
        assert serialize(component.build_dom(text, root_name)) \
            == serialize(parse(source))


class TestByteIdentity:
    def test_boethius_raw_encodings(self, tmp_path):
        assert_identical(tmp_path, BASE_TEXT, dict(ENCODINGS))

    @pytest.mark.parametrize("n_words,seed", [(400, 0), (400, 3), (1600, 1)])
    def test_generated_corpora(self, tmp_path, n_words, seed):
        document = generate_document(GeneratorConfig(n_words=n_words,
                                                     seed=seed))
        sources = {name: document[name].to_xml()
                   for name in document.hierarchy_names}
        assert_identical(tmp_path, document.text, sources)

    def test_loaded_engine_matches_dom_load(self, tmp_path):
        path = tmp_path / "s.mhxb"
        stream_save(BASE_TEXT, dict(ENCODINGS), path)
        engine = Engine.from_mhxb(path)
        reference = Engine(dom_document(BASE_TEXT, dict(ENCODINGS)).package())
        assert engine.query("count(/descendant::w)").items == \
            reference.query("count(/descendant::w)").items
        assert engine.goddag.hierarchy_names == \
            reference.goddag.hierarchy_names

    def test_comments_and_pis_inline(self, tmp_path):
        text = "hello world"
        sources = {"a": "<d>hello <!--c1--><?t d?>world</d>",
                   "b": "<d><x>hello</x> <x>world</x><!----></d>"}
        assert_identical(tmp_path, text, sources)

    def test_prolog_and_epilog(self, tmp_path):
        text = "ab"
        source = ("<?xml version='1.0'?><!--before--><?pi data?>"
                  "<d>ab</d><!--after--><?post?>")
        assert_identical(tmp_path, text, {"h": source})

    def test_root_and_nested_attributes(self, tmp_path):
        text = "xy"
        source = ('<d a="1" b="&lt;2&gt;"><s c="3&#65;">x</s>'
                  '<s d="  sp  ">y</s></d>')
        assert_identical(tmp_path, text, {"h": source})

    def test_empty_and_self_closing_elements(self, tmp_path):
        text = "xy"
        source = "<d><e/><e></e>x<e  />y<e/></d>"
        assert_identical(tmp_path, text, {"h": source})

    def test_entities_fast_path(self, tmp_path):
        text = "a<b>&'\"éA"
        source = "<d>a&lt;b&gt;&amp;&apos;&quot;&#xe9;&#65;</d>"
        fast_scan(source)  # stays on the fast path
        assert_identical(tmp_path, text, {"h": source})

    def test_doctype_falls_back(self, tmp_path):
        text = "xx-yy"
        source = ('<!DOCTYPE d [<!ENTITY e "yy">]>'
                  "<d>xx-&e;</d>")
        with pytest.raises(_FastPathMiss):
            fast_scan(source)
        assert_identical(tmp_path, text, {"h": source})

    def test_cdata_falls_back(self, tmp_path):
        text = "a<b>c"
        source = "<d>a<![CDATA[<b>]]>c<![CDATA[]]></d>"
        with pytest.raises(_FastPathMiss):
            fast_scan(source)
        assert_identical(tmp_path, text, {"h": source})

    def test_carriage_returns_fall_back(self, tmp_path):
        text = "a\nb\nc"
        source = "<d>a\r\nb\rc</d>"
        with pytest.raises(_FastPathMiss):
            fast_scan(source)
        assert_identical(tmp_path, text, {"h": source})

    def test_malformed_end_tags_fall_back(self):
        for source in ("<d><e>ab</e a='1'></d>", "<d>ab</d\na='1'>",
                       "<d><e>ab</e/></d>"):
            with pytest.raises(_FastPathMiss):
                fast_scan(source)

    def test_comment_ending_in_a_dash_falls_back(self):
        # "--->" does not close a comment (XML 1.0 production [15])
        for source in ("<d>a<!--x--->b</d>", "<!--x---><d>ab</d>"):
            with pytest.raises(_FastPathMiss):
                fast_scan(source)
            with pytest.raises(MarkupError, match="'--->'"):
                StreamingBuilder("ab").add_hierarchy("h", source)

    def test_non_ascii_names_fall_back(self, tmp_path):
        text = "ab"
        source = "<d><émph>ab</émph></d>"
        with pytest.raises(_FastPathMiss):
            fast_scan(source)
        assert_identical(tmp_path, text, {"h": source})

    def test_multihierarchy_interning_order(self, tmp_path):
        # shared names across hierarchies must intern in first-seen
        # order globally, not per hierarchy
        text = "abcd"
        sources = {"one": "<d><w>ab</w><x>cd</x></d>",
                   "two": "<d><x>abc</x><w>d</w></d>"}
        assert_identical(tmp_path, text, sources)

    def test_bom_and_declaration(self, tmp_path):
        text = "ab"
        source = '﻿<?xml version="1.0" encoding="utf-8"?><d>ab</d>'
        assert_identical(tmp_path, text, {"h": source})

    def test_whitespace_in_tags(self, tmp_path):
        text = "ab"
        source = '<d ><e\na="1"\t>ab</e\n></d >'
        assert_identical(tmp_path, text, {"h": source})

    @settings(deadline=None, max_examples=examples(40))
    @given(data=st.data())
    def test_hypothesis_documents(self, data):
        document = data.draw(multihierarchical_documents())
        sources = {name: document[name].to_xml()
                   for name in document.hierarchy_names}
        with tempfile.TemporaryDirectory() as tmp:
            assert_identical(pathlib.Path(tmp), document.text, sources)


#: base-text characters the raw shapes below escape in every legal way
RAW_TEXT_ALPHABET = "ab ϸ<&>\"'\t\n"
_ESCAPES = {"<": ["&lt;"], "&": ["&amp;"], ">": [">", "&gt;"],
            '"': ['"', "&quot;"], "'": ["'", "&apos;"]}


@st.composite
def raw_xml(draw, root: dom.Element) -> str:
    """``root`` written in one of the many ways ``to_xml()`` never
    writes it: whitespace inside tags, either quote around attribute
    values, self-closing empty elements, comments and PIs inline and
    around the root, a declaration, predefined entities and character
    references."""

    def space(least: int = 0) -> str:
        return draw(st.text(alphabet=" \t\n", min_size=least, max_size=2))

    def aside() -> str:
        return draw(st.sampled_from([
            "<!--c-->", "<!---->", "<!-- a-b -->", "<?t?>", "<?t d ?>",
            "<?xml-model\nhref='x'?>"]))

    def attributes() -> str:
        written = []
        for name in draw(st.lists(st.sampled_from(["k", "n", "x:y"]),
                                  unique=True, max_size=2)):
            quote = draw(st.sampled_from(['"', "'"]))
            other = "'" if quote == '"' else '"'
            value = draw(st.text(alphabet="ab >ϸ" + other, max_size=3))
            written.append(f"{space(1)}{name}{space()}={space()}"
                           f"{quote}{value}{quote}")
        return "".join(written)

    def character(char: str) -> str:
        return draw(st.sampled_from(
            _ESCAPES.get(char, [char]) + [f"&#{ord(char)};",
                                          f"&#x{ord(char):X};"]))

    def element(node: dom.Element) -> str:
        tag = f"<{node.name}{attributes()}{space()}"
        if not node.children and draw(st.booleans()):
            return tag + "/>"
        body = []
        for child in node.children:
            if draw(st.booleans()):
                body.append(aside())
            if isinstance(child, dom.Element):
                body.append(element(child))
            else:
                body.append("".join(map(character, child.data)))
        return f"{tag}>{''.join(body)}</{node.name}{space()}>"

    declaration = draw(st.sampled_from(
        ["", '<?xml version="1.0"?>', "<?xml version='1.0' "
         "encoding='utf-8' ?>\n"]))
    prolog = "".join(space() + aside() for _ in range(draw(
        st.integers(min_value=0, max_value=2))))
    epilog = "".join(aside() + space() for _ in range(draw(
        st.integers(min_value=0, max_value=2))))
    return f"{declaration}{prolog}{space()}{element(root)}{space()}{epilog}"


class TestRawShapes:
    """The tokenizer on XML as people write it, not as ``to_xml()``
    does: every door agrees with the reference ingest."""

    @settings(deadline=None, max_examples=examples(60))
    @given(data=st.data())
    def test_hypothesis_raw_shapes(self, data):
        text = data.draw(st.text(alphabet=RAW_TEXT_ALPHABET, min_size=1,
                                 max_size=30))
        sources = {}
        for index in range(data.draw(st.integers(min_value=1,
                                                 max_value=2))):
            spans = data.draw(span_sets(text))
            sources[f"h{index}"] = data.draw(
                raw_xml(spans.to_document("r").root))
        with tempfile.TemporaryDirectory() as tmp:
            assert_identical(pathlib.Path(tmp), text, sources)

    def test_every_raw_shape_stays_on_the_fast_path(self, tmp_path):
        text = "a<b & 'c'>d\te"
        source = ("<?xml version='1.0'?>\n<!--p--><?t d?> <r\tk='v\"' >"
                  "<!--c--><w n = \"1'\">a&lt;b</w\n> &amp; &apos;c&#39;"
                  "&gt;<e/><?x ?>d&#9;&#x65;<e\n/></r ><!----> <?t?>")
        fast_scan(source)
        assert_identical(tmp_path, text, {"h": source})


class TestStandoffLayers:
    PROSE = ("It was a bright cold day in April, and the clocks "
             "were striking thirteen.")

    def tokens(self):
        spans, position = [], 0
        for index, word in enumerate(self.PROSE.split(" ")):
            spans.append((position, position + len(word), "tok",
                          {"i": str(index)}))
            position += len(word) + 1
        return spans

    def sentences(self):
        return [(0, len(self.PROSE), "s")]

    def base_source(self):
        return f"<doc><p>{self.PROSE}</p></doc>"

    def dom_with_layers(self, layers: dict) -> DomDocument:
        document = dom_document(self.PROSE, {"base": self.base_source()})
        for name, spans in layers.items():
            span_set = SpanSet(self.PROSE, [
                Span(s, e, n, tuple(a.items()) if len(row) > 3 else ())
                for row in spans
                for (s, e, n, *rest) in [row]
                for a in [rest[0] if rest else {}]])
            document.add(name, span_document(span_set, document.root_name))
        return document

    def assert_layers_identical(self, tmp_path, layers: dict) -> None:
        reference = tmp_path / "reference.mhxb"
        expected = reference_save(self.dom_with_layers(layers), reference)
        builder = StreamingBuilder(self.PROSE)
        builder.add_hierarchy("base", self.base_source())
        for name, spans in layers.items():
            builder.add_layer(name, spans)
        assert_same_columns(columns_of(builder), expected)
        builder.save(tmp_path / "stream.mhxb")
        assert (tmp_path / "stream.mhxb").read_bytes() == \
            reference.read_bytes()

    def test_token_sentence_layers_byte_identical(self, tmp_path):
        self.assert_layers_identical(
            tmp_path, {"tokens": self.tokens(),
                       "sentences": self.sentences()})

    def test_nested_and_zero_length_spans(self, tmp_path):
        self.assert_layers_identical(
            tmp_path, {"mix": [(0, 20, "outer"), (2, 9, "inner"),
                               (5, 5, "pt"), (20, 20, "pt")]})

    def test_spanset_document_is_the_reference_walk(self):
        """``SpanSet.to_document`` reads its DOM off the writer's rows:
        it has to be the DOM the seed built node by node."""
        for spans in (self.tokens(), self.sentences(),
                      [(0, 20, "outer"), (2, 9, "inner"), (5, 5, "pt"),
                       (20, 20, "pt"), (0, 0, "pt")]):
            span_set = SpanSet(self.PROSE, [
                Span(row[0], row[1], row[2],
                     tuple(row[3].items()) if len(row) > 3 else ())
                for row in spans])
            assert serialize(span_set.to_document("doc")) == \
                serialize(span_document(span_set, "doc"))

    def test_layer_queries(self, tmp_path):
        path = tmp_path / "q.mhxb"
        stream_save(self.PROSE, {"base": self.base_source()}, path,
                    layers={"tokens": self.tokens()})
        engine = Engine.from_mhxb(path)
        count = len(self.PROSE.split(" "))
        assert engine.query("count(//tok)").items == [count]

    def test_layer_before_any_hierarchy(self):
        builder = StreamingBuilder(self.PROSE)
        with pytest.raises(CMHError, match="document has no hierarchies"):
            builder.add_layer("tokens", self.tokens())

    def test_overlapping_spans_match_spanset_error(self):
        spans = [Span(0, 10, "a"), Span(5, 15, "b")]
        try:
            SpanSet(self.PROSE, spans)
        except CMHError as error:
            expected = (type(error), str(error))
        builder = StreamingBuilder(self.PROSE)
        builder.add_hierarchy("base", self.base_source())
        with pytest.raises(expected[0]) as caught:
            builder.add_layer("bad", spans)
        assert str(caught.value) == expected[1]
        assert builder.hierarchy_names == ["base"]

    def test_out_of_bounds_span(self):
        builder = StreamingBuilder(self.PROSE)
        builder.add_hierarchy("base", self.base_source())
        with pytest.raises(CMHError, match="exceeds the text"):
            builder.add_layer("bad", [(0, len(self.PROSE) + 1, "x")])

    def test_negative_extent_span(self):
        builder = StreamingBuilder(self.PROSE)
        builder.add_hierarchy("base", self.base_source())
        with pytest.raises(CMHError, match="negative extent"):
            builder.add_layer("bad", [(5, 3, "x")])

    def test_failed_layer_leaves_builder_intact(self, tmp_path):
        builder = StreamingBuilder(self.PROSE)
        builder.add_hierarchy("base", self.base_source())
        clean = tmp_path / "clean.mhxb"
        builder.save(clean)
        with pytest.raises(CMHError):
            builder.add_layer("bad", [(0, 10, "newname"), (5, 15, "b")])
        after = tmp_path / "after.mhxb"
        builder.save(after)
        assert clean.read_bytes() == after.read_bytes()


#: malformed XML taxonomy — the canonical parser is the oracle for the
#: exact exception type and message in every one of these
MALFORMED = [
    "",
    "   ",
    "<d>ab",
    "<d><e>ab</d>",
    "<d>ab</d></d>",
    "<d>ab</d><d>cd</d>",
    "<d>ab</d>trailing",
    "leading<d>ab</d>",
    "<d>a & b</d>",
    "<d>a&unknown;b</d>",
    "<d>a&#xZZ;b</d>",
    "<d>a&#2;b</d>",
    "<d>a]]>b</d>",
    "<d a=1>x</d>",
    '<d a="1" a="2">x</d>',
    '<d a="<">x</d>',
    "<d a ='1'b='2'>x</d>",
    "<d><!--a--b--></d>",
    "<d>a<!--x--->b</d>",
    "<!--x---><d>ab</d>",
    "<d><!--unterminated</d>",
    "<d><![CDATA[open</d>",
    "<d><?xml bad?></d>",
    "<d><?unterminated</d>",
    "<d><!BOGUS x></d>",
    "<d/>more<d/>",
    "<?xml version='1.0'",
    "<d><e a='1'/ ></d>",
    "<d><e>ab</e a='1'></d>",
    "<d>ab</d a='1'>",
    "<d><e>ab</e/></d>",
    "< d>x</d>",
    "</d>",
]


_FOX = "the quick brown fox jumps over the lazy dog"

#: what both XML doors raise, recorded before the tokenizer became
#: array arithmetic: ``(sources over the base text, (class, message))``
#: — misses fall back to the parser, whose errors outrank the
#: document's, and the document's name the first diverging text row
ERROR_PARITY = {
    "mismatched end tag": ("ab", {"h": "<d><e>ab</f></d>"}, (
        "MarkupError", "end tag '</f>' does not match start tag '<e>' "
        "opened at line 1, column 4 (line 1, column 11)")),
    "unclosed element": ("ab", {"h": "<d><e>ab</e>"}, (
        "MarkupError", "unexpected end of input inside element 'd' "
        "(line 1, column 13)")),
    "stray end tag": ("ab", {"h": "<d>ab</d></e>"}, (
        "MarkupError", "content after the document element is not "
        "allowed (line 1, column 10)")),
    "stray end tag inside": ("ab", {"h": "<d>a</e>b</d>"}, (
        "MarkupError", "end tag '</e>' does not match start tag '<d>' "
        "opened at line 1, column 1 (line 1, column 7)")),
    "text after the root": ("ab", {"h": "<d>ab</d>tail"}, (
        "MarkupError", "content after the document element is not "
        "allowed (line 1, column 10)")),
    "second element after the root": ("ab", {"h": "<d>ab</d><d/>"}, (
        "MarkupError", "content after the document element is not "
        "allowed (line 1, column 10)")),
    "duplicate attribute": ("ab", {"h": '<d><e k="1" k="2">ab</e></d>'}, (
        "MarkupError", "duplicate attribute 'k' on element 'e' "
        "(line 1, column 14)")),
    "root name differs": ("ab", {"one": "<d>ab</d>", "two": "<x>ab</x>"}, (
        "CMHError", "hierarchy 'two' has root 'x' but the document root "
        "is 'd'")),
    "root name differs, later CDATA": (
        "ab", {"one": "<d>ab</d>", "two": "<x>a<![CDATA[b]]></x>"}, (
            "CMHError", "hierarchy 'two' has root 'x' but the document "
            "root is 'd'")),
    "text diverges early": (_FOX, {
        "h": "<d><w>thX</w> quick brown fox jumps over the lazy dog</d>"}, (
        "AlignmentError", "hierarchy 'h' diverges from the base text at "
        "offset 2: expected 'e quick brown fox ju', encoding has 'X'")),
    "text diverges late": (_FOX, {
        "h": "<d><w>the</w> quick brown fox <w>jumps</w> over the lazy "
             "dXg</d>"}, (
        "AlignmentError", "hierarchy 'h' diverges from the base text at "
        "offset 41: expected 'og', encoding has 'Xg'")),
    "text falls short": (_FOX, {"h": "<d><w>the</w> quick brown</d>"}, (
        "AlignmentError", "hierarchy 'h' covers only the first 15 of 43 "
        "characters of the base text")),
    "text runs long": ("ab", {"h": "<d>abc</d>"}, (
        "AlignmentError", "hierarchy 'h' diverges from the base text at "
        "offset 2: expected '', encoding has 'c'")),
    "diverging source, later CDATA": (_FOX, {
        "h": "<d><w>thX</w> quick brown fox <![CDATA[jumps]]> over the "
             "lazy dog</d>"}, (
        "AlignmentError", "hierarchy 'h' diverges from the base text at "
        "offset 2: expected 'e quick brown fox ju', encoding has 'X'")),
    "diverging source, later mismatched tag": (_FOX, {
        "h": "<d><w>thX</w> quick brown fox jumps over the lazy dog</e>"}, (
        "MarkupError", "end tag '</e>' does not match start tag '<d>' "
        "opened at line 1, column 1 (line 1, column 56)")),
    "diverging entity text": ("a<b", {"h": "<d>a&gt;b</d>"}, (
        "AlignmentError", "hierarchy 'h' diverges from the base text at "
        "offset 1: expected '<b', encoding has '>b'")),
}


class TestErrorParity:
    @staticmethod
    def raised(call) -> tuple[str, str]:
        with pytest.raises(ReproError) as caught:
            call()
        return type(caught.value).__name__, str(caught.value)

    @pytest.mark.parametrize("case", list(ERROR_PARITY))
    def test_both_doors_raise_the_pinned_error(self, case):
        text, sources, expected = ERROR_PARITY[case]
        assert self.raised(lambda: MultihierarchicalDocument.from_xml(
            text, sources)) == expected

        def add_each():
            builder = StreamingBuilder(text)
            for name, source in sources.items():
                builder.add_hierarchy(name, source)

        assert self.raised(add_each) == expected


class TestMalformedTaxonomy:
    @pytest.mark.parametrize("source", MALFORMED)
    def test_error_matches_dom_oracle(self, source):
        with pytest.raises(MarkupError) as oracle:
            parse(source)
        builder = StreamingBuilder("ab")
        with pytest.raises(MarkupError) as caught:
            builder.add_hierarchy("h", source)
        assert type(caught.value) is type(oracle.value)
        assert str(caught.value) == str(oracle.value)
        assert builder.hierarchy_names == []

    def test_alignment_divergence_matches_dom(self):
        text = "abcdef"
        source = "<d>abcXef</d>"
        with pytest.raises(AlignmentError) as oracle:
            dom_document(text, {"h": source})
        builder = StreamingBuilder(text)
        with pytest.raises(AlignmentError) as caught:
            builder.add_hierarchy("h", source)
        assert str(caught.value) == str(oracle.value)
        assert caught.value.offset == oracle.value.offset
        assert caught.value.hierarchy == oracle.value.hierarchy
        assert builder.hierarchy_names == []

    def test_alignment_coverage_matches_dom(self):
        text = "abcdef"
        source = "<d>abc</d>"
        with pytest.raises(AlignmentError) as oracle:
            dom_document(text, {"h": source})
        builder = StreamingBuilder(text)
        with pytest.raises(AlignmentError) as caught:
            builder.add_hierarchy("h", source)
        assert str(caught.value) == str(oracle.value)

    def test_root_mismatch_matches_dom(self):
        text = "ab"
        sources = {"one": "<d>ab</d>", "two": "<other>ab</other>"}
        with pytest.raises(CMHError) as oracle:
            dom_document(text, sources)
        builder = StreamingBuilder(text)
        builder.add_hierarchy("one", sources["one"])
        with pytest.raises(CMHError) as caught:
            builder.add_hierarchy("two", sources["two"])
        assert str(caught.value) == str(oracle.value)
        assert builder.hierarchy_names == ["one"]

    def test_duplicate_hierarchy_name(self):
        builder = StreamingBuilder("ab")
        builder.add_hierarchy("h", "<d>ab</d>")
        with pytest.raises(CMHError,
                           match="duplicate hierarchy name 'h'"):
            builder.add_hierarchy("h", "<d>ab</d>")

    def test_markup_error_outranks_alignment(self):
        # the DOM path parses fully before aligning, so a divergence
        # followed by a well-formedness error reports the latter
        text = "abcdef"
        source = "<d>XXX<!--bad--comment--></d>"
        with pytest.raises(MarkupError) as oracle:
            dom_document(text, {"h": source})
        builder = StreamingBuilder(text)
        with pytest.raises(MarkupError) as caught:
            builder.add_hierarchy("h", source)
        assert str(caught.value) == str(oracle.value)
        assert builder.hierarchy_names == []

    def test_failed_hierarchy_leaves_builder_intact(self, tmp_path):
        builder = StreamingBuilder(BASE_TEXT)
        names = list(ENCODINGS)
        builder.add_hierarchy(names[0], ENCODINGS[names[0]])
        clean = tmp_path / "clean.mhxb"
        builder.save(clean)
        for bad in ("<d>ab", "<d>wrong text</d>",
                    "<other>" + BASE_TEXT + "</other>"):
            with pytest.raises(ReproError):
                builder.add_hierarchy("extra", bad)
        after = tmp_path / "after.mhxb"
        builder.save(after)
        assert clean.read_bytes() == after.read_bytes()

    def test_empty_builder_save_rejected(self, tmp_path):
        builder = StreamingBuilder("ab")
        with pytest.raises(ReproError,
                           match="cannot save an empty document"):
            builder.save(tmp_path / "x.mhxb")


class TestStreamingShards:
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_shard_files_byte_identical(self, tmp_path, n_shards):
        document = generate_document(GeneratorConfig(n_words=1600, seed=0))
        sources = {name: document[name].to_xml()
                   for name in document.hierarchy_names}
        stats = self.assert_slices_agree(tmp_path, document.text, sources,
                                         n_shards)
        assert len(stats.shards) == n_shards

    @staticmethod
    def assert_slices_agree(tmp: pathlib.Path, text: str,
                            sources: dict[str, str], n_shards: int):
        """Column slicer == DOM slicer + reference walker: statistics
        and every shard file, written or held in memory."""
        parts, dom_stats = shard_dom_document(
            dom_document(text, sources).package(), n_shards)
        for index, part in enumerate(parts):
            reference_save(part, tmp / f"dom{index:04d}.mhxb")
        builder = StreamingBuilder(text)
        for name, source in sources.items():
            builder.add_hierarchy(name, source)
        stats = save_shards(
            builder.document, n_shards,
            lambda index: tmp / f"st{index:04d}.mhxb")
        cut, cut_stats = shard_document(builder.document, n_shards)
        assert dom_stats.to_json() == stats.to_json() == cut_stats.to_json()
        assert len(cut) == len(parts)
        for index, part in enumerate(cut):
            assert (tmp / f"dom{index:04d}.mhxb").read_bytes() == \
                (tmp / f"st{index:04d}.mhxb").read_bytes()
            assert_same_columns(list(hierarchy_components(part)),
                                reference_components(parts[index]))
        return stats

    @settings(deadline=None, max_examples=examples(60))
    @given(data=st.data())
    def test_hypothesis_documents_slice_alike(self, data):
        """Zero-length elements on a cut, at offset 0 and at the text's
        end, nested equal extents, hierarchies that offer no cut."""
        document = data.draw(multihierarchical_documents(min_text=2))
        n_shards = data.draw(st.integers(min_value=1, max_value=5))
        sources = {name: document[name].to_xml()
                   for name in document.hierarchy_names}
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_slices_agree(pathlib.Path(tmp), document.text,
                                     sources, n_shards)

    def test_top_level_points_go_with_the_shard_holding_them(
            self, tmp_path):
        """Comments, PIs and empty elements directly under the root:
        at the text's start, on the cut, at the text's end."""
        text = "aabbcc"
        sources = {
            "one": "<r><!--s--><a>aa</a><?p on-cut?><e/><a>bb</a>"
                   "<!--mid-b--><a>cc</a><e/><!--end--></r>",
            "two": "<r><e k='v'/>aa<b>bb</b>c<!--in-text-->c</r>"}
        stats = self.assert_slices_agree(tmp_path, text, sources, 3)
        assert [(shard.lo, shard.hi) for shard in stats.shards] == \
            [(0, 2), (2, 4), (4, 6)]

    def test_shard_count_validation(self):
        builder = StreamingBuilder("ab")
        builder.add_hierarchy("h", "<d>ab</d>")
        with pytest.raises(StoreError, match="shard count must be >= 1"):
            shard_bounds("ab", columns_of(builder), 0)
        empty = StreamingBuilder("ab")
        with pytest.raises(StoreError, match="no hierarchies"):
            shard_bounds("ab", columns_of(empty), 2)


class TestStoreIntegration:
    def _sources(self, document):
        return {name: document[name].to_xml()
                for name in document.hierarchy_names}

    def test_add_streaming_matches_add(self, tmp_path):
        document = generate_document(GeneratorConfig(n_words=400, seed=0))
        dom_store = DocumentStore.init(tmp_path / "dom")
        dom_store.add("doc", document)
        dom_store.close()
        stream_store = DocumentStore.init(tmp_path / "stream")
        snapshot = stream_store.add_streaming(
            "doc", document.text, self._sources(document))
        assert snapshot.version == len(document.hierarchy_names)
        assert (tmp_path / "dom" / "doc.mhxb").read_bytes() == \
            (tmp_path / "stream" / "doc.mhxb").read_bytes()
        result = stream_store.query("doc", "count(//w)")
        assert result.items == [400]
        stream_store.close()

    def test_add_corpus_streaming_matches_add_corpus(self, tmp_path):
        document = generate_document(GeneratorConfig(n_words=800, seed=2))
        dom_store = DocumentStore.init(tmp_path / "dom")
        dom_stats = dom_store.add_corpus("corp", document, shards=3)
        dom_store.close()
        stream_store = DocumentStore.init(tmp_path / "stream")
        stream_stats = stream_store.add_corpus_streaming(
            "corp", document.text, self._sources(document), shards=3)
        assert dom_stats.to_json() == stream_stats.to_json()
        for shard_file in sorted(path.name for path
                                 in (tmp_path / "dom").glob("*.mhxb")):
            assert (tmp_path / "dom" / shard_file).read_bytes() == \
                (tmp_path / "stream" / shard_file).read_bytes()
        result = stream_store.cquery('count(collection("corp")//w)')
        assert result.items == ["800"]
        stream_store.close()

    def test_add_streaming_is_transactional(self, tmp_path):
        store = DocumentStore.init(tmp_path / "s")
        with pytest.raises(MarkupError):
            store.add_streaming("bad", "ab", {"h": "<d>ab"})
        assert "bad" not in store
        assert not (tmp_path / "s" / "bad.mhxb").exists()
        store.add_streaming("bad", "ab", {"h": "<d>ab</d>"})
        assert "bad" in store
        store.close()

    def test_add_streaming_duplicate_and_bad_names(self, tmp_path):
        store = DocumentStore.init(tmp_path / "s")
        store.add_streaming("doc", "ab", {"h": "<d>ab</d>"})
        with pytest.raises(ReproError, match="already exists"):
            store.add_streaming("doc", "ab", {"h": "<d>ab</d>"})
        with pytest.raises(ReproError, match="invalid document name"):
            store.add_streaming("/bad/", "ab", {"h": "<d>ab</d>"})
        store.close()

    def test_add_corpus_streaming_is_transactional(self, tmp_path):
        store = DocumentStore.init(tmp_path / "s")
        with pytest.raises(MarkupError):
            store.add_corpus_streaming("bad", "ab", {"h": "<d>ab"},
                                       shards=2)
        assert "bad" not in store.corpora
        assert not list((tmp_path / "s").glob("bad.shard*"))
        store.close()

    def test_add_streaming_with_layers(self, tmp_path):
        prose = "the cat sat on the mat"
        tokens = []
        position = 0
        for word in prose.split(" "):
            tokens.append((position, position + len(word), "tok"))
            position += len(word) + 1
        store = DocumentStore.init(tmp_path / "s")
        store.add_streaming("doc", prose,
                            {"base": f"<doc><p>{prose}</p></doc>"},
                            layers={"tokens": tokens})
        assert store.query("doc", "count(//tok)").items == [6]
        store.close()


class TestCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.fixture()
    def inputs(self, tmp_path):
        document = generate_document(GeneratorConfig(n_words=200, seed=0))
        (tmp_path / "base.txt").write_text(document.text, encoding="utf-8")
        specs = []
        for name in document.hierarchy_names:
            (tmp_path / f"{name}.xml").write_text(
                document[name].to_xml(), encoding="utf-8")
            specs.append(f"{name}={tmp_path}/{name}.xml")
        tokens, position = [], 0
        for word in document.text.split(" ")[:40]:
            tokens.append([position, position + len(word), "tok"])
            position += len(word) + 1
        (tmp_path / "tokens.json").write_text(json.dumps(tokens),
                                              encoding="utf-8")
        return document, specs

    def test_ingest_matches_pack(self, tmp_path, capsys, inputs):
        _document, specs = inputs
        code, out, _err = self.run_cli(
            capsys, "ingest", str(tmp_path / "out.mhxb"),
            "--text", str(tmp_path / "base.txt"), *specs)
        assert code == 0 and "streamed" in out
        code, _out, _err = self.run_cli(
            capsys, "pack", str(tmp_path / "pack.mhxb"),
            "--text", str(tmp_path / "base.txt"), *specs)
        assert code == 0
        assert (tmp_path / "out.mhxb").read_bytes() == \
            (tmp_path / "pack.mhxb").read_bytes()

    def test_ingest_with_layer(self, tmp_path, capsys, inputs):
        _document, specs = inputs
        code, out, _err = self.run_cli(
            capsys, "ingest", str(tmp_path / "out.mhxb"),
            "--text", str(tmp_path / "base.txt"), *specs,
            "--layer", f"tokens={tmp_path}/tokens.json")
        assert code == 0 and "1 standoff layers" in out
        engine = Engine.from_mhxb(tmp_path / "out.mhxb")
        assert engine.query("count(//tok)").items == [40]

    def test_ingest_bad_specs(self, tmp_path, capsys, inputs):
        _document, specs = inputs
        code, _out, err = self.run_cli(
            capsys, "ingest", str(tmp_path / "out.mhxb"),
            "--text", str(tmp_path / "base.txt"), "noequals")
        assert code == 1 and "bad encoding spec" in err
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        code, _out, err = self.run_cli(
            capsys, "ingest", str(tmp_path / "out.mhxb"),
            "--text", str(tmp_path / "base.txt"), *specs,
            "--layer", f"l={tmp_path}/bad.json")
        assert code == 1 and "not valid JSON" in err

    def test_store_add_streaming(self, tmp_path, capsys, inputs):
        document, specs = inputs
        store_dir = str(tmp_path / "cat")
        assert self.run_cli(capsys, "store", "init", store_dir)[0] == 0
        code, out, _err = self.run_cli(
            capsys, "store", "add", store_dir, "doc", *specs,
            "--text", str(tmp_path / "base.txt"),
            "--durability", "off")
        assert code == 0 and "added 'doc'" in out
        code, out, _err = self.run_cli(
            capsys, "store", "query", store_dir, "doc", "count(//w)")
        assert code == 0 and out.strip() == "200"

    def test_store_add_encodings_require_text(self, tmp_path, capsys,
                                              inputs):
        _document, specs = inputs
        store_dir = str(tmp_path / "cat")
        self.run_cli(capsys, "store", "init", store_dir)
        code, _out, err = self.run_cli(
            capsys, "store", "add", store_dir, "doc", *specs)
        assert code == 1 and "need --text FILE" in err
        code, _out, err = self.run_cli(
            capsys, "store", "add", store_dir, "doc",
            "--text", str(tmp_path / "base.txt"))
        assert code == 1 and "at least one NAME=FILE" in err
        code, _out, err = self.run_cli(
            capsys, "store", "add", store_dir, "doc")
        assert code == 1 and "provide --mhx FILE, --sample, or --text" in err

    def test_two_documents_in_one_invocation_are_refused(
            self, tmp_path, capsys, inputs):
        """``--text`` + encodings say which source it is — so a second
        one beside them is an error, not silently dropped."""
        _document, specs = inputs
        store_dir = str(tmp_path / "cat")
        self.run_cli(capsys, "store", "init", store_dir)
        encoded = [*specs, "--text", str(tmp_path / "base.txt")]
        for command, name, other in [
                ("add", "doc", ["--sample"]),
                ("add", "doc", ["--mhx", str(tmp_path / "none.mhx")]),
                ("shard", "corp", ["--sample"]),
                ("shard", "corp", ["--mhx", str(tmp_path / "none.mhx")]),
                ("shard", "corp", ["--generate", "400"])]:
            code, _out, err = self.run_cli(
                capsys, "store", command, store_dir, name, *encoded,
                *other)
            assert code == 1, (command, other)
            assert f"{other[0]} another; give one" in err
        code, out, _err = self.run_cli(capsys, "store", "get", store_dir)
        assert code == 0 and out == ""  # nothing was registered

    def test_store_shard_streaming(self, tmp_path, capsys, inputs):
        _document, specs = inputs
        store_dir = str(tmp_path / "cat")
        self.run_cli(capsys, "store", "init", store_dir)
        code, out, _err = self.run_cli(
            capsys, "store", "shard", store_dir, "corp", *specs,
            "--text", str(tmp_path / "base.txt"),
            "--shards", "2", "--durability", "off")
        assert code == 0 and "sharded 'corp'" in out
        code, out, _err = self.run_cli(
            capsys, "store", "cquery", store_dir,
            'count(collection("corp")//w)')
        assert code == 0 and out.strip() == "200"

    def test_store_shard_generate(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cat")
        self.run_cli(capsys, "store", "init", store_dir)
        code, out, _err = self.run_cli(
            capsys, "store", "shard", store_dir, "corp",
            "--generate", "400", "--shards", "2",
            "--durability", "off")
        assert code == 0 and "sharded 'corp'" in out
        code, out, _err = self.run_cli(
            capsys, "store", "cquery", store_dir,
            'count(collection("corp")//w)')
        assert code == 0 and out.strip() == "400"


def counting(calls: list, function):
    def wrapper(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)
    return wrapper


class TestNoDomOnTheWayIn:
    """The deterministic stand-in for the old streaming-vs-DOM ratio
    gate: what the ingest builds, counted (the ``TestPerNodeHoleClosed``
    pattern).  XML reaches an engine, a file and a corpus as columns."""

    @pytest.fixture(scope="class")
    def corpus(self):
        document = generate_document(GeneratorConfig(n_words=400, seed=1))
        return document.text, {name: document[name].to_xml()
                               for name in document.hierarchy_names}

    def test_from_xml_query_save_parse_nothing(self, corpus, tmp_path):
        import repro.markup.parser as parser
        import repro.markup.streaming as streaming

        text, sources = corpus
        parses: list = []
        parse_ = counting(parses, parser.parse)
        doms: list = []
        with mock.patch.object(parser, "parse", parse_), \
                mock.patch.object(streaming, "parse", parse_), \
                mock.patch.object(
                    _HierarchyComponent, "build_dom",
                    counting(doms, _HierarchyComponent.build_dom)):
            engine = Engine.from_xml(text, sources)
            assert engine.query("count(/descendant::w)").items == [400]
            engine.save_mhxb(tmp_path / "doc.mhxb")
            assert len(engine.document) == 4
            parse_("<control/>")  # the wrapper does see a call
        assert len(parses) == 1 and doms == []
        # the control: input the tokenizer does not take on is parsed
        with mock.patch.object(streaming, "parse", parse_):
            MultihierarchicalDocument.from_xml("a\nb", {"h": "<d>a\rb</d>"})
        assert len(parses) == 2

    def test_tokenizer_writes_no_row_by_row(self, tmp_path):
        """Both ingest doors hand each encoding to the writer whole:
        0 per-row ``add`` calls, 0 parses, and no row of the published
        engine filled: a node is made when a query asks for its row."""
        import repro.markup.streaming as streaming

        document = generate_document(GeneratorConfig(n_words=1600, seed=2))
        text = document.text
        sources = {name: document[name].to_xml()
                   for name in document.hierarchy_names}
        adds: list = []
        parses: list = []
        store = DocumentStore.init(tmp_path / "s")
        with mock.patch.object(_ComponentWriter, "add",
                               counting(adds, _ComponentWriter.add)), \
                mock.patch.object(streaming, "parse",
                                  counting(parses, streaming.parse)):
            snapshot = store.add_streaming("doc", text, sources)
            engine = Engine.from_xml(text, sources)
            assert (adds, parses) == ([], [])
            # the controls: a DOM walk adds rows, a miss parses — and
            # walks the parser's DOM
            dom_document("ab", {"h": "<d>ab</d>"}).package()
            MultihierarchicalDocument.from_xml("a\nb",
                                               {"h": "<d>a\rb</d>"})
        assert len(adds) == 2 and len(parses) == 1
        for goddag in (snapshot.engine.goddag, engine.goddag):
            assert all(component._objects is None
                       for component in goddag.components().values())
        store.close()

    def test_analyze_string_builds_no_dom(self, corpus):
        text, sources = corpus
        engine = Engine.from_xml(text, sources)
        built: list = []
        elements: list = []
        with mock.patch.object(
                SpanSet, "to_document",
                counting(built, SpanSet.to_document)), \
                mock.patch.object(
                    dom.Element, "__init__",
                    counting(elements, dom.Element.__init__)):
            result = engine.query(
                'count(analyze-string(/, "a")/descendant::m)')
            SpanSet("ab").to_document("r")  # the control
        assert result.items[0] > 100
        assert len(built) == 1 and len(elements) == 1

    def test_a_generated_document_walks_no_dom(self):
        """The generator registers span sets straight into columns: an
        engine over its document builds and walks no DOM."""
        import repro.core.goddag.goddag as goddag_module

        walks: list = []
        doms: list = []
        with mock.patch.object(
                goddag_module, "dom_component",
                counting(walks, goddag_module.dom_component)), \
                mock.patch.object(
                    _HierarchyComponent, "build_dom",
                    counting(doms, _HierarchyComponent.build_dom)):
            engine = Engine(generate_document(
                GeneratorConfig(n_words=400, seed=3)))
            assert engine.query("count(//w)").items == [400]
            assert (walks, doms) == ([], [])
            # the control: the DOM door walks
            MultihierarchicalDocument(
                "ab", [Hierarchy("h", parse("<d>ab</d>"))])
        assert len(walks) == 1

    def test_add_corpus_builds_no_engine(self, corpus, tmp_path):
        text, sources = corpus
        document = MultihierarchicalDocument.from_xml(text, sources)
        store = DocumentStore.init(tmp_path / "s")
        engines: list = []
        doms: list = []
        with mock.patch.object(Engine, "__init__",
                               counting(engines, Engine.__init__)), \
                mock.patch.object(
                    Engine, "from_parts",
                    counting(engines, Engine.from_parts)), \
                mock.patch.object(
                    _HierarchyComponent, "build_dom",
                    counting(doms, _HierarchyComponent.build_dom)):
            stats = store.add_corpus("c", document, shards=3)
            assert not engines and not doms
            Engine(document)  # the control
        assert len(engines) == 1
        assert len(stats.shards) == 3
        assert store.cquery('count(collection("c")//w)').items == ["400"]
        store.close()


class TestStateRules:
    """What a hierarchy *is* between XML and KyGODDAG (DESIGN.md §15):
    its columns, always; a DOM goes in through one walk and comes out as
    an export."""

    @staticmethod
    def image(engine, path) -> bytes:
        engine.save_mhxb(path)
        return path.read_bytes()

    def test_an_update_reaches_the_document_as_columns(self, tmp_path):
        """An update through an engine over a document — a rename, a
        wrap, a text edit — reaches the next engine built from the same
        document without a DOM: the engine re-seats what it changed as
        the columns it registered.  A DOM exported before an update is
        a rendering of the old version."""
        document = MultihierarchicalDocument.from_xml(BASE_TEXT,
                                                      dict(ENCODINGS))
        engine = Engine(document)
        assert engine.document is document
        engine.update('rename node (/descendant::w)[1] as "word"')
        assert columns_held(document, "structural") is \
            engine.goddag.components()["structural"]
        assert Engine(document).query("count(//word)").items == [1]
        engine.update('add markup mark to "damage" covering '
                      '(/descendant::w)[2]')
        exported = document["structural"].document
        engine.update("insert node <w>eac</w> after (/descendant::w)[2]")
        assert Engine(document).query("count(//w)").items == [6]
        assert Engine(document).query("count(//mark)").items == [1]
        assert len(list(exported.root.iter_elements("w"))) == 5
        # the oracle of it all: the DOM ingest of what the document says
        assert self.image(Engine(document), tmp_path / "a.mhxb") == \
            self.image(Engine(dom_document(
                document.text, {name: document[name].to_xml()
                                for name in document.hierarchy_names}
            ).package()), tmp_path / "b.mhxb")

    def test_an_engine_takes_in_what_moved_under_it(self):
        """Of two engines over one document, the second's update
        starts from what the first's put there: neither write is lost."""
        document = MultihierarchicalDocument.from_xml(BASE_TEXT,
                                                      dict(ENCODINGS))
        one, two = Engine(document), Engine(document)
        one.update('rename node (/descendant::w)[1] as "word"')
        two.update("insert node <w>eac</w> after (/descendant::w)[2]")
        assert two.query("count(//word)").items == [1]
        after = Engine(document)
        assert after.query("count(//word)").items == [1]
        assert after.query("count(//w)").items == [6]
        one.update('rename node (/descendant::word)[1] as "w"')
        assert Engine(document).query("count(//w)").items == [7]

    def test_a_documents_columns_are_shared_and_never_written(
            self, tmp_path):
        """Two engines from one ``from_xml`` document read the same
        column arrays and own their nodes; a rename on one — in place,
        on its own ``name_ids`` — leaves the other, the file it saves
        and the document's columns as they were."""
        import numpy as np

        document = MultihierarchicalDocument.from_xml(BASE_TEXT,
                                                      dict(ENCODINGS))
        one, two = Engine(document), Engine(document)
        for name in document.hierarchy_names:
            columns = columns_held(document, name)
            assert columns._objects is None  # nodes belong to the engines
            for engine in (one, two):
                held = engine.goddag.components()[name]
                assert held is not columns
                assert np.shares_memory(held.starts, columns.starts)
                assert not np.shares_memory(held.name_ids,
                                            columns.name_ids)
        before = self.image(two, tmp_path / "before.mhxb")
        held = one.goddag.components()
        columns = columns_held(document, "structural")
        ids, names = columns.name_ids.copy(), list(columns.names)
        one.update('rename node (/descendant::w)[1] as "word"')
        assert one.goddag.components() == held  # renamed in place
        assert one.query("count(//word)").items == [1]
        assert two.query("count(//word)").items == [0]
        assert (columns.name_ids == ids).all() and columns.names == names
        assert self.image(two, tmp_path / "after.mhxb") == before
        two.goddag.check_invariants()
        one.goddag.check_invariants()
        # the document now holds what ``one`` renamed, so ``one`` copies
        # it before its next rename
        renamed = columns_held(document, "structural")
        assert renamed is one.goddag.components()["structural"]
        ids = renamed.name_ids.copy()
        one.update('rename node (/descendant::word)[1] as "w"')
        assert (renamed.name_ids == ids).all()
        assert one.goddag.components()["structural"] is not renamed
        # a clone holds the same hierarchies
        clone = document.clone()
        assert clone.hierarchies == document.hierarchies
        assert all(clone[name] is document[name]
                   for name in document.hierarchy_names)

    def test_a_fast_path_miss_yields_columns(self):
        """A source the tokenizer does not take on is parsed once and
        its DOM walked into the row writer; the DOCTYPE name and the
        internal subset are not kept, and no DOM is built back."""
        import repro.markup.streaming as streaming
        from repro.cmh import ConcurrentMarkupHierarchy
        from repro.errors import ValidationError

        source = ('<!DOCTYPE d [<!ELEMENT d (#PCDATA|x)*>'
                  '<!ELEMENT x (#PCDATA)><!ENTITY e "yy">]>'
                  "<d><![CDATA[xx]]>-&e;</d>")
        parses: list = []
        doms: list = []
        with mock.patch.object(streaming, "parse",
                               counting(parses, streaming.parse)), \
                mock.patch.object(
                    _HierarchyComponent, "build_dom",
                    counting(doms, _HierarchyComponent.build_dom)):
            document = MultihierarchicalDocument.from_xml(
                "xx-yy", {"plain": "<d><x>xx</x>-yy</d>", "typed": source})
        assert (len(parses), len(doms)) == (1, 0)
        assert set(columns_held(document, "typed").kinds.tolist()) == \
            {KIND_TEXT}
        assert document["typed"].document.doctype_name is None
        assert document["typed"].to_xml() == "<d>xx-yy</d>"
        engine = Engine(document)
        assert engine.query("count(//x)").items == [1]
        assert engine.query("string(/)").items == ["xx-yy"]
        held = dict(document.hierarchies)
        dtds = {"plain": "<!ELEMENT d (#PCDATA|x)*><!ELEMENT x (#PCDATA)>",
                "typed": "<!ELEMENT d (#PCDATA)>"}
        document.attach_cmh(
            ConcurrentMarkupHierarchy.from_sources("d", dtds))
        # validated, and nothing to write: the same hierarchies
        assert document.hierarchies == held
        assert all(document[name] is held[name] for name in held)
        dtds["plain"] = "<!ELEMENT d (#PCDATA)>"
        with pytest.raises(ValidationError, match="hierarchy 'plain'"):
            document.attach_cmh(
                ConcurrentMarkupHierarchy.from_sources("d", dtds))

    def test_validation_defaults_reach_the_engine(self, tmp_path):
        """``attach_cmh`` validates an export and, where the DTD
        declares attribute defaults, walks the validated export back
        into columns at the same rank: the engine, the file and
        ``to_xml`` all have them — as the reference ingest does, which
        validates the DOMs it walks — and the columns held before are
        not written."""
        from repro.api import load_mhx
        from repro.cmh import ConcurrentMarkupHierarchy
        from tests.dombuild import reference_components

        text = "xx-yy"
        sources = {"marked": "<d><x>xx</x>-<x k='set'>yy</x></d>",
                   "plain": "<d>xx-<y>yy</y></d>"}
        dtds = {"marked": '<!ELEMENT d (#PCDATA|x)*><!ELEMENT x (#PCDATA)>'
                          '<!ATTLIST x k CDATA "dflt" f CDATA #FIXED "1">',
                "plain": '<!ELEMENT d (#PCDATA|y)*><!ELEMENT y (#PCDATA)>'
                         '<!ATTLIST y k CDATA #IMPLIED>'}
        unvalidated = MultihierarchicalDocument.from_xml(text, sources)
        bare = unvalidated["marked"]
        attrs = [[row, dict(value)] for row, value in bare.component.attrs]
        unvalidated.attach_cmh(
            ConcurrentMarkupHierarchy.from_sources("d", dtds))
        assert unvalidated["marked"] is not bare  # a new hierarchy
        assert unvalidated["marked"].component.rank == 0
        assert unvalidated["plain"].component.rank == 1
        assert bare.component.attrs == attrs  # not written
        (tmp_path / "d.mhx").write_text(json.dumps(
            {"format": "mhx-1", "text": text, "hierarchies": sources,
             "dtds": dtds}), encoding="utf-8")
        document = load_mhx(tmp_path / "d.mhx")
        engine = Engine(document)
        assert engine.query("/descendant::x/string(@k)").items == \
            ["dflt", "set"]
        assert engine.query("count(//x[@f = '1'])").items == [2]
        assert 'k="dflt"' in document["marked"].to_xml()
        reference = dom_document(text, sources)
        reference.attach_cmh(
            ConcurrentMarkupHierarchy.from_sources("d", dtds))
        assert_same_columns(list(engine.goddag.components().values()),
                            reference_components(reference))
        assert self.image(engine, tmp_path / "a.mhxb") == \
            self.image(Engine(reference.package()), tmp_path / "b.mhxb")
        # the store's path door and a clone see the same document
        store = DocumentStore.init(tmp_path / "s")
        store.add("d", path=tmp_path / "d.mhx")
        assert store.query("d", "/descendant::x/string(@k)").items == \
            ["dflt", "set"]
        assert Engine(document.clone()).query(
            "count(//x[@k = 'dflt'])").items == [1]
        store.close()

    def test_a_removal_reranks_without_a_walk(self, tmp_path):
        """The hierarchies after a removed one move up a rank as
        re-ranked copies — every array shared but the order keys — and
        nothing is walked."""
        import repro.core.goddag.goddag as goddag_module

        document = MultihierarchicalDocument.from_xml(BASE_TEXT,
                                                      dict(ENCODINGS))
        before = {name: columns_held(document, name)
                  for name in document.hierarchy_names}
        for one in before.values():
            one.okeys  # packed at the old rank
        walks: list = []
        with mock.patch.object(
                goddag_module, "dom_component",
                counting(walks, goddag_module.dom_component)):
            document.remove_hierarchy(document.hierarchy_names[0])
            engine = Engine(document)
        assert walks == []
        for rank, name in enumerate(document.hierarchy_names):
            moved, held = before[name], columns_held(document, name)
            assert held.rank == rank and held is not moved
            assert held.kinds is moved.kinds and held.starts is moved.starts
            assert held.name_ids is moved.name_ids
            assert (held.okeys != moved.okeys).all()
        sources = {name: document[name].to_xml()
                   for name in document.hierarchy_names}
        assert self.image(engine, tmp_path / "a.mhxb") == \
            self.image(Engine(dom_document(BASE_TEXT, sources).package()),
                       tmp_path / "b.mhxb")

    DOORS = {
        "from_xml": lambda text, sources:
            MultihierarchicalDocument.from_xml(text, sources),
        "engine": lambda text, sources: Engine.from_xml(text, sources),
        "builder": lambda text, sources: [
            builder.add_hierarchy(name, source)
            for builder in [StreamingBuilder(text)]
            for name, source in sources.items()],
        "dom": lambda text, sources: MultihierarchicalDocument(
            text, [Hierarchy(name, parse(source))
                   for name, source in sources.items()]),
    }

    @pytest.mark.parametrize("door", sorted(DOORS))
    def test_document_doors_keep_their_errors(self, door):
        """The document's taxonomy, wherever XML comes in."""
        enter = self.DOORS[door]
        with pytest.raises(AlignmentError) as caught:
            enter("abcdef", {"h": "<d>abcXef</d>"})
        assert type(caught.value) is AlignmentError
        assert (caught.value.hierarchy, caught.value.offset) == ("h", 3)
        assert "diverges from the base text at offset 3" in \
            str(caught.value)
        with pytest.raises(AlignmentError, match="covers only the first 3"):
            enter("abcdef", {"h": "<d>abc</d>"})
        with pytest.raises(CMHError, match="has root 'e' but the "
                                           "document root is 'd'") as caught:
            enter("ab", {"one": "<d>ab</d>", "two": "<e>ab</e>"})
        assert type(caught.value) is CMHError
        with pytest.raises(MarkupError) as caught:
            enter("ab", {"h": "<d>a\n<e>b</d>"})
        assert (caught.value.line, caught.value.column) == (2, 7)

    def test_the_dom_door_keeps_the_documents_errors(self):
        """A DOM that does not fit the document — short, diverging, or
        under another root — raises the document's error, and the
        document it was offered to is as before."""
        document = MultihierarchicalDocument.from_xml(BASE_TEXT,
                                                      dict(ENCODINGS))
        held = dict(document.hierarchies)
        short = parse(f"<r>{BASE_TEXT[:-1]}</r>")
        wrong = parse(f"<r>{BASE_TEXT[:-1]}X</r>")
        other = parse(f"<other>{BASE_TEXT}</other>")
        for offered, error, message in (
                (short, AlignmentError, "covers only the first"),
                (wrong, AlignmentError, "diverges from the base text"),
                (other, CMHError, "has root 'other' but the document "
                                  "root is 'r'")):
            with pytest.raises(error, match=message) as caught:
                document.add_hierarchy(Hierarchy("extra", offered))
            assert type(caught.value) is error
            assert document.hierarchies == held
        assert Engine(document).query("count(//w)").items == [6]

    def test_component_doors_refuse_a_misfit(self, goddag):
        """(d) ``replace_hierarchy`` and ``rebuild_hierarchies`` take
        only a component that may stand where the old one stands: its
        rank and temporariness, text rows tiling the base text."""
        from repro.errors import GoddagError

        held = goddag.components()
        version = goddag.version
        name = goddag.hierarchy_names[0]
        for key, value in (("rank", held[name].rank + 1),
                           ("temporary", True)):
            offered = held[name].private_copy()
            setattr(offered, key, value)
            with pytest.raises(GoddagError, match="does not fit"):
                goddag.replace_hierarchy(offered)
            with pytest.raises(GoddagError, match="does not fit"):
                goddag.rebuild_hierarchies(goddag.text, [
                    offered if other == name else held[other]
                    for other in goddag.hierarchy_names])
        with pytest.raises(GoddagError, match="does not fit"):
            goddag.rebuild_hierarchies(goddag.text + "X",
                                       list(held.values()))
        assert goddag.components() == held and goddag.version == version
        goddag.check_invariants()
