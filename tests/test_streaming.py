"""Differential tests for the streaming (DOM-free) ingest path.

The contract of ``repro.markup.streaming`` (DESIGN.md §15) is strict:
on any input, the streamed ``.mhxb`` is **byte-identical** to the DOM
pipeline's ``save_engine`` output, and on any *bad* input the raised
exception is the DOM path's exact type and message, with the builder
left untouched.  Every test here therefore runs both paths and
compares — bytes on success, ``(type, str)`` on failure.
"""

from __future__ import annotations

import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet
from repro.corpus.boethius import BASE_TEXT, ENCODINGS
from repro.corpus.generator import GeneratorConfig, generate_document
from repro.errors import (AlignmentError, CMHError, MarkupError, ReproError,
                          StoreError)
from repro.markup.parser import parse
from repro.markup.streaming import (StreamingBuilder, _fast_events,
                                    _FastPathMiss, stream_save)
from repro.store import DocumentStore
from repro.store.mhxb import save_engine
from repro.store.sharding import shard_document

from tests.strategies import multihierarchical_documents


def dom_bytes(tmp_path, text: str, sources: dict[str, str]) -> bytes:
    """The DOM pipeline's ``.mhxb`` bytes for the same input."""
    path = tmp_path / "dom.mhxb"
    document = MultihierarchicalDocument.from_xml(text, sources)
    save_engine(Engine(document), path)
    return path.read_bytes()


def stream_bytes(tmp_path, text: str, sources: dict[str, str],
                 layers: dict | None = None) -> bytes:
    path = tmp_path / "stream.mhxb"
    stream_save(text, sources, path, layers=layers)
    return path.read_bytes()


def assert_identical(tmp_path, text: str, sources: dict[str, str]) -> None:
    assert stream_bytes(tmp_path, text, sources) == \
        dom_bytes(tmp_path, text, sources)


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
        reference = Engine(MultihierarchicalDocument.from_xml(
            BASE_TEXT, dict(ENCODINGS)))
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
        list(_fast_events(source))  # stays on the fast path
        assert_identical(tmp_path, text, {"h": source})

    def test_doctype_falls_back(self, tmp_path):
        text = "xx-yy"
        source = ('<!DOCTYPE d [<!ENTITY e "yy">]>'
                  "<d>xx-&e;</d>")
        with pytest.raises(_FastPathMiss):
            list(_fast_events(source))
        assert_identical(tmp_path, text, {"h": source})

    def test_cdata_falls_back(self, tmp_path):
        text = "a<b>c"
        source = "<d>a<![CDATA[<b>]]>c<![CDATA[]]></d>"
        with pytest.raises(_FastPathMiss):
            list(_fast_events(source))
        assert_identical(tmp_path, text, {"h": source})

    def test_carriage_returns_fall_back(self, tmp_path):
        text = "a\nb\nc"
        source = "<d>a\r\nb\rc</d>"
        with pytest.raises(_FastPathMiss):
            list(_fast_events(source))
        assert_identical(tmp_path, text, {"h": source})

    def test_non_ascii_names_fall_back(self, tmp_path):
        text = "ab"
        source = "<d><émph>ab</émph></d>"
        with pytest.raises(_FastPathMiss):
            list(_fast_events(source))
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

    @settings(deadline=None, max_examples=40)
    @given(data=st.data())
    def test_hypothesis_documents(self, data):
        document = data.draw(multihierarchical_documents())
        sources = {name: document[name].to_xml()
                   for name in document.hierarchy_names}
        with tempfile.TemporaryDirectory() as tmp:
            dom_path = pathlib.Path(tmp) / "hd.mhxb"
            st_path = pathlib.Path(tmp) / "hs.mhxb"
            save_engine(Engine(document.clone()), dom_path)
            stream_save(document.text, sources, st_path)
            assert dom_path.read_bytes() == st_path.read_bytes()


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

    def dom_with_layers(self, layers: dict) -> MultihierarchicalDocument:
        document = MultihierarchicalDocument.from_xml(
            self.PROSE, {"base": self.base_source()})
        for name, spans in layers.items():
            span_set = SpanSet(self.PROSE, [
                Span(s, e, n, tuple(a.items()) if len(row) > 3 else ())
                for row in spans
                for (s, e, n, *rest) in [row]
                for a in [rest[0] if rest else {}]])
            document.add_hierarchy(Hierarchy(
                name, span_set.to_document(document.root_name)))
        return document

    def test_token_sentence_layers_byte_identical(self, tmp_path):
        layers = {"tokens": self.tokens(), "sentences": self.sentences()}
        dom_path = tmp_path / "ld.mhxb"
        st_path = tmp_path / "ls.mhxb"
        save_engine(Engine(self.dom_with_layers(layers)), dom_path)
        stream_save(self.PROSE, {"base": self.base_source()}, st_path,
                    layers=layers)
        assert dom_path.read_bytes() == st_path.read_bytes()

    def test_nested_and_zero_length_spans(self, tmp_path):
        layers = {"mix": [(0, 20, "outer"), (2, 9, "inner"),
                          (5, 5, "pt"), (20, 20, "pt")]}
        dom_path = tmp_path / "zd.mhxb"
        st_path = tmp_path / "zs.mhxb"
        save_engine(Engine(self.dom_with_layers(layers)), dom_path)
        stream_save(self.PROSE, {"base": self.base_source()}, st_path,
                    layers=layers)
        assert dom_path.read_bytes() == st_path.read_bytes()

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
    "<d><!--unterminated</d>",
    "<d><![CDATA[open</d>",
    "<d><?xml bad?></d>",
    "<d><?unterminated</d>",
    "<d><!BOGUS x></d>",
    "<d/>more<d/>",
    "<?xml version='1.0'",
    "<d><e a='1'/ ></d>",
    "< d>x</d>",
    "</d>",
]


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
            MultihierarchicalDocument.from_xml(text, {"h": source})
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
            MultihierarchicalDocument.from_xml(text, {"h": source})
        builder = StreamingBuilder(text)
        with pytest.raises(AlignmentError) as caught:
            builder.add_hierarchy("h", source)
        assert str(caught.value) == str(oracle.value)

    def test_root_mismatch_matches_dom(self):
        text = "ab"
        sources = {"one": "<d>ab</d>", "two": "<other>ab</other>"}
        with pytest.raises(CMHError) as oracle:
            MultihierarchicalDocument.from_xml(text, sources)
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
            MultihierarchicalDocument.from_xml(text, {"h": source})
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
        parts, dom_stats = shard_document(document, n_shards)
        for index, part in enumerate(parts):
            save_engine(Engine(part), tmp_path / f"dom{index:04d}.mhxb")
        builder = StreamingBuilder(document.text)
        for name, source in sources.items():
            builder.add_hierarchy(name, source)
        stream_stats = builder.save_shards(
            n_shards, lambda index: tmp_path / f"st{index:04d}.mhxb")
        assert dom_stats.to_json() == stream_stats.to_json()
        for index in range(len(parts)):
            assert (tmp_path / f"dom{index:04d}.mhxb").read_bytes() == \
                (tmp_path / f"st{index:04d}.mhxb").read_bytes()

    def test_shard_count_validation(self):
        builder = StreamingBuilder("ab")
        builder.add_hierarchy("h", "<d>ab</d>")
        with pytest.raises(StoreError, match="shard count must be >= 1"):
            builder.shard_bounds(0)
        empty = StreamingBuilder("ab")
        with pytest.raises(StoreError, match="no hierarchies"):
            empty.shard_bounds(2)


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
            "--streaming", "--text", str(tmp_path / "base.txt"),
            "--durability", "off")
        assert code == 0 and "added 'doc'" in out
        code, out, _err = self.run_cli(
            capsys, "store", "query", store_dir, "doc", "count(//w)")
        assert code == 0 and out.strip() == "200"

    def test_store_add_streaming_requires_text(self, tmp_path, capsys,
                                               inputs):
        _document, specs = inputs
        store_dir = str(tmp_path / "cat")
        self.run_cli(capsys, "store", "init", store_dir)
        code, _out, err = self.run_cli(
            capsys, "store", "add", store_dir, "doc", *specs,
            "--streaming")
        assert code == 1 and "--streaming needs --text" in err

    def test_store_shard_streaming(self, tmp_path, capsys, inputs):
        _document, specs = inputs
        store_dir = str(tmp_path / "cat")
        self.run_cli(capsys, "store", "init", store_dir)
        code, out, _err = self.run_cli(
            capsys, "store", "shard", store_dir, "corp", *specs,
            "--streaming", "--text", str(tmp_path / "base.txt"),
            "--shards", "2", "--durability", "off")
        assert code == 0 and "sharded 'corp'" in out
        code, out, _err = self.run_cli(
            capsys, "store", "cquery", store_dir,
            'count(collection("corp")//w)')
        assert code == 0 and out.strip() == "200"

    def test_store_shard_streaming_generate(self, tmp_path, capsys):
        store_dir = str(tmp_path / "cat")
        self.run_cli(capsys, "store", "init", store_dir)
        code, out, _err = self.run_cli(
            capsys, "store", "shard", store_dir, "corp",
            "--streaming", "--generate", "400", "--shards", "2",
            "--durability", "off")
        assert code == 0 and "sharded 'corp'" in out
