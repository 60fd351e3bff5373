"""Tests for corpus sharding (DESIGN.md §13).

Cut selection (cuts valid in *every* hierarchy, size-balanced pick),
shard construction (per-shard documents stay aligned, elements never
split), the pruning statistics, and the fused reconstruction being a
byte-identical inverse of sharding — the column fuse held against the
node-by-node one it replaced (``tests/dombuild.py``).
"""

from __future__ import annotations

import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AlignmentError, StoreError
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.core.goddag.goddag import (KIND_ELEMENT, KIND_TEXT,
                                      _HierarchyComponent,
                                      hierarchy_components)
from repro.corpus.boethius import boethius_document
from repro.corpus.generator import GeneratorConfig, generate_document
from repro.markup import dom
from repro.store import fuse_documents, shard_document, valid_cuts
from repro.store.mhxb import load_document, write_container
from repro.store.sharding import (CorpusStats, ShardStats, choose_cuts,
                                  save_shards)
from tests.dombuild import (DomDocument, assert_same_columns,
                            fuse_dom_documents, reference_components,
                            reference_save, shard_dom_document)
from tests.strategies import multihierarchical_documents
from tests.test_plan_cost import skewed_document


def corpus(n_words: int = 400, seed: int = 7) -> MultihierarchicalDocument:
    return generate_document(GeneratorConfig(n_words=n_words, seed=seed))


class TestValidCuts:
    def test_no_element_straddles_any_cut(self):
        document = corpus()
        cuts = valid_cuts(document)
        assert len(cuts)
        for hierarchy in document.hierarchies.values():
            for lo, hi in _element_spans(hierarchy, document.text):
                inside = cuts[(cuts > lo) & (cuts < hi)]
                assert not len(inside), (lo, hi, inside[:3])

    def test_cuts_are_interior(self):
        document = corpus()
        cuts = valid_cuts(document)
        assert np.all(cuts > 0)
        assert np.all(cuts < len(document.text))

    def test_overlap_free_document_cuts_at_word_boundaries(self):
        text = "ab cd ef"
        document = MultihierarchicalDocument(text)
        source = "<r><w>ab</w> <w>cd</w> <w>ef</w></r>"
        document.add_hierarchy(Hierarchy("only", _parse(source)))
        cuts = valid_cuts(document)
        # every word boundary (starts 3 and 6, ends 2 and 5) is valid
        assert set(cuts.tolist()) == {2, 3, 5, 6}

    def test_straddling_span_blocks_cut(self):
        text = "ab cd ef"
        document = MultihierarchicalDocument(text)
        document.add_hierarchy(Hierarchy(
            "words", _parse("<r><w>ab</w> <w>cd</w> <w>ef</w></r>")))
        document.add_hierarchy(Hierarchy(
            "span", _parse("<r>a<dmg>b cd e</dmg>f</r>")))
        cuts = valid_cuts(document)
        # the dmg span [1, 7) swallows every word boundary
        assert not len(cuts)


class TestChooseCuts:
    def test_balanced_partition(self):
        document = corpus(800)
        cuts = choose_cuts(document, 4)
        assert len(cuts) == 3
        bounds = [0, *cuts, len(document.text)]
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        target = len(document.text) / 4
        for size in sizes:
            assert abs(size - target) < target * 0.5

    def test_single_shard_no_cuts(self):
        assert choose_cuts(corpus(), 1) == []

    def test_invalid_count_rejected(self):
        with pytest.raises(StoreError, match="shard count"):
            choose_cuts(corpus(), 0)

    def test_more_shards_than_cuts_degrades(self):
        text = "ab cd"
        document = MultihierarchicalDocument(text)
        document.add_hierarchy(Hierarchy(
            "words", _parse("<r><w>ab</w> <w>cd</w></r>")))
        cuts = choose_cuts(document, 10)
        assert len(cuts) <= 2  # only positions 2 and 3 are valid


class TestShardDocument:
    def test_shards_align_and_cover_text(self):
        document = corpus(800)
        shards, stats = shard_document(document, 4)
        assert len(shards) == len(stats.shards) == 4
        assert "".join(shard.text for shard in shards) == document.text
        for shard in shards:  # add_hierarchy verified alignment already
            assert shard.hierarchy_names == document.hierarchy_names

    def test_stats_bounds_and_cards(self):
        document = corpus()
        shards, stats = shard_document(document, 4)
        assert stats.root_name == document.root_name
        assert stats.words == sum(s.words for s in stats.shards)
        for shard, stat in zip(shards, stats.shards):
            assert stat.chars == len(shard.text)
            counted: dict[str, int] = {}
            for hierarchy in shard.hierarchies.values():
                for node in hierarchy.root.iter_elements():
                    counted[node.name] = counted.get(node.name, 0) + 1
            assert counted == stat.cards

    def test_element_totals_preserved(self):
        document = corpus()
        shards, stats = shard_document(document, 6)
        for name, hierarchy in document.hierarchies.items():
            total = sum(1 for _ in hierarchy.root.iter_elements())
            sharded = sum(
                1 for shard in shards
                for _ in shard[name].root.iter_elements())
            assert sharded == total, name

    def test_no_hierarchies_rejected(self):
        with pytest.raises(StoreError, match="no hierarchies"):
            shard_document(MultihierarchicalDocument("abc"), 2)

    def test_one_export_per_hierarchy(self):
        """No hierarchy is exported, whatever the shard count: the cut
        slices columns, and the shards' statistics come off them."""
        from tests.test_store import wrapping

        document = corpus(800)
        for n_shards in (1, 4):
            doms: list = []
            with wrapping(_HierarchyComponent, "build_dom", doms,
                          lambda component: component.name):
                shards, _stats = shard_document(document, n_shards)
            assert len(shards) == n_shards
            assert doms == []

    def test_boethius_shards(self):
        document = boethius_document(validate=False)
        shards, stats = shard_document(document, 2)
        assert len(shards) >= 1
        assert fuse_documents(shards).text == document.text


class TestFuse:
    def test_fuse_is_inverse_of_shard(self):
        document = corpus()
        shards, _stats = shard_document(document, 5)
        fused = fuse_documents(shards)
        assert fused.text == document.text
        for name in document.hierarchy_names:
            assert fused[name].to_xml() == document[name].to_xml()

    def test_fuse_empty_rejected(self):
        with pytest.raises(StoreError, match="empty shard list"):
            fuse_documents([])

    # -- the column fuse against the DOM fuse --------------------------------

    @staticmethod
    def assert_fuses_alike(tmp: pathlib.Path, parts: list
                           ) -> MultihierarchicalDocument:
        """Column fuse == DOM fuse + reference walker: text, columns,
        ``.mhxb`` bytes, and every hierarchy's XML.  The column fuse
        builds no DOM and walks none."""
        import repro.core.goddag.goddag as goddag_module

        from tests.test_store import wrapping

        doms: list = []
        with wrapping(_HierarchyComponent, "build_dom", doms, id), \
                wrapping(goddag_module, "dom_component", doms, id):
            fused = fuse_documents(parts)
        assert doms == []
        columns = list(hierarchy_components(fused))
        reference = fuse_dom_documents(parts)
        assert fused.text == reference.text
        assert fused.hierarchy_names == reference.hierarchy_names
        assert fused.root_name == reference.root_name
        assert_same_columns(columns, reference_components(reference))
        write_container(tmp / "fused.mhxb", root=fused.root_name,
                        text=fused.text, components=columns)
        reference_save(reference, tmp / "reference.mhxb")
        assert (tmp / "fused.mhxb").read_bytes() == \
            (tmp / "reference.mhxb").read_bytes()
        for name in reference.hierarchy_names:
            assert fused[name].to_xml() == reference.to_xml(name)
        return fused

    @classmethod
    def assert_round_trip(cls, tmp: pathlib.Path,
                          document: MultihierarchicalDocument,
                          n_shards: int) -> int:
        """Cut ``document`` — as files read back node-free, and as
        in-memory parts — and fuse: both ways give back its columns and
        its ``.mhxb`` bytes.  The files and the statistics are the DOM
        slicer's.  Returns the number of parts."""
        stats = save_shards(document, n_shards,
                            lambda index: tmp / f"part{index:04d}.mhxb")
        count = len(stats.shards)
        read_back = [load_document(tmp / f"part{index:04d}.mhxb")
                     for index in range(count)]
        cut, cut_stats = shard_document(document, n_shards)
        assert len(cut) == count
        reference, reference_stats = shard_dom_document(document, n_shards)
        assert stats.to_json() == cut_stats.to_json() == \
            reference_stats.to_json()
        for index, part in enumerate(reference):
            reference_save(part, tmp / "slice.mhxb")
            assert (tmp / "slice.mhxb").read_bytes() == \
                (tmp / f"part{index:04d}.mhxb").read_bytes()
        uncut = reference_save(DomDocument.exported(document),
                               tmp / "uncut.mhxb")
        for parts in (read_back, cut):
            fused = cls.assert_fuses_alike(tmp, parts)
            assert_same_columns(list(hierarchy_components(fused)), uncut)
            assert (tmp / "fused.mhxb").read_bytes() == \
                (tmp / "uncut.mhxb").read_bytes()
        return count

    @pytest.mark.parametrize("seed", [20060627, 777])
    def test_generator_head_and_bodies(self, tmp_path, seed):
        """The perfbench corpus shape: a damaged head and clean bodies,
        whose damage hierarchy is one text node per body."""
        parts = [generate_document(GeneratorConfig(
            n_words=120, seed=seed, damage_rate=0.3,
            restoration_rate=0.2))]
        parts.extend(
            generate_document(GeneratorConfig(
                n_words=200, seed=seed + index, damage_rate=0.0,
                restoration_rate=0.0))
            for index in range(1, 4))
        assert any(component.kinds.tolist() == [KIND_TEXT]
                   for component in hierarchy_components(parts[1]))
        self.assert_fuses_alike(tmp_path, parts)

    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("make", [
        lambda: boethius_document(validate=False), skewed_document,
    ], ids=["boethius", "skewed"])
    def test_round_trip(self, tmp_path, make, n_shards):
        self.assert_round_trip(tmp_path, make(), n_shards)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_hypothesis_documents_round_trip(self, data):
        """Zero-length elements on a cut, at offset 0 and at the text's
        end, nested equal extents, hierarchies that offer no cut."""
        document = data.draw(multihierarchical_documents(min_text=2))
        n_shards = data.draw(st.integers(min_value=1, max_value=5))
        with tempfile.TemporaryDirectory() as tmp:
            self.assert_round_trip(pathlib.Path(tmp), document, n_shards)

    def test_text_node_split_by_every_cut(self, tmp_path):
        document = MultihierarchicalDocument.from_xml("aabbcc", {
            "cuts": "<r><a>aa</a><a>bb</a><a>cc</a></r>",
            "text": "<r>aabbcc</r>"})
        assert self.assert_round_trip(tmp_path, document, 3) == 3
        fused = fuse_documents(shard_document(document, 3)[0])
        only = next(c for c in hierarchy_components(fused)
                    if c.name == "text")
        assert only.kinds.tolist() == [KIND_TEXT]
        assert (only.starts.tolist(), only.ends.tolist()) == ([0], [6])

    def test_top_level_points_at_cuts_and_at_the_end(self, tmp_path):
        """Comments, PIs and empty elements directly under the root:
        at the text's start, on a cut, at the text's end."""
        document = MultihierarchicalDocument.from_xml("aabbcc", {
            "one": "<r><!--s--><a>aa</a><?p on-cut?><e/><a>bb</a>"
                   "<!--mid-b--><a>cc</a><e/><!--end--></r>",
            "two": "<r><e k='v'/>aa<b>bb</b>c<!--in-text-->c</r>"})
        assert self.assert_round_trip(tmp_path, document, 3) == 3

    def test_attributes_on_rows_past_a_seam(self, tmp_path):
        """The text node the cut at 2 splits is one row again, so every
        row behind it — the attributed ones — moves up by one."""
        document = MultihierarchicalDocument.from_xml("aabbcc", {
            "cuts": "<r><a n='1'>aa</a><a n='2'>bb</a><a>cc</a></r>",
            "marks": "<r>aab<x k='1'>b<?q d?></x><!--c-->c<x k='2'>c</x>"
                     "</r>"})
        assert self.assert_round_trip(tmp_path, document, 3) == 3
        fused = fuse_documents(shard_document(document, 3)[0])
        marks = next(c for c in hierarchy_components(fused)
                     if c.name == "marks")
        assert marks.attrs == [[1, {"k": "1"}], [6, {"k": "2"}]]
        assert marks.pis == [[3, "d"]] and marks.comments == [[4, "c"]]

    def test_name_tables_that_differ_or_hold_unused_names(self, tmp_path):
        """Names are re-interned in order of first use: a part's own
        table — with names it never uses, in any order — does not
        show."""
        first = MultihierarchicalDocument.from_xml(
            "xy", {"h": "<r><a>x</a><b>y</b></r>"})
        second = MultihierarchicalDocument.from_xml(
            "zw", {"h": "<r><b>z</b><?c d?><a>w</a></r>"})
        held = second["h"].component
        padded = MultihierarchicalDocument("zw")
        padded.add_columns(_HierarchyComponent(
            "h", 0, False, names=["unused", *held.names, "never"],
            columns={"kinds": held.kinds,
                     "name_ids": np.where(held.name_ids < 0, -1,
                                          held.name_ids + 1),
                     "starts": held.starts, "ends": held.ends,
                     "parents": held.parents,
                     "subtree_ends": held.subtree_ends},
            attrs=held.attrs, comments=held.comments, pis=held.pis,
            prolog=[], epilog=[], root_attrs={}), "r")
        for parts in ([first, second], [first, padded], [padded, first]):
            fused = fuse_documents(parts)
            component = fused["h"].component
            used = [component.names[ident]
                    for ident in component.name_ids.tolist() if ident >= 0]
            assert component.names == list(dict.fromkeys(used))
            self.assert_fuses_alike(tmp_path, parts)

    def test_hierarchy_that_is_only_text_in_some_parts(self, tmp_path):
        parts = [MultihierarchicalDocument.from_xml(text, {"h": source})
                 for text, source in (("ab", "<r k='first'><d>ab</d></r>"),
                                      ("cd", "<r k='ignored'>cd</r>"),
                                      ("ef", "<r>ef</r>"),
                                      ("gh", "<r>g<d>h</d></r>"))]
        fused = self.assert_fuses_alike(tmp_path, parts)
        assert fused["h"].to_xml() == \
            "<r k=\"first\"><d>ab</d>cdefg<d>h</d></r>"

    def test_hand_built_parts_with_adjacent_and_empty_text(self, tmp_path):
        """What ``normalize()`` did at every depth: empty text nodes go,
        runs of text nodes become one — also where no cut made them."""
        def part(text: str, *children: dom.Node):
            document = dom.Document()
            root = dom.Element("r")
            document.append(root)
            for child in children:
                root.append(child)
            return MultihierarchicalDocument(
                text, [Hierarchy("h", document)])

        def element(name: str, *children: dom.Node) -> dom.Element:
            node = dom.Element(name, {"n": name})
            for child in children:
                node.append(child)
            return node

        parts = [
            part("abcd", dom.Text(""), dom.Text("a"), dom.Text(""),
                 dom.Text("b"),
                 element("x", dom.Text(""), dom.Text("c"), dom.Text(""),
                         element("y", dom.Text("")), dom.Text(""),
                         dom.Text("d"), dom.Comment("k"), dom.Text("")),
                 dom.Text("")),
            part("", dom.Text(""), element("e"), dom.Text("")),
            part("ef", dom.Text("e"), dom.Text("f")),
            part("g", dom.Text(""), dom.Text("g")),
        ]
        fused = self.assert_fuses_alike(tmp_path, parts)
        assert fused["h"].to_xml() == (
            '<r>ab<x n="x">c<y n="y"/>d<!--k--></x><e n="e"/>efg</r>')

    def test_dom_and_column_parts_mixed(self, tmp_path):
        document = generate_document(GeneratorConfig(n_words=300, seed=5))
        uncut = reference_save(DomDocument.exported(document),
                               tmp_path / "uncut.mhxb")
        stats = save_shards(document, 4,
                            lambda index: tmp_path / f"p{index}.mhxb")
        assert len(stats.shards) == 4
        cut, _stats = shard_dom_document(document, 4)
        tokenized = MultihierarchicalDocument.from_xml(
            cut[2].text, {name: cut[2].to_xml(name)
                          for name in cut[2].hierarchy_names})
        # a file's columns, the DOM door's, the tokenizer's, a file's
        parts = [load_document(tmp_path / "p0.mhxb"), cut[1].package(),
                 tokenized, load_document(tmp_path / "p3.mhxb")]
        fused = self.assert_fuses_alike(tmp_path, parts)
        assert_same_columns(list(hierarchy_components(fused)), uncut)

    def test_single_part(self, tmp_path):
        """One part is itself, less what is not part of a corpus: the
        comments and PIs around its root element."""
        part = MultihierarchicalDocument.from_xml("abc", {
            "h": "<!--before--><r k='v'><a>a</a>bc</r><?after x?>"})
        fused = self.assert_fuses_alike(tmp_path, [part])
        assert fused["h"].to_xml() == '<r k="v"><a>a</a>bc</r>'
        component = fused["h"].component
        assert component.kinds.tolist() == [KIND_ELEMENT, KIND_TEXT,
                                            KIND_TEXT]

    def test_text_rows_must_tile_the_fused_text(self):
        """The check that stands where ``add_hierarchy`` aligned: a part
        whose columns were not written over its text does not fuse."""
        parts = [MultihierarchicalDocument.from_xml(
            text, {"h": f"<r><a>{text}</a></r>"}) for text in ("ab", "cd")]
        parts[0].text = "ab+"
        with pytest.raises(AlignmentError, match="covers only the first 2"):
            fuse_documents(parts)


class TestStatsJson:
    def test_round_trip(self):
        _shards, stats = shard_document(corpus(), 3)
        restored = CorpusStats.from_json(stats.to_json())
        assert restored.to_json() == stats.to_json()
        assert restored.root_name == stats.root_name
        assert restored.name_hierarchies == stats.name_hierarchies
        assert [s.to_json() for s in restored.shards] \
            == [s.to_json() for s in stats.shards]

    def test_shard_stats_fields(self):
        stat = ShardStats(lo=3, hi=9, words=2, cards={"w": 2})
        assert stat.chars == 6
        assert ShardStats.from_json(stat.to_json()).to_json() \
            == stat.to_json()


def _parse(source: str):
    from repro.markup.parser import parse

    return parse(source)


def _element_spans(hierarchy: Hierarchy, text: str):
    """(start, end) character spans of every element, via leaf walk."""
    spans = []

    def walk(node, cursor):
        from repro.markup import dom

        start = cursor
        for child in node.children:
            if isinstance(child, dom.Text):
                cursor += len(child.data)
            elif isinstance(child, dom.Element):
                cursor = walk(child, cursor)
        if node is not root:
            spans.append((start, cursor))
        return cursor

    root = hierarchy.root
    walk(root, 0)
    return spans
