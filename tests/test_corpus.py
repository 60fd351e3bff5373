"""Tests for the Boethius sample and the synthetic generators."""

from __future__ import annotations

from repro.cmh.spans import spans_of
from repro.core.goddag import KyGoddag
from repro.corpus import (
    BASE_TEXT,
    ENCODINGS,
    GeneratorConfig,
    boethius_cmh,
    boethius_document,
    boethius_goddag,
    generate_document,
)
from repro.corpus.tei import generate_tei_document
from repro.corpus.vocabulary import WordSource

from tests.dombuild import DomDocument


class TestBoethius:
    def test_encodings_align_with_base_text(self):
        document = boethius_document(validate=False)
        assert document.text == BASE_TEXT
        assert set(document.hierarchy_names) == set(ENCODINGS)

    def test_cmh_and_dtds_validate(self):
        document = boethius_document(validate=True)
        assert document.cmh is not None
        assert document.cmh.root == "r"

    def test_cmh_element_ownership(self):
        cmh = boethius_cmh()
        assert cmh.hierarchy_of_element("line") == "physical"
        assert cmh.hierarchy_of_element("res") == "restoration"

    def test_goddag_shape(self):
        goddag = boethius_goddag()
        assert len(goddag.partition) == 16
        assert len(list(goddag.elements())) == 16

    def test_singallice_crosses_lines(self):
        goddag = boethius_goddag()
        singallice = next(w for w in goddag.elements("w")
                          if w.string_value() == "singallice")
        lines = [n for n in goddag.elements("line")]
        assert lines[0].end > singallice.start  # starts inside line 1
        assert lines[1].start < singallice.end  # ends inside line 2


class TestGenerator:
    def test_deterministic(self):
        config = GeneratorConfig(n_words=80, seed=42)
        first = generate_document(config)
        second = generate_document(config)
        assert first.text == second.text
        for name in first.hierarchy_names:
            a = [(s.start, s.end, s.name)
                 for s in spans_of(first[name].document)]
            b = [(s.start, s.end, s.name)
                 for s in spans_of(second[name].document)]
            assert a == b

    def test_different_seeds_differ(self):
        a = generate_document(GeneratorConfig(n_words=80, seed=1))
        b = generate_document(GeneratorConfig(n_words=80, seed=2))
        assert a.text != b.text

    def test_all_hierarchies_present_and_aligned(self):
        document = generate_document(GeneratorConfig(n_words=60, seed=5))
        assert set(document.hierarchy_names) == {
            "structural", "physical", "damage", "restoration"}
        DomDocument.exported(document)  # every export spells the text

    def test_word_count_respected(self):
        document = generate_document(GeneratorConfig(n_words=60, seed=5))
        words = list(document["structural"].document.root
                     .iter_elements("w"))
        assert len(words) == 60

    def test_goddag_buildable(self):
        document = generate_document(GeneratorConfig(n_words=60, seed=5))
        goddag = KyGoddag.build(document)
        assert len(goddag.partition) > 60

    def test_hyphenation_creates_line_word_overlap(self):
        document = generate_document(GeneratorConfig(
            n_words=200, seed=9, hyphenation_rate=0.9))
        goddag = KyGoddag.build(document)
        from repro.core.goddag import evaluate_axis

        overlapping_words = [
            line for line in goddag.elements("line")
            if any(n.name == "w" for n in
                   evaluate_axis(goddag, "overlapping", line))
        ]
        assert overlapping_words

    def test_zero_rates_mean_no_feature_spans(self):
        document = generate_document(GeneratorConfig(
            n_words=50, seed=3, damage_rate=0.0, restoration_rate=0.0))
        assert not list(document["damage"].document.root
                        .iter_elements("dmg"))

    def test_damage_spans_present_at_positive_rate(self):
        document = generate_document(GeneratorConfig(
            n_words=200, seed=3, damage_rate=0.2))
        assert list(document["damage"].document.root
                    .iter_elements("dmg"))

    def test_pages_optional(self):
        document = generate_document(GeneratorConfig(
            n_words=120, seed=4, words_per_page=40))
        assert list(document["physical"].document.root
                    .iter_elements("page"))


class TestTeiFlavor:
    def test_renamed_elements(self):
        document = generate_tei_document(
            GeneratorConfig(n_words=60, seed=5, damage_rate=0.3))
        assert document.root_name == "TEI"
        structural = document["structural"].document
        assert list(structural.root.iter_elements("l"))
        damage = document["damage"].document
        assert list(damage.root.iter_elements("damage"))

    def test_alignment_preserved(self):
        document = generate_tei_document(GeneratorConfig(n_words=60,
                                                         seed=5))
        DomDocument.exported(document)  # every export spells the text
        KyGoddag.build(document)


class TestWordSource:
    def test_deterministic_stream(self):
        assert list(WordSource(1).words(10)) == list(WordSource(1).words(10))

    def test_words_nonempty(self):
        assert all(WordSource(2).words(200))

    def test_seed_words_appear(self):
        words = set(WordSource(3, seed_word_rate=1.0).words(50))
        from repro.corpus.vocabulary import SEED_WORDS

        assert words <= set(SEED_WORDS)
