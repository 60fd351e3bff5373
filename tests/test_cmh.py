"""Tests for concurrent markup hierarchies and aligned documents."""

from __future__ import annotations

import pytest

from repro.errors import AlignmentError, CMHError, ValidationError
from repro.cmh import (
    ConcurrentMarkupHierarchy,
    Hierarchy,
    MultihierarchicalDocument,
)
from repro.markup import parse
from repro.corpus.boethius import DTD_SOURCES


class TestCMHSchema:
    def test_valid_cmh(self):
        cmh = ConcurrentMarkupHierarchy.from_sources("r", DTD_SOURCES)
        assert set(cmh.hierarchy_names) == set(DTD_SOURCES)
        assert cmh.root == "r"

    def test_root_must_be_declared_everywhere(self):
        with pytest.raises(CMHError, match="does not declare"):
            ConcurrentMarkupHierarchy.from_sources("r", {
                "a": "<!ELEMENT r (x*)> <!ELEMENT x EMPTY>",
                "b": "<!ELEMENT other EMPTY>",
            })

    def test_non_root_sharing_rejected(self):
        with pytest.raises(CMHError, match="only the root"):
            ConcurrentMarkupHierarchy.from_sources("r", {
                "a": "<!ELEMENT r (x*)> <!ELEMENT x EMPTY>",
                "b": "<!ELEMENT r (x*)> <!ELEMENT x EMPTY>",
            })

    def test_unreachable_elements_rejected(self):
        with pytest.raises(CMHError, match="not reachable"):
            ConcurrentMarkupHierarchy.from_sources("r", {
                "a": "<!ELEMENT r (x*)> <!ELEMENT x EMPTY>"
                     "<!ELEMENT island EMPTY>",
            })

    def test_empty_cmh_rejected(self):
        with pytest.raises(CMHError, match="at least one"):
            ConcurrentMarkupHierarchy("r", {})

    def test_hierarchy_of_element(self):
        cmh = ConcurrentMarkupHierarchy.from_sources("r", DTD_SOURCES)
        assert cmh.hierarchy_of_element("dmg") == "damage"
        assert cmh.hierarchy_of_element("w") == "structural"
        assert cmh.hierarchy_of_element("r") is None
        assert cmh.hierarchy_of_element("nope") is None

    def test_elements_of(self):
        cmh = ConcurrentMarkupHierarchy.from_sources("r", DTD_SOURCES)
        assert cmh.elements_of("damage") == {"r", "dmg"}


class TestMultihierarchicalDocument:
    def test_from_xml_alignment(self, base_text, encodings):
        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        assert document.hierarchy_names == list(encodings)
        assert document.root_name == "r"
        # Every text node carries its span after alignment.
        for hierarchy in document.hierarchies.values():
            for text in hierarchy.document.root.iter_text():
                assert text.start is not None
                assert base_text[text.start:text.end] == text.data

    def test_misaligned_content_rejected(self):
        with pytest.raises(AlignmentError) as info:
            MultihierarchicalDocument.from_xml("abc", {"h": "<r>abX</r>"})
        assert info.value.offset == 2
        assert info.value.hierarchy == "h"

    def test_short_content_rejected(self):
        with pytest.raises(AlignmentError, match="covers only"):
            MultihierarchicalDocument.from_xml("abcdef", {"h": "<r>abc</r>"})

    def test_duplicate_hierarchy_rejected(self, base_text, encodings):
        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        with pytest.raises(CMHError, match="duplicate"):
            document.add_hierarchy(
                Hierarchy("physical", parse(encodings["physical"])))

    def test_mismatched_root_rejected(self, base_text, encodings):
        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        spaces = " " * len(base_text)
        bad = Hierarchy("other", parse(f"<other>{base_text}</other>"))
        with pytest.raises(CMHError, match="root"):
            document.add_hierarchy(bad)
        del spaces

    def test_remove_hierarchy(self, base_text, encodings):
        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        document.remove_hierarchy("damage")
        assert "damage" not in document
        with pytest.raises(CMHError):
            document.remove_hierarchy("damage")

    def test_container_protocol(self, base_text, encodings):
        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        assert len(document) == 4
        assert "physical" in document
        assert document["physical"].name == "physical"

    def test_attach_cmh_validates(self, base_text, encodings):
        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        cmh = ConcurrentMarkupHierarchy.from_sources("r", DTD_SOURCES)
        document.attach_cmh(cmh)
        assert document.cmh is cmh

    def test_attach_cmh_missing_hierarchy(self, base_text, encodings):
        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        partial = {k: v for k, v in DTD_SOURCES.items() if k != "damage"}
        cmh = ConcurrentMarkupHierarchy.from_sources("r", partial)
        with pytest.raises(CMHError, match="no DTD"):
            document.attach_cmh(cmh)

    def test_attach_cmh_invalid_content(self, base_text):
        document = MultihierarchicalDocument.from_xml(
            base_text, {"physical": f"<r>{base_text}</r>"})
        cmh = ConcurrentMarkupHierarchy.from_sources(
            "r", {"physical": DTD_SOURCES["physical"]})
        with pytest.raises(ValidationError, match="physical"):
            document.attach_cmh(cmh)

    def test_a_hand_edited_export_changes_nothing(self, base_text,
                                                  encodings, tmp_path):
        """A hierarchy's DOM is an export: editing one — its text, an
        element's name — reaches neither the document, nor an engine
        over it, nor what it serializes or saves."""
        from repro.api import Engine, load_mhx, save_mhx

        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        control = MultihierarchicalDocument.from_xml(base_text, encodings)
        engine, control_engine = Engine(document), Engine(control)
        export = document["physical"].document
        first_text = next(export.root.iter_text())
        first_text.data = "CORRUPTED" + first_text.data
        next(document["structural"].root.iter_elements("w")).name = "word"

        def state(of: MultihierarchicalDocument) -> tuple:
            return of.text, {name: hierarchy.to_xml()
                             for name, hierarchy in of.hierarchies.items()}

        assert state(document) == state(control)
        save_mhx(document, tmp_path / "edited.mhx")
        save_mhx(control, tmp_path / "control.mhx")
        assert (tmp_path / "edited.mhx").read_bytes() == \
            (tmp_path / "control.mhx").read_bytes()
        assert state(load_mhx(tmp_path / "edited.mhx")) == state(control)
        query = "for $w in /descendant::w return string($w)"
        assert Engine(document).query(query).items == \
            Engine(control).query(query).items
        for one in (engine, control_engine):
            one.update('rename node (/descendant::w)[1] as "first"')
            one.update('insert node <w>eac</w> after (/descendant::w)[2]')
        assert state(document) == state(control)
        assert engine.query(query).items == \
            control_engine.query(query).items

    def test_hierarchy_to_xml(self, base_text, encodings):
        document = MultihierarchicalDocument.from_xml(base_text, encodings)
        assert "<line>" in document["physical"].to_xml()

    def test_empty_document_root_name_raises(self):
        with pytest.raises(CMHError):
            MultihierarchicalDocument("x").root_name
