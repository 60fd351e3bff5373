"""Unit tests for the from-scratch XML parser."""

from __future__ import annotations

import pytest

from repro.errors import MarkupError
from repro.markup import (
    Comment,
    Element,
    ProcessingInstruction,
    Text,
    parse,
    parse_fragment,
    serialize,
)


class TestBasicParsing:
    def test_single_empty_element(self):
        doc = parse("<a/>")
        assert doc.root.name == "a"
        assert doc.root.children == []

    def test_element_with_text(self):
        doc = parse("<a>hello</a>")
        assert doc.root.text_content() == "hello"

    def test_nested_elements(self):
        doc = parse("<a><b><c>x</c></b>y</a>")
        assert doc.root.find("c").text_content() == "x"
        assert doc.root.text_content() == "xy"

    def test_mixed_content_order(self):
        doc = parse("<a>one<b/>two<c/>three</a>")
        kinds = [type(child).__name__ for child in doc.root.children]
        assert kinds == ["Text", "Element", "Text", "Element", "Text"]

    def test_attributes(self):
        doc = parse('<a x="1" y="two"/>')
        assert doc.root.attributes == {"x": "1", "y": "two"}

    def test_single_quoted_attributes(self):
        doc = parse("<a x='1'/>")
        assert doc.root.get("x") == "1"

    def test_attribute_whitespace_normalization(self):
        doc = parse('<a x="a\n\tb"/>')
        assert doc.root.get("x") == "a  b"

    def test_unicode_names_and_content(self):
        doc = parse("<ϸorn>ϸa</ϸorn>")
        assert doc.root.name == "ϸorn"
        assert doc.root.text_content() == "ϸa"

    def test_whitespace_only_document_text_preserved(self):
        doc = parse("<a>  <b/>  </a>")
        assert doc.root.text_content() == "    "

    def test_crlf_normalized_to_lf(self):
        doc = parse("<a>x\r\ny\rz</a>")
        assert doc.root.text_content() == "x\ny\nz"


class TestReferences:
    def test_predefined_entities(self):
        doc = parse("<a>&lt;&gt;&amp;&apos;&quot;</a>")
        assert doc.root.text_content() == "<>&'\""

    def test_decimal_character_reference(self):
        assert parse("<a>&#65;</a>").root.text_content() == "A"

    def test_hex_character_reference(self):
        assert parse("<a>&#x3F8;</a>").root.text_content() == "ϸ"

    def test_entity_in_attribute(self):
        doc = parse('<a x="&amp;&#65;"/>')
        assert doc.root.get("x") == "&A"

    def test_internal_entity_declaration(self):
        doc = parse('<!DOCTYPE a [<!ENTITY e "xy">]><a>&e;</a>')
        assert doc.root.text_content() == "xy"

    def test_nested_entity_expansion(self):
        doc = parse('<!DOCTYPE a [<!ENTITY i "x">'
                    '<!ENTITY o "&i;&i;">]><a>&o;</a>')
        assert doc.root.text_content() == "xx"

    def test_recursive_entity_rejected(self):
        with pytest.raises(MarkupError, match="recursive"):
            parse('<!DOCTYPE a [<!ENTITY e "&e;">]><a>&e;</a>')

    def test_undeclared_entity_rejected(self):
        with pytest.raises(MarkupError, match="undeclared"):
            parse("<a>&nope;</a>")

    def test_bad_character_reference_rejected(self):
        with pytest.raises(MarkupError, match="character reference"):
            parse("<a>&#xZZ;</a>")

    def test_null_character_reference_rejected(self):
        with pytest.raises(MarkupError, match="not a legal XML character"):
            parse("<a>&#0;</a>")


class TestMarkupConstructs:
    def test_comment(self):
        doc = parse("<a><!-- note --></a>")
        comment = doc.root.children[0]
        assert isinstance(comment, Comment)
        assert comment.data == " note "

    def test_comment_excluded_from_text(self):
        assert parse("<a>x<!--c-->y</a>").root.text_content() == "xy"

    def test_cdata(self):
        doc = parse("<a><![CDATA[<not-markup> & ]]></a>")
        assert doc.root.text_content() == "<not-markup> & "

    def test_processing_instruction(self):
        doc = parse('<a><?target data="1"?></a>')
        pi = doc.root.children[0]
        assert isinstance(pi, ProcessingInstruction)
        assert pi.target == "target"
        assert pi.data == 'data="1"'

    def test_pi_without_data(self):
        pi = parse("<a><?stop?></a>").root.children[0]
        assert pi.target == "stop"
        assert pi.data == ""

    def test_xml_declaration_skipped(self):
        doc = parse('<?xml version="1.0" encoding="utf-8"?><a/>')
        assert doc.root.name == "a"

    def test_doctype_name_recorded(self):
        doc = parse("<!DOCTYPE root><root/>")
        assert doc.doctype_name == "root"

    def test_doctype_with_system_id(self):
        doc = parse('<!DOCTYPE r SYSTEM "file.dtd"><r/>')
        assert doc.doctype_name == "r"

    def test_prolog_comment_and_pi(self):
        doc = parse("<!--c--><?pi?><a/><!--after-->")
        kinds = [type(child).__name__ for child in doc.children]
        assert kinds == ["Comment", "ProcessingInstruction", "Element",
                         "Comment"]


class TestWellFormednessErrors:
    @pytest.mark.parametrize("source", [
        "<a>",
        "<a><b></a></b>",
        "<a></b>",
        "<a/><b/>",
        "text only",
        "<a x='1' x='2'/>",
        "<a x=1/>",
        "<a ]]></a>",
        "<a>x]]>y</a>",
        "<a>&amp</a>",
        "<1bad/>",
        "<a><!-- -- --></a>",
        "<a><!--x---></a>",
        "<a><!----->x</a>",
        '<a x="<"/>',
        "<a>x</a>trailing",
    ])
    def test_rejected(self, source):
        with pytest.raises(MarkupError):
            parse(source)

    def test_error_carries_position(self):
        with pytest.raises(MarkupError) as info:
            parse("<a>\n  <b></c>\n</a>")
        assert info.value.line == 2
        assert "does not match" in str(info.value)

    def test_comment_ending_in_a_dash_is_rejected_where_it_opens(self):
        # XML 1.0 production [15]: "--->" does not close a comment
        with pytest.raises(MarkupError) as info:
            parse("<d>a\n b<!--x--->b</d>")
        assert (info.value.line, info.value.column) == (2, 3)
        assert "'--->'" in str(info.value)

    def test_mismatch_mentions_open_position(self):
        with pytest.raises(MarkupError, match="line 1"):
            parse("<a></b>")


class TestFragments:
    def test_multiple_roots(self):
        nodes = parse_fragment("<a/>text<b/>")
        assert [type(n).__name__ for n in nodes] == ["Element", "Text",
                                                     "Element"]

    def test_plain_text_fragment(self):
        nodes = parse_fragment("just text")
        assert isinstance(nodes[0], Text)
        assert nodes[0].data == "just text"

    def test_stray_end_tag_rejected(self):
        with pytest.raises(MarkupError, match="end tag"):
            parse_fragment("</a>")


class TestRoundTrip:
    @pytest.mark.parametrize("source", [
        "<a/>",
        '<a x="1"><b>text</b><c/>tail</a>',
        "<a>&lt;escaped&gt; &amp; fine</a>",
        "<r><w>gesceaftum</w> <w>ϸa</w></r>",
    ])
    def test_parse_serialize_fixpoint(self, source):
        once = serialize(parse(source))
        assert serialize(parse(once)) == once
