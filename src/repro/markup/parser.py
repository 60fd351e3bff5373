"""A from-scratch, well-formedness-checking XML parser.

The parser is a single-pass recursive-descent scanner producing the DOM
of :mod:`repro.markup.dom`.  It supports the subset of XML 1.0 that
document-centric markup uses in practice:

* elements, attributes (with value normalization), empty-element tags;
* character data, CDATA sections, comments, processing instructions;
* the five predefined entities, character references, and internal
  general entities declared in a DOCTYPE internal subset;
* an XML declaration and a DOCTYPE declaration whose internal subset is
  handed to :mod:`repro.markup.dtd`.

Well-formedness violations raise :class:`~repro.errors.MarkupError`
with 1-based line/column positions.
"""

from __future__ import annotations

from repro.errors import MarkupError
from repro.markup import dom
from repro.markup.entities import EntityTable, decode_char_reference

_NAME_START_EXTRA = set(":_")
_NAME_EXTRA = set(":_-.·")


def _is_name_start(char: str) -> bool:
    """True for characters that may begin an XML name."""
    return char.isalpha() or char in _NAME_START_EXTRA or ord(char) > 0x7F


def _is_name_char(char: str) -> bool:
    """True for characters that may continue an XML name."""
    return (char.isalnum() or char in _NAME_EXTRA or ord(char) > 0x7F)


def is_valid_name(name: str) -> bool:
    """True when ``name`` is a legal XML name."""
    if not name:
        return False
    if not _is_name_start(name[0]):
        return False
    return all(_is_name_char(char) for char in name[1:])


class _Scanner:
    """Character scanner with line/column tracking."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.line = 1
        self.column = 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self, offset: int = 0) -> str:
        index = self.pos + offset
        return self.text[index] if index < len(self.text) else ""

    def startswith(self, literal: str) -> bool:
        return self.text.startswith(literal, self.pos)

    def advance(self, count: int = 1) -> str:
        """Consume ``count`` characters, maintaining line/column."""
        chunk = self.text[self.pos:self.pos + count]
        for char in chunk:
            if char == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
        self.pos += count
        return chunk

    def expect(self, literal: str, what: str | None = None) -> None:
        if not self.startswith(literal):
            found = self.peek() or "end of input"
            raise self.error(
                f"expected {what or literal!r}, found {found!r}")
        self.advance(len(literal))

    def consume_until(self, terminator: str, what: str) -> str:
        """Consume characters up to ``terminator`` (also consumed)."""
        index = self.text.find(terminator, self.pos)
        if index == -1:
            raise self.error(f"unterminated {what}")
        chunk = self.text[self.pos:index]
        self.advance(len(chunk) + len(terminator))
        return chunk

    def skip_whitespace(self) -> bool:
        """Skip XML whitespace; True when at least one char was skipped."""
        start = self.pos
        while not self.at_end() and self.peek() in " \t\r\n":
            self.advance()
        return self.pos > start

    def read_name(self, what: str = "name") -> str:
        if self.at_end() or not _is_name_start(self.peek()):
            found = self.peek() or "end of input"
            raise self.error(f"expected {what}, found {found!r}")
        start = self.pos
        self.advance()
        while not self.at_end() and _is_name_char(self.peek()):
            self.advance()
        return self.text[start:self.pos]

    def error(self, message: str) -> MarkupError:
        return MarkupError(message, self.line, self.column)


class XMLParser:
    """Parses a complete XML document into a :class:`Document`."""

    def __init__(self, text: str) -> None:
        if text.startswith("﻿"):
            text = text[1:]
        self.scanner = _Scanner(text)
        self.entities = EntityTable()

    # -- public API ---------------------------------------------------------

    def parse_document(self) -> dom.Document:
        """Parse and return the document; raises on any WF violation."""
        scanner = self.scanner
        document = dom.Document()
        self._parse_prolog(document)
        if scanner.at_end() or scanner.peek() != "<":
            raise scanner.error("expected document element")
        root = self._parse_element()
        document.append(root)
        self._parse_misc(document)
        if not scanner.at_end():
            raise scanner.error(
                "content after the document element is not allowed")
        return document

    def parse_fragment(self) -> list[dom.Node]:
        """Parse mixed content without the single-root constraint."""
        nodes: list[dom.Node] = []
        scanner = self.scanner
        while not scanner.at_end():
            if scanner.startswith("</"):
                raise scanner.error("unexpected end tag in fragment")
            if scanner.peek() == "<":
                nodes.append(self._parse_markup())
            else:
                text = self._parse_char_data()
                if text.data:
                    nodes.append(text)
        return nodes

    # -- prolog / misc --------------------------------------------------------

    def _parse_prolog(self, document: dom.Document) -> None:
        scanner = self.scanner
        if scanner.startswith("<?xml") and scanner.peek(5) in " \t\r\n":
            scanner.consume_until("?>", "XML declaration")
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("<!--"):
                document.append(self._parse_comment())
            elif scanner.startswith("<?"):
                document.append(self._parse_pi())
            elif scanner.startswith("<!DOCTYPE"):
                self._parse_doctype(document)
            else:
                return

    def _parse_misc(self, document: dom.Document) -> None:
        scanner = self.scanner
        while True:
            scanner.skip_whitespace()
            if scanner.startswith("<!--"):
                document.append(self._parse_comment())
            elif scanner.startswith("<?"):
                document.append(self._parse_pi())
            else:
                return

    def _parse_doctype(self, document: dom.Document) -> None:
        scanner = self.scanner
        scanner.expect("<!DOCTYPE")
        scanner.skip_whitespace()
        document.doctype_name = scanner.read_name("doctype name")
        scanner.skip_whitespace()
        # External ID (SYSTEM/PUBLIC): recorded but never fetched.
        if scanner.startswith("SYSTEM") or scanner.startswith("PUBLIC"):
            keyword = scanner.advance(6)
            scanner.skip_whitespace()
            self._read_quoted("external identifier")
            if keyword == "PUBLIC":
                scanner.skip_whitespace()
                self._read_quoted("system identifier")
            scanner.skip_whitespace()
        if scanner.peek() == "[":
            subset = self._scan_internal_subset()
            # Deferred import: dtd depends on this module's name checks.
            from repro.markup.dtd import parse_dtd

            document.dtd = parse_dtd(subset)
            for name, value in document.dtd.general_entities.items():
                self.entities.declare(name, value)
        scanner.skip_whitespace()
        scanner.expect(">", "'>' closing DOCTYPE")

    def _scan_internal_subset(self) -> str:
        """Consume ``[...]`` verbatim, honoring quotes and comments."""
        scanner = self.scanner
        scanner.expect("[")
        start = scanner.pos
        while not scanner.at_end():
            char = scanner.peek()
            if char == "]":
                subset = scanner.text[start:scanner.pos]
                scanner.advance()
                return subset
            if char in "\"'":
                quote = scanner.advance()
                scanner.consume_until(quote, "quoted literal in DTD")
            elif scanner.startswith("<!--"):
                scanner.advance(4)
                scanner.consume_until("-->", "comment in DTD")
            else:
                scanner.advance()
        raise scanner.error("unterminated DOCTYPE internal subset")

    def _read_quoted(self, what: str) -> str:
        scanner = self.scanner
        quote = scanner.peek()
        if quote not in "\"'":
            raise scanner.error(f"expected quoted {what}")
        scanner.advance()
        return scanner.consume_until(quote, what)

    # -- element content ------------------------------------------------------

    def _parse_element(self) -> dom.Element:
        scanner = self.scanner
        line, column = scanner.line, scanner.column
        scanner.expect("<")
        name = scanner.read_name("element name")
        element = dom.Element(name)
        element.line, element.column = line, column
        self._parse_attributes(element)
        if scanner.startswith("/>"):
            scanner.advance(2)
            return element
        scanner.expect(">", "'>' closing start tag")
        self._parse_content(element)
        # _parse_content consumed "</"; match the end-tag name.
        end_line, end_column = scanner.line, scanner.column
        end_name = scanner.read_name("end tag name")
        if end_name != name:
            raise MarkupError(
                f"end tag '</{end_name}>' does not match start tag "
                f"'<{name}>' opened at line {line}, column {column}",
                end_line, end_column)
        scanner.skip_whitespace()
        scanner.expect(">", "'>' closing end tag")
        return element

    def _parse_attributes(self, element: dom.Element) -> None:
        scanner = self.scanner
        while True:
            had_space = scanner.skip_whitespace()
            char = scanner.peek()
            if char in (">", "/") or scanner.at_end():
                return
            if not had_space:
                raise scanner.error("expected whitespace before attribute")
            name = scanner.read_name("attribute name")
            if name in element.attributes:
                raise scanner.error(
                    f"duplicate attribute '{name}' on element "
                    f"'{element.name}'")
            scanner.skip_whitespace()
            scanner.expect("=", "'=' after attribute name")
            scanner.skip_whitespace()
            element.attributes[name] = self._parse_attribute_value()

    def _parse_attribute_value(self) -> str:
        scanner = self.scanner
        quote = scanner.peek()
        if quote not in "\"'":
            raise scanner.error("attribute value must be quoted")
        scanner.advance()
        out: list[str] = []
        while True:
            if scanner.at_end():
                raise scanner.error("unterminated attribute value")
            char = scanner.peek()
            if char == quote:
                scanner.advance()
                return "".join(out)
            if char == "<":
                raise scanner.error("'<' is not allowed in attribute values")
            if char == "&":
                out.append(self._parse_reference())
            elif char in "\t\r\n":
                # Attribute-value normalization: whitespace to space.
                scanner.advance()
                out.append(" ")
            else:
                out.append(scanner.advance())

    def _parse_content(self, element: dom.Element) -> None:
        """Parse mixed content until the matching ``</`` is consumed."""
        scanner = self.scanner
        while True:
            if scanner.at_end():
                raise scanner.error(
                    f"unexpected end of input inside element "
                    f"'{element.name}'")
            if scanner.startswith("</"):
                scanner.advance(2)
                return
            if scanner.peek() == "<":
                element.append(self._parse_markup())
            else:
                text = self._parse_char_data()
                if text.data:
                    element.append(text)

    def _parse_markup(self) -> dom.Node:
        scanner = self.scanner
        if scanner.startswith("<!--"):
            return self._parse_comment()
        if scanner.startswith("<![CDATA["):
            return self._parse_cdata()
        if scanner.startswith("<?"):
            return self._parse_pi()
        if scanner.startswith("<!"):
            raise scanner.error("unexpected markup declaration in content")
        return self._parse_element()

    def _parse_char_data(self) -> dom.Text:
        scanner = self.scanner
        line, column = scanner.line, scanner.column
        out: list[str] = []
        while not scanner.at_end():
            char = scanner.peek()
            if char == "<":
                break
            if char == "&":
                out.append(self._parse_reference())
            elif char == "]" and scanner.startswith("]]>"):
                raise scanner.error("']]>' is not allowed in content")
            elif char == "\r":
                # Line-end normalization: CRLF / CR to LF.
                scanner.advance()
                if scanner.peek() == "\n":
                    scanner.advance()
                out.append("\n")
            else:
                out.append(scanner.advance())
        text = dom.Text("".join(out))
        text.line, text.column = line, column
        return text

    def _parse_reference(self) -> str:
        scanner = self.scanner
        line, column = scanner.line, scanner.column
        scanner.expect("&")
        if scanner.peek() == "#":
            scanner.advance()
            body = scanner.consume_until(";", "character reference")
            return decode_char_reference(body, line, column)
        name = scanner.read_name("entity name")
        scanner.expect(";", "';' closing entity reference")
        return self.entities.resolve(name, line, column)

    def _parse_comment(self) -> dom.Comment:
        scanner = self.scanner
        line, column = scanner.line, scanner.column
        scanner.expect("<!--")
        data = scanner.consume_until("-->", "comment")
        if "--" in data:
            raise MarkupError("'--' is not allowed inside comments",
                              line, column)
        if data.endswith("-"):
            raise MarkupError("a comment may not end in '--->'",
                              line, column)
        comment = dom.Comment(data)
        comment.line, comment.column = line, column
        return comment

    def _parse_cdata(self) -> dom.Text:
        scanner = self.scanner
        line, column = scanner.line, scanner.column
        scanner.expect("<![CDATA[")
        data = scanner.consume_until("]]>", "CDATA section")
        text = dom.Text(data)
        text.line, text.column = line, column
        return text

    def _parse_pi(self) -> dom.ProcessingInstruction:
        scanner = self.scanner
        line, column = scanner.line, scanner.column
        scanner.expect("<?")
        target = scanner.read_name("processing instruction target")
        if target.lower() == "xml":
            raise MarkupError("'<?xml' is only allowed at the document start",
                              line, column)
        data = ""
        if scanner.skip_whitespace():
            data = scanner.consume_until("?>", "processing instruction")
        else:
            scanner.expect("?>", "'?>' closing processing instruction")
        pi = dom.ProcessingInstruction(target, data)
        pi.line, pi.column = line, column
        return pi


def parse(text: str) -> dom.Document:
    """Parse a complete XML document string into a :class:`Document`."""
    return XMLParser(text).parse_document()


def parse_fragment(text: str) -> list[dom.Node]:
    """Parse an XML fragment (mixed content, any number of roots)."""
    return XMLParser(text).parse_fragment()
