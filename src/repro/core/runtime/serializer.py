"""Serialization of query results.

Two modes, reflecting the paper vs the XQuery recommendation:

* ``"paper"`` (default): items are concatenated with **no** separator.
  This is how the paper prints results — query I.1 returns the two
  line strings ``…sin`` and ``gallice…`` and displays
  ``…singallice…`` (the concatenation).
* ``"xquery"``: adjacent atomic values are separated by a single
  space, per the XSLT/XQuery serialization rules.

KyGODDAG elements serialize within their own hierarchy, a run of
consecutive elements of one hierarchy in one call of the row writer
(:func:`repro.core.goddag.render.element_xml`); leaves and text nodes
serialize as escaped character data, a run of them over adjacent spans
of one base text as one slice; constructed DOM nodes use the standard
XML serializer.
"""

from __future__ import annotations

from typing import Any

from repro.markup import dom
from repro.markup.serializer import escape_attribute, escape_text, serialize
from repro.core.goddag.nodes import GAttr, GElement, GLeaf, GNode, GRoot, GText
from repro.core.goddag.render import element_xml, root_xml, serialize_node
from repro.core.runtime import values


def serialize_item(item: Any) -> str:
    """Serialize one result item to its textual form."""
    if isinstance(item, GAttr):
        return f'{item.name}="{escape_attribute(item.value)}"'
    if isinstance(item, (GText, GLeaf)):
        return escape_text(item.string_value())
    if isinstance(item, GRoot):
        return "".join(root_xml(item, hierarchy)
                       for hierarchy in item.components)
    if isinstance(item, GNode):
        return serialize_node(item)
    if isinstance(item, dom.Text):
        return escape_text(item.data)
    if isinstance(item, dom.Node):
        return serialize(item)
    return values.string_value(item)


def serialize_each(items: list) -> list[str]:
    """Each item serialized on its own, as :func:`serialize_item` would:
    a run of consecutive elements of one hierarchy in one call of the
    row writer."""
    out: list[str] = []
    index, count = 0, len(items)
    while index < count:
        item = items[index]
        if item.__class__ is GElement:
            strings, index = _element_run(items, index)
            out += strings
        else:
            out.append(serialize_item(item))
            index += 1
    return out


def serialize_items(items: list, mode: str = "paper") -> str:
    """Serialize a result sequence; see module docstring for modes."""
    if mode not in ("paper", "xquery"):
        raise ValueError(f"unknown serialization mode {mode!r}")
    spaced = mode == "xquery"
    parts: list[str] = []
    previous_atomic = False
    index, count = 0, len(items)
    while index < count:
        item = items[index]
        kind = item.__class__
        if kind is GElement:
            strings, stop = _element_run(items, index)
            parts += strings
            previous_atomic = False
        elif kind is GLeaf or kind is GText:
            # character data over adjacent spans of one text: one slice
            text, start, end = item._text, item.start, item.end
            stop = index + 1
            while stop < count:
                following = items[stop]
                if (following.__class__ is not GLeaf
                        and following.__class__ is not GText) \
                        or following._text is not text \
                        or following.start != end:
                    break
                end = following.end
                stop += 1
            parts.append(escape_text(text[start:end]))
            previous_atomic = False
        else:
            atomic = not values.is_node(item)
            if spaced and atomic and previous_atomic:
                parts.append(" ")
            parts.append(serialize_item(item))
            previous_atomic = atomic
            stop = index + 1
        index = stop
    return "".join(parts)


def _element_run(items: list, index: int) -> tuple[list[str], int]:
    """The XML of the run of elements of one hierarchy that starts at
    ``items[index]``, one string per element, and where the run ends:
    at the first item that is no element or is another hierarchy's."""
    component = items[index]._component
    stop, count = index + 1, len(items)
    while stop < count:
        item = items[stop]
        if item.__class__ is not GElement or item._component is not component:
            break
        stop += 1
    return element_xml(component, [node.preorder
                                   for node in items[index:stop]]), stop
