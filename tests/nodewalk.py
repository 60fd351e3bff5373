"""The reference serializer: a recursive walk over node objects.

The package writes KyGODDAG elements from their component's columns
(``repro.core.goddag.render``, one row writer).  This module is what
that writer replaced — the direct transcription of "a node's subtree
within its hierarchy": ``node.children``, one call per node, every
character datum and attribute value escaped — kept here as the oracle
the row writer, ``serialize_each`` and ``serialize_items`` are
compared against byte for byte, and as the serializing half of the
reference side of the differential tests.  It imports nothing from
``repro.core.goddag.render`` or ``repro.core.runtime.serializer``.
"""

from __future__ import annotations

from typing import Any

from repro.markup import dom
from repro.markup.serializer import escape_attribute, escape_text, serialize
from repro.core.goddag.nodes import (
    GAttr,
    GComment,
    GElement,
    GLeaf,
    GNode,
    GPi,
    GRoot,
    GText,
)
from repro.core.runtime import values


def serialize_node(node: GNode, hierarchy: str | None = None) -> str:
    """A node's subtree as XML within its hierarchy (the root's within
    ``hierarchy``); text and leaf nodes as escaped character data."""
    out: list[str] = []
    _write(node, hierarchy, out)
    return "".join(out)


def _write(node: GNode, hierarchy: str | None, out: list[str]) -> None:
    if isinstance(node, GRoot):
        if hierarchy is None:
            raise ValueError(
                "serializing the shared root requires a hierarchy name")
        out.append(_start_tag(node.root_name, node.attributes_in(hierarchy),
                              empty=not node.children_in(hierarchy)))
        for child in node.children_in(hierarchy):
            _write(child, hierarchy, out)
        if node.children_in(hierarchy):
            out.append(f"</{node.root_name}>")
    elif isinstance(node, GElement):
        children = node.children
        out.append(_start_tag(node.name, node.attributes,
                              empty=not children))
        for child in children:
            _write(child, hierarchy, out)
        if children:
            out.append(f"</{node.name}>")
    elif isinstance(node, (GText, GLeaf)):
        out.append(escape_text(node.string_value()))
    elif isinstance(node, GComment):
        out.append(f"<!--{node.data}-->")
    elif isinstance(node, GPi):
        separator = " " if node.data else ""
        out.append(f"<?{node.target}{separator}{node.data}?>")
    else:
        raise ValueError(f"cannot serialize node kind {node.kind!r}")


def _start_tag(name: str, attributes, empty: bool) -> str:
    attrs = "".join(f' {key}="{escape_attribute(value)}"'
                    for key, value in attributes.items())
    return f"<{name}{attrs}/>" if empty else f"<{name}{attrs}>"


def serialize_item(item: Any) -> str:
    """One result item, item by item and node by node."""
    if isinstance(item, GAttr):
        return f'{item.name}="{escape_attribute(item.value)}"'
    if isinstance(item, GRoot):
        return "".join(serialize_node(item, hierarchy)
                       for hierarchy in item.components)
    if isinstance(item, GNode):
        return serialize_node(item)
    if isinstance(item, dom.Text):
        return escape_text(item.data)
    if isinstance(item, dom.Node):
        return serialize(item)
    return values.string_value(item)


def strings(items: list) -> list[str]:
    """Each item serialized on its own."""
    return [serialize_item(item) for item in items]


def serialize_items(items: list, mode: str = "paper") -> str:
    """A result sequence: items concatenated (``"paper"``), adjacent
    atomic values one space apart (``"xquery"``)."""
    parts: list[str] = []
    previous_atomic = False
    for item in items:
        atomic = not values.is_node(item)
        if mode == "xquery" and atomic and previous_atomic:
            parts.append(" ")
        parts.append(serialize_item(item))
        previous_atomic = atomic
    return "".join(parts)
