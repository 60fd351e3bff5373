"""Serialization of query results.

Two modes, reflecting the paper vs the XQuery recommendation:

* ``"paper"`` (default): items are concatenated with **no** separator.
  This is how the paper prints results — query I.1 returns the two
  line strings ``…sin`` and ``gallice…`` and displays
  ``…singallice…`` (the concatenation).
* ``"xquery"``: adjacent atomic values are separated by a single
  space, per the XSLT/XQuery serialization rules.

KyGODDAG elements serialize within their own hierarchy; leaves and
text nodes serialize as escaped character data; constructed DOM nodes
use the standard XML serializer.
"""

from __future__ import annotations

from typing import Any

from repro.markup import dom
from repro.markup.serializer import escape_attribute, escape_text, serialize
from repro.core.goddag.nodes import GAttr, GLeaf, GNode, GRoot, GText
from repro.core.goddag.render import serialize_node
from repro.core.runtime import values


def serialize_item(item: Any) -> str:
    """Serialize one result item to its textual form."""
    if isinstance(item, GAttr):
        return f'{item.name}="{escape_attribute(item.value)}"'
    if isinstance(item, (GText, GLeaf)):
        return escape_text(item.string_value())
    if isinstance(item, GRoot):
        parts = [serialize_node(item, hierarchy)
                 for hierarchy in item.components]
        return "".join(parts)
    if isinstance(item, GNode):
        return serialize_node(item)
    if isinstance(item, dom.Text):
        return escape_text(item.data)
    if isinstance(item, dom.Node):
        return serialize(item)
    return values.string_value(item)


def serialize_items(items: list, mode: str = "paper") -> str:
    """Serialize a result sequence; see module docstring for modes."""
    if mode not in ("paper", "xquery"):
        raise ValueError(f"unknown serialization mode {mode!r}")
    parts: list[str] = []
    previous_atomic = False
    for item in items:
        atomic = not values.is_node(item)
        if mode == "xquery" and atomic and previous_atomic:
            parts.append(" ")
        parts.append(serialize_item(item))
        previous_atomic = atomic
    return "".join(parts)
