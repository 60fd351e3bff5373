"""Rendering a KyGODDAG: XML per hierarchy, DOT, and a text outline.

``serialize_node`` regenerates the XML of any subtree within one
hierarchy component — this is how Example 1's
``<res><m>un<a>a</a>we</m>ndendne</res>`` is produced and how query
results containing KyGODDAG elements are printed.  ``to_dot`` and
``describe`` reproduce Figure 2 (the KyGODDAG of the Boethius sample)
as GraphViz input and as a human-readable outline.
"""

from __future__ import annotations

from repro.markup.serializer import escape_attribute, escape_text
from repro.core.goddag.goddag import KyGoddag
from repro.core.goddag.nodes import (
    GComment,
    GElement,
    GLeaf,
    GNode,
    GPi,
    GRoot,
    GText,
)


def serialize_node(node: GNode, hierarchy: str | None = None) -> str:
    """Serialize a node's subtree back to XML within its hierarchy.

    For the root, ``hierarchy`` selects which component to serialize
    (all components share the root's tag).  Text and leaf nodes
    serialize to their escaped character data.
    """
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
    else:  # pragma: no cover - attributes handled by callers
        raise ValueError(f"cannot serialize node kind {node.kind!r}")


def _start_tag(name: str, attributes: dict[str, str], empty: bool) -> str:
    # most elements have none, and share one read-only empty mapping
    attrs = "".join(f' {key}="{escape_attribute(value)}"'
                    for key, value in attributes.items()
                    ) if attributes else ""
    return f"<{name}{attrs}/>" if empty else f"<{name}{attrs}>"


def to_dot(goddag: KyGoddag) -> str:
    """GraphViz DOT source for the whole KyGODDAG (Figure 2 style).

    Element nodes are labeled ``name`` followed by their 1-based index
    among same-named elements (``dmg1``, ``dmg2``); text nodes are
    ``t1, t2, …`` in document order; leaves are numbered boxes.
    """
    labels = _node_labels(goddag)
    lines = ["digraph kygoddag {", "  rankdir=TB;",
             '  node [fontname="Helvetica"];']
    lines.append(f'  n{id(goddag.root)} [label="{goddag.root.root_name}" '
                 f"shape=ellipse];")
    for name in goddag.hierarchy_names:
        lines.append(f"  subgraph cluster_{_dot_id(name)} {{")
        lines.append(f'    label="{name}";')
        for node in goddag.nodes_of(name):
            shape = "ellipse" if isinstance(node, GElement) else "plaintext"
            lines.append(f'    n{id(node)} [label="{labels[id(node)]}" '
                         f"shape={shape}];")
        lines.append("  }")
    for leaf in goddag.leaves():
        lines.append(f'  n{id(leaf)} [label="{labels[id(leaf)]}" '
                     f"shape=box];")
    for name in goddag.hierarchy_names:
        for top in goddag.root_children(name):
            lines.append(f"  n{id(goddag.root)} -> n{id(top)};")
        for node in goddag.nodes_of(name):
            if isinstance(node, GElement):
                for child in node.children:
                    lines.append(f"  n{id(node)} -> n{id(child)};")
            elif isinstance(node, GText):
                for leaf in goddag.partition.leaves_in(node.start, node.end):
                    lines.append(f"  n{id(node)} -> n{id(leaf)};")
    lines.append("}")
    return "\n".join(lines)


def describe(goddag: KyGoddag) -> str:
    """A text outline of the KyGODDAG: components, spans, and leaves."""
    labels = _node_labels(goddag)
    lines = [f"KyGODDAG over {len(goddag.text)} characters, "
             f"{len(goddag.hierarchy_names)} hierarchies, "
             f"{len(goddag.partition)} leaves"]
    for name in goddag.hierarchy_names:
        flag = " (temporary)" if goddag.is_temporary(name) else ""
        lines.append(f"hierarchy {name}{flag}:")
        for node in goddag.nodes_of(name):
            depth = _depth(node, goddag)
            label = labels[id(node)]
            lines.append(f"{'  ' * depth}{label} "
                         f"[{node.start},{node.end})")
    lines.append("leaves:")
    for index, leaf in enumerate(goddag.leaves(), start=1):
        lines.append(f"  {index}: [{leaf.start},{leaf.end}) {leaf.text!r}")
    return "\n".join(lines)


def _node_labels(goddag: KyGoddag) -> dict[int, str]:
    """Figure 2 style labels: dmg1, dmg2, …, t1, t2, …, leaf numbers."""
    labels: dict[int, str] = {id(goddag.root): goddag.root.root_name}
    name_counters: dict[str, int] = {}
    text_counter = 0
    for name in goddag.hierarchy_names:
        for node in goddag.nodes_of(name):
            if isinstance(node, GElement):
                count = name_counters.get(node.name, 0) + 1
                name_counters[node.name] = count
                labels[id(node)] = f"{node.name}{count}"
            elif isinstance(node, GText):
                text_counter += 1
                labels[id(node)] = f"t{text_counter}"
            else:
                labels[id(node)] = node.kind
    for index, leaf in enumerate(goddag.leaves(), start=1):
        labels[id(leaf)] = str(index)
    return labels


def _depth(node: GNode, goddag: KyGoddag) -> int:
    depth = 1
    current = node.parent
    while current is not None and current is not goddag.root:
        depth += 1
        current = current.parent
    return depth


def _dot_id(name: str) -> str:
    return "".join(char if char.isalnum() else "_" for char in name)
