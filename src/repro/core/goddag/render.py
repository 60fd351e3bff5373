"""Rendering a KyGODDAG: XML per hierarchy, DOT, and a text outline.

The XML of KyGODDAG elements is written from their component's columns
by one row writer (:func:`element_xml`, DESIGN.md §11 *Serialization
from rows*): a run of element rows of one hierarchy in one call, with
no node object made or read.  This is how Example 1's
``<res><m>un<a>a</a>we</m>ndendne</res>`` is produced, how query
results holding KyGODDAG elements are printed
(:mod:`repro.core.runtime.serializer`), and how a hierarchy is written
back as an XML source (:func:`hierarchy_xml`).  ``serialize_node`` is
the one-node form.  ``to_dot`` and ``describe`` reproduce Figure 2
(the KyGODDAG of the Boethius sample) as GraphViz input and as a
human-readable outline.
"""

from __future__ import annotations

import numpy as np

from repro.markup.serializer import escape_attribute, escape_text
from repro.core.goddag.goddag import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_TEXT,
    KyGoddag,
    _HierarchyComponent,
)
from repro.core.goddag.nodes import (
    GComment,
    GElement,
    GLeaf,
    GNode,
    GPi,
    GRoot,
    GText,
)

#: runs shorter than this are written off the columns' scalars, with no
#: NumPy set-up: the gathers of the vectorised path pay for themselves
#: from about 16 rows, and at 25 (a server page) the two paths are
#: within a few microseconds of each other
SMALL_RUN = 32


def serialize_node(node: GNode, hierarchy: str | None = None) -> str:
    """Serialize a node's subtree back to XML within its hierarchy.

    For the root, ``hierarchy`` selects which component to serialize
    (all components share the root's tag).  Text and leaf nodes
    serialize to their escaped character data.
    """
    if isinstance(node, GRoot):
        if hierarchy is None:
            raise ValueError(
                "serializing the shared root requires a hierarchy name")
        return root_xml(node, hierarchy)
    if isinstance(node, GElement):
        return element_xml(node._component, [node.preorder])[0]
    if isinstance(node, (GText, GLeaf)):
        return escape_text(node.string_value())
    if isinstance(node, GComment):
        return f"<!--{node.data}-->"
    if isinstance(node, GPi):
        return _pi(node.target, node.data)
    raise ValueError(f"cannot serialize node kind {node.kind!r}")


def root_xml(root: GRoot, hierarchy: str) -> str:
    """The shared root within one hierarchy: the root tag, with the
    hierarchy's root attributes, around its top-level rows."""
    component = root.components.get(hierarchy)
    if component is None:
        return f"<{root.root_name}/>"
    out: list[str] = []
    _write_root(component, root._text, root.root_name, out)
    return "".join(out)


def hierarchy_xml(component: _HierarchyComponent, text: str,
                  root_name: str) -> str:
    """A hierarchy as an XML source over ``text``: the comments and PIs
    before the root element, the root element around every row, and
    those after it."""
    out = [_aside(entry) for entry in component.prolog]
    _write_root(component, text, root_name, out)
    out.extend(_aside(entry) for entry in component.epilog)
    return "".join(out)


def element_xml(component: _HierarchyComponent,
                rows: list[int]) -> list[str]:
    """The XML of each of ``rows`` — element rows of ``component``,
    which must be registered — in the order given, off the columns.

    An element whose one child is text (every ``w``, ``line`` and
    ``dmg`` of a generated manuscript) is its open tag, a slice of the
    base text and its close tag; any other is one walk of its rows.
    Character data and attribute values are escaped only when the
    component's flags say some need it (:meth:`escapes
    <repro.core.goddag.goddag._HierarchyComponent.escapes>`).
    """
    text = component._text
    if len(rows) < SMALL_RUN:
        kinds, ends_of = component.kinds, component.subtree_ends
        lasts = [ends_of.item(row) for row in rows]
        simple = [last == row + 1 and kinds.item(last) == KIND_TEXT
                  for row, last in zip(rows, lasts)]
        ids_of, starts_of, span_ends_of = (
            component.name_ids, component.starts, component.ends)
        ids = [ids_of.item(row) for row in rows]
        starts = [starts_of.item(row) for row in rows]
        ends = [span_ends_of.item(row) for row in rows]
    else:
        at = np.asarray(rows, dtype=np.int64)
        last_rows = component.subtree_ends[at]
        after = np.minimum(at + 1, len(component.kinds) - 1)
        lasts = last_rows.tolist()
        simple = ((last_rows == at + 1)
                  & (component.kinds[after] == KIND_TEXT)).tolist()
        ids = component.name_ids[at].tolist()
        # an element whose one child is text spans exactly that text
        starts = component.starts[at].tolist()
        ends = component.ends[at].tolist()
    names = component.names
    opens, closes = component.tags()
    escape_chars, escape_values = component.escapes(text)
    attributes = component.row_values()[0]
    out: list[str] = []
    for row, last, one_text, ident, start, end in zip(
            rows, lasts, simple, ids, starts, ends):
        mapping = attributes.get(row) if attributes else None
        if one_text:
            chars = text[start:end]
            if escape_chars:
                chars = escape_text(chars)
            if mapping:
                attrs = _attributes(mapping, escape_values)
                out.append(f"<{names[ident]}{attrs}>{chars}{closes[ident]}")
            else:
                out.append(f"{opens[ident]}{chars}{closes[ident]}")
        else:
            parts: list[str] = []
            _write_rows(component, text, row, last, parts)
            out.append("".join(parts))
    return out


def _write_root(component: _HierarchyComponent, text: str, root_name: str,
                out: list[str]) -> None:
    mapping = component.root_attrs
    attrs = _attributes(mapping, component.escapes(text)[1]) \
        if mapping else ""
    count = len(component.kinds)
    if not count:
        out.append(f"<{root_name}{attrs}/>")
        return
    out.append(f"<{root_name}{attrs}>")
    _write_rows(component, text, 0, count - 1, out)
    out.append(f"</{root_name}>")


def _write_rows(component: _HierarchyComponent, text: str, first: int,
                last: int, out: list[str]) -> None:
    """Rows ``first`` to ``last`` — whole subtrees, in preorder — into
    ``out``: one pass over the rows, ``subtree_ends`` saying where each
    open element closes."""
    stop = last + 1
    kinds = component.kinds[first:stop].tolist()
    ids = component.name_ids[first:stop].tolist()
    starts = component.starts[first:stop].tolist()
    ends = component.ends[first:stop].tolist()
    lasts = component.subtree_ends[first:stop].tolist()
    names = component.names
    opens, closes = component.tags()
    escape_chars, escape_values = component.escapes(text)
    attributes, data = component.row_values()
    # the open elements, innermost last: (last row, close tag)
    closing: list[tuple[int, str]] = []
    for row, kind, ident, start, end, subtree_end in zip(
            range(first, stop), kinds, ids, starts, ends, lasts):
        while closing and closing[-1][0] < row:
            out.append(closing.pop()[1])
        if kind == KIND_TEXT:
            chars = text[start:end]
            out.append(escape_text(chars) if escape_chars else chars)
        elif kind == KIND_ELEMENT:
            mapping = attributes.get(row)
            empty = subtree_end == row
            if mapping:
                attrs = _attributes(mapping, escape_values)
                out.append(f"<{names[ident]}{attrs}/>" if empty
                           else f"<{names[ident]}{attrs}>")
            else:
                out.append(f"<{names[ident]}/>" if empty else opens[ident])
            if not empty:
                closing.append((subtree_end, closes[ident]))
        elif kind == KIND_COMMENT:
            out.append(f"<!--{data[row]}-->")
        else:
            out.append(_pi(names[ident], data[row]))
    while closing:
        out.append(closing.pop()[1])


def _attributes(mapping, escape: bool) -> str:
    if escape:
        return "".join([f' {key}="{escape_attribute(value)}"'
                        for key, value in mapping.items()])
    return "".join([f' {key}="{value}"' for key, value in mapping.items()])


def _pi(target: str, data: str) -> str:
    separator = " " if data else ""
    return f"<?{target}{separator}{data}?>"


def _aside(entry: list) -> str:
    """A comment or PI around the root element (``prolog``/``epilog``)."""
    if entry[0] == "comment":
        return f"<!--{entry[1]}-->"
    return _pi(entry[1], entry[2])


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
