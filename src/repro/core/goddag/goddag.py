"""The KyGODDAG data structure (paper §3).

A :class:`KyGoddag` holds the shared base text, the shared root node,
one component of hierarchy nodes per markup hierarchy, and the leaf
partition.  Hierarchies come as a document's columns
(:meth:`KyGoddag.build`), a file's, or a
:class:`~repro.cmh.spans.SpanSet`; no method here takes or returns a
DOM.  An evaluation that calls
``analyze-string`` (Definition 4) registers its match markup as
*temporary* hierarchies of its own :meth:`KyGoddag.shell`, which
disappears with the evaluation.

Each component keeps its hierarchy as the column arrays ``.mhxb``
stores (:class:`_HierarchyComponent`); a node object is a view of one
row, made the first time somebody asks for that row — so a structure is
assembled around a mapped file's arrays or an ingest's new rows
(:meth:`KyGoddag.from_arrays`) without parsing, numbering, sorting or
making a node.
Every component that is not read from a file or made by row
arithmetic over other components (an update's row edits, a corpus
fuse — both finished by :func:`normal_rows`) is written by one row
writer (:class:`_ComponentWriter`), whatever pushes into it: the XML
tokenizer, a walk of a DOM, or a sorted span list (DESIGN.md §15).
Neither a component nor its nodes name the structure holding them, so
the next version of a document (:meth:`KyGoddag.fork`) holds the same
component objects for every hierarchy it does not change.

Node order follows the paper's Definition 3: root first, nodes of one
hierarchy in its DOM document order, hierarchies ordered by (stable)
registration rank.  Leaves are shared; we place them after all
hierarchy components, ordered by text position (documented choice, see
DESIGN.md).  Order keys are packed int64 integers (DESIGN.md §1), so
large node sets sort through ``np.argsort`` instead of Python tuple
comparisons.
"""

from __future__ import annotations

import json
import threading
import zlib
from array import array
from collections.abc import Iterable, Iterator

import numpy as np

from repro.errors import CMHError, GoddagError
from repro.markup import dom
from repro.cmh.document import (
    MultihierarchicalDocument,
    diverges,
    falls_short,
    other_root,
)
from repro.cmh.spans import Span, SpanSet
from repro.core.goddag.nodes import (
    NO_ATTRIBUTES,
    GAttr,
    GComment,
    GElement,
    GLeaf,
    GNode,
    GPi,
    GRoot,
    GText,
    UNREAD,
    _HierarchyNode,
)
from repro.core.goddag.partition import Partition


#: node kind codes of the component tables (the ``.mhxb`` ``kinds`` block)
KIND_ELEMENT, KIND_TEXT, KIND_COMMENT, KIND_PI = 0, 1, 2, 3

#: the per-hierarchy numeric columns, in ``.mhxb`` block order
COLUMNS = ("kinds", "name_ids", "starts", "ends", "parents",
           "subtree_ends", "okeys")

#: what is not numeric, in ``.mhxb`` header order: the metadata a
#: file's header carries per hierarchy beside its name and sizes
METADATA = ("root_attrs", "attrs", "comments", "pis", "prolog", "epilog")


def metadata_json(meta: dict) -> str:
    """The :data:`METADATA` members of one hierarchy's ``meta`` as a
    ``.mhxb`` header holds them: ``"root_attrs": {…}, "attrs": […], …``
    in order, byte for byte what ``json.dumps(…, ensure_ascii=False)``
    writes for them inside the hierarchy's object."""
    return json.dumps({key: meta[key] for key in METADATA},
                      ensure_ascii=False)[1:-1]


def pack_okeys(rank: int, count: int) -> np.ndarray:
    """The packed Definition 3 keys of one component (layout below, at
    :meth:`KyGoddag.order_key`): preorder is the row number."""
    if rank >= KyGoddag._RANK_LIMIT or count > KyGoddag._PREORDER_LIMIT:
        raise GoddagError(
            "document-order key overflow: rank/preorder/attribute "
            f"position ({rank}, {count}, 0) exceeds the packed int64 "
            "layout (see DESIGN.md §1)")
    return ((1 << 61) | (rank << 45)
            | (np.arange(count, dtype=np.int64) << 13))


class _HierarchyComponent:
    """One hierarchy inside the KyGODDAG, held as column arrays.

    The columns are exactly the blocks ``.mhxb`` stores per hierarchy
    (DESIGN.md §10): one row per node in preorder — kind, id into
    ``names``, span, parent row (-1 = the shared root), last row of the
    subtree, packed order key — plus what is not numeric (attributes,
    comment and PI data, the comments/PIs around the root element, the
    root element's attributes).  Node objects, the hierarchy's DOM and
    its file blocks are all derived from them, so a component that no
    update touches is forked, saved and turned into a DOM without a
    Python pass over a node graph.

    Node objects are a per-row cache over the columns: an object column
    that :meth:`fill`, the one door to a node object, fills for exactly
    the rows a caller asks for — a name's rows (:meth:`name_entry`), a
    step's row slice (``fill(slice(start, stop))``), the text rows
    (:attr:`text_nodes`), the top-level rows (:attr:`top_nodes`), and
    every row only for a caller that walks the whole hierarchy
    (:attr:`nodes`, the span index's node columns).  A node's
    ``parent`` and ``children`` are read off the columns when first
    asked, so filling a row fills no other (DESIGN.md §1, §10).  The
    component's lock makes each row's object one: two racing fills of
    a row would hand out two objects for one node.

    Versions that did not change a hierarchy hold the *same* component
    object (:meth:`KyGoddag.fork`) — columns, node objects and every
    lazy cache a reader already paid for, or will — so nothing here is
    written once a component is registered but those fill-once caches.
    The one in-place writer, :meth:`rename`, runs on a component its
    KyGODDAG built itself (:meth:`private_copy`) and copies first what
    it finds read-only.
    """

    def __init__(self, name: str, rank: int, temporary: bool, *,
                 names: list[str], columns: dict[str, np.ndarray],
                 attrs: list, comments: list, pis: list,
                 prolog: list, epilog: list,
                 root_attrs: dict[str, str],
                 perms: tuple[np.ndarray, np.ndarray] | None = None
                 ) -> None:
        self.name = name
        self.rank = rank
        self.temporary = temporary
        #: the name table ``name_ids`` indexes (elements and PI targets)
        self.names = names
        self.kinds = columns["kinds"]
        self.name_ids = columns["name_ids"]
        self.starts = columns["starts"]
        self.ends = columns["ends"]
        self.parents = columns["parents"]
        self.subtree_ends = columns["subtree_ends"]
        self._okeys = columns.get("okeys")
        #: ``[row, value]`` pairs: attribute mappings, comment data, PI
        #: data; ``prolog``/``epilog`` are the DOM-only comments and PIs
        #: before and after the root element
        self.attrs = attrs
        self.comments = comments
        self.pis = pis
        self.prolog = prolog
        self.epilog = epilog
        self.root_attrs = root_attrs
        self._perms = perms
        # The base text the nodes slice, once a KyGODDAG binds it; the
        # object column (``None`` until the first fill, then ``None``
        # in each row nobody has asked for) and how many of its rows
        # are still empty.  Both are written under the lock only, the
        # count after the rows, so a reader that finds it 0 finds
        # every row.  The column is a list, not an object array: a
        # node names its component, and the cycle collector sees
        # through a list but not through an ndarray, so a dropped
        # component would never be freed.
        self._text: str | None = None
        self._objects: list[_HierarchyNode | None] | None = None
        self._unfilled = 0
        self._lock = threading.Lock()
        # Idempotent caches over the filled rows (racing fills gather
        # the same node objects): the top-level nodes, the per-name and
        # text indexes, the row -> attributes/data maps.
        self._top_nodes: list[_HierarchyNode] | None = None
        self._top_positions: dict[int, int] | None = None
        self._name_index: dict[str, "_NameEntry | None"] = {}
        self._text_index: tuple[array, list[GText]] | None = None
        self._values: tuple[dict, dict] | None = None
        # The row writer's (repro.core.goddag.render): the name table
        # the tags were made from, with ``<name>`` and ``</name>`` per
        # name id; the text the character data flag was read from,
        # with the flag; the attribute value flag.
        self._tags: tuple[list[str], list[str], list[str]] | None = None
        self._text_escapes: tuple[str, bool] | None = None
        self._attribute_escapes: bool | None = None
        # What a file holds of this component, encoded once: the CRC32
        # of each block taken as it is (:meth:`block_crc`), block key
        # -> checksum, and under ``"header"`` the JSON of its metadata
        # (:meth:`header_fragment`).
        self._encoded: dict[str, int | str] = {}

    # The lazy attributes are plain properties.  A class-level
    # ``__getattr__`` (the other way to fill on first use) routes every
    # attribute load of the type through CPython's generic
    # ``tp_getattro`` hook, off the specialised attribute path: measured
    # 5–10 % slower on warm per-node queries of a cold-loaded snapshot,
    # where these properties measure within noise.

    def bind(self, text: str) -> None:
        """Be registered over ``text``: the text the nodes slice."""
        self._text = text

    # -- node objects: the per-row cache --------------------------------------

    def fill(self, rows: list[int] | slice) -> list[_HierarchyNode]:
        """The node objects of ``rows`` (ascending distinct rows, or a
        slice): the one door to a node object.  A row nobody has asked
        for yet gets its object here, in one pass per request and under
        the component's lock."""
        objects = self._objects
        if objects is None or self._unfilled:
            objects = self._fill(rows)
        if isinstance(rows, slice):
            return objects[rows]
        return [objects[row] for row in rows]

    def _fill(self, rows: list[int] | slice) -> list:
        with self._lock:
            objects = self._objects
            if objects is None:
                if self._text is None:
                    raise GoddagError(
                        f"hierarchy '{self.name}' is registered in no "
                        f"KyGODDAG: its nodes have no text to slice")
                objects = [None] * len(self.kinds)
                self._unfilled = len(objects)
                self._objects = objects
            if self._unfilled:
                wanted = range(len(objects))[rows] \
                    if isinstance(rows, slice) else rows
                empty = [row for row in wanted if objects[row] is None]
                if empty:
                    self._make(empty)
        return objects

    def _make(self, rows: list[int]) -> None:
        """Make the node object of each of ``rows`` (ascending, empty
        yet) into the object column, constructors inlined, under the
        lock.  The nodes name no KyGODDAG (DESIGN.md §1): every version
        holding this component shares them."""
        objects = self._objects
        attrs, data = self.row_values()
        names, text, hierarchy = self.names, self._text, self.name
        # a run of rows reads the columns as views, else as one gather
        at = slice(rows[0], rows[-1] + 1) \
            if rows[-1] - rows[0] + 1 == len(rows) else rows
        # a file's keys are taken; others are packed when a sort asks
        okeys = [None] * len(rows) if self._okeys is None \
            else self._okeys[at].tolist()
        for row, kind, ident, start, end, last, okey in zip(
                rows, self.kinds[at].tolist(), self.name_ids[at].tolist(),
                self.starts[at].tolist(), self.ends[at].tolist(),
                self.subtree_ends[at].tolist(), okeys):
            if kind == KIND_ELEMENT:
                node = GElement.__new__(GElement)
                node._name = names[ident]
                # shared with ``self.attrs``: nothing mutates a node's
                # attribute mapping
                node.attributes = attrs.get(row) or NO_ATTRIBUTES
                node._children = None
                node._attr_nodes = None
                node._child_positions = None
            elif kind == KIND_TEXT:
                node = GText.__new__(GText)
            elif kind == KIND_COMMENT:
                node = GComment.__new__(GComment)
                node.data = data[row]
            else:
                node = GPi.__new__(GPi)
                node.target = names[ident]
                node.data = data[row]
            node._text = text
            node.start = start
            node.end = end
            node._hierarchy = hierarchy
            node._component = self
            node._parent = UNREAD
            node.preorder = row
            node.subtree_end = last
            node._okey = okey
            objects[row] = node
        self._unfilled -= len(rows)

    def row_values(self) -> tuple[dict, dict]:
        """``(attributes, data)``: row -> attribute mapping of the
        elements that have one, row -> data of the comments and PIs."""
        values = self._values
        if values is None:
            values = self._values = (dict(self.attrs),
                                     {**dict(self.comments),
                                      **dict(self.pis)})
        return values

    def node(self, row: int) -> _HierarchyNode:
        """The node object of one row."""
        objects = self._objects
        if objects is not None:
            node = objects[row]
            if node is not None:
                return node
        return self.fill([row])[0]

    def filled(self) -> np.ndarray:
        """The rows that have a node object, ascending: what somebody
        has asked for (the invariant net compares exactly these)."""
        return np.array([row for row, node in enumerate(self._objects or ())
                         if node is not None], dtype=np.int64)

    @property
    def nodes(self) -> list[_HierarchyNode]:
        """All nodes of the component in preorder (excluding the root):
        every row filled — for a caller that walks the whole hierarchy.

        ``nodes[i].preorder == i``, so every standard axis over this
        hierarchy is a contiguous row slice (DESIGN.md §5).  The list
        is the object column itself: nobody writes it.
        """
        objects = self._objects
        if objects is None or self._unfilled:
            objects = self._fill(slice(None))
        return objects

    @property
    def top_nodes(self) -> list[_HierarchyNode]:
        """The nodes directly under the root: what each version's root
        lists as its children in this hierarchy."""
        top = self._top_nodes
        if top is None:
            top = self._top_nodes = self.fill(
                np.flatnonzero(self.parents < 0).tolist())
        return top

    def top_position(self, node: _HierarchyNode) -> int:
        """The position of ``node`` among :attr:`top_nodes`: O(1) via
        an identity map filled on first use (the list never changes)."""
        positions = self._top_positions
        if positions is None:
            positions = self._top_positions = {
                id(top): index for index, top in enumerate(self.top_nodes)}
        return positions[id(node)]

    def parent_node(self, row: int) -> _HierarchyNode | None:
        """The parent element of ``row``; ``None`` under the root."""
        parent = int(self.parents[row])
        return None if parent < 0 else self.node(parent)

    def child_nodes(self, row: int) -> list[_HierarchyNode]:
        """The children of ``row``, in preorder: the row after it, and
        each next one after the subtree before it, up to its own
        subtree's end."""
        subtree_ends = self.subtree_ends
        last = subtree_ends.item(row)
        rows: list[int] = []
        child = row + 1
        while child <= last:
            rows.append(child)
            child = subtree_ends.item(child) + 1
        return self.fill(rows) if rows else []

    @property
    def okeys(self) -> np.ndarray:
        """The packed order keys: a file's block when loaded, else
        packed on first use — a structure that is only queried keys the
        nodes it makes and never needs the column."""
        okeys = self._okeys
        if okeys is None:
            okeys = self._okeys = pack_okeys(self.rank, len(self.kinds))
        return okeys

    def private_copy(self) -> "_HierarchyComponent":
        """An unfilled copy a KyGODDAG may rename in place.

        It shares every column but the one :meth:`rename` writes, and
        makes its own node objects: row ``i`` of the copy is the twin of
        row ``i`` here.  It takes the block checksums known here
        (:meth:`block_crc`); the rename drops the one it invalidates.
        """
        copy = self._copy(self.rank, np.array(self.name_ids),
                          self._okeys, self.perms())
        copy._encoded = dict(self._encoded)  # the same bytes, until a rename
        return copy

    def reranked(self, rank: int) -> "_HierarchyComponent":
        """An unfilled copy at ``rank``: every column shared but the
        order keys, packed for the new rank on first use.  What a
        document holds where a hierarchy before this one was removed."""
        return self._copy(rank, self.name_ids, None, self._perms)

    def _copy(self, rank: int, name_ids: np.ndarray,
              okeys: np.ndarray | None,
              perms: tuple[np.ndarray, np.ndarray] | None
              ) -> "_HierarchyComponent":
        columns = {key: getattr(self, key) for key in COLUMNS[:-1]}
        columns["name_ids"] = name_ids
        columns["okeys"] = okeys  # packed on first use, if None
        copy = _HierarchyComponent(
            self.name, rank, self.temporary, names=self.names,
            columns=columns, attrs=self.attrs, comments=self.comments,
            pis=self.pis, prolog=self.prolog, epilog=self.epilog,
            root_attrs=self.root_attrs, perms=perms)
        fragment = self._encoded.get("header")
        if fragment is not None:  # the same metadata objects
            copy._encoded["header"] = fragment
        return copy

    def _texts(self) -> tuple[array, list[GText]]:
        index = self._text_index
        if index is None:
            rows = np.flatnonzero(self.kinds == KIND_TEXT)
            # packed, not a list of ints: a fifth of the memory, and
            # ``bisect`` reads it all the same
            starts = array("q", self.starts[rows].astype(np.int64).tobytes())
            index = (starts, self.fill(rows.tolist()))
            self._text_index = index
        return index

    @property
    def text_starts(self) -> array:
        """Start offsets of the text nodes, in text order (for the
        leaf -> containing text node binary search)."""
        return self._texts()[0]

    @property
    def text_nodes(self) -> list[GText]:
        """The text nodes, parallel to :attr:`text_starts`."""
        return self._texts()[1]

    @property
    def boundaries(self) -> np.ndarray:
        """Every markup boundary of this hierarchy — each node's start
        and each node's end, a multiset — as the partition counts them."""
        return np.concatenate((self.starts, self.ends))

    def name_entry(self, name: str) -> "_NameEntry | None":
        """The per-name element index entry (DESIGN.md §8).

        Elements named ``name`` in preorder, with parallel preorder /
        subtree-end arrays: a named ``descendant``/``following``/
        ``preceding`` step over this hierarchy is then one bisect plus
        a slice of the name's own (usually tiny) list instead of a scan
        of the whole component.  Read off the columns, one name at a
        time and only for names the component can hold: ``None`` for a
        name outside ``names`` costs a list scan, and a name a rename
        left behind in ``names`` selects no row.  The name's nodes are
        filled when the entry's :attr:`~_NameEntry.nodes` are first
        read, not before.
        """
        if name not in self.names:
            return None
        index = self._name_index
        if name not in index:
            rows = np.flatnonzero(
                (self.name_ids == self.names.index(name))
                & (self.kinds == KIND_ELEMENT))
            index[name] = _NameEntry(self, rows, self.subtree_ends[rows]) \
                if len(rows) else None
        return index[name]

    def interned_ids(self, names: list[str],
                     interned: dict[str, int]) -> np.ndarray:
        """``name_ids`` against the table ``names`` several components
        share (a file's, a fused hierarchy's), interning into it what
        this one uses, in row order; the column itself where the ids
        already agree."""
        ids = self.name_ids
        used, first = np.unique(ids[ids >= 0], return_index=True)
        remap = np.full(len(self.names) + 1, -1, dtype=np.int64)
        for local in used[np.argsort(first)].tolist():
            name = self.names[local]
            ident = interned.get(name)
            if ident is None:
                ident = interned[name] = len(names)
                names.append(name)
            remap[local] = ident
        if np.array_equal(remap[used], used):
            return ids
        return remap[ids]  # -1 (no name) reads the trailing -1

    # -- the row writer's tables (repro.core.goddag.render) ------------------

    def tags(self) -> tuple[list[str], list[str]]:
        """``(opens, closes)``: ``<name>`` and ``</name>`` per name id,
        made once per name table (a rename that adds a name replaces
        the table, so no tag outlives it)."""
        tags = self._tags
        if tags is None or tags[0] is not self.names:
            names = self.names
            tags = self._tags = (names, [f"<{name}>" for name in names],
                                 [f"</{name}>" for name in names])
        return tags[1], tags[2]

    def escapes(self, text: str) -> tuple[bool, bool]:
        """Whether character data of ``text`` and attribute values of
        this hierarchy (the root's among them) need escaping at all:
        ``&``, ``<`` or ``>`` anywhere in the text; ``&``, ``<``,
        ``"``, a newline or a tab in any value."""
        seen = self._text_escapes
        if seen is None or seen[0] is not text:
            seen = self._text_escapes = (
                text, "&" in text or "<" in text or ">" in text)
        attributes = self._attribute_escapes
        if attributes is None:
            values = "".join([value for _row, mapping in self.attrs
                              for value in mapping.values()]
                             + list(self.root_attrs.values()))
            attributes = self._attribute_escapes = any(
                char in values for char in '&<"\n\t')
        return seen[1], attributes

    # -- derived: span-index permutations, DOM --------------------------------

    def span_rows(self) -> np.ndarray:
        """Rows of the span-bearing nodes (elements and text nodes):
        the component's Definition 1 domain, in preorder."""
        return np.flatnonzero(self.kinds <= KIND_TEXT)

    def row_names(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The name of every row, or of ``rows``, as an object column (a
        PI's is its target; ``None`` for text and comments) — read off
        the columns, no node needed."""
        table = np.empty(len(self.names) + 1, dtype=object)
        table[:-1] = self.names  # name id -1 lands on the None
        return table[self.name_ids if rows is None else self.name_ids[rows]]

    def perms(self) -> tuple[np.ndarray, np.ndarray]:
        """``(s_perm, e_perm)``: the stable argsorts of the span rows by
        start key and by end key — the order in which this hierarchy's
        nodes appear in the span index's two global orders."""
        perms = self._perms
        if perms is None:
            from repro.core.goddag.index import _end_keys, _start_keys

            rows = self.span_rows()
            starts, ends = self.starts[rows], self.ends[rows]
            perms = self._perms = (
                np.argsort(_start_keys(starts, ends), kind="stable"),
                np.argsort(_end_keys(starts, ends), kind="stable"))
        return perms

    def block_crc(self, key: str, block: np.ndarray) -> int:
        """The CRC32 of ``block``, the file block ``key`` of this
        component — one of :data:`COLUMNS` or a permutation, written as
        it is (contiguous).  The first file written with it computes
        it; every later one takes it from here, a fill-once cache like
        :meth:`perms`: the columns are never written once the component
        is registered, but by :meth:`rename`, which drops the checksum
        of the one column it writes.  A :meth:`private_copy` starts
        with its source's checksums, its columns being the same bytes
        until that rename."""
        crc = self._encoded.get(key)
        if crc is None:
            crc = self._encoded[key] = zlib.crc32(block)
        return crc

    def header_fragment(self) -> str:
        """This hierarchy's :func:`metadata_json`, encoded by the first
        file written with the component and taken from here by every
        later one — a fill-once cache like :meth:`block_crc`:
        the writer that made the component closed these lists, and
        nothing writes them afterwards (a rename writes a column, not
        the metadata), so every copy shares them and the fragment."""
        fragment = self._encoded.get("header")
        if fragment is None:
            fragment = self._encoded["header"] = metadata_json(
                {key: getattr(self, key) for key in METADATA})
        return fragment

    def build_dom(self, text: str, root_name: str) -> dom.Document:
        """This hierarchy's DOM document, text nodes aligned."""
        document = dom.Document()
        for entry in self.prolog:
            document.append(_aux_node(entry))
        root = dom.Element(root_name, self.root_attrs)
        document.append(root)
        for entry in self.epilog:
            document.append(_aux_node(entry))
        names = self.names
        ids = self.name_ids.tolist()
        starts = self.starts.tolist()
        ends = self.ends.tolist()
        parents = self.parents.tolist()
        attrs = dict(self.attrs)
        comments = dict(self.comments)
        pis = dict(self.pis)
        nodes: list[dom.Node] = []
        for position, kind in enumerate(self.kinds.tolist()):
            if kind == KIND_ELEMENT:
                node: dom.Node = dom.Element(names[ids[position]],
                                             attrs.get(position))
            elif kind == KIND_TEXT:
                node = dom.Text(text[starts[position]:ends[position]])
                node.start = starts[position]
                node.end = ends[position]
            elif kind == KIND_COMMENT:
                node = dom.Comment(comments[position])
            else:
                node = dom.ProcessingInstruction(names[ids[position]],
                                                 pis[position])
            parent_position = parents[position]
            parent = (root if parent_position < 0
                      else nodes[parent_position])
            # straight onto the child list: ``append`` would first
            # search the (absent) old parent
            node.parent = parent
            parent.children.append(node)
            nodes.append(node)
        return document

    # -- in-place mutation ----------------------------------------------------

    def rename(self, position: int, name: str) -> None:
        """Point row ``position`` at ``name`` (an element rename)."""
        names = self.names
        if name in names:
            ident = names.index(name)
        else:
            ident = len(names)
            self.names = [*names, name]  # the old table may be shared
        ids = self.name_ids
        if not ids.flags.writeable:
            ids = self.name_ids = np.array(ids)
        ids[position] = ident
        self._name_index = {}
        self._encoded.pop("name_ids", None)


def _aux_node(entry: list) -> dom.Node:
    if entry[0] == "comment":
        return dom.Comment(entry[1])
    return dom.ProcessingInstruction(entry[1], entry[2])


class _NameEntry:
    """All elements of one name in one hierarchy, preorder-ordered: the
    rows, their subtree ends, and — filled when first read — their
    nodes."""

    __slots__ = ("component", "preorders", "subtree_ends", "_nodes")

    def __init__(self, component: _HierarchyComponent,
                 preorders: np.ndarray, subtree_ends: np.ndarray) -> None:
        self.component = component
        self.preorders = preorders
        self.subtree_ends = subtree_ends
        self._nodes: list[GElement] | None = None

    @property
    def nodes(self) -> list[GElement]:
        """The elements, parallel to ``preorders``."""
        nodes = self._nodes
        if nodes is None:
            nodes = self._nodes = self.component.fill(
                self.preorders.tolist())
        return nodes


class KyGoddag:
    """The united DAG over all markup hierarchies of one document."""

    def __init__(self, text: str, root_name: str = "r") -> None:
        self.text = text
        self.root = GRoot(text, root_name)
        self.partition = Partition(text)
        # the root's own table: the root's children in a hierarchy are
        # whatever component this structure holds under its name
        self._components: dict[str, _HierarchyComponent] = \
            self.root.components
        # The hierarchies whose component this structure built itself
        # and no other version holds: the only ones it may write in
        # place (:meth:`rename_element`).  A fork owns none, and takes
        # its source's away (:meth:`fork`).
        self._owned: set[str] = set()
        self._next_rank = 0
        self._index = None  # built lazily by repro.core.goddag.index
        # Full SpanIndex constructions (benchmarks assert that the
        # analyze-string lifecycle never triggers one after warm-up).
        self.index_full_builds = 0
        # Bumped by every mutation (hierarchy add/replace, rename,
        # base-text change).  Compiled-plan caches key on it so a stale
        # plan can never serve a mutated document (DESIGN.md §9).
        self.version = 0
        # Frozen structures back published store snapshots: every
        # mutation raises, so concurrent readers can share them
        # lock-free (DESIGN.md §10).
        self.frozen = False
        # The structure an evaluation's shell extends (:meth:`shell`);
        # ``None`` for a version.  Only a shell takes temporaries.
        self._source: KyGoddag | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, document: MultihierarchicalDocument) -> "KyGoddag":
        """Build a KyGODDAG from a multihierarchical document.

        Of each hierarchy's columns the structure takes a
        :meth:`private copy <_HierarchyComponent.private_copy>`: the
        columns stay the document's, shared and never written (so the
        next structure built from it finds them as they were); the
        nodes are this structure's own and go with it."""
        text = document.text
        components = list(hierarchy_components(document, own=True))
        return cls.from_arrays(
            text, document.root_name, components,
            partition_arrays(text, components), None, len(components))

    @classmethod
    def from_arrays(cls, text: str, root_name: str,
                    components: list[_HierarchyComponent],
                    partition: tuple[np.ndarray, np.ndarray],
                    index_columns: dict[str, np.ndarray] | None,
                    version: int) -> "KyGoddag":
        """Assemble a KyGODDAG around ready-made column arrays.

        The pass behind a ``.mhxb`` cold load (DESIGN.md §10): the
        partition comes from its sorted ``(offsets, refcounts)`` and the
        span index from its numeric columns in both sorted orders —
        nothing is parsed, aligned, numbered or sorted, and no node is
        made, whoever wrote the columns (a file, the row writer of an
        ingest): each component is bound to the text
        (:meth:`_HierarchyComponent.bind`) and makes a row's node when
        somebody asks for it.  The arrays may be memory-mapped; they
        are only ever replaced, never written.
        Without ``index_columns`` the span index is built on first use.
        """
        from repro.core.goddag.index import SpanIndex

        goddag = cls(text, root_name)
        goddag.partition = Partition.restore(text, *partition)
        for component in components:
            if component.name in goddag._components:
                raise GoddagError(
                    f"duplicate hierarchy name '{component.name}'")
            goddag._next_rank = max(goddag._next_rank, component.rank + 1)
            component.bind(text)
            goddag._register(component)
        if index_columns is not None:
            goddag._index = SpanIndex.restore(goddag.root, index_columns,
                                              components)
        goddag.version = version
        return goddag

    def fork(self) -> "KyGoddag":
        """An unfrozen KyGODDAG at the same version: a new shell around
        this one's components.

        A version shell is what differs between versions — the root
        with its component table, the partition's multiset, the span
        index's two node columns if they are gathered (they seat the
        root) and its cache dicts.  Everything else is handed over as
        the same object, filled or not: every
        :class:`_HierarchyComponent` with its columns and whatever
        nodes and lazy caches it holds (a row first asked for after the
        fork is filled once, for both versions), every leaf made so
        far, every numeric index column.  No node is made and nothing
        is gathered or sorted, so a fork costs the same whatever the
        document's size; updates of the fork replace the components
        they touch and leave this structure as it was (DESIGN.md §10).
        Neither side owns a component afterwards: an in-place rename on
        either takes a private copy of that hierarchy first.
        """
        fork = KyGoddag(self.text, self.root.root_name)
        fork.partition = self.partition.fork()
        for component in self._components.values():
            fork._seat(component)
        fork._next_rank = self._next_rank
        if self._index is not None:
            fork._index = self._index.fork(fork.root)
        fork.version = self.version
        self._owned = set()
        return fork

    def shell(self) -> "KyGoddag":
        """A private structure for one evaluation that may create
        ``analyze-string`` temporaries (Definition 4, DESIGN.md §8).

        The shell is this structure plus whatever temporaries the
        evaluation appends to it, and it is dropped when the evaluation
        hands over — nothing is undone, and no temporary is ever seen by
        another evaluation.  It shares the root (so a root in a result,
        a binding or an update target is this structure's own), every
        component, the partition's two arrays and the span index's
        columns and caches; what a temporary adds goes into new arrays
        and dicts of the shell's.  Making one copies the component
        table and nothing the size of the document, and takes no
        ownership away: a later in-place rename here does not copy.
        """
        shell = KyGoddag.__new__(KyGoddag)
        shell.text = self.text
        shell.root = self.root
        shell.partition = self.partition.shell()
        shell._components = dict(self._components)
        shell._owned = set()
        shell._next_rank = self._next_rank
        shell._index = None if self._index is None else self._index.shell()
        shell.index_full_builds = 0
        shell.version = self.version
        shell.frozen = False
        shell._source = self
        return shell

    def _seat(self, component: _HierarchyComponent) -> None:
        """Hold ``component`` under its name, in the component table
        (assigning to an existing key keeps its position, so a
        replaced hierarchy keeps its place in the Definition 3
        iteration order)."""
        self._components[component.name] = component

    def _register(self, component: _HierarchyComponent) -> None:
        """Seat a component this structure bound itself."""
        self._seat(component)
        self._owned.add(component.name)

    def _admit(self, name: str, temporary: bool) -> None:
        if self.frozen:
            self._frozen_violation(f"add hierarchy '{name}'")
        if temporary != (self._source is not None):
            raise GoddagError(
                f"cannot add {'temporary' if temporary else 'persistent'} "
                f"hierarchy '{name}': temporaries live on an evaluation's "
                f"shell (KyGoddag.shell), and only there")
        if name in self._components:
            raise GoddagError(f"duplicate hierarchy name '{name}'")

    def add_hierarchy_from_spans(self, name: str, spans: SpanSet,
                                 temporary: bool = False) -> None:
        """Register a hierarchy given as a properly-nesting span set."""
        if spans.text != self.text:
            raise GoddagError(
                "span set text differs from the KyGODDAG base text")
        self._admit(name, temporary)
        self._add_component(span_component(
            _ComponentWriter(self.text, self.root.root_name, name,
                             self._next_rank, temporary),
            spans.sorted_spans()))

    def _add_component(self, component: _HierarchyComponent) -> None:
        """Register one more hierarchy, at the next rank."""
        self._next_rank = component.rank + 1
        self.partition.add_boundaries(component.boundaries)
        self._finish_component(component)

    def _finish_component(self, component: _HierarchyComponent) -> None:
        component.bind(self.text)
        self._register(component)
        if self._index is not None:
            # Merge the new hierarchy into the live index instead of
            # discarding it (DESIGN.md §6) — the analyze-string hot path.
            self._index.add_component(component)
        if not component.temporary:
            # a shell's temporaries are no document mutation: the shell
            # keeps the version of the structure it extends
            self.version += 1

    # ------------------------------------------------------------------
    # snapshot pinning (the document store, DESIGN.md §10)
    # ------------------------------------------------------------------

    def _frozen_violation(self, what: str) -> None:
        raise GoddagError(
            f"cannot {what}: this KyGODDAG is a frozen snapshot — "
            f"fork the document (DocumentStore.update does) and mutate "
            f"the fork")

    def freeze(self) -> None:
        """Pin the structure so concurrent readers can share it.

        Seals what is numeric — the span index (its pending merges
        flushed, its order-key columns packed, every numeric column
        marked read-only) and the partition's boundary array — and
        flips ``frozen``: every mutation raises from then on.  It
        creates no node and no leaf, and gathers nothing.  What nobody
        has asked for yet — a row's node, the span index's node
        columns, the leaf list — fills on first use, once, under its
        owner's lock (DESIGN.md §10); the remaining lazy caches (name masks,
        per-name element indexes, order keys) are idempotent fills,
        safe to race under the GIL.  Readers write nothing else here:
        an evaluation that makes ``analyze-string`` temporaries makes
        them on its own :meth:`shell`.
        """
        index = self.span_index()
        index.freeze()
        self.partition.freeze()
        self.frozen = True

    def thaw(self) -> None:
        """Re-allow mutation.

        For callers that want to mutate a frozen (e.g. cold-loaded)
        structure *they exclusively own* in place; the store never
        thaws a published snapshot — it forks instead.  Arrays that
        were marked read-only are replaced wholesale by the mutation
        paths, never written in place, so no unlocking is needed.
        """
        self.frozen = False

    # ------------------------------------------------------------------
    # mutation (the transactional update engine, DESIGN.md §9)
    # ------------------------------------------------------------------

    def rename_element(self, node: GElement, name: str) -> None:
        """Rename one element in place.

        Structure, spans, preorder numbers and order keys are all
        untouched, so only the name-derived caches need patching: the
        component's per-name element index and the span index's name
        arrays.  A component another version holds too is never
        written: this structure first takes a private copy of that one
        hierarchy (:meth:`_HierarchyComponent.private_copy`) and
        renames the target's twin, the node at the same preorder — the
        one row of the copy that is filled.
        """
        if self.frozen:
            self._frozen_violation(f"rename element <{node.name}>")
        if not self.holds(node):
            raise GoddagError(
                "rename target is not a registered node of this KyGODDAG")
        hierarchy = node.hierarchy
        if hierarchy not in self._owned:
            component = self._components[hierarchy].private_copy()
            component.bind(self.text)
            self._register(component)
            if self._index is not None:
                self._index.reseat_component(component)
            node = component.node(node.preorder)
        node._name = name
        self._components[hierarchy].rename(node.preorder, name)
        if self._index is not None:
            self._index.rename_node(node)
        self.version += 1

    def disown(self, name: str) -> None:
        """Another holder (a document, §10) now shares the component
        under ``name``: the next in-place rename copies it first."""
        self._owned.discard(name)

    def replace_hierarchy(self, component: _HierarchyComponent) -> None:
        """Register ``component`` in place of the hierarchy of its name.

        The incremental mutation path: the old component's boundaries
        are swapped for the new one's in the partition and its sub-arrays
        compressed out of the span index, then the new component merges
        in at the old one's place — every *other* hierarchy's arrays,
        nodes, leaves, caches and order keys survive untouched.  The
        component must be written over the unchanged base text at the
        old one's rank; use :meth:`rebuild_hierarchies` when the text
        changes.
        """
        name = component.name
        if self.frozen:
            self._frozen_violation(f"replace hierarchy '{name}'")
        old = self._components.get(name)
        if old is None:
            raise GoddagError(f"no hierarchy named '{name}'")
        _check_fits(component, old, len(self.text))
        self.partition.swap_boundaries(old.boundaries, component.boundaries)
        if self._index is not None:
            self._index.remove_component(old)
        self._finish_component(component)

    def rebuild_hierarchies(self, text: str,
                            components: list[_HierarchyComponent]) -> None:
        """Swap the base text and register ``components`` — one per
        registered hierarchy, in rank order, written over ``text`` at
        that rank — in their places.

        Used when an update changes the text itself (insert/delete/
        replace value): all spans shift, so every component and the leaf
        partition are replaced — but ranks are kept, the span index is
        patched by per-component surgery plus a root re-seed, and no XML
        is ever re-parsed.
        """
        if self.frozen:
            self._frozen_violation("rebuild hierarchies over new text")
        if [component.name for component in components] \
                != list(self._components):
            raise GoddagError(
                "rebuild_hierarchies needs exactly the registered "
                "hierarchies, in rank order")
        for component in components:
            _check_fits(component, self._components[component.name],
                        len(text))
        index = self._index
        if index is not None:
            for component in self._components.values():
                index.remove_component(component)
        self.text = text
        self.root._text = text
        self.root.end = len(text)
        if index is not None:
            index.reset_root()
        self.partition = Partition.restore(
            text, *partition_arrays(text, components))
        for component in components:
            self._finish_component(component)
        self.version += 1

    def check_invariants(self, components: Iterable[str] | None = None
                         ) -> None:
        """Verify the structural contract (DESIGN.md §9).

        Order-key monotonicity over Definition 3, per-hierarchy span
        containment and preorder consistency, text tiling, partition
        boundary bookkeeping, and span-index array coherence.  Raises
        :class:`~repro.errors.GoddagError` on the first violation — the
        post-apply safety net of the update engine.  ``components``
        names the hierarchies whose rows are checked (the ones an
        update rebuilt); every check that spans hierarchies runs over
        all of them either way, and without it this is the whole net.
        It makes no node: only rows somebody filled are compared with
        their objects.
        """
        from repro.core.goddag.invariants import check_invariants

        check_invariants(self, components)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------

    @property
    def hierarchy_names(self) -> list[str]:
        """Hierarchy names in registration (rank) order."""
        return list(self._components)

    @property
    def persistent_hierarchy_names(self) -> list[str]:
        """Names of non-temporary hierarchies."""
        return [name for name, comp in self._components.items()
                if not comp.temporary]

    def is_temporary(self, name: str) -> bool:
        """True when ``name`` is a temporary (query-scoped) hierarchy."""
        return self._components[name].temporary

    def has_hierarchy(self, name: str) -> bool:
        return name in self._components

    def hierarchy_rank(self, name: str) -> int:
        return self._components[name].rank

    def components(self) -> dict[str, _HierarchyComponent]:
        """The hierarchy components held, by name (a copy): with
        :meth:`changed_components`, what an update looked like before
        and after."""
        return dict(self._components)

    def changed_components(self, held: dict[str, _HierarchyComponent]
                           ) -> list[str]:
        """The hierarchies whose component is not the object ``held``
        — an earlier :meth:`components`, this structure's or the one it
        was forked from — has under that name.  Everything an update
        built, whatever it says it did: an in-place rename of a shared
        component takes a private copy first.  It is what the
        commit-time net checks row by row; for the rest, identity
        with a verified version is the proof (DESIGN.md §9)."""
        return [name for name, component in self._components.items()
                if held.get(name) is not component]

    def nodes_of(self, hierarchy: str) -> list[_HierarchyNode]:
        """All nodes of one component in document (pre)order: every
        row of it filled."""
        return self._components[hierarchy].nodes

    def holds(self, node: GNode) -> bool:
        """Is ``node`` a hierarchy node of a component held here?  A
        node knows its component, so nothing is filled to answer."""
        return isinstance(node, _HierarchyNode) \
            and self._components.get(node._hierarchy) is node._component

    def root_children(self, hierarchy: str | None = None) -> list[GNode]:
        """The root's children here, in one hierarchy or — without
        ``hierarchy`` — in all of them, in hierarchy order.  A shell's
        include its temporaries, which the root's own table (its
        version's) does not hold."""
        if hierarchy is not None:
            component = self._components.get(hierarchy)
            return [] if component is None else component.top_nodes
        out: list[GNode] = []
        for component in self._components.values():
            out.extend(component.top_nodes)
        return out

    def parent_of(self, node: GNode) -> GNode | None:
        """The single within-hierarchy parent of ``node``, if it has
        one: a top-level hierarchy node stores none, because the node
        is shared between versions and its parent is this version's
        root."""
        parent = node.parent
        if parent is None and isinstance(node, _HierarchyNode):
            return self.root
        return parent

    def iter_nodes(self, include_leaves: bool = True,
                   include_attributes: bool = False) -> Iterator[GNode]:
        """All nodes in global document order (Definition 3)."""
        yield self.root
        for name in self.hierarchy_names:
            for node in self._components[name].nodes:
                yield node
                if include_attributes and isinstance(node, GElement):
                    yield from node.attribute_nodes
        if include_leaves:
            yield from self.partition.leaves()

    def elements(self, name: str | None = None) -> Iterator[GElement]:
        """All element nodes (optionally with a given name), in order."""
        for node in self.iter_nodes(include_leaves=False):
            if isinstance(node, GElement):
                if name is None or node.name == name:
                    yield node

    # -- leaves -------------------------------------------------------------

    def leaves(self) -> list[GLeaf]:
        """All leaves in text order."""
        return self.partition.leaves()

    def leaves_of(self, node: GNode) -> list[GLeaf]:
        """``leaves(n)`` from the paper: leaves within the node's span."""
        if isinstance(node, GLeaf):
            return [node]
        if not node.has_leaves:
            return []
        return self.partition.leaves_in(node.start, node.end)

    def text_parents_of_leaf(self, leaf: GLeaf) -> list[GText]:
        """The text node containing ``leaf`` in each hierarchy.

        Paper §3: "(n, l) in E iff l ⊆ content(n)" — every leaf has one
        containing text node per hierarchy because each hierarchy's text
        nodes tile the base text.
        """
        from bisect import bisect_right

        parents: list[GText] = []
        for name in self.hierarchy_names:
            component = self._components[name]
            index = bisect_right(component.text_starts, leaf.start) - 1
            if index < 0:
                continue
            candidate = component.text_nodes[index]
            if candidate.start <= leaf.start and leaf.end <= candidate.end:
                parents.append(candidate)
        return parents

    # -- ordering ---------------------------------------------------------
    #
    # Definition 3 keys are packed into one int64 (DESIGN.md §1):
    #
    #   bits 61-62  tier    0 root | 1 hierarchy nodes | 2 leaves
    #   bits 45-60  rank    hierarchy registration rank   (< 2^16)
    #   bits 13-44  major   preorder (tier 1)             (< 2^32)
    #   bits  0-12  minor   0 node itself, 1+i its i-th attribute
    #
    # Leaves use the whole sub-tier payload for their start offset.
    # Packed keys compare exactly like the former tuples but fit numpy
    # int64, so ``sort_nodes`` can argsort large sets.

    _RANK_LIMIT = 1 << 16
    _PREORDER_LIMIT = 1 << 32
    _ATTR_LIMIT = (1 << 13) - 1

    def order_key(self, node: GNode) -> int:
        """Packed int64 key implementing the Definition 3 node order."""
        key = node._okey
        if key is None:
            key = node._okey = self._compute_order_key(node)
        return key

    def _compute_order_key(self, node: GNode) -> int:
        if node is self.root:
            return 0
        if isinstance(node, GAttr):
            owner = node.owner
            attr_index = owner.attribute_nodes.index(node)
            return self._pack_hierarchy_key(owner, 1 + attr_index)
        if isinstance(node, _HierarchyNode):
            return self._pack_hierarchy_key(node, 0)
        if isinstance(node, GLeaf):
            return (2 << 61) | node.start
        raise GoddagError(f"cannot order node of kind {node.kind!r}")

    def _pack_hierarchy_key(self, node: _HierarchyNode, minor: int) -> int:
        rank = self._components[node.hierarchy].rank
        if (rank >= self._RANK_LIMIT or node.preorder >= self._PREORDER_LIMIT
                or minor > self._ATTR_LIMIT):
            raise GoddagError(
                "document-order key overflow: rank/preorder/attribute "
                f"position ({rank}, {node.preorder}, {minor}) exceeds the "
                "packed int64 layout (see DESIGN.md §1)")
        return (1 << 61) | (rank << 45) | (node.preorder << 13) | minor

    #: Below this size Timsort with a key function beats the numpy
    #: round-trip; above it vectorized argsort wins (see DESIGN.md §1).
    _ARGSORT_THRESHOLD = 256

    def sort_nodes(self, nodes: list[GNode]) -> list[GNode]:
        """Sort a node list into global document order, dropping dups."""
        unique: dict[int, GNode] = {id(node): node for node in nodes}
        items = list(unique.values())
        if len(items) >= self._ARGSORT_THRESHOLD:
            order_key = self.order_key
            keys = np.fromiter((order_key(node) for node in items),
                               dtype=np.int64, count=len(items))
            return [items[i] for i in np.argsort(keys, kind="stable")]
        items.sort(key=self.order_key)
        return items

    # -- string values ---------------------------------------------------------

    def string_value(self, node: GNode) -> str:
        """The XPath string value of any node."""
        return node.string_value()

    # -- span index (for extended axes) ------------------------------------

    def span_index(self):
        """The lazily built, incrementally maintained span index.

        Built once on first use; hierarchy adds/removes afterwards are
        merged in place (DESIGN.md §6) instead of discarding it.
        """
        index = self._index
        if index is None:
            source = self._source
            if source is not None:
                # a shell's reads through its source's, built there
                # once for every evaluation to come
                index = source.span_index().shell()
                for component in self._components.values():
                    if component.temporary:
                        index.add_component(component)
                self._index = index
                return index
            # imported on the build branch only: the accessor sits on
            # every per-node probe's path and an import statement costs
            # ~1 µs per execution even when the module is loaded
            from repro.core.goddag.index import SpanIndex

            index = SpanIndex(self)
            self._index = index
            self.index_full_builds += 1
        return index


class _ComponentWriter:
    """Writes one hierarchy's rows: the only producer of a
    :class:`_HierarchyComponent` that is not read from a file.

    A source pushes the hierarchy at it in document order —
    :meth:`root` for the document element, :meth:`add` for every node
    below it, :meth:`close` where an element ends, :meth:`aside` for a
    comment or PI outside the document element — and takes the
    component from :meth:`finish`.  A row's number is its preorder, an
    element's span and subtree end where the walk leaves it, and the
    text must spell out the base text as it arrives.  The sources call
    in; they do not hand over event tuples (DESIGN.md §15 has the
    numbers).  The XML tokenizer, which numbers a whole encoding's rows
    by array arithmetic, hands them over in one call instead
    (:meth:`encoding`), and the text is held against the base text
    there.  Names are interned per component, so a hierarchy that
    fails half way is dropped with its writer and nothing is left
    behind.  Errors are the document's
    (:class:`~repro.errors.CMHError`,
    :class:`~repro.errors.AlignmentError`).
    """

    def __init__(self, text: str, root_name: str | None, name: str,
                 rank: int, temporary: bool = False) -> None:
        self.text = text
        #: ``None``: the first hierarchy of a document names the root
        self.root_name = root_name
        self.name = name
        self.rank = rank
        self.temporary = temporary
        self.cursor = 0
        self.names: list[str] = []
        self.kinds: list[int] = []
        self.name_ids: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.subtree_ends: list[int] = []
        self.attrs: list[list] = []
        self.comments: list[list] = []
        self.pis: list[list] = []
        self.prolog: list[list] = []
        self.epilog: list[list] = []
        self.root_attrs: dict[str, str] | None = None  # until root()
        self._interned: dict[str, int] = {}
        self._open: list[int] = []  # rows of the elements not yet closed
        self._parent = -1

    def root(self, name: str, attrs=None) -> None:
        """The document element opens (it is no row: every hierarchy
        shares the root node)."""
        if self.root_name is None:
            self.root_name = name
        elif name != self.root_name:
            raise other_root(self.name, name, self.root_name)
        self.root_attrs = dict(attrs) if attrs else {}

    def aside(self, entry: list) -> None:
        """A comment (``["comment", data]``) or PI (``["pi", target,
        data]``) before or after the document element."""
        (self.prolog if self.root_attrs is None
         else self.epilog).append(entry)

    def add(self, kind: int, label: str | None = None, data=None) -> None:
        """Append the row of one node: text (``data`` its characters),
        an element that stays open until :meth:`close` (``label`` its
        name, ``data`` its attributes), a comment, or a PI (``label``
        its target).  Every hierarchy row is written here, and here
        alone is an encoding's text held against the base text."""
        kinds = self.kinds
        row = last = len(kinds)
        start = end = self.cursor
        parent = self._parent
        name_id = -1
        if kind == KIND_TEXT:
            end = start + len(data)
            if self.text[start:end] != data:
                raise diverges(self.name, self.text, start, data)
            self.cursor = end
        elif kind == KIND_COMMENT:
            self.comments.append([row, data])
        else:
            name_id = self._interned.get(label)
            if name_id is None:
                name_id = self._interned[label] = len(self.names)
                self.names.append(label)
            if kind == KIND_PI:
                self.pis.append([row, data])
            else:
                if data:
                    self.attrs.append([row, dict(data)])
                end = last = -1  # until close()
                self._open.append(row)
                self._parent = row
        kinds.append(kind)
        self.name_ids.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.subtree_ends.append(last)

    def close(self) -> None:
        """The innermost open element ends here."""
        open_rows = self._open
        row = open_rows.pop()
        self.ends[row] = self.cursor
        self.subtree_ends[row] = len(self.kinds) - 1
        self._parent = open_rows[-1] if open_rows else -1

    def finish(self) -> _HierarchyComponent:
        """The component, once the text is covered to its end."""
        if self.cursor != len(self.text):
            raise falls_short(self.name, self.text, self.cursor)
        columns = {key: np.asarray(getattr(self, key), dtype=np.int64)
                   for key in COLUMNS[:-1]}
        columns["kinds"] = columns["kinds"].astype(np.int8)
        return self._component(columns)

    def encoding(self, *, kinds: np.ndarray, name_ids: np.ndarray,
                 parents: np.ndarray, subtree_ends: np.ndarray,
                 lengths: np.ndarray, texts: list[str], names: list[str],
                 attrs: list, comments: list, pis: list
                 ) -> _HierarchyComponent:
        """The component of a whole encoding's rows, handed over at
        once after :meth:`root` (and :meth:`aside` around it): the
        columns :meth:`add` and :meth:`close` would have written, but
        the spans, which come from ``lengths`` (each row's text, 0 for
        a row that is not text) here.  ``texts`` are the text rows'
        characters; one compare holds them against the base text, and
        only when it fails are they walked for the first row that
        diverges, for :meth:`add`'s and :meth:`finish`'s errors."""
        text = self.text
        if "".join(texts) != text:
            cursor = 0
            for data in texts:
                end = cursor + len(data)
                if text[cursor:end] != data:
                    raise diverges(self.name, text, cursor, data)
                cursor = end
            raise falls_short(self.name, text, cursor)
        starts, ends = row_spans(lengths, subtree_ends)
        self.names = names
        self.attrs, self.comments, self.pis = attrs, comments, pis
        return self._component({
            "kinds": kinds, "name_ids": name_ids, "starts": starts,
            "ends": ends, "parents": parents, "subtree_ends": subtree_ends})

    def _component(self, columns: dict[str, np.ndarray]
                   ) -> _HierarchyComponent:
        return _HierarchyComponent(
            self.name, self.rank, self.temporary, names=self.names,
            columns=columns, attrs=self.attrs, comments=self.comments,
            pis=self.pis, prolog=self.prolog, epilog=self.epilog,
            root_attrs=self.root_attrs or {})


def row_spans(lengths: np.ndarray, subtree_ends: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """Every row's span, from the characters each row holds in preorder
    (its text; 0 for a row that is not text) and its subtree's last
    row: a row starts where the text before it ends and ends where its
    subtree's text does.  How the tokenizer and an update's row edits
    (:mod:`repro.core.update.apply`) number their spans."""
    cursor = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    return cursor[:-1], cursor[subtree_ends + 1]


#: what XML skips between a PI's target and its data
#: (``markup.parser.XMLParser._parse_pi``): data a DOM was handed with
#: such a lead would not read back from the document's own ``to_xml()``
_XML_SPACE = " \t\r\n"


def dom_component(writer: _ComponentWriter,
                  document: dom.Document) -> _HierarchyComponent:
    """The columns of one hierarchy given as a DOM: one preorder walk
    pushing into ``writer`` — the one way a DOM becomes rows
    (``MultihierarchicalDocument.add_hierarchy`` of a
    ``Hierarchy(name, dom)``, what the parser made of a source the
    tokenizer does not take on, an export validation wrote defaults
    into)."""
    for child in document.children:
        if isinstance(child, dom.Element):
            writer.root(child.name, child.attributes)
            _push_children(child.children, writer.add, writer.close)
        elif isinstance(child, dom.Comment):
            writer.aside(["comment", child.data])
        elif isinstance(child, dom.ProcessingInstruction):
            writer.aside(["pi", child.target,
                          child.data.lstrip(_XML_SPACE)])
    return writer.finish()


def _push_children(children: list[dom.Node], add, close,
                   Text=dom.Text, Element=dom.Element) -> None:
    # a module-level function (a closure calling itself is a cycle that
    # keeps the writer until the collector runs); the classes
    # are bound as locals because the loop is hot
    for node in children:
        if isinstance(node, Text):
            add(KIND_TEXT, None, node.data)
        elif isinstance(node, Element):
            add(KIND_ELEMENT, node.name, node.attributes)
            _push_children(node.children, add, close)
            close()
        elif isinstance(node, dom.Comment):
            add(KIND_COMMENT, None, node.data)
        elif isinstance(node, dom.ProcessingInstruction):
            add(KIND_PI, node.target, node.data.lstrip(_XML_SPACE))
        # doctype/etc. — nothing to represent


def span_component(writer: _ComponentWriter,
                   spans: list[Span]) -> _HierarchyComponent:
    """The columns of one hierarchy given as properly nesting spans in
    document order (:meth:`SpanSet.sorted_spans`), pushed into
    ``writer``: the root it names, the spans as elements, and the text
    between and inside them, each character in exactly one text node.
    No DOM is built — this is what every ``analyze-string`` call and
    every standoff layer registers."""
    add, close = writer.add, writer.close
    text = writer.text
    writer.root(writer.root_name)
    open_ends = [len(text)]  # ends of the open elements; the root's first

    def text_until(target: int) -> None:
        """Text up to ``target``, closing the elements that end on the
        way (and those that end at ``target`` itself)."""
        while True:
            while len(open_ends) > 1 and open_ends[-1] <= writer.cursor:
                open_ends.pop()
                close()
            stop = min(target, open_ends[-1])
            if stop <= writer.cursor:
                return
            add(KIND_TEXT, None, text[writer.cursor:stop])

    for span in spans:
        text_until(span.start)
        if span.end > open_ends[-1]:
            raise CMHError(
                f"span <{span.name}> [{span.start}, {span.end}) escapes "
                f"its enclosing element ending at {open_ends[-1]}")
        add(KIND_ELEMENT, span.name, span.attributes)
        open_ends.append(span.end)
    text_until(len(text))
    return writer.finish()


def _check_fits(component: _HierarchyComponent, old: _HierarchyComponent,
                length: int) -> None:
    """``component`` may stand where ``old`` stands over a base text of
    ``length`` characters: same rank and temporariness, and text rows
    that tile ``[0, length)``.  Raises :class:`GoddagError` before
    anything is taken apart."""
    texts = component.kinds == KIND_TEXT
    tiles = np.array_equal(
        np.concatenate((component.starts[texts], [length])),
        np.concatenate(([0], component.ends[texts])))
    if component.rank != old.rank or component.temporary != old.temporary \
            or not tiles:
        raise GoddagError(
            f"component '{component.name}' does not fit: it must keep "
            f"rank {old.rank} and temporary={old.temporary}, and its text "
            f"rows must tile the {length}-character base text")


def hierarchy_components(document: MultihierarchicalDocument,
                         own: bool = False
                         ) -> Iterator[_HierarchyComponent]:
    """Every hierarchy of ``document`` as its columns, ranked in
    registration order.  They stay the document's; a caller that makes
    nodes asks for its ``own`` — a private copy of each."""
    for hierarchy in document.hierarchies.values():
        component = hierarchy.component
        yield component.private_copy() if own else component


def normal_rows(columns: dict[str, np.ndarray]
                ) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """``columns`` (all but ``okeys``) as a serialize/parse round trip
    leaves them: the one normalisation of edited rows — an update's
    (DESIGN.md §9) and a fused corpus's (§13).

    Zero-length text rows go, and of each run of text rows under one
    parent the first stays and ends where the last did.  ``parents``
    and ``subtree_ends`` are renumbered by the keep-mask: a dropped
    row's number reads the last kept row at or before it, which is
    where a subtree that ended on it now ends.  Returns the columns and
    that renumbering, for what else is keyed by row.
    """
    kinds, starts, ends = columns["kinds"], columns["starts"], columns["ends"]
    parents = columns["parents"]
    texts = kinds == KIND_TEXT
    rows = np.flatnonzero(~texts | (ends > starts))
    text_row, parent = texts[rows], parents[rows]
    # a text row right behind a text row of the same parent continues it
    continues = np.zeros(len(rows), dtype=bool)
    continues[1:] = (text_row[1:] & text_row[:-1]
                     & (parent[1:] == parent[:-1]))
    heads = np.flatnonzero(~continues)
    # the rows that stay, and for each the row its run ends with (itself,
    # unless it is text)
    last = rows[np.append(heads, len(rows))[1:] - 1]
    rows = rows[heads]
    keep = np.zeros(len(kinds), dtype=bool)
    keep[rows] = True
    renumber = np.cumsum(keep) - 1
    parents = parents[rows]
    return {"kinds": kinds[rows], "name_ids": columns["name_ids"][rows],
            "starts": starts[rows], "ends": ends[last],
            "parents": np.where(parents < 0, -1, renumber[parents]),
            "subtree_ends": renumber[columns["subtree_ends"][rows]]
            }, renumber


def partition_arrays(text: str, components: list[_HierarchyComponent]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The leaf partition's boundary multiset as sorted ``(offsets,
    refcounts)``, off the columns: what
    :meth:`~repro.core.goddag.partition.Partition.export_arrays` gives
    for a structure holding exactly ``components``."""
    ends = np.array(sorted({0, len(text)}), dtype=np.int64)
    return np.unique(
        np.concatenate([ends, *(component.boundaries
                                for component in components)]),
        return_counts=True)
