"""The KyGODDAG data structure (paper §3).

A :class:`KyGoddag` holds the shared base text, the shared root node,
one component of hierarchy nodes per markup hierarchy, and the leaf
partition.  Hierarchies may be added from an aligned DOM document or
from a :class:`~repro.cmh.spans.SpanSet`, and may be registered as
*temporary* — the mechanism behind ``analyze-string`` (Definition 4),
whose match markup lives in a hierarchy that disappears when query
evaluation finishes.

Node order follows the paper's Definition 3: root first, nodes of one
hierarchy in its DOM document order, hierarchies ordered by (stable)
registration rank.  Leaves are shared; we place them after all
hierarchy components, ordered by text position (documented choice, see
DESIGN.md).  Order keys are packed int64 integers (DESIGN.md §1), so
large node sets sort through ``np.argsort`` instead of Python tuple
comparisons.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.errors import GoddagError
from repro.markup import dom
from repro.cmh.document import MultihierarchicalDocument
from repro.cmh.spans import SpanSet
from repro.core.goddag.nodes import (
    GAttr,
    GComment,
    GElement,
    GLeaf,
    GNode,
    GPi,
    GRoot,
    GText,
    _HierarchyNode,
)
from repro.core.goddag.partition import Partition


class _HierarchyComponent:
    """Bookkeeping for one hierarchy inside the KyGODDAG."""

    def __init__(self, name: str, rank: int, temporary: bool) -> None:
        self.name = name
        self.rank = rank
        self.temporary = temporary
        # All nodes of the component in preorder (excluding the root).
        # ``nodes[i].preorder == i``, so every standard axis over this
        # hierarchy is a contiguous slice of this list (DESIGN.md §5).
        self.nodes: list[_HierarchyNode] = []
        # Text nodes in text order, with parallel start offsets for
        # binary search (leaf -> parent text node lookup).
        self.text_nodes: list[GText] = []
        self.text_starts: list[int] = []
        # Boundary offsets this hierarchy contributed to the partition.
        self.boundaries: list[int] = []
        # Lazy parallel arrays over ``nodes`` (immutable after build).
        self._nodes_arr: np.ndarray | None = None
        self._subtree_ends_arr: np.ndarray | None = None
        self._name_index: dict[str, "_NameEntry"] | None = None

    def node_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``(nodes, subtree_ends)`` as parallel arrays, preorder order.

        Reads capture both fields locally so a concurrent
        :meth:`release_arrays` (retired-version hygiene) can never be
        observed half-way; the fill is idempotent, so racing rebuilds
        are wasted work, not wrong answers.
        """
        arr = self._nodes_arr
        ends = self._subtree_ends_arr
        if arr is None or ends is None:
            count = len(self.nodes)
            arr = np.empty(count, dtype=object)
            for position, node in enumerate(self.nodes):
                arr[position] = node
            ends = np.fromiter(
                (node.subtree_end for node in self.nodes),
                dtype=np.int64, count=count)
            self._nodes_arr = arr
            self._subtree_ends_arr = ends
        return arr, ends

    def name_entry(self, name: str) -> "_NameEntry | None":
        """The per-name element index entry (DESIGN.md §8).

        Elements named ``name`` in preorder, with parallel preorder /
        subtree-end arrays: a named ``descendant``/``following``/
        ``preceding`` step over this hierarchy is then one bisect plus
        a slice of the name's own (usually tiny) list instead of a scan
        of the whole component.  Built lazily (and captured locally,
        against a concurrent :meth:`release_arrays`) — components are
        immutable after registration.
        """
        index = self._name_index
        if index is None:
            grouped: dict[str, list] = {}
            for node in self.nodes:
                if isinstance(node, GElement):
                    grouped.setdefault(node.name, []).append(node)
            index = {
                name_: _NameEntry(members) for name_, members in
                grouped.items()
            }
            self._name_index = index
        return index.get(name)

    def release_arrays(self) -> None:
        """Drop the lazy numpy caches so this component can be freed.

        NumPy object arrays take no part in cyclic garbage collection
        (``ndarray`` has no traversal support), so a retired KyGODDAG
        that still carries them is immortal: goddag -> component ->
        object array -> node -> ``node.goddag`` closes a reference
        cycle the collector cannot see through.  Dropping the arrays
        leaves only ordinary Python containers in the cycle, which the
        collector handles.  All three caches are idempotent lazy
        fills, so a still-pinned reader that needs one again simply
        rebuilds it.
        """
        self._nodes_arr = None
        self._subtree_ends_arr = None
        self._name_index = None


class _NameEntry:
    """All elements of one name in one hierarchy, preorder-ordered."""

    __slots__ = ("nodes", "nodes_arr", "preorders", "subtree_ends")

    def __init__(self, members: list) -> None:
        count = len(members)
        self.nodes = members
        arr = np.empty(count, dtype=object)
        for position, node in enumerate(members):
            arr[position] = node
        self.nodes_arr = arr
        self.preorders = np.fromiter(
            (node.preorder for node in members), dtype=np.int64,
            count=count)
        self.subtree_ends = np.fromiter(
            (node.subtree_end for node in members), dtype=np.int64,
            count=count)


class KyGoddag:
    """The united DAG over all markup hierarchies of one document."""

    def __init__(self, text: str, root_name: str = "r") -> None:
        self.text = text
        self.root = GRoot(self, root_name, len(text))
        self.partition = Partition(self, len(text))
        self._components: dict[str, _HierarchyComponent] = {}
        self._next_rank = 0
        self._index = None  # built lazily by repro.core.goddag.index
        # Full SpanIndex constructions (benchmarks assert that the
        # analyze-string lifecycle never triggers one after warm-up).
        self.index_full_builds = 0
        # Bumped by every mutation (hierarchy add/remove/replace,
        # rename, base-text change).  Compiled-plan caches key on it so
        # a stale plan can never serve a mutated document (DESIGN.md §9).
        self.version = 0
        # Frozen structures back published store snapshots: every
        # persistent mutation raises, so concurrent readers can share
        # them lock-free (DESIGN.md §10).  Temporary (analyze-string)
        # hierarchies stay allowed — their add/remove cycle is part of
        # one evaluation and is serialized by ``read_latch``, which
        # every evaluation path of a frozen structure goes through.
        self.frozen = False
        self.read_latch = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, document: MultihierarchicalDocument) -> "KyGoddag":
        """Build a KyGODDAG from an aligned multihierarchical document."""
        goddag = cls(document.text, document.root_name)
        for name, hierarchy in document.hierarchies.items():
            goddag.add_hierarchy_from_dom(name, hierarchy.document)
        return goddag

    def add_hierarchy_from_dom(self, name: str, document: dom.Document,
                               temporary: bool = False) -> None:
        """Register a hierarchy from an aligned DOM document.

        The document's text nodes must carry ``start``/``end`` spans (as
        produced by CMH alignment) or cover the base text contiguously
        (spans are then derived by walking).
        """
        component = self._new_component(name, temporary)
        builder = _ComponentBuilder(self, component)
        builder.build_from_dom(document.root)
        self._finish_component(component)

    def add_hierarchy_from_spans(self, name: str, spans: SpanSet,
                                 temporary: bool = False) -> None:
        """Register a hierarchy given as a properly-nesting span set."""
        if spans.text != self.text:
            raise GoddagError(
                "span set text differs from the KyGODDAG base text")
        document = spans.to_document(self.root.root_name)
        self.add_hierarchy_from_dom(name, document, temporary=temporary)

    def adopt_component(self, component: _HierarchyComponent,
                        top_nodes: list[_HierarchyNode],
                        root_attributes: dict[str, str]) -> None:
        """Attach a fully reconstructed hierarchy component.

        The ``.mhxb`` cold-load path (DESIGN.md §10): the caller built
        the component's node objects straight from persisted arrays —
        preorder numbers, subtree ends, spans, boundaries and text-node
        tables already filled — so nothing is re-derived here.  The
        partition and span index are restored wholesale by the same
        caller; this only wires the component into the catalog and the
        shared root.
        """
        if component.name in self._components:
            raise GoddagError(
                f"duplicate hierarchy name '{component.name}'")
        self._components[component.name] = component
        self._next_rank = max(self._next_rank, component.rank + 1)
        self.root.children_by_hierarchy[component.name] = list(top_nodes)
        self.root.attributes_by_hierarchy[component.name] = dict(
            root_attributes)

    def _new_component(self, name: str,
                       temporary: bool) -> _HierarchyComponent:
        if self.frozen and not temporary:
            self._frozen_violation(f"add hierarchy '{name}'")
        if name in self._components:
            raise GoddagError(f"duplicate hierarchy name '{name}'")
        component = _HierarchyComponent(name, self._next_rank, temporary)
        self._next_rank += 1
        self._components[name] = component
        return component

    def _finish_component(self, component: _HierarchyComponent) -> None:
        self.partition.add_boundaries(component.boundaries)
        if self._index is not None:
            # Merge the new hierarchy into the live index instead of
            # discarding it (DESIGN.md §6) — the analyze-string hot path.
            self._index.add_component(component)
        if not component.temporary:
            # Temporary (query-scoped) hierarchies never invalidate
            # compiled plans: their add/remove cycle is part of one
            # evaluation, not a document mutation.
            self.version += 1

    def remove_hierarchy(self, name: str) -> None:
        """Remove a hierarchy; leaves split only by it coalesce again."""
        component = self._components.get(name)
        if component is None:
            raise GoddagError(f"no hierarchy named '{name}'")
        if self.frozen and not component.temporary:
            self._frozen_violation(f"remove hierarchy '{name}'")
        del self._components[name]
        self.partition.remove_boundaries(component.boundaries)
        self.root.children_by_hierarchy.pop(name, None)
        self.root.attributes_by_hierarchy.pop(name, None)
        self.root.invalidate_child_positions(name)
        if self._index is not None:
            self._index.remove_component(component)
        # Recycle the topmost rank so LIFO add/remove cycles — the
        # analyze-string temporary-hierarchy lifecycle — never exhaust
        # the packed order key's 16-bit rank field.  Safe because no
        # live hierarchy holds a rank >= the recycled one.
        if component.rank == self._next_rank - 1:
            self._next_rank = component.rank
            while self._next_rank > 0 and not any(
                    comp.rank == self._next_rank - 1
                    for comp in self._components.values()):
                self._next_rank -= 1
        if not component.temporary:
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
        """Pin the structure so concurrent readers can share it lock-free.

        Materializes every lazily built read structure (span index,
        partition boundary array and leaf list, per-component parallel
        arrays), marks the numeric arrays read-only, and flips
        ``frozen``: persistent mutations raise from then on.  Remaining
        lazy caches (name masks, per-name element indexes, order keys)
        are idempotent fills — safe to race under the GIL.

        ``read_latch`` serializes the one mutating query construct
        (``analyze-string`` temporaries) against plain readers: every
        evaluation path over a frozen KyGODDAG — snapshot queries and
        direct :class:`~repro.api.Engine` calls alike — acquires it.
        """
        from repro.util.concurrency import ReadWriteLatch

        index = self.span_index()
        index.freeze()
        self.partition.freeze()
        for component in self._components.values():
            component.node_arrays()
        if self.read_latch is None:
            self.read_latch = ReadWriteLatch()
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
        self.read_latch = None

    # ------------------------------------------------------------------
    # mutation (the transactional update engine, DESIGN.md §9)
    # ------------------------------------------------------------------

    def rename_element(self, node: GElement, name: str) -> None:
        """Rename one element in place.

        Structure, spans, preorder numbers and order keys are all
        untouched, so only the name-derived caches need patching: the
        component's per-name element index and the span index's name
        arrays.
        """
        if self.frozen:
            self._frozen_violation(f"rename element <{node.name}>")
        component = self._components.get(node.hierarchy)
        if component is None or node.preorder < 0 \
                or node.preorder >= len(component.nodes) \
                or component.nodes[node.preorder] is not node:
            raise GoddagError(
                "rename target is not a registered node of this KyGODDAG")
        node._name = name
        component._name_index = None
        if self._index is not None:
            self._index.rename_node(node)
        self.version += 1

    def replace_hierarchy(self, name: str, document: dom.Document) -> None:
        """Re-register one hierarchy from a mutated DOM, keeping its rank.

        The incremental mutation path: the old component's boundaries
        are spliced out of the partition and its sub-arrays compressed
        out of the span index, then the fresh component merges back in —
        every *other* hierarchy's nodes, leaves, caches and order keys
        survive untouched.  The base text must be unchanged; use
        :meth:`rebuild_hierarchies` when it is not.
        """
        if self.frozen:
            self._frozen_violation(f"replace hierarchy '{name}'")
        component = self._components.get(name)
        if component is None:
            raise GoddagError(f"no hierarchy named '{name}'")
        self.partition.remove_boundaries(component.boundaries)
        if self._index is not None:
            self._index.remove_component(component)
        self._detach_component_root(name)
        fresh = _HierarchyComponent(name, component.rank,
                                    component.temporary)
        # Assigning to the existing key keeps the dict position, so the
        # Definition 3 iteration order (registration order) is stable.
        self._components[name] = fresh
        builder = _ComponentBuilder(self, fresh)
        builder.build_from_dom(document.root)
        self._finish_component(fresh)

    def rebuild_hierarchies(self, text: str,
                            documents: dict[str, dom.Document]) -> None:
        """Swap the base text and re-register every hierarchy, in order.

        Used when an update changes the text itself (insert/delete/
        replace value): all spans shift, so every component and the leaf
        partition are rebuilt — but ranks are kept, the span index is
        patched by per-component surgery plus a root re-seed, and no XML
        is ever re-parsed.
        """
        if self.frozen:
            self._frozen_violation("rebuild hierarchies over new text")
        if set(documents) != set(self._components):
            raise GoddagError(
                "rebuild_hierarchies needs exactly the registered "
                "hierarchies")
        index = self._index
        if index is not None:
            for component in self._components.values():
                index.remove_component(component)
        self.text = text
        self.root.end = len(text)
        if index is not None:
            index.reset_root()
        self.partition = Partition(self, len(text))
        for name, old in list(self._components.items()):
            self._detach_component_root(name)
            fresh = _HierarchyComponent(name, old.rank, old.temporary)
            self._components[name] = fresh
            builder = _ComponentBuilder(self, fresh)
            builder.build_from_dom(documents[name].root)
            self._finish_component(fresh)
        self.version += 1

    def _detach_component_root(self, name: str) -> None:
        self.root.children_by_hierarchy.pop(name, None)
        self.root.attributes_by_hierarchy.pop(name, None)
        self.root.invalidate_child_positions(name)

    def check_invariants(self) -> None:
        """Verify the full structural contract (DESIGN.md §9).

        Order-key monotonicity over Definition 3, per-hierarchy span
        containment and preorder consistency, text tiling, partition
        boundary bookkeeping, and span-index array coherence.  Raises
        :class:`~repro.errors.GoddagError` on the first violation — the
        post-apply safety net of the update engine.
        """
        from repro.core.goddag.invariants import check_invariants

        check_invariants(self)

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

    def nodes_of(self, hierarchy: str) -> list[_HierarchyNode]:
        """All nodes of one component in document (pre)order."""
        return self._components[hierarchy].nodes

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
            # imported on the build branch only: the accessor sits on
            # every per-node probe's path and an import statement costs
            # ~1 µs per execution even when the module is loaded
            from repro.core.goddag.index import SpanIndex

            index = SpanIndex(self)
            self._index = index
            self.index_full_builds += 1
        return index

    def release_caches(self) -> None:
        """Shed the caches that would make a retired version immortal.

        The span index and the per-component node arrays hold KyGODDAG
        nodes inside numpy object arrays, which the cyclic garbage
        collector cannot traverse; through ``node.goddag`` they pin
        this whole structure forever once it leaves the catalog (the
        MVCC single-writer path retires one version per update).  The
        store calls this on every version it unpublishes.  Readers
        still pinned to this version stay correct: every released
        cache is a lazily rebuilt idempotent fill.
        """
        self._index = None
        for component in self._components.values():
            component.release_arrays()


class _ComponentBuilder:
    """Translates one aligned DOM tree into a hierarchy component."""

    def __init__(self, goddag: KyGoddag, component: _HierarchyComponent
                 ) -> None:
        self.goddag = goddag
        self.component = component
        self.cursor = 0

    def build_from_dom(self, root_element: dom.Element) -> None:
        goddag, component = self.goddag, self.component
        if root_element.name != goddag.root.root_name:
            raise GoddagError(
                f"hierarchy '{component.name}' has root element "
                f"'{root_element.name}', expected '{goddag.root.root_name}'")
        goddag.root.attributes_by_hierarchy[component.name] = dict(
            root_element.attributes)
        children = [self._convert(child, goddag.root)
                    for child in root_element.children]
        goddag.root.children_by_hierarchy[component.name] = [
            child for child in children if child is not None]
        if self.cursor != len(goddag.text):
            raise GoddagError(
                f"hierarchy '{component.name}' text covers {self.cursor} "
                f"of {len(goddag.text)} characters")
        self._assign_preorder()
        self._collect_boundaries()

    def _convert(self, node: dom.Node, parent: GNode) -> _HierarchyNode | None:
        goddag, component = self.goddag, self.component
        if isinstance(node, dom.Text):
            start = self.cursor
            end = start + len(node.data)
            if goddag.text[start:end] != node.data:
                raise GoddagError(
                    f"hierarchy '{component.name}' text diverges from the "
                    f"base text at offset {start}")
            self.cursor = end
            gtext = GText(goddag, component.name, start, end)
            gtext._parent = parent
            component.text_nodes.append(gtext)
            component.text_starts.append(start)
            return gtext
        if isinstance(node, dom.Element):
            element = GElement(goddag, component.name, node.name,
                               self.cursor, self.cursor, node.attributes)
            element._parent = parent
            converted = [self._convert(child, element)
                         for child in node.children]
            element.children = [c for c in converted if c is not None]
            element.end = self.cursor
            return element
        if isinstance(node, dom.Comment):
            comment = GComment(goddag, component.name, self.cursor, node.data)
            comment._parent = parent
            return comment
        if isinstance(node, dom.ProcessingInstruction):
            pi = GPi(goddag, component.name, self.cursor, node.target,
                     node.data)
            pi._parent = parent
            return pi
        return None  # doctype/etc. — nothing to represent

    def _assign_preorder(self) -> None:
        """Number the component's nodes in preorder; record subtree ends."""
        nodes = self.component.nodes
        counter = 0

        def visit(node: _HierarchyNode) -> None:
            nonlocal counter
            node.preorder = counter
            counter += 1
            nodes.append(node)
            if isinstance(node, GElement):
                for child in node.children:
                    visit(child)  # type: ignore[arg-type]
            node.subtree_end = counter - 1

        for top in self.goddag.root.children_by_hierarchy[
                self.component.name]:
            visit(top)  # type: ignore[arg-type]

    def _collect_boundaries(self) -> None:
        """Every markup boundary of this hierarchy, for the partition."""
        offsets: list[int] = []
        for node in self.component.nodes:
            offsets.append(node.start)
            offsets.append(node.end)
        self.component.boundaries = offsets
