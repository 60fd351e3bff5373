"""KyGODDAG statistics — Figure 2 inventory and plan-time statistics.

The paper's Figure 2 is a drawing; its checkable content is the node
and edge inventory of the KyGODDAG built from Figure 1's encodings.
:func:`collect` computes that inventory so the FIG2 benchmark (and
EXPERIMENTS.md) can compare counts.  It is vectorized over the
hierarchy components' columns (``tests/test_plan_cost.py`` checks it
against a per-node walk) because the same columns feed
:class:`PlanStats` on the plan-compile path (DESIGN.md §16): per
hierarchy per-name cardinalities, per-name span sums and bounds, and
equi-depth histograms over the element start/length columns — enough
for the cost model in :mod:`repro.core.plan.cost` to rank join orders
and semi-join probes.  Every aggregate groups integer name ids and
maps them to names afterwards; no object column is sorted.

``PlanStats`` is versioned with :attr:`KyGoddag.version` and travels
with the document: :func:`plan_stats_payload` computes the identical
payload straight from ``.mhxb`` arrays at save time (see
``repro.store.mhxb._pack``) through the same aggregation as
:func:`collect_plan_stats`, so a cold-loaded engine costs plans
without re-scanning, and :meth:`PlanStats.fingerprint` (which excludes
the version — identical documents share costed plans) keys the shared
plan cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.goddag.goddag import (
    KIND_COMMENT,
    KIND_ELEMENT,
    KIND_PI,
    KIND_TEXT,
    KyGoddag,
)

#: Equi-depth histogram buckets; the boundary lists carry buckets + 1
#: entries (``np.quantile(..., method="lower")`` picks actual data
#: points, so the payloads stay integral and deterministic).
HIST_BUCKETS = 16


@dataclass
class HierarchyStats:
    """Node counts for one hierarchy component."""

    name: str
    temporary: bool
    elements_by_name: dict[str, int] = field(default_factory=dict)
    text_nodes: int = 0
    comments: int = 0
    processing_instructions: int = 0
    tree_edges: int = 0
    text_leaf_edges: int = 0

    @property
    def element_count(self) -> int:
        return sum(self.elements_by_name.values())


@dataclass
class GoddagStats:
    """The full KyGODDAG inventory."""

    text_length: int
    leaf_count: int
    hierarchies: list[HierarchyStats] = field(default_factory=list)

    @property
    def node_count(self) -> int:
        """All nodes: root + hierarchy nodes + leaves."""
        per_hierarchy = sum(
            h.element_count + h.text_nodes + h.comments
            + h.processing_instructions
            for h in self.hierarchies)
        return 1 + per_hierarchy + self.leaf_count

    @property
    def edge_count(self) -> int:
        """All edges: tree edges plus text→leaf edges."""
        return sum(h.tree_edges + h.text_leaf_edges
                   for h in self.hierarchies)

    def rows(self) -> list[tuple[str, str]]:
        """(label, value) rows for tabular printing."""
        out: list[tuple[str, str]] = [
            ("text length", str(self.text_length)),
            ("leaves", str(self.leaf_count)),
            ("total nodes", str(self.node_count)),
            ("total edges", str(self.edge_count)),
        ]
        for hierarchy in self.hierarchies:
            elements = ", ".join(
                f"{name}:{count}" for name, count
                in sorted(hierarchy.elements_by_name.items()))
            out.append((
                f"hierarchy {hierarchy.name}",
                f"elements[{elements}] text:{hierarchy.text_nodes} "
                f"edges:{hierarchy.tree_edges}+{hierarchy.text_leaf_edges}"))
        return out


def _text_leaf_edge_count(bounds: np.ndarray, starts: np.ndarray,
                          ends: np.ndarray) -> int:
    """Vectorized ``sum(len(partition.leaves_in(s, e)))`` over spans.

    Mirrors :meth:`Partition.leaves_in` exactly: leaves lying entirely
    within ``[s, e)`` are the boundary slots between the first boundary
    at or after ``s`` and the last boundary at or before ``e``; empty
    spans contribute nothing.
    """
    if not len(starts):
        return 0
    nonempty = starts < ends
    s = starts[nonempty]
    e = ends[nonempty]
    first = np.searchsorted(bounds, s, side="left")
    last = np.searchsorted(bounds, e, side="right") - 1
    return int(np.maximum(last - first, 0).sum())


def collect(goddag: KyGoddag) -> GoddagStats:
    """Compute the node/edge inventory of ``goddag`` (vectorized).

    Everything comes off each hierarchy component's columns: element
    counts per name are one ``bincount`` of the element rows' name ids,
    text nodes, comments and PIs are counted off ``kinds``, tree edges
    are the component's row count (every component node has exactly
    one tree parent — the root or an element), and text→leaf edges are
    two ``searchsorted`` passes over the partition boundary array.  No
    node object is made and the span index is not consulted.
    """
    stats = GoddagStats(text_length=len(goddag.text),
                        leaf_count=len(goddag.partition))
    bounds = goddag.partition.boundary_array
    for name in goddag.hierarchy_names:
        component = goddag._components[name]
        kinds = component.kinds
        hierarchy = HierarchyStats(name=name,
                                   temporary=component.temporary)
        hierarchy.tree_edges = len(kinds)
        hierarchy.comments = int(np.count_nonzero(kinds == KIND_COMMENT))
        hierarchy.processing_instructions = int(
            np.count_nonzero(kinds == KIND_PI))
        hierarchy.elements_by_name = _element_counts(
            component.name_ids[kinds == KIND_ELEMENT], component.names)
        texts = kinds == KIND_TEXT
        hierarchy.text_nodes = int(np.count_nonzero(texts))
        hierarchy.text_leaf_edges = _text_leaf_edge_count(
            bounds, component.starts[texts], component.ends[texts])
        stats.hierarchies.append(hierarchy)
    return stats


def _element_counts(ids: np.ndarray, names: list[str]) -> dict[str, int]:
    """Name -> count of the element name ids ``ids`` (ids into
    ``names``, which holds no name twice): one ``bincount``, mapped to
    names afterwards."""
    counts = np.bincount(ids, minlength=len(names))
    return {names[ident]: int(counts[ident])
            for ident in np.flatnonzero(counts).tolist()}


# ---------------------------------------------------------------------------
# plan-time statistics (DESIGN.md §16)
# ---------------------------------------------------------------------------


@dataclass
class PlanStats:
    """Plan-usable document statistics (DESIGN.md §16).

    One instance summarizes one document version: per-hierarchy
    per-name element cardinalities (``cards``, every element including
    empty spans — the domain of a name test), per-name span aggregates
    over the *nonempty* elements (``names`` — what the interval
    kernels see), and equi-depth histograms over the nonempty element
    start/length columns.  All payload values are integers, so the
    canonical JSON — and therefore :meth:`fingerprint` — is exactly
    reproducible from either the live span index or a ``.mhxb``
    container's arrays.
    """

    version: int
    root_name: str
    text_length: int
    word_count: int
    leaf_count: int
    span_count: int
    hierarchy_names: list[str] = field(default_factory=list)
    #: hierarchy -> element name -> count (all elements, empty included)
    cards: dict[str, dict[str, int]] = field(default_factory=dict)
    #: element name -> {count, total_len, min_start, max_end} over the
    #: nonempty elements of every hierarchy
    names: dict[str, dict[str, int]] = field(default_factory=dict)
    #: equi-depth boundaries (HIST_BUCKETS + 1 values, or [] when the
    #: document has no nonempty elements)
    start_hist: list[int] = field(default_factory=list)
    len_hist: list[int] = field(default_factory=list)

    # -- estimator accessors ------------------------------------------------

    def card(self, name: str) -> int:
        """All elements named ``name`` across every hierarchy."""
        return sum(per.get(name, 0) for per in self.cards.values())

    def nonempty(self, name: str) -> int:
        entry = self.names.get(name)
        return entry["count"] if entry else 0

    def avg_len(self, name: str) -> float:
        """Mean span length of the nonempty elements named ``name``."""
        entry = self.names.get(name)
        if not entry or not entry["count"]:
            return 0.0
        return entry["total_len"] / entry["count"]

    def coverage(self, name: str) -> float:
        """Fraction of the text covered by ``name`` spans (clamped;
        stacked/nested spans can exceed 1.0, so it overestimates what
        nests — ``explain --analyze`` flags the miss)."""
        entry = self.names.get(name)
        if not entry or not self.text_length:
            return 0.0
        return min(1.0, entry["total_len"] / self.text_length)

    def avg_span_len(self) -> float:
        """Mean nonempty element length across all names (histogram
        midpoint estimate; 0.0 for element-free documents)."""
        total = sum(entry["total_len"] for entry in self.names.values())
        count = sum(entry["count"] for entry in self.names.values())
        return total / count if count else 0.0

    def start_fraction_below(self, offset: int) -> float:
        """Estimated fraction of nonempty elements starting before
        ``offset``, read off the equi-depth start histogram."""
        return _hist_fraction_below(self.start_hist, offset)

    # -- identity -----------------------------------------------------------

    def payload(self) -> dict:
        return {
            "version": self.version,
            "root": self.root_name,
            "text_length": self.text_length,
            "word_count": self.word_count,
            "leaf_count": self.leaf_count,
            "span_count": self.span_count,
            "hierarchies": list(self.hierarchy_names),
            "cards": {h: dict(sorted(per.items()))
                      for h, per in self.cards.items()},
            "names": {name: dict(entry)
                      for name, entry in sorted(self.names.items())},
            "start_hist": list(self.start_hist),
            "len_hist": list(self.len_hist),
        }

    def fingerprint(self) -> str:
        """Content hash of the statistics, *excluding* the version.

        Two identical documents at different store versions produce
        the same fingerprint, so the shared plan cache keeps serving
        one costed plan across them; any update that shifts a
        cardinality shifts the fingerprint and retires stale plans.
        """
        payload = self.payload()
        del payload["version"]
        canonical = json.dumps(payload, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @classmethod
    def from_payload(cls, payload: dict) -> "PlanStats":
        return cls(
            version=int(payload["version"]),
            root_name=str(payload["root"]),
            text_length=int(payload["text_length"]),
            word_count=int(payload["word_count"]),
            leaf_count=int(payload["leaf_count"]),
            span_count=int(payload["span_count"]),
            hierarchy_names=[str(n) for n in payload["hierarchies"]],
            cards={str(h): {str(n): int(c) for n, c in per.items()}
                   for h, per in payload["cards"].items()},
            names={str(n): {str(k): int(v) for k, v in entry.items()}
                   for n, entry in payload["names"].items()},
            start_hist=[int(v) for v in payload["start_hist"]],
            len_hist=[int(v) for v in payload["len_hist"]])


def _hist_fraction_below(boundaries: list[int], value: int) -> float:
    """Fraction of the histogram's population below ``value``."""
    if len(boundaries) < 2:
        return 0.5
    position = 0
    for boundary in boundaries:
        if boundary < value:
            position += 1
        else:
            break
    return min(1.0, position / (len(boundaries) - 1))


def _equi_depth(values: np.ndarray) -> list[int]:
    """Equi-depth boundary list over an int column (deterministic:
    ``method="lower"`` always picks actual data points)."""
    if not len(values):
        return []
    quantiles = np.quantile(values, np.linspace(0.0, 1.0,
                                                HIST_BUCKETS + 1),
                            method="lower")
    return [int(v) for v in quantiles]


def _name_aggregates(ids: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray,
                     names: list[str]) -> dict[str, dict[str, int]]:
    """Per-name count/total_len/min_start/max_end over nonempty spans.

    Grouped by name id — one stable sort of the ids, then one
    ``reduceat`` per aggregate over the runs — and mapped to ``names``
    after grouping.  Order-independent, so the live components and a
    ``.mhxb`` file's blocks produce the identical mapping.
    """
    if not len(ids):
        return {}
    order = np.argsort(ids, kind="stable")
    ids, starts, ends = ids[order], starts[order], ends[order]
    heads = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    counts = np.diff(np.append(heads, len(ids)))
    totals = np.add.reduceat(ends - starts, heads)
    min_starts = np.minimum.reduceat(starts, heads)
    max_ends = np.maximum.reduceat(ends, heads)
    return {
        names[ident]: {
            "count": int(count),
            "total_len": int(total),
            "min_start": int(low),
            "max_end": int(high),
        }
        for ident, count, total, low, high in zip(
            ids[heads].tolist(), counts.tolist(), totals.tolist(),
            min_starts.tolist(), max_ends.tolist())}


def _plan_stats(*, version: int, root_name: str, text: str,
                leaf_count: int, names: list[str],
                hierarchies: list[tuple[str, np.ndarray, np.ndarray,
                                        np.ndarray, np.ndarray]]
                ) -> PlanStats:
    """The one aggregation behind both collectors.

    ``hierarchies`` lists, in rank order, each hierarchy's name and its
    ``kinds``, name-id, ``starts`` and ``ends`` columns, the ids
    indexing the one table ``names``: per hierarchy the element counts,
    then over the nonempty elements of all of them the per-name
    aggregates and the two histograms.
    """
    cards: dict[str, dict[str, int]] = {}
    elem_ids: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    elem_starts: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    elem_ends: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    span_count = 0
    for name, kinds, ids, starts, ends in hierarchies:
        span_count += int(np.count_nonzero(kinds <= KIND_TEXT))
        elem = kinds == KIND_ELEMENT
        elem_ids.append(ids[elem])
        elem_starts.append(starts[elem])
        elem_ends.append(ends[elem])
        cards[name] = _element_counts(elem_ids[-1], names)
    ids = np.concatenate(elem_ids)
    starts = np.concatenate(elem_starts)
    ends = np.concatenate(elem_ends)
    nonempty = starts < ends
    starts = starts[nonempty]
    ends = ends[nonempty]
    return PlanStats(
        version=version,
        root_name=root_name,
        text_length=len(text),
        word_count=len(text.split()),
        leaf_count=leaf_count,
        span_count=span_count,
        hierarchy_names=[hierarchy[0] for hierarchy in hierarchies],
        cards=cards,
        names=_name_aggregates(ids[nonempty], starts, ends, names),
        start_hist=_equi_depth(starts),
        len_hist=_equi_depth(ends - starts))


def collect_plan_stats(goddag: KyGoddag) -> PlanStats:
    """Plan statistics straight off the live components' columns, their
    name ids interned into one table in rank order (what a file's name
    table is)."""
    names: list[str] = []
    interned: dict[str, int] = {}
    hierarchies = []
    for name in goddag.hierarchy_names:
        component = goddag._components[name]
        hierarchies.append((name, component.kinds,
                            component.interned_ids(names, interned),
                            component.starts, component.ends))
    return _plan_stats(
        version=goddag.version,
        root_name=goddag.root.root_name,
        text=goddag.text,
        leaf_count=len(goddag.partition),
        names=names,
        hierarchies=hierarchies)


def plan_stats_payload(header: dict,
                       arrays: dict[str, np.ndarray]) -> dict:
    """The :class:`PlanStats` payload computed from ``.mhxb`` arrays.

    Called at pack time (``repro.store.mhxb._pack``) so an engine's
    file and the ingest's carry the identical statistics block in
    the header: every aggregate here is order-independent, and
    the per-hierarchy blocks hold the same element multiset the live
    components do.
    """
    return _plan_stats(
        version=int(header["version"]),
        root_name=str(header["root"]),
        text=bytes(np.ascontiguousarray(arrays["text"])).decode("utf-8"),
        leaf_count=max(0, len(arrays["partition/offsets"]) - 1),
        names=header["names"],
        hierarchies=[
            (meta["name"], *(np.asarray(arrays[f"h{position}/{key}"])
                             for key in ("kinds", "name_ids", "starts",
                                         "ends")))
            for position, meta in enumerate(header["hierarchies"])],
    ).payload()
