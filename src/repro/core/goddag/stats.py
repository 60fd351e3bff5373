"""KyGODDAG statistics — Figure 2 inventory and plan-time statistics.

The paper's Figure 2 is a drawing; its checkable content is the node
and edge inventory of the KyGODDAG built from Figure 1's encodings.
:func:`collect` computes that inventory so the FIG2 benchmark (and
EXPERIMENTS.md) can compare counts.  It is vectorized over the span
index columns (``tests/test_plan_cost.py`` checks it against a
per-node walk) because the same machinery feeds
:class:`PlanStats` on the plan-compile path (DESIGN.md §16): per
hierarchy per-name cardinalities, per-name span sums and bounds, and
equi-depth histograms over the element start/length columns — enough
for the cost model in :mod:`repro.core.plan.cost` to rank join orders
and semi-join probes.

``PlanStats`` is versioned with :attr:`KyGoddag.version` and travels
with the document: :func:`plan_stats_payload` computes the identical
payload straight from ``.mhxb`` arrays at save time (see
``repro.store.mhxb._pack``), so a cold-loaded engine costs plans
without re-scanning, and :meth:`PlanStats.fingerprint` (which excludes
the version — identical documents share costed plans) keys the shared
plan cache.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from repro.core.goddag.goddag import KIND_COMMENT, KIND_PI, KyGoddag

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

    Element/text counts come off the span index columns (one boolean
    mask per hierarchy), tree edges are the component node count (every
    component node has exactly one tree parent — the root or an
    element), and text→leaf edges are two ``searchsorted`` passes over
    the partition boundary array.  Comments/PIs are not span-index
    members: they are counted off the component's ``kinds`` column.
    No node object is made.
    """
    stats = GoddagStats(text_length=len(goddag.text),
                        leaf_count=len(goddag.partition))
    index = goddag.span_index()
    index._flush_pending()
    names_col = index._names
    ranks = index.ranks
    starts = index.starts
    ends = index.ends
    bounds = goddag.partition.boundary_array
    for name in goddag.hierarchy_names:
        hierarchy = HierarchyStats(name=name,
                                   temporary=goddag.is_temporary(name))
        kinds = goddag._components[name].kinds
        hierarchy.tree_edges = len(kinds)
        hierarchy.comments = int((kinds == KIND_COMMENT).sum())
        hierarchy.processing_instructions = int((kinds == KIND_PI).sum())
        row_mask = ranks == goddag.hierarchy_rank(name)
        h_names = names_col[row_mask]
        elem_mask = np.not_equal(h_names, None)
        values, counts = np.unique(h_names[elem_mask],
                                   return_counts=True)
        hierarchy.elements_by_name = {
            str(value): int(count)
            for value, count in zip(values, counts)}
        hierarchy.text_nodes = int(len(h_names) - elem_mask.sum())
        text_mask = row_mask.copy()
        text_mask[row_mask] = ~elem_mask
        hierarchy.text_leaf_edges = _text_leaf_edge_count(
            bounds, starts[text_mask], ends[text_mask])
        stats.hierarchies.append(hierarchy)
    return stats


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


def _name_aggregates(names: np.ndarray, starts: np.ndarray,
                     ends: np.ndarray) -> dict[str, dict[str, int]]:
    """Per-name count/total_len/min_start/max_end over nonempty spans.

    Order-independent (grouped reductions), so the live span-index
    columns and the ``.mhxb`` per-hierarchy concatenation produce the
    identical mapping.
    """
    if not len(names):
        return {}
    values, inverse = np.unique(names, return_inverse=True)
    lengths = ends - starts
    counts = np.bincount(inverse, minlength=len(values))
    totals = np.zeros(len(values), dtype=np.int64)
    np.add.at(totals, inverse, lengths)
    min_starts = np.full(len(values), np.iinfo(np.int64).max,
                         dtype=np.int64)
    np.minimum.at(min_starts, inverse, starts)
    max_ends = np.zeros(len(values), dtype=np.int64)
    np.maximum.at(max_ends, inverse, ends)
    return {
        str(value): {
            "count": int(counts[position]),
            "total_len": int(totals[position]),
            "min_start": int(min_starts[position]),
            "max_end": int(max_ends[position]),
        }
        for position, value in enumerate(values)}


def _assemble_plan_stats(*, version: int, root_name: str,
                         text: str, leaf_count: int, span_count: int,
                         hierarchy_names: list[str],
                         cards: dict[str, dict[str, int]],
                         elem_names: np.ndarray,
                         elem_starts: np.ndarray,
                         elem_ends: np.ndarray) -> PlanStats:
    """The shared tail of both collectors: filter to nonempty spans,
    aggregate, histogram."""
    nonempty = elem_starts < elem_ends
    starts = elem_starts[nonempty]
    ends = elem_ends[nonempty]
    names = elem_names[nonempty]
    return PlanStats(
        version=version,
        root_name=root_name,
        text_length=len(text),
        word_count=len(text.split()),
        leaf_count=leaf_count,
        span_count=span_count,
        hierarchy_names=list(hierarchy_names),
        cards=cards,
        names=_name_aggregates(names, starts, ends),
        start_hist=_equi_depth(starts),
        len_hist=_equi_depth(ends - starts))


def collect_plan_stats(goddag: KyGoddag) -> PlanStats:
    """Plan statistics straight off the live span index columns."""
    index = goddag.span_index()
    index._flush_pending()
    names_col = index._names
    ranks = index.ranks
    starts = index.starts
    ends = index.ends
    elem_mask = np.not_equal(names_col, None) & (ranks != -1)
    cards: dict[str, dict[str, int]] = {}
    for name in goddag.hierarchy_names:
        row_mask = elem_mask & (ranks == goddag.hierarchy_rank(name))
        values, counts = np.unique(names_col[row_mask],
                                   return_counts=True)
        cards[name] = {str(value): int(count)
                       for value, count in zip(values, counts)}
    return _assemble_plan_stats(
        version=goddag.version,
        root_name=goddag.root.root_name,
        text=goddag.text,
        leaf_count=len(goddag.partition),
        span_count=max(0, len(index) - 1),
        hierarchy_names=goddag.hierarchy_names,
        cards=cards,
        elem_names=names_col[elem_mask],
        elem_starts=starts[elem_mask],
        elem_ends=ends[elem_mask])


def plan_stats_payload(header: dict,
                       arrays: dict[str, np.ndarray]) -> dict:
    """The :class:`PlanStats` payload computed from ``.mhxb`` arrays.

    Called at pack time (``repro.store.mhxb._pack``) so an engine's
    file and the ingest's carry the identical statistics block in
    the header: every aggregate here is order-independent, and
    the per-hierarchy tables hold the same element multiset the live
    span index does.
    """
    name_table = header["names"]
    table = np.empty(len(name_table), dtype=object)
    table[:] = name_table
    text = bytes(np.ascontiguousarray(arrays["text"])).decode("utf-8")
    cards: dict[str, dict[str, int]] = {}
    elem_names: list[np.ndarray] = []
    elem_starts: list[np.ndarray] = []
    elem_ends: list[np.ndarray] = []
    span_count = 0
    for position, meta in enumerate(header["hierarchies"]):
        prefix = f"h{position}"
        kinds = np.asarray(arrays[f"{prefix}/kinds"])
        ids = np.asarray(arrays[f"{prefix}/name_ids"])
        starts = np.asarray(arrays[f"{prefix}/starts"])
        ends = np.asarray(arrays[f"{prefix}/ends"])
        span_count += int((kinds <= 1).sum())  # elements + text nodes
        elem = kinds == 0
        values, counts = np.unique(ids[elem], return_counts=True)
        cards[meta["name"]] = {
            name_table[int(value)]: int(count)
            for value, count in zip(values, counts)}
        elem_names.append(table[ids[elem]])
        elem_starts.append(starts[elem])
        elem_ends.append(ends[elem])
    stats = _assemble_plan_stats(
        version=int(header["version"]),
        root_name=str(header["root"]),
        text=text,
        leaf_count=max(0, len(arrays["partition/offsets"]) - 1),
        span_count=span_count,
        hierarchy_names=[meta["name"]
                         for meta in header["hierarchies"]],
        cards=cards,
        elem_names=(np.concatenate(elem_names) if elem_names
                    else np.empty(0, dtype=object)),
        elem_starts=(np.concatenate(elem_starts) if elem_starts
                     else np.empty(0, dtype=np.int64)),
        elem_ends=(np.concatenate(elem_ends) if elem_ends
                   else np.empty(0, dtype=np.int64)))
    return stats.payload()
