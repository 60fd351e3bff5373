"""Partitioning a multihierarchical document into corpus shards.

A shard is a contiguous slice ``[lo, hi)`` of the base text together
with, per hierarchy, the elements wholly contained in that slice.  A
cut position is *valid* when no element in **any** hierarchy strictly
straddles it — with concurrent markup the hierarchies tile the text
differently (verse lines vs physical lines), so valid cuts are the
positions where every hierarchy happens to close simultaneously.
Text nodes may be split by a cut (:func:`fuse_documents` makes the
halves one row again); elements never are, which is what lets a shard
engine answer containment/stab queries locally (DESIGN.md §13).

Cut selection is set-at-a-time: candidate positions are probed with
two ``np.searchsorted`` passes over the sorted element start/end
columns (a cut ``p`` is valid iff no span has ``start < p < end``),
then the size-balanced subset nearest the ``i·len/n`` targets is kept.

Every shard carries :class:`ShardStats` — word/char counts, the text
span, and per-element-name cardinalities — which the corpus manifest
persists for shard pruning: a query whose path spine requires name
``w`` never dispatches to a shard whose ``cards["w"]`` is zero.

The store cuts *columns* (:func:`save_shards`: the hierarchy components
of a document, wherever they came from, sliced by row arithmetic and
written one ``.mhxb`` file per shard — no DOM, no engine), and the way
back is the same arithmetic run the other way (:func:`fuse_documents`:
the parts' columns concatenated into the whole-corpus document the
non-distributable fallback evaluates on).
:func:`shard_document` makes the same cut as in-memory documents.  The
DOM slicer the column cut is held against, file for file, lives with
the other DOM references in ``tests/dombuild.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.cmh.document import MultihierarchicalDocument, falls_short
from repro.core.goddag.goddag import (KIND_ELEMENT, KIND_TEXT,
                                      _HierarchyComponent,
                                      hierarchy_components, normal_rows)
from repro.errors import StoreError
from repro.store.mhxb import write_container


@dataclass
class ShardStats:
    """Pruning statistics for one shard (persisted in the manifest)."""

    lo: int
    hi: int
    words: int
    cards: dict[str, int] = field(default_factory=dict)

    @property
    def chars(self) -> int:
        return self.hi - self.lo

    def work_estimate(self, required_names: tuple[str, ...] = ()) -> int:
        """Relative cost of one scatterable plan on this shard.

        The scatter dispatcher sorts surviving shards by this estimate
        (largest first) so the stragglers start first on the pool —
        classic LPT scheduling.  When the plan names concrete elements,
        the work is proportional to their cardinalities; otherwise fall
        back to the shard's word count.
        """
        if required_names:
            return sum(self.cards.get(name, 0) for name in required_names)
        return self.words

    def to_json(self) -> dict:
        return {"lo": self.lo, "hi": self.hi, "words": self.words,
                "cards": dict(sorted(self.cards.items()))}

    @classmethod
    def from_json(cls, payload: dict) -> "ShardStats":
        return cls(lo=int(payload["lo"]), hi=int(payload["hi"]),
                   words=int(payload["words"]),
                   cards={str(k): int(v)
                          for k, v in payload.get("cards", {}).items()})


@dataclass
class CorpusStats:
    """Corpus-wide statistics derived from the per-shard stats."""

    root_name: str
    hierarchy_names: list[str]
    #: element name -> hierarchies it appears in (FLWOR concat-merge is
    #: only order-safe when the outer for-sequence stays in one
    #: hierarchy; see plan distribution)
    name_hierarchies: dict[str, list[str]]
    shards: list[ShardStats]

    @property
    def words(self) -> int:
        return sum(shard.words for shard in self.shards)

    def to_json(self) -> dict:
        return {
            "root": self.root_name,
            "hierarchies": list(self.hierarchy_names),
            "name_hierarchies": {
                name: sorted(hierarchies)
                for name, hierarchies in
                sorted(self.name_hierarchies.items())},
            "shards": [shard.to_json() for shard in self.shards],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "CorpusStats":
        return cls(
            root_name=str(payload["root"]),
            hierarchy_names=[str(n) for n in payload["hierarchies"]],
            name_hierarchies={
                str(name): [str(h) for h in hierarchies]
                for name, hierarchies in
                payload.get("name_hierarchies", {}).items()},
            shards=[ShardStats.from_json(s) for s in payload["shards"]])


# ---------------------------------------------------------------------------
# cut selection
# ---------------------------------------------------------------------------


def _element_spans(components: list[_HierarchyComponent]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The sorted starts and the sorted ends of every non-root element
    across ``components``.  Zero-length elements are left out: they
    cannot strictly contain any position, and counting their collapsed
    span would unbalance the open/closed tally at exactly their offset
    (masking a real straddler there)."""
    return np.sort(np.concatenate(
        [np.empty((2, 0), dtype=np.int64), *(
            np.stack((component.starts, component.ends))[
                :, (component.kinds == KIND_ELEMENT)
                & (component.ends > component.starts)]
            for component in components)], axis=1))


def valid_cut_positions(starts: np.ndarray, ends: np.ndarray,
                        total: int) -> np.ndarray:
    """Interior positions no span in the sorted columns strictly
    contains.

    The core of :func:`valid_cuts` and :func:`shard_bounds`, over
    the sorted element start/end columns of the hierarchy components.
    """
    candidates = np.unique(np.concatenate((starts, ends)))
    candidates = candidates[(candidates > 0) & (candidates < total)]
    if not len(candidates):
        return candidates
    open_before = np.searchsorted(starts, candidates, side="left")
    closed_before = np.searchsorted(ends, candidates, side="right")
    return candidates[open_before == closed_before]


def valid_cuts(document: MultihierarchicalDocument) -> np.ndarray:
    """All interior positions where no element of any hierarchy is open.

    Candidates are the distinct element boundaries (an arbitrary text
    offset would just split a word); a candidate ``p`` survives iff
    ``#{start < p} == #{end <= p}`` — i.e. no element span strictly
    contains it.
    """
    starts, ends = _element_spans(list(hierarchy_components(document)))
    return valid_cut_positions(starts, ends, len(document.text))


def balanced_cuts(cuts: np.ndarray, total: int,
                  n_shards: int) -> list[int]:
    """The size-balanced subset of valid ``cuts`` nearest the
    ``i·total/n`` targets — deduplicated, ascending, possibly shorter
    than ``n_shards - 1``."""
    if not len(cuts):
        return []
    targets = np.arange(1, n_shards) * (total / n_shards)
    picks = np.searchsorted(cuts, targets)
    chosen: set[int] = set()
    for target, pick in zip(targets, picks):
        best = None
        for index in (pick - 1, pick):
            if 0 <= index < len(cuts):
                position = int(cuts[index])
                if best is None or (abs(position - target)
                                    < abs(best - target)):
                    best = position
        if best is not None:
            chosen.add(best)
    return sorted(chosen)


def shard_bounds(text: str, components: list[_HierarchyComponent],
                 n_shards: int) -> list[tuple[int, int]]:
    """The ``[lo, hi)`` text ranges of an ``n_shards``-way cut, read
    off the columns: the valid cuts :func:`balanced_cuts` keeps."""
    if not components:
        raise StoreError("cannot shard a document with no hierarchies")
    if n_shards < 1:
        raise StoreError(f"shard count must be >= 1, got {n_shards}")
    total = len(text)
    cuts: list[int] = []
    if n_shards > 1:
        starts, ends = _element_spans(components)
        cuts = balanced_cuts(valid_cut_positions(starts, ends, total),
                             total, n_shards)
    bounds = [0, *cuts, total]
    return list(zip(bounds, bounds[1:]))


def choose_cuts(document: MultihierarchicalDocument,
                n_shards: int) -> list[int]:
    """Size-balanced valid cuts for an ``n_shards``-way partition: the
    interior bounds of :func:`shard_bounds`.

    Picks, for each target ``i·len/n``, the nearest valid cut; returns
    the deduplicated ascending list (possibly shorter than
    ``n_shards - 1`` when the markup offers fewer distinct cuts).
    """
    bounds = shard_bounds(document.text,
                          list(hierarchy_components(document)), n_shards)
    return [lo for lo, _hi in bounds[1:]]


# ---------------------------------------------------------------------------
# the corpus writer: columns cut into shard files
# ---------------------------------------------------------------------------


def _slice_component(component: _HierarchyComponent, lo: int, hi: int,
                     total: int) -> _HierarchyComponent:
    """``component`` restricted to the text span ``[lo, hi)``: its
    hierarchy's export restricted to the span, row for row.

    A shard keeps the top-level subtrees inside its span — a top-level
    text node clipped to it, a zero-length node where the half-open
    span holds its offset (the last shard also owns the text's end) —
    and renumbers their rows; the name table is carried whole (the
    file writer interns what a shard uses).
    """
    kinds, starts, ends = component.kinds, component.starts, component.ends
    tops = np.flatnonzero(component.parents < 0)
    start, end = starts[tops], ends[tops]
    texts = kinds[tops] == KIND_TEXT
    points = ~texts & (start == end)
    spans = ~texts & ~points & (end > lo) & (start < hi)
    across = spans & ((start < lo) | (end > hi))
    if across.any():
        row = tops[across][0]
        raise StoreError(
            f"element <{component.names[component.name_ids[row]]}> spans "
            f"[{starts[row]}, {ends[row]}) across the shard cut at "
            f"[{lo}, {hi}) — cut selection must only produce "
            "element-boundary positions")
    taken = tops[np.where(
        texts, np.maximum(start, lo) < np.minimum(end, hi),
        spans | (points & (((lo <= start) & (start < hi))
                           | ((start == total) & (hi == total)))))]
    edges = np.zeros(len(kinds) + 1, dtype=np.int64)
    edges[taken] = 1
    edges[component.subtree_ends[taken] + 1] -= 1
    keep = np.cumsum(edges[:-1]) > 0
    rows = np.flatnonzero(keep)
    renumber = np.cumsum(keep) - 1
    parents = component.parents[rows]

    def carried(pairs: list) -> list:
        return [[int(renumber[row]), value] for row, value in pairs
                if keep[row]]

    return _HierarchyComponent(
        component.name, component.rank, False, names=component.names,
        columns={
            "kinds": kinds[rows],
            "name_ids": component.name_ids[rows],
            "starts": np.clip(starts[rows], lo, hi) - lo,
            "ends": np.clip(ends[rows], lo, hi) - lo,
            "parents": np.where(parents < 0, -1, renumber[parents]),
            "subtree_ends": renumber[component.subtree_ends[rows]]},
        attrs=carried(component.attrs),
        comments=carried(component.comments), pis=carried(component.pis),
        prolog=[], epilog=[], root_attrs=component.root_attrs)


def _count_cards(parts: list[_HierarchyComponent],
                 name_hierarchies: dict[str, set[str]]) -> dict[str, int]:
    """One shard's element count per name over its ``parts``; notes in
    ``name_hierarchies`` the hierarchies each name occurs in."""
    cards: dict[str, int] = {}
    for part in parts:
        counts = np.bincount(part.name_ids[part.kinds == KIND_ELEMENT],
                             minlength=len(part.names))
        for ident in np.flatnonzero(counts).tolist():
            name = part.names[ident]
            cards[name] = cards.get(name, 0) + int(counts[ident])
            name_hierarchies.setdefault(name, set()).add(part.name)
    return cards


def _corpus_stats(document: MultihierarchicalDocument,
                  shards: list[ShardStats],
                  name_hierarchies: dict[str, set[str]]) -> CorpusStats:
    """The statistics of a cut of ``document`` into ``shards``."""
    return CorpusStats(
        root_name=document.root_name,
        hierarchy_names=document.hierarchy_names,
        name_hierarchies={name: sorted(names) for name, names
                          in name_hierarchies.items()},
        shards=shards)


def shard_document(document: MultihierarchicalDocument, n_shards: int,
                   ) -> tuple[list[MultihierarchicalDocument], CorpusStats]:
    """Partition ``document`` into up to ``n_shards`` shard documents:
    the cut :func:`save_shards` writes, each part a document of its
    sliced columns over its text slice, hierarchies in registration
    order (the order is what keeps packed okeys comparable across
    shards)."""
    text = document.text
    total = len(text)
    components = list(hierarchy_components(document))
    bounds = shard_bounds(text, components, n_shards)
    root_name = document.root_name
    documents: list[MultihierarchicalDocument] = []
    shards: list[ShardStats] = []
    name_hierarchies: dict[str, set[str]] = {}
    for lo, hi in bounds:
        parts = [_slice_component(component, lo, hi, total)
                 for component in components]
        shard = MultihierarchicalDocument(text[lo:hi])
        for part in parts:
            shard.add_columns(part, root_name)
        documents.append(shard)
        shards.append(ShardStats(lo=lo, hi=hi, words=len(shard.text.split()),
                                 cards=_count_cards(parts,
                                                    name_hierarchies)))
    return documents, _corpus_stats(document, shards, name_hierarchies)


def save_shards(document: MultihierarchicalDocument, n_shards: int,
                path_for: Callable[[int], str | Path], *,
                durability: str = "off") -> CorpusStats:
    """Cut ``document``'s columns into up to ``n_shards`` ``.mhxb``
    files — the corpus writer behind every way a corpus gets into a
    store — one file per part of :func:`shard_document`'s cut."""
    text = document.text
    total = len(text)
    components = list(hierarchy_components(document))
    bounds = shard_bounds(text, components, n_shards)
    root_name = document.root_name
    shards: list[ShardStats] = []
    name_hierarchies: dict[str, set[str]] = {}
    for index, (lo, hi) in enumerate(bounds):
        parts = [_slice_component(component, lo, hi, total)
                 for component in components]
        write_container(path_for(index), root=root_name, text=text[lo:hi],
                        components=parts, durability=durability)
        shards.append(ShardStats(lo=lo, hi=hi,
                                 words=len(text[lo:hi].split()),
                                 cards=_count_cards(parts,
                                                    name_hierarchies)))
    return _corpus_stats(document, shards, name_hierarchies)


# ---------------------------------------------------------------------------
# fused reconstruction
# ---------------------------------------------------------------------------


def fuse_documents(shards: list[MultihierarchicalDocument],
                   ) -> MultihierarchicalDocument:
    """Reassemble shard documents into one whole-corpus document.

    The inverse of :func:`_slice_component`, and like it row
    arithmetic: per hierarchy the parts' columns are concatenated —
    rows shifted by
    the rows before them, spans by the text before them — and the text
    nodes the cuts split are merged again, so the fused document is,
    column for column, the one that was cut.  The non-distributable
    query fallback evaluates here.
    """
    if not shards:
        raise StoreError("cannot fuse an empty shard list")
    text = "".join(shard.text for shard in shards)
    offsets = np.cumsum([0, *(len(shard.text) for shard in shards)])
    parts = [{component.name: component
              for component in hierarchy_components(shard)}
             for shard in shards]
    first = shards[0]
    fused = MultihierarchicalDocument(text)
    for rank, name in enumerate(first.hierarchy_names):
        fused.add_columns(
            _fuse_components(name, rank, [part[name] for part in parts],
                             offsets, text),
            first.root_name)
    return fused


def _fuse_components(name: str, rank: int,
                     parts: list[_HierarchyComponent],
                     offsets: np.ndarray, text: str
                     ) -> _HierarchyComponent:
    """One hierarchy's ``parts``, which start at ``offsets`` of
    ``text``, as one component: row for row what ``normalize()`` leaves
    of the parts' top-level nodes under one root.

    The concatenated rows go through :func:`normal_rows`, the
    normalisation an update's edited rows go through too: it merges the
    two halves of a text node a cut split, and drops what a hand-built
    part carries that a round trip would not.  Root attributes are the
    first part's; the comments and PIs around a part's root element are
    not part of the corpus.
    """
    shifts = np.cumsum([0, *(len(part.kinds) for part in parts)])
    names: list[str] = []
    interned: dict[str, int] = {}
    columns, renumber = normal_rows({
        "kinds": np.concatenate([part.kinds for part in parts]),
        "name_ids": np.concatenate(
            [part.interned_ids(names, interned) for part in parts]),
        "starts": np.concatenate(
            [part.starts + offset for part, offset in zip(parts, offsets)]),
        "ends": np.concatenate(
            [part.ends + offset for part, offset in zip(parts, offsets)]),
        "parents": np.concatenate(
            [np.where(part.parents < 0, -1, part.parents + shift)
             for part, shift in zip(parts, shifts)]),
        "subtree_ends": np.concatenate(
            [part.subtree_ends + shift
             for part, shift in zip(parts, shifts)])})
    # what stands where ``add_hierarchy`` aligned: the text rows tile
    # the fused text (each part was held against its own by its writer)
    starts, ends = columns["starts"], columns["ends"]
    tiles = np.flatnonzero(columns["kinds"] == KIND_TEXT)
    covered = np.insert(ends[tiles], 0, 0)
    tiled = covered == np.append(starts[tiles], len(text))
    if not tiled.all():
        raise falls_short(name, text, int(covered[np.argmin(tiled)]))

    def carried(key: str) -> list:
        return [[int(renumber[row + shift]), value]
                for part, shift in zip(parts, shifts.tolist())
                for row, value in getattr(part, key)]

    return _HierarchyComponent(
        name, rank, False, names=names, columns=columns,
        attrs=carried("attrs"), comments=carried("comments"),
        pis=carried("pis"), prolog=[], epilog=[],
        root_attrs=parts[0].root_attrs)
