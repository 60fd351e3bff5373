"""Vectorized cross-hierarchy interval joins (DESIGN.md §11).

PR 1 turned the *standard* axes into preorder slices and PR 2 made the
query pipeline evaluate them set-at-a-time; this module gives the
*extended* axes of Definition 1 the same treatment.  An extended-axis
step over a whole context sequence is one sorted-array join against
the :class:`~repro.core.goddag.index.SpanIndex` columns instead of one
span-arithmetic call per context node:

* ``xfollowing`` / ``xpreceding`` — **boundary joins**: the union over
  all contexts is a single sorted-column slice bounded by ``min(end)``
  / ``max(start)`` (one ``np.searchsorted`` for the whole step);
* ``xdescendant`` / ``xancestor`` — **containment joins**: the contexts
  are sorted by start once and reduced to running containment bounds
  (prefix max / suffix min of their end offsets); every candidate then
  answers "is it contained in (does it contain) *some* context?" with
  one vectorized ``np.searchsorted`` probe.  A witness whose span is
  strictly larger (smaller) than the candidate's can never fall on the
  candidate's own ancestor/descendant chain, so the Definition 1
  exclusions only need checking when *every* witness is span-equal —
  a rare case resolved per candidate against the actual node objects;
* the ``overlapping`` family — **stab joins**: per-context slice bounds
  come from two ``np.searchsorted`` calls vectorized over the whole
  context set; the variable-width slices are gathered with one
  ``np.repeat`` expansion and masked in bulk.

Candidates are gathered as *positions* into the sorted columns and
carried with their packed Definition 3 order keys
(:meth:`SpanIndex.okey_columns`); one ``np.unique`` over those keys is
simultaneously the step's cross-context deduplication and its global
document-order merge — no per-node Python key computation, no object
sort.  Results flow onward as a :class:`ColumnarNodeSet` so chained
join steps and batched existence probes never re-extract spans.

The per-node axis functions in :mod:`repro.core.goddag.axes` are the
runtime's one-context path, not an oracle: the oracle is the literal
Definition 1 transcription in ``tests/naive.py``, which the per-node
functions are held to, and ``tests/test_extended_axis_joins.py``
asserts these kernels element-for-element equal to the per-node
functions on randomized multi-hierarchy corpora.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GoddagError
from repro.core.goddag.goddag import KyGoddag
from repro.core.goddag.nodes import (
    GAttr,
    GElement,
    GLeaf,
    GNode,
    GRoot,
    _HierarchyNode,
)

#: Kernel family per extended axis (rendered by ``explain()``).
JOIN_KERNELS: dict[str, str] = {
    "xdescendant": "containment",
    "xancestor": "containment-reverse",
    "xfollowing": "boundary",
    "xpreceding": "boundary",
    "overlapping": "stab",
    "preceding-overlapping": "stab",
    "following-overlapping": "stab",
}

#: Standard axes :func:`exists_axis_batch` also answers, as joins on
#: the per-hierarchy preorder columns (DESIGN.md §16).
TREE_EXISTS_AXES = frozenset({"ancestor", "descendant", "self"})

#: Extended axes whose per-node results include shared leaves (for an
#: unnamed, leaf-admitting node test).
_LEAF_BEARING = frozenset({"xdescendant", "xfollowing", "xpreceding"})


class ColumnarNodeSet(list):
    """A node sequence with struct-of-arrays span columns.

    A plain Python list — every non-join operator consumes it unchanged
    — that additionally carries its members' ``start``/``end`` columns,
    so consecutive join steps and batched existence probes never
    re-extract spans node by node.  Columns are snapshots: the pipeline
    treats step outputs as immutable, and anyone who mutates the list
    must discard the instance.
    """

    __slots__ = ("_starts", "_ends")

    def __init__(self, nodes=(), starts: np.ndarray | None = None,
                 ends: np.ndarray | None = None) -> None:
        super().__init__(nodes)
        self._starts = starts
        self._ends = ends

    def span_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """``(starts, ends)`` parallel to the list, built lazily."""
        if self._starts is None:
            count = len(self)
            # Guard attribute assigned last (racing lazy fills on a
            # shared frozen snapshot must never see a half-built pair).
            self._ends = np.fromiter((node.end for node in self),
                                     dtype=np.int64, count=count)
            self._starts = np.fromiter((node.start for node in self),
                                       dtype=np.int64, count=count)
        return self._starts, self._ends

    def selected(self, keep: np.ndarray) -> "ColumnarNodeSet":
        """The members a boolean column keeps, with the matching rows
        of the columns extracted so far (a filter that read no span
        leaves the extraction to whoever does)."""
        kept = [node for node, flag in zip(self, keep) if flag]
        if self._starts is None:
            return ColumnarNodeSet(kept)
        return ColumnarNodeSet(kept, self._starts[keep], self._ends[keep])


def span_columns_of(nodes: list) -> tuple[np.ndarray, np.ndarray]:
    """``(starts, ends)`` for any node list, reusing carried columns."""
    if isinstance(nodes, ColumnarNodeSet):
        return nodes.span_columns()
    count = len(nodes)
    starts = np.fromiter((node.start for node in nodes), dtype=np.int64,
                         count=count)
    ends = np.fromiter((node.end for node in nodes), dtype=np.int64,
                       count=count)
    return starts, ends


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

#: ``(okeys, nodes, starts, ends)`` of zero candidates.
def _empty_part() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return (np.empty(0, dtype=np.int64), np.empty(0, dtype=object),
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))


def _contexts(nodes: list, *, exclude_leaves: bool = False):
    """Live context nodes + span columns, or ``None`` when empty.

    Drops contexts the per-node axes reject up front: empty spans
    (``has_leaves`` is false — attributes, comments, PIs, empty
    elements) and, for ``xdescendant``, leaves (every span-equal node
    is on a leaf's parent chain, so its result is empty).
    """
    starts, ends = span_columns_of(nodes)
    keep = starts < ends
    if exclude_leaves:
        keep &= np.fromiter((not isinstance(node, GLeaf)
                             for node in nodes),
                            dtype=bool, count=len(nodes))
    if not keep.any():
        return None
    if keep.all():
        kept = list(nodes)
    else:
        kept = [node for node, live in zip(nodes, keep) if live]
    return kept, starts[keep], ends[keep]


def _multi_slice(lefts: np.ndarray,
                 rights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gather the union of per-row slices ``[lefts[i], rights[i])``.

    Returns ``(reps, positions)``: for every element of every slice,
    the row it came from and its position in the sliced array — the
    fully vectorized expansion behind the stab joins (one ``np.repeat``
    instead of a Python loop over contexts).
    """
    widths = np.maximum(rights - lefts, 0)
    total = int(widths.sum())
    if not total:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    reps = np.repeat(np.arange(len(lefts), dtype=np.int64), widths)
    offsets = np.cumsum(widths) - widths
    base = np.arange(total, dtype=np.int64) - np.repeat(offsets, widths)
    positions = np.repeat(lefts, widths) + base
    return reps, positions


def _stab_preceding(e_starts: np.ndarray, e_ends: np.ndarray,
                    ctx_starts: np.ndarray, ctx_ends: np.ndarray):
    """Preceding-overlap hits over end-sorted arrays.

    ``(reps, positions)`` of candidates with end inside
    ``(c.start, c.end)`` and start before ``c.start`` — shared by the
    join kernel and the batched existence probe so the boundary
    arithmetic lives exactly once.
    """
    lefts = np.searchsorted(e_ends, ctx_starts, side="right")
    rights = np.searchsorted(e_ends, ctx_ends, side="left")
    reps, positions = _multi_slice(lefts, rights)
    hit = e_starts[positions] < ctx_starts[reps]
    return reps[hit], positions[hit]


def _stab_following(s_starts: np.ndarray, s_ends: np.ndarray,
                    ctx_starts: np.ndarray, ctx_ends: np.ndarray):
    """Following-overlap hits over start-sorted arrays: start inside
    ``(c.start, c.end)``, end past ``c.end``."""
    lefts = np.searchsorted(s_starts, ctx_starts + 1, side="left")
    rights = np.searchsorted(s_starts, ctx_ends, side="left")
    reps, positions = _multi_slice(lefts, rights)
    hit = s_ends[positions] > ctx_ends[reps]
    return reps[hit], positions[hit]


def _span_equal_witnesses(ctx_nodes: list, ctx_starts: np.ndarray,
                          ctx_ends: np.ndarray) -> dict:
    """Context nodes grouped by exact span (the rare-case resolver)."""
    by_span: dict[tuple[int, int], list] = {}
    for node, start, end in zip(ctx_nodes, ctx_starts, ctx_ends):
        by_span.setdefault((int(start), int(end)), []).append(node)
    return by_span


def _valid_descendant_witness(candidate: GNode, context: GNode,
                              goddag: KyGoddag) -> bool:
    """Is span-equal ``candidate`` in ``xdescendant(context)``?

    Mirrors :meth:`SpanIndex.ancestor_or_self_exclusion`: excluded iff
    the candidate is the root or a same-hierarchy ancestor-or-self of
    the context.
    """
    if candidate is goddag.root:
        return False
    if (isinstance(candidate, _HierarchyNode)
            and isinstance(context, _HierarchyNode)
            and candidate.hierarchy == context.hierarchy):
        return not (candidate.preorder <= context.preorder
                    <= candidate.subtree_end)
    return True


def _valid_ancestor_witness(candidate: GNode, context: GNode,
                            goddag: KyGoddag) -> bool:
    """Is span-equal ``candidate`` in ``xancestor(context)``?

    Definition 1 excludes ``descendant(context) ∪ {context}`` — the
    exact test the per-node axis delegates to the span index.
    """
    return not goddag.span_index().is_descendant_or_self(context,
                                                         candidate)


# ---------------------------------------------------------------------------
# kernels — each returns (okeys, nodes, starts, ends) candidate arrays
# ---------------------------------------------------------------------------


def _join_xfollowing(index, ctx_ends: np.ndarray, name: str | None):
    """Boundary join: starts at or past ``min(context ends)``."""
    bound = int(ctx_ends.min())
    if name is not None:
        interval = index.name_interval(name)
        left = int(np.searchsorted(interval.starts, bound, side="left"))
        return (interval.okeys[left:], interval.nodes[left:],
                interval.starts[left:], interval.ends[left:])
    okeys, _e_okeys = index.okey_columns()
    left = int(np.searchsorted(index.starts, bound, side="left"))
    positions = left + np.flatnonzero(index.nonempty[left:])
    return (okeys[positions], index.nodes[positions],
            index.starts[positions], index.ends[positions])


def _join_xpreceding(index, ctx_starts: np.ndarray, name: str | None):
    """Boundary join: ends at or before ``max(context starts)``."""
    bound = int(ctx_starts.max())
    if name is not None:
        interval = index.name_interval(name)
        right = int(np.searchsorted(interval.e_ends, bound, side="right"))
        return (interval.e_okeys[:right], interval.e_nodes[:right],
                interval.e_starts[:right], interval.e_ends[:right])
    _okeys, e_okeys = index.okey_columns()
    right = int(np.searchsorted(index.ends_sorted, bound, side="right"))
    positions = np.flatnonzero(index.e_nonempty[:right])
    return (e_okeys[positions], index.e_nodes[positions],
            index.e_starts[positions], index.ends_sorted[positions])


def _join_xdescendant(goddag: KyGoddag, index, ctx_nodes: list,
                      ctx_starts: np.ndarray, ctx_ends: np.ndarray,
                      name: str | None):
    """Containment join: candidates whose span some context contains.

    Prefix-max reduction: with contexts sorted by start and ``pmax``
    the running maximum of their ends, a candidate ``d`` is contained
    in some context iff a context starting at or before ``d.start``
    reaches ``d.end`` — one vectorized bisect per candidate set.
    """
    order = np.argsort(ctx_starts, kind="stable")
    sorted_starts = ctx_starts[order]
    prefix_max = np.maximum.accumulate(ctx_ends[order])
    lo_bound = int(sorted_starts[0])
    hi_bound = int(prefix_max[-1])
    if name is not None:
        interval = index.name_interval(name)
        left = int(np.searchsorted(interval.starts, lo_bound, side="left"))
        right = int(np.searchsorted(interval.starts, hi_bound,
                                    side="left"))
        okeys = interval.okeys[left:right]
        cand_nodes = interval.nodes[left:right]
        starts = interval.starts[left:right]
        ends = interval.ends[left:right]
    else:
        all_okeys, _e_okeys = index.okey_columns()
        left = int(np.searchsorted(index.starts, lo_bound, side="left"))
        right = int(np.searchsorted(index.starts, hi_bound, side="left"))
        positions = left + np.flatnonzero(index.nonempty[left:right])
        okeys = all_okeys[positions]
        cand_nodes = index.nodes[positions]
        starts = index.starts[positions]
        ends = index.ends[positions]
    if not len(starts):
        return _empty_part()
    # Contexts with start <= candidate start (weak) / < (strict left).
    pos_right = np.searchsorted(sorted_starts, starts, side="right")
    pos_left = np.searchsorted(sorted_starts, starts, side="left")
    reach_right = np.where(pos_right > 0,
                           prefix_max[np.maximum(pos_right - 1, 0)],
                           np.int64(-1))
    reach_left = np.where(pos_left > 0,
                          prefix_max[np.maximum(pos_left - 1, 0)],
                          np.int64(-1))
    weak = reach_right >= ends
    keep = (reach_right > ends) | (reach_left >= ends)
    pending = np.flatnonzero(weak & ~keep)
    if len(pending):
        # Every witness is span-equal: resolve the Definition 1
        # ancestor-or-self exclusion against the actual nodes.
        witnesses = _span_equal_witnesses(ctx_nodes, ctx_starts, ctx_ends)
        for position in pending:
            candidate = cand_nodes[position]
            group = witnesses.get((int(starts[position]),
                                   int(ends[position])), ())
            if any(_valid_descendant_witness(candidate, context, goddag)
                   for context in group):
                keep[position] = True
    chosen = np.flatnonzero(keep)
    return (okeys[chosen], cand_nodes[chosen], starts[chosen],
            ends[chosen])


def _join_xancestor(goddag: KyGoddag, index, ctx_nodes: list,
                    ctx_starts: np.ndarray, ctx_ends: np.ndarray,
                    name: str | None):
    """Reverse containment join: candidates containing some context.

    Suffix-min reduction, the mirror image of :func:`_join_xdescendant`:
    with contexts sorted by start and ``smin`` the suffix minimum of
    their ends, candidate ``m`` contains some context iff a context
    starting at or after ``m.start`` ends by ``m.end``.
    """
    order = np.argsort(ctx_starts, kind="stable")
    sorted_starts = ctx_starts[order]
    suffix_min = np.minimum.accumulate(ctx_ends[order][::-1])[::-1]
    n_ctx = len(sorted_starts)
    hi_bound = int(sorted_starts[-1])
    root = goddag.root
    extra = None
    if name is not None:
        interval = index.name_interval(name)
        right = int(np.searchsorted(interval.starts, hi_bound,
                                    side="right"))
        okeys = interval.okeys[:right]
        cand_nodes = interval.nodes[:right]
        starts = interval.starts[:right]
        ends = interval.ends[:right]
        # Name intervals exclude the root; the per-node axis appends it
        # when the name matches and the context is not the root itself.
        if root.name == name and any(context is not root
                                     for context in ctx_nodes):
            extra = (np.zeros(1, dtype=np.int64),
                     np.array([root], dtype=object),
                     np.zeros(1, dtype=np.int64),
                     np.full(1, root.end, dtype=np.int64))
    else:
        all_okeys, _e_okeys = index.okey_columns()
        right = int(np.searchsorted(index.starts, hi_bound, side="right"))
        positions = np.flatnonzero(index.nonempty[:right])
        okeys = all_okeys[positions]
        cand_nodes = index.nodes[positions]
        starts = index.starts[positions]
        ends = index.ends[positions]
    if not len(starts):
        return extra if extra is not None else _empty_part()
    pos_left = np.searchsorted(sorted_starts, starts, side="left")
    pos_right = np.searchsorted(sorted_starts, starts, side="right")
    huge = np.int64(np.iinfo(np.int64).max)
    reach_left = np.where(pos_left < n_ctx,
                          suffix_min[np.minimum(pos_left, n_ctx - 1)],
                          huge)
    reach_right = np.where(pos_right < n_ctx,
                           suffix_min[np.minimum(pos_right, n_ctx - 1)],
                           huge)
    weak = reach_left <= ends
    keep = (reach_left < ends) | (reach_right <= ends)
    pending = np.flatnonzero(weak & ~keep)
    if len(pending):
        witnesses = _span_equal_witnesses(ctx_nodes, ctx_starts, ctx_ends)
        for position in pending:
            candidate = cand_nodes[position]
            group = witnesses.get((int(starts[position]),
                                   int(ends[position])), ())
            if any(_valid_ancestor_witness(candidate, context, goddag)
                   for context in group):
                keep[position] = True
    chosen = np.flatnonzero(keep)
    part = (okeys[chosen], cand_nodes[chosen], starts[chosen],
            ends[chosen])
    if extra is None:
        return part
    return tuple(np.concatenate((a, b)) for a, b in zip(part, extra))


def _join_overlapping(index, ctx_starts: np.ndarray, ctx_ends: np.ndarray,
                      name: str | None, *, preceding: bool,
                      following: bool):
    """Stab join for the overlap family.

    Per context ``c``, preceding-overlapping candidates end inside
    ``(c.start, c.end)`` and start before ``c.start``;
    following-overlapping candidates start inside ``(c.start, c.end)``
    and end past ``c.end``.  The per-context slice bounds come from two
    vectorized ``np.searchsorted`` calls; the slices are expanded with
    one ``np.repeat`` and masked in bulk.
    """
    if name is not None:
        interval = index.name_interval(name)
        s_arrays = (interval.starts, interval.ends, interval.okeys,
                    interval.nodes)
        e_arrays = (interval.e_starts, interval.e_ends, interval.e_okeys,
                    interval.e_nodes)
    else:
        okeys, e_okeys = index.okey_columns()
        s_arrays = (index.starts, index.ends, okeys, index.nodes)
        e_arrays = (index.e_starts, index.ends_sorted, e_okeys,
                    index.e_nodes)
    parts = []
    if preceding:
        e_starts, e_ends, e_okeys, e_nodes = e_arrays
        _reps, positions = _stab_preceding(e_starts, e_ends,
                                           ctx_starts, ctx_ends)
        parts.append((e_okeys[positions], e_nodes[positions],
                      e_starts[positions], e_ends[positions]))
    if following:
        s_starts, s_ends, s_okeys, s_nodes = s_arrays
        _reps, positions = _stab_following(s_starts, s_ends,
                                           ctx_starts, ctx_ends)
        parts.append((s_okeys[positions], s_nodes[positions],
                      s_starts[positions], s_ends[positions]))
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(pair) for pair in zip(*parts))


def _leaf_part(goddag: KyGoddag, axis: str, ctx_starts: np.ndarray,
               ctx_ends: np.ndarray) -> list:
    """The step's shared-leaf contribution, in text order."""
    partition = goddag.partition
    if axis == "xfollowing":
        return partition.leaves_from(int(ctx_ends.min()))
    if axis == "xpreceding":
        return partition.leaves_until(int(ctx_starts.max()))
    # xdescendant: the union of per-context leaf ranges — contexts
    # sorted by start merge into maximal intervals via the running max.
    order = np.argsort(ctx_starts, kind="stable")
    sorted_starts = ctx_starts[order]
    running_max = np.maximum.accumulate(ctx_ends[order])
    out: list = []
    run_start = int(sorted_starts[0])
    run_end = int(running_max[0])
    for start, end in zip(sorted_starts[1:], running_max[1:]):
        if int(start) > run_end:
            out.extend(partition.leaves_in(run_start, run_end))
            run_start = int(start)
        run_end = int(end)
    out.extend(partition.leaves_in(run_start, run_end))
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def join_axis_batch(goddag: KyGoddag, axis: str, nodes: list,
                    name: str | None = None, *,
                    skip_leaves: bool = False,
                    leaves_only: bool = False,
                    test=None, stats=None) -> ColumnarNodeSet:
    """One extended-axis step over a whole context sequence.

    Returns the union of per-node Definition 1 results — deduplicated
    and merged into global document order by one ``np.unique`` over the
    packed order keys — with ``test`` applied, as a
    :class:`ColumnarNodeSet` carrying span columns for the next step.
    ``name``/``skip_leaves``/``leaves_only`` are the planner's pushdown
    hints, with the same purely-an-optimization contract as
    :func:`repro.core.goddag.axes.evaluate_axis_batch`.

    A single live context delegates to the per-node axis (one slice /
    chain walk, already optimal) — the FLWOR-variable shape
    ``$leaf/xancestor::m`` must not pay column gathering per binding,
    especially under ``analyze-string`` membership churn.  ``stats``
    (a :class:`~repro.core.runtime.context.QueryStats`) gets
    ``batched_extended_steps`` bumped only when a kernel actually
    runs, so the counter never reports a delegated step as joined.
    """
    kernel = JOIN_KERNELS.get(axis)
    if kernel is None:
        raise GoddagError(f"'{axis}' is not an extended axis")
    index = goddag.span_index()
    context = _contexts(nodes, exclude_leaves=axis == "xdescendant")
    if context is None:
        return ColumnarNodeSet()
    ctx_nodes, ctx_starts, ctx_ends = context
    if len(ctx_nodes) == 1:
        from repro.core.goddag.axes import evaluate_axis_batch

        return ColumnarNodeSet(evaluate_axis_batch(
            goddag, axis, ctx_nodes, name, skip_leaves=skip_leaves,
            leaves_only=leaves_only, test=test))
    if stats is not None:
        stats.batched_extended_steps += 1
    want_leaves = (axis in _LEAF_BEARING and not skip_leaves
                   and name is None)
    if leaves_only:
        part = _empty_part()
        want_leaves = axis in _LEAF_BEARING
    elif axis == "xfollowing":
        part = _join_xfollowing(index, ctx_ends, name)
    elif axis == "xpreceding":
        part = _join_xpreceding(index, ctx_starts, name)
    elif axis == "xdescendant":
        part = _join_xdescendant(goddag, index, ctx_nodes, ctx_starts,
                                 ctx_ends, name)
    elif axis == "xancestor":
        part = _join_xancestor(goddag, index, ctx_nodes, ctx_starts,
                               ctx_ends, name)
    else:
        part = _join_overlapping(
            index, ctx_starts, ctx_ends, name,
            preceding=axis != "following-overlapping",
            following=axis != "preceding-overlapping")
    okeys, cand_nodes, starts, ends = part
    if len(okeys):
        # Dedup across contexts + the one global document-order sort.
        _unique, first = np.unique(okeys, return_index=True)
        cand_nodes = cand_nodes[first]
        starts = starts[first]
        ends = ends[first]
    out_nodes = cand_nodes.tolist()
    if test is not None and out_nodes:
        flags = np.fromiter((bool(test(node)) for node in out_nodes),
                            dtype=bool, count=len(out_nodes))
        if not flags.all():
            out_nodes = [node for node, flag in zip(out_nodes, flags)
                         if flag]
            starts = starts[flags]
            ends = ends[flags]
    if not want_leaves:
        return ColumnarNodeSet(out_nodes, starts, ends)
    leaves = _leaf_part(goddag, axis, ctx_starts, ctx_ends)
    if test is not None:
        leaves = [leaf for leaf in leaves if test(leaf)]
    if not leaves:
        return ColumnarNodeSet(out_nodes, starts, ends)
    leaf_starts = np.fromiter((leaf.start for leaf in leaves),
                              dtype=np.int64, count=len(leaves))
    leaf_ends = np.fromiter((leaf.end for leaf in leaves),
                            dtype=np.int64, count=len(leaves))
    # Leaves occupy order-key tier 2: they follow every hierarchy node.
    return ColumnarNodeSet(out_nodes + leaves,
                           np.concatenate((starts, leaf_starts)),
                           np.concatenate((ends, leaf_ends)))


def exists_axis_batch(goddag: KyGoddag, axis: str, nodes: list,
                      name: str, *,
                      among: np.ndarray | None = None) -> np.ndarray:
    """Batched EBV existence probe: per context, does ``axis::name``
    yield anything?

    The vectorized counterpart of
    :func:`repro.core.goddag.axes.axis_exists_named` — one boolean per
    context in one pass over the per-name join columns.

    ``among`` restricts the witnesses to a subset of the name: a
    boolean mask over the rows of ``SpanIndex.name_interval(name)``
    (start order).  It is how a decorrelated ``axis::name[P]``
    predicate probes only the rows that passed ``P`` (DESIGN.md §16).
    The name columns exclude the root, so under ``among`` the root is
    never a witness; the caller keeps ``xancestor::<root name>[P]`` on
    the per-node path.

    A witness whose span differs from the context's can never sit on
    the context's own ancestor/descendant chain, so the Definition 1
    exclusions only need checking when *every* witness is span-equal —
    resolved per context against the actual (subset) rows.
    """
    if axis in TREE_EXISTS_AXES:
        if among is not None:
            raise GoddagError(f"'{axis}' probes take no witness subset")
        return _exists_in_tree(goddag, axis, nodes, name)
    if axis not in JOIN_KERNELS:
        raise GoddagError(f"'{axis}' has no batched existence probe")
    index = goddag.span_index()
    count = len(nodes)
    out = np.zeros(count, dtype=bool)
    if not count:
        return out
    interval = index.name_interval(name)
    n_starts, n_ends = interval.starts, interval.ends
    if among is not None:
        n_starts, n_ends = n_starts[among], n_ends[among]
    n_named = len(n_starts)
    # the root is no row: ``xancestor::<root name>`` finds it anyway
    root_named = (axis == "xancestor" and among is None
                  and goddag.root.name == name)
    if not n_named and not root_named:
        return out  # no witness, so no context's span is read
    starts, ends = span_columns_of(nodes)
    live = starts < ends
    if not live.any():
        return out
    if axis in ("overlapping", "preceding-overlapping",
                "following-overlapping"):
        chosen = np.flatnonzero(live)
        ctx_starts = starts[chosen]
        ctx_ends = ends[chosen]
        if axis != "following-overlapping":
            e_starts, e_ends = interval.e_starts, interval.e_ends
            if among is not None:
                e_among = among[interval.e_order]
                e_starts, e_ends = e_starts[e_among], e_ends[e_among]
            reps, _positions = _stab_preceding(e_starts, e_ends,
                                               ctx_starts, ctx_ends)
            found = np.bincount(reps, minlength=len(chosen)) > 0
            out[chosen[found]] = True
        if axis != "preceding-overlapping":
            reps, _positions = _stab_following(n_starts, n_ends,
                                               ctx_starts, ctx_ends)
            found = np.bincount(reps, minlength=len(chosen)) > 0
            out[chosen[found]] = True
        return out
    if axis == "xfollowing":
        return live & (ends <= int(n_starts[-1]))
    if axis == "xpreceding":
        return live & (starts >= int(n_ends.min()))
    if axis == "xdescendant":
        smin = (interval.suffix_min_ends if among is None
                else np.minimum.accumulate(n_ends[::-1])[::-1])
        pos_left = np.searchsorted(n_starts, starts, side="left")
        pos_right = np.searchsorted(n_starts, starts, side="right")
        huge = np.int64(np.iinfo(np.int64).max)
        reach_left = np.where(pos_left < n_named,
                              smin[np.minimum(pos_left, n_named - 1)],
                              huge)
        reach_right = np.where(pos_right < n_named,
                               smin[np.minimum(pos_right, n_named - 1)],
                               huge)
        weak = live & (reach_left <= ends)
        # xdescendant(leaf) is empty; only contexts with a contained
        # witness need the type check
        spanning = np.flatnonzero(weak)
        leaves = np.fromiter((isinstance(nodes[position], GLeaf)
                              for position in spanning.tolist()),
                             dtype=bool, count=len(spanning))
        weak[spanning[leaves]] = False
        sure = weak & ((reach_left < ends) | (reach_right <= ends))
        out |= sure
        valid = _valid_descendant_witness
    else:
        # xancestor: prefix-max reverse containment + the special root
        # case (the root is not a row, so never a witness under among).
        root = goddag.root
        if root_named:
            out |= live
            for position, node in enumerate(nodes):
                if node is root:
                    out[position] = False
            if out.all():
                return out
        if not n_named:
            return out
        pmax = (interval.prefix_max_ends if among is None
                else np.maximum.accumulate(n_ends))
        pos_right = np.searchsorted(n_starts, starts, side="right")
        pos_left = np.searchsorted(n_starts, starts, side="left")
        reach_right = np.where(pos_right > 0,
                               pmax[np.maximum(pos_right - 1, 0)],
                               np.int64(-1))
        reach_left = np.where(pos_left > 0,
                              pmax[np.maximum(pos_left - 1, 0)],
                              np.int64(-1))
        weak = live & (reach_right >= ends)
        sure = live & ((reach_right > ends) | (reach_left >= ends))
        out |= sure
        valid = _valid_ancestor_witness
    pending = np.flatnonzero(weak & ~sure & ~out)
    if len(pending):
        # Every witness shares the context's span, i.e. is one of the
        # rows starting at its start and ending at its end.
        n_nodes = interval.nodes if among is None else interval.nodes[among]
        for position in pending:
            left = int(pos_left[position])
            right = int(pos_right[position])
            rows = left + np.flatnonzero(
                n_ends[left:right] == ends[position])
            out[position] = any(valid(n_nodes[row], nodes[position], goddag)
                                for row in rows)
    return out


def _exists_in_tree(goddag: KyGoddag, axis: str, nodes: list,
                    name: str) -> np.ndarray:
    """``ancestor::name`` / ``descendant::name`` / ``self::name`` per
    context: the standard axes as joins on the resident columns.

    Within one hierarchy a subtree is the preorder interval
    ``(preorder, subtree_end]``, so against the hierarchy's preorder-
    sorted :meth:`name_entry` columns a descendant exists iff two
    bisects differ, and an ancestor iff the running maximum of
    ``subtree_end`` over the rows before the context reaches it.  A
    leaf's ancestors are exactly its span containers in every
    hierarchy, which is one stab against the name's interval columns;
    the root tops every parent chain and is a row of no column, so it
    is answered first.
    """
    count = len(nodes)
    out = np.zeros(count, dtype=bool)
    if not count:
        return out
    if axis == "self":
        if {GElement, GRoot} & set(map(type, nodes)):
            out = np.fromiter((isinstance(node, (GElement, GRoot))
                               and node.name == name for node in nodes),
                              dtype=bool, count=count)
        return out
    if not goddag.hierarchy_names:
        return out  # a bare root over leaves: no parent chain at all
    root = goddag.root
    if axis == "ancestor" and root.name == name:
        return np.fromiter((node is not root for node in nodes),
                           dtype=bool, count=count)
    if axis == "ancestor" and set(map(type, nodes)) == {GLeaf}:
        return _has_containing_named(goddag, nodes, name)
    #: hierarchy -> (positions, preorders, subtree ends) of its contexts
    grouped: dict[str, tuple[list, list, list]] = {}
    leaves: list[int] = []
    for position, node in enumerate(nodes):
        if isinstance(node, GAttr):
            if axis == "descendant":
                continue
            node = node.owner  # the first link of an attribute's chain
            if node.name == name:
                out[position] = True
                continue
        if isinstance(node, _HierarchyNode):
            positions, preorders, subtree_ends = grouped.setdefault(
                node.hierarchy, ([], [], []))
            positions.append(position)
            preorders.append(node.preorder)
            subtree_ends.append(node.subtree_end)
        elif isinstance(node, GLeaf):
            if axis == "ancestor":
                leaves.append(position)
        elif node is root and axis == "descendant":
            # every element of every hierarchy; as an ancestor context
            # the root (and an attribute it owns) tops the chain: False
            out[position] = any(
                goddag._components[hierarchy].name_entry(name) is not None
                for hierarchy in goddag.hierarchy_names)
    if leaves:
        out[leaves] = _has_containing_named(
            goddag, [nodes[position] for position in leaves], name)
    for hierarchy, (positions, preorders, subtree_ends) in grouped.items():
        component = goddag._components.get(hierarchy)
        entry = component.name_entry(name) if component else None
        if entry is None:
            continue
        preorders = np.asarray(preorders, dtype=np.int64)
        if axis == "descendant":
            found = (np.searchsorted(entry.preorders, subtree_ends,
                                     side="right")
                     > np.searchsorted(entry.preorders, preorders,
                                       side="right"))
        else:
            before = np.searchsorted(entry.preorders, preorders,
                                     side="left")
            reach = np.maximum.accumulate(entry.subtree_ends)
            found = (before > 0) & (reach[np.maximum(before - 1, 0)]
                                    >= preorders)
        out[np.asarray(positions)[found]] = True
    return out


def _has_containing_named(goddag: KyGoddag, leaves: list,
                          name: str) -> np.ndarray:
    """:meth:`SpanIndex.has_containing_named` for many leaves: no
    element lies on a leaf's own chain below it, so a span-equal
    container is a witness like any other — one bisect and one
    prefix-max lookup per leaf, nothing to resolve per node."""
    interval = goddag.span_index().name_interval(name)
    starts, ends = span_columns_of(leaves)
    if not len(interval):
        return np.zeros(len(starts), dtype=bool)
    before = np.searchsorted(interval.starts, starts, side="right")
    return (before > 0) & (
        interval.prefix_max_ends[np.maximum(before - 1, 0)] >= ends)


def descendant_leaves_batch(goddag: KyGoddag, nodes: list
                            ) -> tuple[list[list], ColumnarNodeSet]:
    """``descendant::leaf()`` of every context in one pass: the
    per-context leaf lists (text order) and their deduplicated union
    with span columns.

    Valid for hierarchy nodes and the root, whose leaves are the
    partition cells inside their span: two ``searchsorted`` calls on
    the boundary offsets bound every context's slice of the one leaf
    list.
    """
    partition = goddag.partition
    starts, ends = span_columns_of(nodes)
    leaves, firsts, lasts = partition.leaf_ranges(starts, ends)
    rows = [leaves[first:last]
            for first, last in zip(firsts.tolist(), lasts.tolist())]
    _reps, cells = _multi_slice(firsts, lasts)
    cells = np.unique(cells)
    bounds = partition.boundary_array
    union = ColumnarNodeSet([leaves[cell] for cell in cells.tolist()],
                            bounds[cells], bounds[cells + 1])
    return rows, union
