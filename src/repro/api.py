"""High-level public API: the :class:`Engine` facade and ``.mhx`` IO.

Typical use::

    from repro import Engine

    engine = Engine.from_xml(text, {"physical": xml1, "structural": xml2})
    result = engine.query('for $l in /descendant::line return string($l)')
    print(result.serialize())

An ``.mhx`` file is a JSON container bundling the base text, the
hierarchy encodings, and (optionally) the CMH DTD sources — a portable
interchange format for multihierarchical documents.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.errors import ReproError
from repro.cmh import ConcurrentMarkupHierarchy, MultihierarchicalDocument
from repro.core.goddag import KyGoddag, collect, describe, to_dot
from repro.core.goddag.stats import GoddagStats
from repro.core.plan import CompiledQuery, compile_query
from repro.core.runtime import QueryOptions, QueryStats, serialize_items
from repro.core.update import (
    CompiledUpdate,
    UpdateApplyStats,
    apply_pending,
    compile_update,
)

#: Public alias: what :meth:`Engine.update` returns.
UpdateResult = UpdateApplyStats

MHX_FORMAT = "mhx-1"

#: Compiled plans kept per engine (LRU over query text + options).
PLAN_CACHE_SIZE = 256


class QueryResult:
    """The result of one query: an item sequence plus serialization."""

    def __init__(self, items: list, stats: QueryStats) -> None:
        self.items = items
        #: this call's evaluation counters (never shared between calls)
        self.stats = stats

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int):
        return self.items[index]

    def strings(self) -> list[str]:
        """Each item serialized individually."""
        from repro.core.runtime.serializer import serialize_each

        return serialize_each(self.items)

    def serialize(self, mode: str = "paper") -> str:
        """The whole sequence as one string (see serializer modes)."""
        return serialize_items(self.items, mode=mode)


class Engine:
    """A query engine bound to one multihierarchical document.

    Queries run through the compilation pipeline (parse → rewrite →
    plan → set-at-a-time execution, DESIGN.md §8) — the only evaluator;
    compiled plans are cached in an LRU keyed by query text + options,
    so repeated ``query()`` calls skip everything up to execution.
    ``use_cost=False`` skips the statistics-driven cost pass and runs
    the mechanical lowering (DESIGN.md §16).
    """

    def __init__(self, document: MultihierarchicalDocument,
                 options: QueryOptions | None = None,
                 use_cost: bool = True) -> None:
        self._document = document
        self._dtds = None
        self.options = options or QueryOptions()
        self.goddag = KyGoddag.build(document)
        self._seen = _holdings(document)
        self.use_cost = use_cost
        self._plans: OrderedDict[tuple, CompiledQuery] = OrderedDict()
        self._plans_lock = threading.Lock()
        self._plans_version = self.goddag.version

    @property
    def document(self) -> MultihierarchicalDocument:
        """The document: the base text and each hierarchy's columns.

        An engine assembled around a KyGODDAG (``.mhxb`` cold load,
        store fork) has none until it is asked for: queries and saves
        need only the KyGODDAG.  What it then gets holds the KyGODDAG's
        components, which the structure disowns — the fork rule of
        DESIGN.md §10 with the document as the other holder, so a later
        in-place rename copies first; a hierarchy's DOM is an export
        made when somebody asks (:attr:`Hierarchy.document
        <repro.cmh.document.Hierarchy.document>`).  An update re-seats
        the hierarchies it changes (:meth:`update`).

        Safe to race on a shared frozen engine: a duplicate document
        just wastes work (both hold the same components).
        """
        document = self._document
        if document is None:
            goddag = self.goddag
            components = goddag.components()
            document = MultihierarchicalDocument(goddag.text)
            for name in goddag.persistent_hierarchy_names:
                document.add_columns(components[name],
                                     goddag.root.root_name)
                goddag.disown(name)
            if self._dtds:
                document.cmh = ConcurrentMarkupHierarchy.from_sources(
                    goddag.root.root_name, self._dtds)
            self._seen = _holdings(document)
            self._document = document
        return document

    def dtd_sources(self) -> dict | None:
        """The CMH's DTD sources, when the document has a schema whose
        sources are known — without materializing the document."""
        if self._document is None:
            return self._dtds
        cmh = self._document.cmh
        return None if cmh is None else cmh.sources()

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_parts(cls, goddag: KyGoddag, *,
                   document: MultihierarchicalDocument | None = None,
                   dtds: dict | None = None,
                   options: QueryOptions | None = None,
                   use_cost: bool = True) -> "Engine":
        """Assemble an engine around an already-built KyGODDAG.

        The ``.mhxb`` cold-load and store-fork paths: the goddag was
        reconstructed elsewhere, so nothing is rebuilt here.  Without a
        ``document`` one is made from the goddag when asked for (see
        :attr:`document`); ``dtds`` are the schema sources it then
        attaches.
        """
        self = cls.__new__(cls)
        self._document = document
        self._seen = None if document is None else _holdings(document)
        self._dtds = dtds
        self.options = options or QueryOptions()
        self.goddag = goddag
        self.use_cost = use_cost
        self._plans = OrderedDict()
        self._plans_lock = threading.Lock()
        self._plans_version = goddag.version
        return self

    @classmethod
    def from_xml(cls, text: str, sources: dict[str, str],
                 options: QueryOptions | None = None) -> "Engine":
        """Build from the base text and XML encoding strings."""
        document = MultihierarchicalDocument.from_xml(text, sources)
        return cls(document, options=options)

    @classmethod
    def from_mhx(cls, path: str | Path,
                 options: QueryOptions | None = None) -> "Engine":
        """Load a ``.mhx`` JSON container (or, routed by extension and
        content sniffing, a binary ``.mhxb`` container)."""
        from repro.store.mhxb import looks_like_mhxb

        path = Path(path)
        if path.suffix == ".mhxb" or looks_like_mhxb(path):
            return cls.from_mhxb(path, options=options)
        document = load_mhx(path)
        return cls(document, options=options)

    @classmethod
    def from_mhxb(cls, path: str | Path,
                  options: QueryOptions | None = None,
                  verify: bool = False) -> "Engine":
        """Cold-load a binary ``.mhxb`` container (mmap-backed; no XML
        re-parse, no index rebuild — DESIGN.md §10).  ``verify=True``
        deep-scans every block checksum first (DESIGN.md §12)."""
        from repro.store.mhxb import load_engine

        return load_engine(path, options=options, verify=verify)

    # -- queries --------------------------------------------------------------

    def query(self, text: str, variables: dict[str, list] | None = None
              ) -> QueryResult:
        """Evaluate an extended XQuery expression."""
        return self._run(text, variables, xpath=False)

    def xpath(self, text: str, variables: dict[str, list] | None = None
              ) -> QueryResult:
        """Evaluate a pure (extended) XPath expression."""
        return self._run(text, variables, xpath=True)

    @property
    def version(self) -> int:
        """The document version: bumped by every applied mutation."""
        return self.goddag.version

    def _sync_plan_cache(self) -> None:
        """Drop every cached plan when the document version moved.

        The stale-plan guard of the update engine (DESIGN.md §9): a
        plan compiled before a mutation is never served afterwards, and
        — unlike keying the LRU by version — dead pre-mutation entries
        don't linger in the cache.  The deliberate cost: each mutation
        forces one recompile per query text used afterwards (sub-ms;
        mutations are rare next to queries, and correctness under a
        future document-dependent compile step is worth more than a
        warm cache across versions).
        """
        if self._plans_version != self.goddag.version:
            with self._plans_lock:
                if self._plans_version != self.goddag.version:
                    self._plans.clear()
                    self._plans_version = self.goddag.version

    def _cached_plan(self, mode: str, text: str, factory):
        """LRU lookup keyed by (mode, text, options), version-synced.

        The short lock makes the LRU bookkeeping safe for concurrent
        plain readers sharing a frozen snapshot engine directly
        (compilation runs outside it; a racing duplicate compile is
        wasted work, never a wrong result).
        """
        self._sync_plan_cache()
        key = (mode, text, self.options)
        with self._plans_lock:
            cached = self._plans.get(key)
            if cached is not None:
                self._plans.move_to_end(key)
                return cached
        compiled = factory()
        with self._plans_lock:
            racing = self._plans.get(key)
            if racing is not None:
                return racing
            self._plans[key] = compiled
            if len(self._plans) > PLAN_CACHE_SIZE:
                self._plans.popitem(last=False)
        return compiled

    def plan_stats(self):
        """Plan-time document statistics (DESIGN.md §16), cached on the
        goddag keyed by version.  A ``.mhxb`` cold load restores the
        persisted block; otherwise (or after a mutation) this collects
        vectorized off the span-index columns."""
        from repro.core.goddag.stats import collect_plan_stats

        goddag = self.goddag
        cached = getattr(goddag, "_plan_stats", None)
        if cached is None or cached.version != goddag.version:
            cached = collect_plan_stats(goddag)
            goddag._plan_stats = cached
        return cached

    def compile(self, text: str, xpath: bool = False) -> CompiledQuery:
        """Compile a query through the pipeline (LRU-cached).

        With ``use_cost`` (the default) the statistics-driven cost
        pass runs over the plan; the engine LRU needs no statistics
        key — it is per-document and version-synced, so every entry
        was costed against the live statistics.
        """
        stats = self.plan_stats() if self.use_cost else None
        return self._cached_plan(
            "xpath" if xpath else "query", text,
            lambda: compile_query(text, xpath=xpath, stats=stats))

    def compile_update(self, text: str) -> CompiledUpdate:
        """Compile an update statement (LRU-cached like queries)."""
        return self._cached_plan("update", text,
                                 lambda: compile_update(text))

    def explain(self, text: str, xpath: bool = False,
                analyze: bool = False) -> str:
        """The compiled pipeline report for one query.

        ``analyze=True`` additionally *runs* the query and renders the
        recorded actual cardinality next to each estimate
        (``[est=… act=…]``, misestimates flagged ``!``).
        """
        compiled = self.compile(text, xpath=xpath)
        if not analyze:
            return compiled.explain()
        result = self.execute(compiled)
        return compiled.explain(actuals=result.stats.op_actuals)

    def explain_update(self, text: str) -> str:
        """The compiled pipeline report for one update statement."""
        return self.compile_update(text).explain()

    # -- updates --------------------------------------------------------------

    def update(self, statement: str | CompiledUpdate,
               variables: dict[str, list] | None = None,
               check: bool = True) -> UpdateResult:
        """Apply an update statement transactionally (DESIGN.md §9).

        Targets evaluate against the pre-state snapshot into a pending
        update list (conflicts raise before anything mutates); the list
        applies atomically through the incremental KyGODDAG paths.
        With ``check`` (the default) the structural invariants are
        verified after the apply, node by node over the hierarchies the
        statement rebuilt and by column over everything they share
        with the rest — pass ``check=False`` on trusted hot paths;
        ``engine.goddag.check_invariants()`` is the whole net.

        The engine's document, if it has one, then holds what the
        update changed (:meth:`MultihierarchicalDocument.reseat
        <repro.cmh.document.MultihierarchicalDocument.reseat>`).  An
        engine whose document holds another text or another
        :class:`~repro.cmh.document.Hierarchy` object than it last saw —
        another engine's update, a hierarchy removed and added again,
        validation defaults — first rebuilds its KyGODDAG from the
        document, so the update starts from what the document says.
        """
        if isinstance(statement, CompiledUpdate):
            compiled = statement
        else:
            compiled = self.compile_update(statement)
        document = self._document
        if document is not None and not self.goddag.frozen \
                and not _same(_holdings(document), self._seen):
            self.goddag = KyGoddag.build(document)  # DESIGN.md §10
            self._seen = _holdings(document)
            self._plans_version = None
        goddag = self.goddag
        pending = compiled.pending(goddag, variables=variables,
                                   options=self.options)
        result = apply_pending(goddag, pending, check=check)
        if document is not None:
            # The engine's own document holds what the update changed
            # as the columns now registered — the fork rule of §10 with
            # the document as the other holder, so a later in-place
            # rename copies first.
            components = goddag.components()
            document.reseat(goddag.text, [
                components[name] for name in result.changed_hierarchies])
            for name in result.changed_hierarchies:
                goddag.disown(name)
            self._seen = _holdings(document)
        return result

    @staticmethod
    def _finalize_stats(compiled: CompiledQuery,
                        stats: QueryStats) -> None:
        """Stamp the costed plan's bottom-line est/act onto the per-call
        stats (observability: access logs, /statz — DESIGN.md §16)."""
        if not compiled.costed:
            return
        from repro.core.plan.cost import final_estimate

        final = final_estimate(compiled.plan)
        if final is not None:
            stats.est_rows = final[1]
            stats.act_rows = stats.op_actuals.get(final[0])

    def execute(self, compiled: CompiledQuery,
                variables: dict[str, list] | None = None) -> QueryResult:
        """Run a :class:`CompiledQuery`."""
        with self._plans_lock:
            cached = any(plan is compiled for plan in self._plans.values())
        return self._execute(compiled, variables, cached)

    def _run(self, text: str, variables: dict[str, list] | None,
             xpath: bool) -> QueryResult:
        self._sync_plan_cache()
        key = ("xpath" if xpath else "query", text, self.options)
        cached = key in self._plans  # asked before compile() caches it
        return self._execute(self.compile(text, xpath=xpath), variables,
                             cached)

    def _execute(self, compiled: CompiledQuery,
                 variables: dict[str, list] | None,
                 cached: bool) -> QueryResult:
        stats = QueryStats(plan_cache_hit=cached)
        items = compiled.execute(self.goddag, variables=variables,
                                 options=self.options, stats=stats)
        self._finalize_stats(compiled, stats)
        return QueryResult(items, stats)

    # -- inspection ----------------------------------------------------------

    def stats(self) -> GoddagStats:
        """The KyGODDAG node/edge inventory."""
        return collect(self.goddag)

    def describe(self) -> str:
        """A human-readable outline of the KyGODDAG."""
        return describe(self.goddag)

    def to_dot(self) -> str:
        """GraphViz DOT of the KyGODDAG (Figure 2 style)."""
        return to_dot(self.goddag)

    def save_mhx(self, path: str | Path) -> None:
        """Write the document to a ``.mhx`` container."""
        save_mhx(self.document, path)

    def save_mhxb(self, path: str | Path, *,
                  durability: str = "off") -> int:
        """Write the full engine state to a binary ``.mhxb`` container
        (DESIGN.md §10); returns the file size in bytes.

        ``durability="full"`` fsyncs the temp file and directory around
        the atomic rename (DESIGN.md §12)."""
        from repro.store.mhxb import save_engine

        return save_engine(self, path, durability=durability)


def _holdings(document: MultihierarchicalDocument) -> list:
    """What ``document`` holds, to be compared by identity: its text and
    each hierarchy — never written in place, so a change is a new
    object (DESIGN.md §15)."""
    return [document.text, *document.hierarchies.values()]


def _same(now: list, seen: list) -> bool:
    return len(now) == len(seen) and all(
        one is other for one, other in zip(now, seen))


# ---------------------------------------------------------------------------
# .mhx container IO
# ---------------------------------------------------------------------------


def save_mhx(document: MultihierarchicalDocument,
             path: str | Path) -> None:
    """Serialize a multihierarchical document to a ``.mhx`` JSON file.

    When the document carries an attached CMH whose DTD sources are
    known, they are bundled under the ``dtds`` key so ``load_mhx``
    restores (and re-validates) the schema — the round-trip is
    lossless.
    """
    payload: dict[str, Any] = {
        "format": MHX_FORMAT,
        "text": document.text,
        "hierarchies": {
            name: hierarchy.to_xml()
            for name, hierarchy in document.hierarchies.items()
        },
    }
    if document.cmh is not None:
        sources = document.cmh.sources()
        if sources is not None:
            payload["dtds"] = sources
    Path(path).write_text(
        json.dumps(payload, ensure_ascii=False, indent=2),
        encoding="utf-8")


def load_mhx(path: str | Path) -> MultihierarchicalDocument:
    """Load a multihierarchical document from a ``.mhx`` JSON file."""
    from repro.store.mhxb import looks_like_mhxb

    if looks_like_mhxb(path):
        raise ReproError(
            f"{path} is a binary .mhxb container, not a JSON .mhx file "
            f"— load it with Engine.from_mhxb (or Engine.from_mhx, "
            f"which routes by content)")
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise ReproError(f"cannot read .mhx file {path}: {error}") from error
    if payload.get("format") != MHX_FORMAT:
        raise ReproError(
            f"{path} is not an {MHX_FORMAT} container "
            f"(format={payload.get('format')!r})")
    document = MultihierarchicalDocument.from_xml(
        payload["text"], payload["hierarchies"])
    dtds = payload.get("dtds")
    if dtds:
        cmh = ConcurrentMarkupHierarchy.from_sources(
            document.root_name, dtds)
        document.attach_cmh(cmh)
    return document
