"""The :class:`DocumentStore`: a named catalog of persistent engines.

Concurrency model (DESIGN.md §10) — **single writer, many snapshot
readers**, per store:

* every document name maps to one published :class:`Snapshot` — a
  frozen engine at a version.  ``snapshot(name)`` is a single dict
  read (atomic under the GIL) and never takes the writer lock;
* ``update(name, statements)`` serializes writers on one re-entrant
  lock, **forks** the current snapshot (a new version shell around the
  published version's hierarchy components — the engine's incremental
  update paths then replace the components they touch on the private
  fork), applies the whole statement batch transactionally, verifies
  what the batch rebuilt, persists the new ``.mhxb``, and publishes the
  fork as the next snapshot.  A failing statement aborts the entire
  batch: the fork is discarded and both the published snapshot and the
  on-disk file stay at the old version;
* compiled plans live in one :class:`SharedPlanCache` keyed by query
  text + grammar, shared by every catalog entry — a query compiled for
  one document is a cache hit for all of them.

Crash safety (DESIGN.md §12) — on disk a store is a directory:
``store.json`` (the generation-stamped manifest, atomically renamed
into place with the previous generation kept hardlinked at
``store.json.prev``) plus one checksummed ``.mhxb`` file per document.
Every file mutation routes through the :mod:`~repro.store.faultfs` OS
layer and follows write-temp → fsync → rename → fsync-directory under
the store's ``durability`` policy (``"full"`` syncs every commit,
``"batch"`` defers syncs to :meth:`DocumentStore.sync` / ``compact``,
``"off"`` never syncs but stays rename-atomic).  Opening a store runs
:meth:`DocumentStore.recover`: temp litter is swept, manifest entries
are reconciled against the on-disk files (adopting the newer
consistent state a crash may have left), and corrupt or missing
documents are **quarantined** in the manifest instead of failing the
open.
"""

from __future__ import annotations

import json
import re
import shutil
import threading
from functools import partial
from pathlib import Path

from repro.api import Engine, UpdateResult, load_mhx
from repro.errors import IntegrityError, ReproError, StoreError
from repro.cmh import MultihierarchicalDocument
from repro.core.plan.distribute import classify, find_collections
from repro.core.runtime import QueryOptions
from repro.core.runtime.serializer import serialize_item
from repro.store import faultfs
from repro.store.mhxb import (
    load_document,
    looks_like_mhxb,
    map_engine,
    read_header,
    save_engine,
    verify_blocks,
)
from repro.store.plancache import SharedPlanCache
from repro.store.pool import (
    CorpusResult,
    ShardWorkerPool,
    gather,
    run_shard,
)
from repro.store.sharding import CorpusStats, fuse_documents, save_shards
from repro.store.snapshot import Snapshot

STORE_FORMAT = "mhx-store-1"
MANIFEST_NAME = "store.json"
MANIFEST_PREV_NAME = "store.json.prev"

#: durability policies: every-commit syncs / deferred coalesced syncs /
#: rename-atomicity only
DURABILITY_MODES = ("full", "batch", "off")

_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: the manifest sections that share the catalog's namespace, and what
#: an entry of each is called
_KINDS = {"documents": "document", "corpora": "corpus"}


def fork_engine(engine: Engine) -> Engine:
    """An unfrozen engine at the same version: the writer's private
    shell (DESIGN.md §10).

    :meth:`KyGoddag.fork` hands the new version the source's hierarchy
    components, leaves and span-index columns as they are — nothing is
    attached, copied per node, re-numbered or re-sorted, and no DOM is
    built.  The fork's DOM side derives from the components one
    hierarchy at a time, when an update or a serialization asks.
    Options, ``use_cost`` and DTD sources carry over; the version
    counter does too, so updates continue the original's sequence.
    """
    return Engine.from_parts(
        engine.goddag.fork(), dtds=engine.dtd_sources(),
        options=engine.options, use_cost=engine.use_cost)


def _whole_net(engine: Engine) -> None:
    """Run the whole invariant net; on a published (frozen) engine as a
    plain reader, so no ``analyze-string`` temporary is half
    registered while it looks."""
    latch = engine.goddag.read_latch
    if latch is not None:
        latch.acquire_read()
    try:
        engine.goddag.check_invariants()
    finally:
        if latch is not None:
            latch.release_read()


class DocumentStore:
    """A directory-backed catalog of documents with MVCC snapshots."""

    def __init__(self, root: str | Path,
                 options: QueryOptions | None = None,
                 plan_cache_size: int = 512,
                 durability: str = "full",
                 verify_cold_loads: bool = True) -> None:
        if durability not in DURABILITY_MODES:
            raise ReproError(
                f"unknown durability policy {durability!r} "
                f"(want one of {', '.join(DURABILITY_MODES)})")
        self.root = Path(root)
        self.options = options or QueryOptions()
        self.plans = SharedPlanCache(plan_cache_size)
        self.durability = durability
        self.verify_cold_loads = verify_cold_loads
        self._lock = threading.RLock()
        self._live: dict[str, Snapshot] = {}
        self._dirty: set[Path] = set()
        #: the last persisted manifest payload sans generation — the
        #: batch-durability fast path skips rewriting when unchanged
        self._manifest_core: str | None = None
        #: parent-side shard engines (serial execution)
        self._shard_engines: dict[str, Engine] = {}
        #: fused whole-corpus engines, keyed by corpus name
        self._fused: dict[str, Engine] = {}
        self._pools: dict[int, ShardWorkerPool] = {}
        #: headers recovery parsed, for each document's first cold load
        self._headers: dict[str, tuple] = {}
        self._manifest = self._load_manifest()
        self._manifest.setdefault("generation", 0)
        self._manifest.setdefault("quarantined", {})
        self._manifest.setdefault("corpora", {})
        self.recovery = self.recover()

    def _load_manifest(self) -> dict:
        """Parse ``store.json``, falling back to the previous
        generation (``store.json.prev``) when the current pointer is
        unreadable or corrupt."""
        manifest_path = self.root / MANIFEST_NAME
        prev_path = self.root / MANIFEST_PREV_NAME
        try:
            manifest = json.loads(
                manifest_path.read_text(encoding="utf-8"))
            source = MANIFEST_NAME
        except (OSError, json.JSONDecodeError) as error:
            try:
                manifest = json.loads(
                    prev_path.read_text(encoding="utf-8"))
                source = MANIFEST_PREV_NAME
            except (OSError, json.JSONDecodeError):
                if isinstance(error, json.JSONDecodeError):
                    raise ReproError(
                        f"corrupt store manifest {manifest_path}: "
                        f"{error}") from error
                raise ReproError(
                    f"{self.root} is not a document store ({error}); "
                    f"create one with DocumentStore.init / "
                    f"`mhxq store init`") from error
        if manifest.get("format") != STORE_FORMAT:
            raise ReproError(
                f"{self.root / source} is not an {STORE_FORMAT} "
                f"manifest (format={manifest.get('format')!r})")
        manifest["_loaded_from"] = source
        return manifest

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def init(cls, root: str | Path, **kwargs) -> "DocumentStore":
        """Create an empty store directory (refusing to clobber one)."""
        root = Path(root)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists():
            raise ReproError(f"{root} already holds a document store")
        root.mkdir(parents=True, exist_ok=True)
        _write_json(manifest_path,
                    {"format": STORE_FORMAT, "generation": 0,
                     "documents": {}, "quarantined": {}},
                    durability="full")
        return cls(root, **kwargs)

    # -- recovery ------------------------------------------------------------

    def recover(self) -> dict:
        """Reconcile the manifest with the directory; return a report.

        Runs automatically at open.  Sweeps ``.tmp`` litter, adopts the
        newer consistent state when a crash landed between a data-file
        rename and the manifest write (the ``.mhxb`` header's version
        is authoritative for committed files), re-adopts orphan
        ``.mhxb`` files the manifest never learned about, and
        quarantines documents whose files are missing or fail their
        header checksum — the store opens regardless.
        """
        report: dict = {"swept": [], "adopted": [], "quarantined": [],
                        "manifest": self._manifest.pop("_loaded_from",
                                                       MANIFEST_NAME)}
        with self._lock:
            documents = self._manifest["documents"]
            quarantined = self._manifest["quarantined"]
            changed = report["manifest"] != MANIFEST_NAME
            for litter in sorted(self.root.glob("*.tmp")):
                litter.unlink(missing_ok=True)
                report["swept"].append(litter.name)
            for name, entry in list(documents.items()):
                path = self.root / entry["file"]
                if not path.exists():
                    self._quarantine_entry(name, entry,
                                           "file missing on disk")
                    report["quarantined"].append(name)
                    changed = True
                    continue
                try:
                    header, start = read_header(path)
                except ReproError as error:
                    self._quarantine_entry(name, entry, str(error))
                    report["quarantined"].append(name)
                    changed = True
                    continue
                self._headers[name] = (_identity(path), header, start)
                if header["version"] != entry["version"]:
                    entry["version"] = header["version"]
                    report["adopted"].append(
                        f"{name} (version {header['version']})")
                    changed = True
            corpora = self._manifest["corpora"]
            for name, entry in list(corpora.items()):
                for file_name in entry["files"]:
                    path = self.root / file_name
                    reason = None
                    if not path.exists():
                        reason = f"shard {file_name} missing on disk"
                    else:
                        try:
                            read_header(path)
                        except ReproError as error:
                            reason = str(error)
                    if reason is not None:
                        self._quarantine_corpus_entry(name, reason)
                        report["quarantined"].append(name)
                        changed = True
                        break
            referenced = ({entry["file"] for entry in documents.values()}
                          | {entry["file"]
                             for entry in quarantined.values()}
                          | {file_name for entry in corpora.values()
                             for file_name in entry["files"]}
                          | {file_name for entry in quarantined.values()
                             for file_name in entry.get("files", [])})
            for path in sorted(self.root.glob("*.mhxb")):
                if path.name in referenced:
                    continue
                name = path.name[:-len(".mhxb")]
                try:
                    header, _start = read_header(path)
                except ReproError as error:
                    quarantined[name] = {"file": path.name,
                                         "version": None,
                                         "reason": str(error)}
                    report["quarantined"].append(name)
                    changed = True
                    continue
                documents[name] = {"file": path.name,
                                   "version": header["version"]}
                report["adopted"].append(
                    f"{name} (version {header['version']})")
                changed = True
            if changed:
                self._save_manifest()
        return report

    def verify(self, name: str | None = None) -> dict[str, str]:
        """Deep checksum scan, then the whole invariant net; status
        strings per document and per corpus.

        ``"ok (N blocks)"`` for every verified v2 container, a note for
        v1 containers (no block checksums to check), ``"corrupt: ..."``
        naming the failing block or the violated invariant, and the
        quarantine reason for already-quarantined entries.  The net
        (DESIGN.md §9) runs on the live snapshot's engine when there is
        one, else on a load of the file: it is where a structure the
        checksums vouch for but that is wrong in itself shows, and
        where every hierarchy is walked — a commit walks only what it
        rebuilt.  A corpus is the deep scan of each of its shard files:
        ``"ok (N blocks in K shards)"``, or ``"corrupt: shard ..."``
        naming file and block.  Read-only: quarantining happens at
        recovery or on a failed cold load, not here.
        """
        out: dict[str, str] = {}
        with self._lock:
            documents = self._manifest["documents"]
            corpora = self._manifest["corpora"]
            targets = ([name] if name is not None
                       else [*documents, *corpora])
            for target in targets:
                if target in corpora:
                    out[target] = self._verify_corpus(corpora[target])
                    continue
                entry = documents.get(target)
                if entry is None:
                    if target not in self._manifest["quarantined"]:
                        raise ReproError(
                            f"no document named {target!r}")
                    continue
                path = self.root / entry["file"]
                try:
                    # one parsed header serves the scan and the load
                    header, data_start = read_header(path)
                    checked = verify_blocks(path, header, data_start)
                    live = self._live.get(target)
                    engine = (live.engine if live is not None else
                              map_engine(path, header, data_start,
                                         options=self.options))
                    _whole_net(engine)
                except ReproError as error:
                    out[target] = f"corrupt: {error}"
                else:
                    out[target] = (f"ok ({checked} blocks)" if checked
                                   else "ok (v1 container, no block "
                                        "checksums)")
            for qname, qentry in self._manifest["quarantined"].items():
                if name in (None, qname):
                    out[qname] = f"quarantined: {qentry['reason']}"
        return out

    def _verify_corpus(self, entry: dict) -> str:
        """The status string of one corpus: every shard file's blocks
        against their checksums, up to the first that fails."""
        checked = 0
        for file_name in entry["files"]:
            try:
                checked += verify_blocks(self.root / file_name)
            except ReproError as error:
                return f"corrupt: shard {file_name}: {error}"
        return f"ok ({checked} blocks in {len(entry['files'])} shards)"

    @property
    def quarantined(self) -> dict[str, dict]:
        """The manifest's quarantine section (name → file/version/reason)."""
        with self._lock:
            return {name: dict(entry) for name, entry
                    in self._manifest["quarantined"].items()}

    def _quarantine_entry(self, name: str, entry: dict,
                          reason: str) -> None:
        """Move a catalog entry into the quarantine section (in memory;
        callers persist the manifest)."""
        self._manifest["documents"].pop(name, None)
        self._live.pop(name, None)
        self._manifest["quarantined"][name] = {
            "file": entry["file"],
            "version": entry.get("version"),
            "reason": reason,
        }

    def _quarantine_corpus_entry(self, name: str, reason: str) -> None:
        """:meth:`_quarantine_entry` for a corpus: the entry keeps its
        shard files, and no engine over them stays cached."""
        entry = self._manifest["corpora"].pop(name, None)
        if entry is None:  # a racing query was here first
            return
        for file_name in entry["files"]:
            self._shard_engines.pop(file_name, None)
        self._fused.pop(name, None)
        self._manifest["quarantined"][name] = {
            "file": entry["files"][0],
            "files": entry["files"],
            "version": None,
            "reason": reason,
        }

    # -- catalog -------------------------------------------------------------

    @property
    def names(self) -> list[str]:
        """Registered document names, in registration order."""
        with self._lock:  # snapshot the keys: add() may race this walk
            return list(self._manifest["documents"])

    def entries(self) -> list[tuple[str, int, str]]:
        """``(name, persisted version, file name)`` per document."""
        with self._lock:
            return [(name, entry["version"], entry["file"])
                    for name, entry in
                    self._manifest["documents"].items()]

    def __contains__(self, name: str) -> bool:
        return name in self._manifest["documents"]

    def __len__(self) -> int:
        return len(self._manifest["documents"])

    def _register(self, name: str, section: str, write):
        """The one transactional registration: admit ``name``, let
        ``write(files)`` produce the files (listing each in ``files``
        before it exists) and return ``(manifest entry, result)``,
        commit the manifest; whatever fails, the files are removed and
        the catalog is as before.

        Documents and corpora share one namespace — quarantine entries
        are keyed by bare name — so a name taken in either section is
        refused for both.
        """
        if not _NAME_RE.match(name):
            raise ReproError(
                f"invalid {_KINDS[section]} name {name!r} (want "
                f"[A-Za-z0-9][A-Za-z0-9._-]*, at most 64 characters)")
        with self._lock:
            for taken, kind in _KINDS.items():
                if name in self._manifest[taken]:
                    raise ReproError(
                        f"{name!r} already exists in this store ({kind})")
            if name in self._manifest["quarantined"]:
                raise StoreError(
                    f"{name!r} is quarantined "
                    f"({self._manifest['quarantined'][name]['reason']});"
                    f" remove() it before re-adding")
            files: list[str] = []
            try:
                entry, result = write(files)
                if self.durability == "batch":
                    self._dirty.update(self.root / file_name
                                       for file_name in files)
                self._commit_entry(section, name, entry)
            except Exception:
                for file_name in files:
                    (self.root / file_name).unlink(missing_ok=True)
                raise
            return result

    def _register_document(self, name: str, produce) -> Snapshot:
        """Register what ``produce(path)`` leaves at the document's
        path — it returns the engine over that file's state."""
        def write(files: list[str]):
            file_name = f"{name}.mhxb"
            files.append(file_name)
            engine = produce(self.root / file_name)
            return ({"file": file_name, "version": engine.version},
                    Snapshot(name, engine, self.plans))

        with self._lock:
            snapshot = self._register(name, "documents", write)
            self._live[name] = snapshot
        return snapshot

    def add(self, name: str,
            document: MultihierarchicalDocument | None = None, *,
            engine: Engine | None = None,
            path: str | Path | None = None) -> Snapshot:
        """Register a document under ``name`` and persist it.

        Exactly one source: an in-memory document (cloned — the caller
        keeps ownership of theirs), a live engine (forked likewise), or
        a ``.mhx``/``.mhxb`` file path.  Registration is transactional:
        if the manifest write fails, the data file is removed and the
        in-memory catalog rolled back.
        """
        provided = [source for source in (document, engine, path)
                    if source is not None]
        if len(provided) != 1:
            raise ReproError(
                "add() needs exactly one of document / engine / path")

        def produce(target: Path) -> Engine:
            if path is not None and looks_like_mhxb(path):
                # Register by byte copy: saves are deterministic, so
                # re-serializing would reproduce the source bytes at
                # the full pipeline cost the format exists to skip.
                verify_blocks(path)  # validate before the copy lands
                temp = target.with_name(target.name + ".tmp")
                shutil.copyfile(path, temp)
                faultfs.current().replace(temp, target)
                return Engine.from_mhxb(target, options=self.options)
            if path is not None:
                fresh = Engine(load_mhx(path), options=self.options)
            elif engine is not None:
                fresh = fork_engine(engine)
            else:
                fresh = Engine(document.clone(), options=self.options)
            save_engine(fresh, target, durability=self._file_durability)
            return fresh

        return self._register_document(name, produce)

    def add_streaming(self, name: str, text: str,
                      sources: dict[str, str], *,
                      layers: dict | None = None) -> Snapshot:
        """Register a document from its XML encodings (DESIGN.md §15).

        The encodings (and optional standoff span ``layers``) over the
        shared base ``text`` are tokenized straight into columns and
        this store's ``.mhxb`` file, byte-identical to what :meth:`add`
        writes for the equivalent document, and the published engine is
        built over the columns, partition and span index just written
        (:meth:`~repro.markup.streaming.StreamingBuilder.publish`): no
        DOM is made, the file is not read back, and the nodes are made
        as the engine registers each hierarchy.  Transactional like
        :meth:`add`.
        """
        from repro.markup.streaming import _ingest

        def produce(target: Path) -> Engine:
            return _ingest(text, sources, layers).publish(
                target, durability=self._file_durability,
                options=self.options)

        return self._register_document(name, produce)

    def remove(self, name: str) -> None:
        """Drop a document (or quarantined entry) and delete its file."""
        with self._lock:
            entry = self._manifest["documents"].pop(name, None)
            if entry is None:
                entry = self._manifest["quarantined"].pop(name, None)
            if entry is None:
                raise ReproError(f"no document named {name!r}")
            self._live.pop(name, None)
            self._save_manifest()
            for file_name in entry.get("files", []) or [entry["file"]]:
                faultfs.current().unlink(self.root / file_name)

    # -- corpora -------------------------------------------------------------

    @property
    def corpora(self) -> list[str]:
        """Registered corpus names, in registration order."""
        with self._lock:
            return list(self._manifest["corpora"])

    def corpus_stats(self, name: str) -> CorpusStats:
        """The persisted shard statistics of one corpus."""
        with self._lock:
            entry = self._corpus_entry(name)
            return CorpusStats.from_json(entry["stats"])

    def _corpus_entry(self, name: str) -> dict:
        entry = self._manifest["corpora"].get(name)
        if entry is None:
            quarantine = self._manifest["quarantined"].get(name)
            if quarantine is not None:
                raise StoreError(
                    f"corpus {name!r} is quarantined: "
                    f"{quarantine['reason']}")
            raise ReproError(f"no corpus named {name!r}")
        return entry

    def add_corpus(self, name: str,
                   document: MultihierarchicalDocument, *,
                   shards: int) -> CorpusStats:
        """Partition ``document`` into a sharded corpus (DESIGN.md §13).

        The document's columns are cut at size-balanced fragment
        boundaries valid in **every** hierarchy
        (:func:`repro.store.sharding.save_shards`), each shard persisted
        as its own checksummed ``.mhxb`` file, and the manifest entry
        records the per-shard statistics (word counts, span bounds,
        per-name cardinalities) that :meth:`cquery` uses for shard
        pruning.  Registration is transactional like :meth:`add`: a
        failed manifest write removes the shard files and rolls the
        entry back.  The markup may offer fewer valid cuts than
        requested — the persisted stats say how many shards the corpus
        actually got.
        """
        def write(files: list[str]):
            def shard_path(index: int) -> Path:
                files.append(f"{name}.shard{index:04d}.mhxb")
                return self.root / files[-1]

            stats = save_shards(document, shards, shard_path,
                                durability=self._file_durability)
            return {"files": list(files), "stats": stats.to_json()}, stats

        return self._register(name, "corpora", write)

    def add_corpus_streaming(self, name: str, text: str,
                             sources: dict[str, str], *, shards: int,
                             layers: dict | None = None) -> CorpusStats:
        """:meth:`add_corpus` of the XML encodings (and optional
        standoff span ``layers``) over ``text``, tokenized straight
        into columns (DESIGN.md §15)."""
        from repro.markup.streaming import _ingest

        return self.add_corpus(
            name, _ingest(text, sources, layers).document, shards=shards)

    def remove_corpus(self, name: str) -> None:
        """Drop a corpus and delete its shard files."""
        with self._lock:
            entry = self._manifest["corpora"].pop(name, None)
            if entry is None:
                raise ReproError(f"no corpus named {name!r}")
            for file_name in entry["files"]:
                self._shard_engines.pop(file_name, None)
            self._fused.pop(name, None)
            self._save_manifest()
            for file_name in entry["files"]:
                faultfs.current().unlink(self.root / file_name)

    def _corpus_unloadable(self, name: str, reason: str) -> StoreError:
        """Quarantine corpus ``name``, one of whose shard files did not
        load (``reason`` names shard and block), the way
        :meth:`snapshot` quarantines a document; the error to raise."""
        with self._lock:
            self._quarantine_corpus_entry(name, reason)
            self._save_manifest()
        return StoreError(
            f"corpus {name!r} failed verification and was "
            f"quarantined: {reason}")

    def _load_shard(self, name: str, file_name: str, load):
        """``load`` one shard file of corpus ``name`` under the store's
        cold-load verification policy (DESIGN.md §12)."""
        try:
            return load(self.root / file_name,
                        verify=self.verify_cold_loads)
        except ReproError as error:
            raise self._corpus_unloadable(
                name, f"shard {file_name}: {error}") from error

    def _shard_engine(self, name: str, file_name: str) -> Engine:
        """Parent-side memmapped engine for one shard file (cached)."""
        engine = self._shard_engines.get(file_name)
        if engine is None:
            engine = self._load_shard(
                name, file_name,
                partial(Engine.from_mhxb, options=self.options))
            self._shard_engines[file_name] = engine
        return engine

    def _fused_engine(self, name: str, files: list[str]) -> Engine:
        """The whole-corpus fallback engine (cached per corpus): built
        on the shard files' columns, concatenated — no shard engine, no
        node and no DOM on the way (DESIGN.md §13)."""
        engine = self._fused.get(name)
        if engine is None:
            engine = Engine(
                fuse_documents([
                    self._load_shard(name, file_name, load_document)
                    for file_name in files]),
                options=self.options)
            self._fused[name] = engine
        return engine

    def _pool(self, workers: int) -> ShardWorkerPool:
        pool = self._pools.get(workers)
        if pool is None:
            pool = ShardWorkerPool(workers)
            self._pools[workers] = pool
        return pool

    def cquery(self, text: str, *, workers: int = 1,
               prune: bool = True,
               _crash_shard: int | None = None) -> CorpusResult:
        """Evaluate a ``collection("name")`` query over a corpus.

        The compiled plan is classified
        (:mod:`repro.core.plan.distribute`): scatterable plans fan out
        one task per shard — pruned against the manifest statistics
        first — either in-process (``workers=1``) or over the
        persistent fork pool, and the gather side merges positions +
        packed okeys back into corpus document order; non-distributable
        plans fall back to one fused whole-corpus engine
        (``CorpusResult.mode == "fused"``, ``reason`` says why).

        ``_crash_shard`` is the fault-injection hook: the worker
        executing that shard index dies via ``os._exit`` mid-query,
        the way an OOM kill would (tests only).
        """
        compiled, _hit = self.plans.get(text, self.options)
        names = sorted(set(find_collections(compiled.plan)))
        if not names:
            raise ReproError(
                "cquery() needs a collection(\"name\") reference; "
                "use query() for single documents")
        with self._lock:
            entries = {name: self._corpus_entry(name) for name in names}
        if len(names) > 1:
            raise StoreError(
                f"cquery() supports one corpus per query, got "
                f"{', '.join(names)}")
        name = names[0]
        entry = entries[name]
        files = entry["files"]
        stats = CorpusStats.from_json(entry["stats"])
        verdict = classify(compiled.plan, root_name=stats.root_name,
                           name_hierarchies=stats.name_hierarchies)
        if verdict.mode == "fused":
            return self._run_fused(name, files, compiled,
                                   reason=verdict.reason,
                                   shards_total=len(files))
        survivors = list(range(len(files)))
        if prune and verdict.required_names:
            survivors = [
                index for index in survivors
                if all(stats.shards[index].cards.get(required, 0)
                       for required in verdict.required_names)]
        payloads: list[tuple]
        if workers > 1 and survivors:
            # LPT dispatch: submit the heaviest shards (by manifest
            # cardinality estimate) first so they don't become the
            # straggler tail, then restore survivor order — gather()
            # keys the corpus merge on payload-list position.
            dispatch = sorted(
                survivors, reverse=True,
                key=lambda index: (stats.shards[index].work_estimate(
                    verdict.required_names), -index))
            tasks = [(str(self.root / files[index]), text, verdict.mode,
                      self.options, self.verify_cold_loads,
                      index == _crash_shard)
                     for index in dispatch]
            try:
                returned = self._pool(workers).run(tasks)
            except IntegrityError as error:
                raise self._corpus_unloadable(name, str(error)) from error
            by_shard = dict(zip(dispatch, returned))
            payloads = [by_shard[index] for index in survivors]
        else:
            payloads = []
            for index in survivors:
                engine = self._shard_engine(name, files[index])
                try:
                    payloads.append(run_shard(engine, self.plans, text,
                                              verdict.mode))
                except ReproError as error:
                    raise StoreError(
                        f"corpus query failed on shard "
                        f"{files[index]!r}: {error}") from error
        items = gather(verdict.mode, payloads,
                       aggregate=verdict.aggregate)
        result = CorpusResult(
            items=items, mode=verdict.mode,
            shards_total=len(files),
            shards_pruned=len(files) - len(survivors),
            shards_executed=len(survivors),
            workers=workers if survivors else 0)
        if verdict.mode == "aggregate":
            result.value = items[0]
            result.items = [serialize_item(items[0])]
        return result

    def _run_fused(self, name: str, files: list[str], compiled, *,
                   reason: str, shards_total: int) -> CorpusResult:
        engine = self._fused_engine(name, files)

        def resolver(frame, _args):
            return [frame.goddag.root]

        items = engine._evaluate_guarded(
            compiled,
            lambda: compiled.execute(
                engine.goddag, options=engine.options,
                functions={"collection": resolver}))
        return CorpusResult(
            items=[serialize_item(item) for item in items],
            mode="fused", reason=reason, shards_total=shards_total,
            shards_executed=shards_total, workers=1)

    def close(self) -> None:
        """Shut down worker pools (idempotent).  The store stays usable
        afterwards; its engines go with their last reference."""
        with self._lock:
            pools, self._pools = list(self._pools.values()), {}
        for pool in pools:
            pool.close()

    # -- reads ---------------------------------------------------------------

    def snapshot(self, name: str) -> Snapshot:
        """The current published snapshot (lock-free when warm).

        A cold catalog entry is mmap-loaded from its ``.mhxb`` file
        under the writer lock (once), then served lock-free.  Under the
        default ``verify_cold_loads`` policy every block checksum is
        scanned before the engine is built — a bit-flipped file is
        quarantined and reported, never served.
        """
        snapshot = self._live.get(name)
        if snapshot is not None:
            return snapshot
        with self._lock:
            snapshot = self._live.get(name)
            if snapshot is not None:
                return snapshot
            entry = self._manifest["documents"].get(name)
            if entry is None:
                quarantine = self._manifest["quarantined"].get(name)
                if quarantine is not None:
                    raise StoreError(
                        f"document {name!r} is quarantined: "
                        f"{quarantine['reason']}")
                raise ReproError(f"no document named {name!r}")
            path = self.root / entry["file"]
            try:
                engine = self._cold_load(name, path)
            except ReproError as error:
                self._quarantine_entry(name, entry, str(error))
                self._save_manifest()
                raise StoreError(
                    f"document {name!r} failed verification and was "
                    f"quarantined: {error}") from error
            snapshot = Snapshot(name, engine, self.plans)
            self._live[name] = snapshot
            return snapshot

    def _cold_load(self, name: str, path: Path) -> Engine:
        """The engine mapped from ``path``, under the cold-load policy:
        over the header recovery parsed, while the file is the one it
        read, else over a fresh read (DESIGN.md §12)."""
        held = self._headers.pop(name, None)
        if held is None or held[0] != _identity(path):
            return Engine.from_mhxb(path, options=self.options,
                                    verify=self.verify_cold_loads)
        _key, header, start = held
        if self.verify_cold_loads:
            verify_blocks(path, header, start)
        return map_engine(path, header, start, options=self.options)

    def query(self, name: str, text: str,
              variables: dict[str, list] | None = None):
        """Query the current snapshot of one document."""
        return self.snapshot(name).query(text, variables)

    def xpath(self, name: str, text: str,
              variables: dict[str, list] | None = None):
        """XPath against the current snapshot of one document."""
        return self.snapshot(name).xpath(text, variables)

    # -- writes --------------------------------------------------------------

    def update(self, name: str, statements: str | list[str], *,
               check: bool = True,
               persist: bool = True) -> list[UpdateResult]:
        """Apply an update batch and publish the next snapshot.

        The whole batch is one transaction over one fork: readers on
        the old snapshot keep their version, readers arriving after
        publication see every statement applied, and nobody ever sees
        a prefix.  With ``check`` the invariant net runs once, before
        anything is persisted, over the hierarchies the batch rebuilt
        (DESIGN.md §9).  Any failure — a bad statement, a violated
        invariant *or* a failed persist — discards the fork: the
        in-memory catalog rolls back and the old snapshot stays
        published.
        """
        if isinstance(statements, str):
            statements = [statements]
        if not statements:
            raise ReproError("update() needs at least one statement")
        with self._lock:
            current = self.snapshot(name)
            working = fork_engine(current.engine)
            results = [working.update(statement, check=False)
                       for statement in statements]
            if check:
                working.goddag.check_invariants(
                    working.goddag.changed_components(
                        current.engine.goddag.components()))
            snapshot = Snapshot(name, working, self.plans)
            if persist:
                self._persist(name, working)
            self._live[name] = snapshot
        return results

    def compact(self, name: str | None = None) -> dict[str, int | str]:
        """Rewrite ``.mhxb`` files from the live snapshots.

        Persists any in-memory versions created with ``persist=False``
        and normalizes the on-disk span-index order.  Per document the
        result maps to the new file size, or — when one entry's file is
        missing or corrupt and no live snapshot exists to rewrite it
        from — a ``"skipped: ..."`` status; one bad document never
        aborts the remaining ones.  Under ``durability="batch"`` the
        deferred syncs are flushed afterwards.
        """
        sizes: dict[str, int | str] = {}
        targets = [name] if name is not None else self.names
        with self._lock:
            for target in targets:
                try:
                    snapshot = self.snapshot(target)
                    sizes[target] = self._persist(target,
                                                  snapshot.engine)
                except ReproError as error:
                    sizes[target] = f"skipped: {error}"
            self.sync()
        return sizes

    def sync(self) -> int:
        """Flush deferred (``durability="batch"``) syncs; return the
        number of files synced.  A no-op under the other policies."""
        with self._lock:
            dirty, self._dirty = self._dirty, set()
            layer = faultfs.current()
            synced = 0
            for path in sorted(dirty):
                if not path.exists():
                    continue
                with open(path, "rb") as handle:
                    layer.fsync(handle)
                synced += 1
            if synced:
                layer.fsync_dir(self.root)
            return synced

    # -- persistence ---------------------------------------------------------

    @property
    def _file_durability(self) -> str:
        return "full" if self.durability == "full" else "off"

    def _persist(self, name: str, engine: Engine) -> int:
        """Write the ``.mhxb`` and commit the manifest entry.

        Persist-then-publish is transactional: the data file lands
        first (its header's version makes it recoverable on its own),
        then the manifest entry; a failed manifest write rolls the
        in-memory entry back so the catalog never claims a commit the
        disk doesn't have.
        """
        file_name = f"{name}.mhxb"
        path = self.root / file_name
        size = save_engine(engine, path,
                           durability=self._file_durability)
        if self.durability == "batch":
            self._dirty.add(path)
        self._commit_entry("documents", name,
                           {"file": file_name, "version": engine.version})
        return size

    def _commit_entry(self, section: str, name: str, entry: dict) -> None:
        previous = self._manifest[section].get(name)
        self._manifest[section][name] = entry
        try:
            self._save_manifest()
        except Exception:
            if previous is None:
                self._manifest[section].pop(name, None)
            else:
                self._manifest[section][name] = previous
            self._live.pop(name, None)
            raise

    def _save_manifest(self) -> None:
        """Write the next manifest generation behind the atomic pointer.

        The current ``store.json`` is first hardlinked to
        ``store.json.prev`` (the previous generation stays reachable
        for bit-rot fallback), then the new generation renames into
        place — the pointer flip is the single ``os.replace``.

        Under ``durability="batch"`` a rewrite whose payload (sans
        generation counter) matches the last one written is skipped
        entirely: ``compact``/``sync`` cycles re-commit unchanged
        entries, and deferring their manifest churn is exactly what
        the batch policy promises.  ``"full"`` always rewrites — every
        committed generation must be its own fsynced file.
        """
        manifest_path = self.root / MANIFEST_NAME
        core = json.dumps(
            {key: value for key, value in self._manifest.items()
             if key != "generation"},
            ensure_ascii=False, sort_keys=True)
        if self.durability == "batch" and core == self._manifest_core:
            return
        generation = self._manifest.get("generation", 0)
        self._manifest["generation"] = generation + 1
        try:
            if manifest_path.exists():
                try:
                    faultfs.current().link_replace(
                        manifest_path,
                        self.root / MANIFEST_PREV_NAME)
                except OSError:  # filesystem without hardlinks
                    pass
            _write_json(manifest_path, self._manifest,
                        durability=("full" if self.durability == "full"
                                    else "off"))
        except BaseException:
            self._manifest["generation"] = generation
            self._manifest_core = None  # disk state now uncertain
            raise
        self._manifest_core = core
        if self.durability == "batch":
            self._dirty.add(manifest_path)


def _write_json(path: Path, payload: dict,
                durability: str = "off") -> None:
    layer = faultfs.current()
    temp = path.with_name(path.name + ".tmp")
    data = (json.dumps(payload, ensure_ascii=False, indent=2)
            + "\n").encode("utf-8")
    handle = layer.open_for_write(temp)
    try:
        layer.write(handle, data)
        if durability == "full":
            layer.fsync(handle)
    finally:
        handle.close()
    layer.replace(temp, path)
    if durability == "full":
        layer.fsync_dir(path.parent)


def _identity(path: Path) -> tuple[int, int, int] | None:
    """What tells one file at ``path`` from its replacement: a commit
    renames a new file over the old one.  None when there is no file
    to tell (a fresh read reports why)."""
    try:
        status = path.stat()
    except OSError:
        return None
    return status.st_ino, status.st_size, status.st_mtime_ns
