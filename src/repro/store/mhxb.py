"""The ``.mhxb`` binary container: mmap-backed engine persistence.

A ``.mhx`` file is a JSON bundle of XML source strings — portable, but
a cold start pays the full pipeline: XML parse, alignment, KyGODDAG
build, partition sort, span-index argsorts.  ``.mhxb`` persists the
*artifacts* of that pipeline instead (DESIGN.md §10):

* per hierarchy, the component node table as parallel arrays — kind,
  interned name id, span, parent preorder, subtree end, packed int64
  Definition 3 order key — in preorder, which is exactly the order the
  component list needs;
* the partition boundary multiset as sorted ``(offsets, refcounts)``;
* the span index in **both** sorted orders: the global numeric columns
  verbatim plus one permutation per hierarchy that recovers the object
  columns by rank-gather — no argsort, no merge at load;
* a JSON header with everything non-numeric: name table, attributes,
  comments/PIs, DTD sources, the document version.

File layout (format v2)::

    b"MHXB2\\0" | u64 header length | u32 header CRC32 | header JSON
               | pad | array blocks

and v1 (read-only: nothing writes it any more)::

    b"MHXB1\\0" | u64 header length | header JSON | pad | array blocks

v2 adds integrity checks (DESIGN.md §12): the u32 after the header
length is the CRC32 of the header JSON bytes, verified by every
``read_header``; each array-directory entry carries the CRC32 and byte
length of its block, verified lazily — ``verify_blocks`` (and the
store's eager cold-load policy) scans every block, while plain loads
stay zero-copy.  Writes are atomic (temp + rename through the
:mod:`~repro.store.faultfs` OS layer) and, under ``durability="full"``,
crash-durable: the temp file is fsynced before the rename and the
directory after it.

Every array block is 64-byte aligned and loaded as a read-only
``np.memmap`` over one ``mmap`` of the file, so a cold load touches only
the pages a query actually reads; the loader never re-parses XML or
re-sorts anything, and makes no node object: a hierarchy makes the
node of a row from its blocks when a query first asks for that row.  A
hierarchy's DOM is an export of the same arrays, made only for whoever
asks for one.

The module has two halves.  *Engine ⇄ arrays* is thin, because the
per-hierarchy blocks are the form a
:class:`~repro.core.goddag.goddag._HierarchyComponent` holds in memory:
:func:`save_engine` hands the components, the partition multiset and
the DTD sources to the writer, :func:`load_engine` wraps the mapped
blocks in components and lets :meth:`KyGoddag.from_arrays` assemble the
engine around them — nodes, leaves and the span index's node columns
follow on first use; a store fork shares whatever is made — and
:func:`load_document` stops at the components: the document whose
hierarchies are those columns, for a reader that wants rows and no
engine (the corpus fuse, DESIGN.md §13).  *Arrays ⇄ file*
(:func:`write_container`, :func:`read_header`, :func:`verify_blocks`)
knows the layout, the name table, the span index's normal form and the
checksums, and nothing about engines; the ingest writes components it
has built no engine around through it too, and :func:`write_engine`
hands back the engine over what it wrote without reading it.
"""

from __future__ import annotations

import json
import mmap
import os
import zlib
from pathlib import Path

import numpy as np

from repro.errors import IntegrityError, ReproError
from repro.cmh import ConcurrentMarkupHierarchy, MultihierarchicalDocument
from repro.store import faultfs
from repro.core.goddag.goddag import (
    COLUMNS,
    METADATA,
    KyGoddag,
    _HierarchyComponent,
    partition_arrays,
)
from repro.core.goddag.index import SpanIndex, _end_keys, _start_keys

MAGIC = b"MHXB1\x00"
MAGIC_V2 = b"MHXB2\x00"
MHXB_FORMAT_V1 = "mhxb-1"
MHXB_FORMAT = "mhxb-2"
_FORMATS = {MAGIC: MHXB_FORMAT_V1, MAGIC_V2: MHXB_FORMAT}
_ALIGN = 64

def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def looks_like_mhxb(path: str | Path) -> bool:
    """True when the file starts with ``.mhxb`` magic bytes (v1 or v2)."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(MAGIC)) in _FORMATS
    except OSError:
        return False


def file_identity(path: str | Path) -> tuple[int, int, int] | None:
    """What tells the file now at ``path`` from one it replaced (a
    commit, a corpus re-added under its name): the key of a cache of
    loaded files.  None when there is no file (a load reports why)."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return status.st_ino, status.st_size, status.st_mtime_ns


# ---------------------------------------------------------------------------
# engine -> arrays
# ---------------------------------------------------------------------------


def save_engine(engine, path: str | Path, *,
                durability: str = "off") -> int:
    """Serialize an engine's full state to ``path``; return the size.

    The write is atomic (temp file + rename) and deterministic: saving
    the same logical state twice — or saving a freshly cold-loaded or
    forked engine — produces byte-identical files.  Nothing is walked:
    every hierarchy component already holds its file blocks, and what
    no row holds (DTD sources, comments around the root element) is
    kept with the engine and the components, so saving builds no
    DOM.  ``durability="full"`` additionally
    fsyncs the temp file before the rename and the directory after it,
    so the commit survives a power cut; ``"off"`` (the default for
    direct library use — the store applies its own policy) leaves
    flushing to the OS.

    The plan statistics stamped into the header (DESIGN.md §16) are
    handed to the engine when it holds none for this version — what
    :func:`load_engine` does for whoever opens the file — so the first
    costed query after a commit does not collect them a second time.
    """
    goddag = engine.goddag
    if any(goddag.is_temporary(name) for name in goddag.hierarchy_names):
        raise ReproError(
            "cannot save a KyGODDAG holding temporary (analyze-string) "
            "hierarchies")
    header, arrays, crcs, fragments = _container(
        root=goddag.root.root_name, version=goddag.version,
        text=goddag.text,
        components=[goddag._components[name]
                    for name in goddag.hierarchy_names],
        partition=goddag.partition.export_arrays(),
        dtds=engine.dtd_sources())
    size = _pack(path, header, arrays, crcs, fragments,
                 durability=durability)
    held = getattr(goddag, "_plan_stats", None)
    if held is None or held.version != goddag.version:
        from repro.core.goddag.stats import PlanStats
        goddag._plan_stats = PlanStats.from_payload(header["plan_stats"])
    return size


# ---------------------------------------------------------------------------
# arrays -> file
# ---------------------------------------------------------------------------


def write_container(path: str | Path, *, root: str, text: str,
                    components: list[_HierarchyComponent],
                    durability: str = "off") -> int:
    """Write hierarchy components nobody has built a KyGODDAG around
    (the ingest, DESIGN.md §15) as one ``.mhxb`` file: byte for byte
    what :func:`save_engine` writes for the engine built from them —
    both go through :func:`_container`.  The file's name table is
    interned there, hierarchy by hierarchy in order of first use, so it
    does not depend on which tables the components happen to carry; a
    component whose ids already agree is written as it is.
    """
    return _pack(path, *_components_container(root, text, components),
                 durability=durability)


def _components_container(root: str, text: str,
                          components: list[_HierarchyComponent]
                          ) -> tuple[dict, dict[str, np.ndarray],
                                     dict[str, int], list[str]]:
    """:func:`_container` of components no KyGODDAG holds: the
    partition is read off their columns, the version is their count."""
    return _container(
        root=root, version=len(components), text=text,
        components=components,
        partition=partition_arrays(text, components), dtds=None)


def _container(*, root: str, version: int, text: str,
               components: list[_HierarchyComponent],
               partition: tuple[np.ndarray, np.ndarray],
               dtds: dict | None
               ) -> tuple[dict, dict[str, np.ndarray], dict[str, int],
                          list[str]]:
    """The header, the array blocks, the checksums already known and
    each hierarchy's encoded metadata of a container, for :func:`_pack`
    (which adds the statistics and the directory).

    A block a component hands over as it is — a column, the name ids
    where they need no remapping, a permutation — takes its CRC32 from
    the component (:meth:`_HierarchyComponent.block_crc`): a hierarchy
    no commit touched is the same component object as in the last
    file, so its checksums are not computed again.  What is derived
    per file (remapped name ids, the span index, the partition, the
    text) is checksummed by :func:`_pack`.  The header's metadata of
    such a hierarchy — attributes, comments, PIs — is not encoded again
    either: :meth:`_HierarchyComponent.header_fragment` keeps its JSON.
    """
    if not components:
        raise ReproError("cannot save an empty document to .mhxb")
    if len(text) >= (1 << 31):
        raise ReproError(
            "base text exceeds 2^31 characters; the packed span-index "
            "keys cannot represent it")
    names: list[str] = []
    interned: dict[str, int] = {}
    arrays: dict[str, np.ndarray] = {}
    crcs: dict[str, int] = {}
    hierarchy_meta: list[dict] = []
    fragments: list[str] = []
    # rank -1: the shared root seeds both sorted orders.
    sub_starts = [np.array([0], dtype=np.int64)]
    sub_ends = [np.array([len(text)], dtype=np.int64)]
    sub_ranks = [np.array([-1], dtype=np.int64)]
    sub_preorders = [np.array([-1], dtype=np.int64)]
    sub_subtrees = [np.array([-1], dtype=np.int64)]
    for position, component in enumerate(components):
        prefix = f"h{position}"
        ids = component.interned_ids(names, interned)
        blocks = {key: getattr(component, key) for key in COLUMNS}
        blocks["name_ids"] = ids
        blocks["s_perm"], blocks["e_perm"] = component.perms()
        for key, block in blocks.items():
            block = arrays[f"{prefix}/{key}"] = np.ascontiguousarray(block)
            if key != "name_ids" or ids is component.name_ids:
                crcs[f"{prefix}/{key}"] = component.block_crc(key, block)
        rows = component.span_rows()
        hierarchy_meta.append({
            "name": component.name,
            "rank": component.rank,
            "count": len(component.kinds),
            **{key: getattr(component, key) for key in METADATA},
            "span_count": len(rows),
        })
        fragments.append(component.header_fragment())
        sub_starts.append(component.starts[rows])
        sub_ends.append(component.ends[rows])
        sub_ranks.append(np.full(len(rows), component.rank,
                                 dtype=np.int64))
        sub_preorders.append(rows)
        sub_subtrees.append(component.subtree_ends[rows])
    _save_span_index(arrays, sub_starts, sub_ends, sub_ranks,
                     sub_preorders, sub_subtrees)
    arrays["partition/offsets"], arrays["partition/counts"] = partition
    arrays["text"] = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    header = {
        "format": MHXB_FORMAT,
        "root": root,
        "version": version,
        "text_chars": len(text),
        "names": names,
        "hierarchies": hierarchy_meta,
        "dtds": dtds,
    }
    return header, arrays, crcs, fragments


def _save_span_index(arrays, sub_starts, sub_ends, sub_ranks,
                     sub_preorders, sub_subtrees) -> None:
    """Persist both global sorted orders of the span index.

    The global order is the stable sort of the concatenation root +
    components in rank order — identical to what successive
    ``searchsorted`` merges produce on a fresh build, and the
    normal form a compacted store file always carries.
    """
    starts = np.concatenate(sub_starts)
    ends = np.concatenate(sub_ends)
    ranks = np.concatenate(sub_ranks)
    preorders = np.concatenate(sub_preorders)
    subtrees = np.concatenate(sub_subtrees)
    s_order = np.argsort(_start_keys(starts, ends), kind="stable")
    arrays["index/s_keys"] = _start_keys(starts, ends)[s_order]
    arrays["index/starts"] = starts[s_order]
    arrays["index/ends"] = ends[s_order]
    arrays["index/ranks"] = ranks[s_order]
    arrays["index/preorders"] = preorders[s_order]
    arrays["index/subtree_ends"] = subtrees[s_order]
    e_order = np.argsort(_end_keys(starts, ends), kind="stable")
    arrays["index/e_keys"] = _end_keys(starts, ends)[e_order]
    arrays["index/e_starts"] = starts[e_order]
    arrays["index/e_ends"] = ends[e_order]
    arrays["index/e_ranks"] = ranks[e_order]


def _pack(path: str | Path, header: dict, arrays: dict[str, np.ndarray],
          crcs: dict[str, int], fragments: list[str], *,
          durability: str = "off") -> int:
    """Write the container: ``crcs`` holds the checksums of the blocks
    already known (:func:`_container`), the rest are computed here, and
    ``fragments`` each hierarchy's encoded metadata
    (:func:`~repro.core.goddag.goddag.metadata_json`).  Each block is
    written from its array's buffer, its padding in front of it in the
    same write (at most one copy of the block), so a commit makes one
    routed write per block."""
    if durability not in ("full", "off"):
        raise ReproError(
            f"unknown .mhxb durability {durability!r} "
            f"(want 'full' or 'off')")
    if "hierarchies" in header and "plan_stats" not in header:
        # Plan statistics travel in the header (DESIGN.md §16) so a
        # cold-loaded engine costs plans without re-scanning.  Computed
        # here — the single serializer — from the packed arrays, so an
        # engine's file and the ingest's stay byte-identical; readers
        # treat an absent block as "recollect on first use".
        from repro.core.goddag.stats import plan_stats_payload
        header["plan_stats"] = plan_stats_payload(header, arrays)
    directory: dict[str, dict] = {}
    offset = 0
    blocks: list[tuple[int, memoryview]] = []
    for key, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _align(offset)
        payload = memoryview(array).cast("B")
        crc = crcs.get(key)
        directory[key] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
            "nbytes": len(payload),
            "crc32": zlib.crc32(payload) if crc is None else crc,
        }
        blocks.append((offset, payload))
        offset += len(payload)
    header["arrays"] = directory
    header_bytes = _header_json(header, fragments).encode("utf-8")
    preamble = len(MAGIC_V2) + 8 + 4
    data_start = _align(preamble + len(header_bytes))
    path = Path(path)
    temp = path.with_name(path.name + ".tmp")
    layer = faultfs.current()
    handle = layer.open_for_write(temp)
    try:
        layer.write(handle, MAGIC_V2)
        layer.write(handle, len(header_bytes).to_bytes(8, "little"))
        layer.write(handle, zlib.crc32(header_bytes).to_bytes(4, "little"))
        layer.write(handle, header_bytes)
        layer.write(handle, b"\x00" * (data_start - preamble
                                       - len(header_bytes)))
        cursor = 0
        for block_offset, payload in blocks:
            gap = block_offset - cursor
            layer.write(handle, b"\x00" * gap + payload if gap else payload)
            cursor = block_offset + len(payload)
        size = handle.tell()
        if durability == "full":
            layer.fsync(handle)
    finally:
        handle.close()
    layer.replace(temp, path)
    if durability == "full":
        layer.fsync_dir(path.parent)
    return size


#: ``json.dumps(value, ensure_ascii=False)``, its encoder made once
_encode = json.JSONEncoder(ensure_ascii=False).encode


def _header_json(header: dict, fragments: list[str]) -> str:
    """``json.dumps(header, ensure_ascii=False)``, with the
    :data:`METADATA` members of each hierarchy spliced in from
    ``fragments`` (:meth:`_HierarchyComponent.header_fragment`) rather
    than encoded again: an object's JSON is the ``, ``-join of its
    members', a list's of its items', so the bytes are the same."""

    def hierarchy(meta: dict, fragment: str) -> str:
        members = [fragment if key == METADATA[0]
                   else f"{_encode(key)}: {_encode(value)}"
                   for key, value in meta.items()
                   if key not in METADATA[1:]]
        return "{" + ", ".join(members) + "}"

    return "{" + ", ".join(
        f"{_encode(key)}: "
        + ("[" + ", ".join(map(hierarchy, value, fragments)) + "]"
           if key == "hierarchies" else _encode(value))
        for key, value in header.items()) + "}"


# ---------------------------------------------------------------------------
# file -> arrays
# ---------------------------------------------------------------------------


def read_header(path: str | Path) -> tuple[dict, int]:
    """The parsed JSON header and the data-section start offset.

    Dispatches on the magic: v2 containers carry a CRC32 of the header
    JSON (verified here — a torn or bit-rotted header is caught before
    a single array block is trusted); v1 containers parse checksum-free
    for backward compatibility.
    """
    try:
        with open(path, "rb") as handle:
            magic = handle.read(len(MAGIC))
            if magic not in _FORMATS:
                if magic[:1] == b"{":
                    raise ReproError(
                        f"{path} looks like a JSON .mhx container, not "
                        f"a binary .mhxb file — load it with load_mhx / "
                        f"Engine.from_mhx")
                raise ReproError(
                    f"{path} is not a .mhxb container (bad magic "
                    f"{magic!r})")
            header_len = int.from_bytes(handle.read(8), "little")
            preamble = len(magic) + 8
            expected_crc = None
            if magic == MAGIC_V2:
                expected_crc = int.from_bytes(handle.read(4), "little")
                preamble += 4
            header_bytes = handle.read(header_len)
            if expected_crc is not None and \
                    zlib.crc32(header_bytes) != expected_crc:
                raise IntegrityError(
                    f"{path} has a corrupt .mhxb header: CRC32 "
                    f"mismatch (stored {expected_crc:#010x}, computed "
                    f"{zlib.crc32(header_bytes):#010x})", path=path)
            header = json.loads(header_bytes.decode("utf-8"))
    except OSError as error:
        raise ReproError(
            f"cannot read .mhxb file {path}: {error}") from error
    except (ValueError, UnicodeDecodeError) as error:
        raise ReproError(
            f"{path} has a corrupt .mhxb header: {error}") from error
    if header.get("format") != _FORMATS[magic]:
        raise ReproError(
            f"{path} is not an {MHXB_FORMAT_V1}/{MHXB_FORMAT} "
            f"container (format={header.get('format')!r})")
    return header, _align(preamble + header_len)


def verify_blocks(path: str | Path, header: dict | None = None,
                  data_start: int | None = None) -> int:
    """Deep-scan every array block against its stored CRC32.

    Returns the number of blocks verified.  Raises
    :class:`~repro.errors.IntegrityError` naming the first mismatching
    block.  v1 containers carry no block checksums: the header is
    validated (structurally) and 0 is returned — callers that demand
    verifiability should re-save to v2.
    """
    if header is None:
        header, data_start = read_header(path)
    if header["format"] == MHXB_FORMAT_V1:
        return 0
    checked = 0
    with open(path, "rb") as handle:
        for key, entry in header["arrays"].items():
            nbytes = entry["nbytes"]
            handle.seek(data_start + entry["offset"])
            payload = handle.read(nbytes)
            if len(payload) != nbytes:
                raise IntegrityError(
                    f"{path}: block {key!r} is truncated "
                    f"({len(payload)} of {nbytes} bytes)",
                    path=path, block=key)
            if zlib.crc32(payload) != entry["crc32"]:
                raise IntegrityError(
                    f"{path}: CRC32 mismatch in block {key!r} "
                    f"(stored {entry['crc32']:#010x}, computed "
                    f"{zlib.crc32(payload):#010x})",
                    path=path, block=key)
            checked += 1
    return checked


def _map_arrays(path: Path, header: dict,
                data_start: int) -> dict[str, np.ndarray]:
    """Every block as a read-only ``np.memmap`` over one mapping.

    ``np.memmap`` opens a mapping — and holds a descriptor — per array;
    a forked version keeps the blocks of the hierarchies it never
    touches, so mappings now live as long as the document does, and 50
    descriptors per loaded file do not.  The blocks are therefore built
    the way ``np.memmap`` builds its own, over **one** ``mmap`` of the
    file; the arrays keep it alive and the descriptor goes with the
    last of them.
    """
    try:
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0,
                                access=mmap.ACCESS_READ)
    except (OSError, ValueError) as error:
        raise ReproError(
            f"cannot map .mhxb file {path}: {error}") from error
    arrays: dict[str, np.ndarray] = {}
    for key, entry in header["arrays"].items():
        shape = tuple(entry["shape"])
        dtype = np.dtype(entry["dtype"])
        if 0 in shape:
            arrays[key] = np.empty(shape, dtype=dtype)
            continue
        offset = data_start + entry["offset"]
        if offset + int(np.prod(shape)) * dtype.itemsize > len(mapping):
            raise IntegrityError(
                f"{path}: block {key!r} is truncated (the file ends "
                f"inside it)", path=path, block=key)
        block = np.ndarray.__new__(np.memmap, shape, dtype=dtype,
                                   buffer=mapping, offset=offset)
        # what ``np.memmap.__new__`` records: slices of the block stay
        # memmap-typed views of the mapping, as they always were here
        block._mmap = mapping
        arrays[key] = block
    return arrays


# ---------------------------------------------------------------------------
# arrays -> engine, arrays -> document
# ---------------------------------------------------------------------------


def _checked_header(path: Path, verify: bool) -> tuple[dict, int]:
    """The header, read once; with ``verify`` every block checksum is
    scanned against it before any array is trusted."""
    header, data_start = read_header(path)
    if verify:
        verify_blocks(path, header, data_start)
    return header, data_start


def _read_components(path: Path, header: dict, data_start: int
                     ) -> tuple[dict[str, np.ndarray], str,
                                list[_HierarchyComponent]]:
    """What both readers start from once the header is checked: the
    mapped blocks, the base text, and one component per hierarchy
    around its blocks."""
    arrays = _map_arrays(path, header, data_start)
    text = bytes(arrays["text"]).decode("utf-8")
    components = [
        _HierarchyComponent(
            meta["name"], meta["rank"], False, names=header["names"],
            columns={key: arrays[f"h{position}/{key}"]
                     for key in COLUMNS},
            attrs=meta["attrs"], comments=meta["comments"],
            pis=meta["pis"], prolog=meta["prolog"],
            epilog=meta["epilog"], root_attrs=meta["root_attrs"],
            perms=(arrays[f"h{position}/s_perm"],
                   arrays[f"h{position}/e_perm"]))
        for position, meta in enumerate(header["hierarchies"])]
    return arrays, text, components


def load_engine(path: str | Path, options=None, verify: bool = False):
    """Cold-load an :class:`~repro.api.Engine` from a ``.mhxb`` file.

    Reconstructs the KyGODDAG — components, partition, span index,
    order keys — straight from the memory-mapped arrays
    (:meth:`KyGoddag.from_arrays`); no XML parse, no alignment pass, no
    sort, and no node object: a hierarchy makes a row's node the first
    time a query asks for that row, so a load that answers a question
    about one name makes that name's nodes and no other's
    (DESIGN.md §10).

    ``verify=True`` deep-scans every block checksum before any array is
    trusted (the store's cold-load policy); the default keeps the load
    lazy/zero-copy, with the header CRC still checked.
    """
    path = Path(path)
    return map_engine(path, *_checked_header(path, verify),
                      options=options)


def map_engine(path: str | Path, header: dict, data_start: int,
               options=None):
    """:func:`load_engine` of a file whose header the caller has read
    with :func:`read_header` (and whose blocks it has verified, if it
    wanted to): the header is not read again."""
    arrays, text, components = _read_components(Path(path), header,
                                                data_start)
    return _engine(header, arrays, text, components, options)


def write_engine(path: str | Path, *, root: str, text: str,
                 components: list[_HierarchyComponent],
                 durability: str = "off", options=None):
    """:func:`write_container`, and the engine over what it wrote —
    built from ``components`` and from the partition, span-index and
    statistics arrays computed for the file, which is not read back
    (the ingest, DESIGN.md §15).  The engine owns ``components`` from
    then on, and makes no node of them until a query asks."""
    header, arrays, crcs, fragments = _components_container(
        root, text, components)
    _pack(path, header, arrays, crcs, fragments, durability=durability)
    return _engine(header, arrays, text, components, options)


def _engine(header: dict, arrays: dict[str, np.ndarray], text: str,
            components: list[_HierarchyComponent], options):
    """The engine over a container's header and blocks, mapped or just
    packed."""
    from repro.api import Engine

    goddag = KyGoddag.from_arrays(
        text, header["root"], components,
        (arrays["partition/offsets"], arrays["partition/counts"]),
        {key: arrays[f"index/{key}"] for key in SpanIndex.COLUMNS},
        header["version"])
    if "plan_stats" in header:
        # Stamped at pack time; absent on pre-§16 containers, which
        # simply recollect on the first costed compile.
        from repro.core.goddag.stats import PlanStats
        goddag._plan_stats = PlanStats.from_payload(header["plan_stats"])
    return Engine.from_parts(goddag, dtds=header.get("dtds"),
                             options=options)


def load_document(path: str | Path, verify: bool = False
                  ) -> MultihierarchicalDocument:
    """The document a ``.mhxb`` file holds, every hierarchy still its
    columns (DESIGN.md §15): the door for a reader that wants the rows
    and no engine — no node object is made.  ``verify`` as in
    :func:`load_engine`.
    """
    path = Path(path)
    header, data_start = _checked_header(path, verify)
    _arrays, text, components = _read_components(path, header, data_start)
    document = MultihierarchicalDocument(text)
    for component in components:
        document.add_columns(component, header["root"])
    if header.get("dtds"):
        document.cmh = ConcurrentMarkupHierarchy.from_sources(
            header["root"], header["dtds"])
    return document
