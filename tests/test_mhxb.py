"""Tests for the ``.mhxb`` binary container (DESIGN.md §10, §12).

Round-trip fidelity (byte-identical re-serialization, identical query
results against the ``.mhx`` JSON path), cold-load reconstruction
invariants, lazy DOM materialization, the wrong-format error behavior
of both loaders, block/header checksum detection, header fragments
against ``json.dumps`` of the same header, and v1→v2 format
compatibility.
"""

from __future__ import annotations

import json
import mmap
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine, load_mhx, save_mhx
from repro.errors import GoddagError, IntegrityError, ReproError
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.core.goddag.goddag import KyGoddag
from repro.corpus.boethius import boethius_document
from repro.markup import dom
from repro.store import fork_engine, mhxb
from repro.store.mhxb import (
    MAGIC,
    MAGIC_V2,
    MHXB_FORMAT,
    MHXB_FORMAT_V1,
    load_document,
    looks_like_mhxb,
    read_header,
    save_engine,
    verify_blocks,
)

from tests.strategies import (
    ESCAPED_ALPHABET,
    examples,
    multihierarchical_documents,
    span_sets,
)
from tests.test_store import encoding, filling, hierarchies

#: ``save_engine(Engine(boethius_document(validate=False)), path,
#: format_version=1)`` at the last commit that had a v1 writer (PR 14).
V1_FIXTURE = Path(__file__).parent / "data" / "boethius-v1.mhxb"

PROBE_QUERIES = [
    "count(/descendant::*)",
    "count(//leaf())",
    "/descendant::*/string(.)",
    "for $n in /descendant::* return name($n)",
    "/descendant::line[overlapping::w or xdescendant::w]/string(.)",
    'analyze-string(/, "si")',
]


@pytest.fixture()
def engine() -> Engine:
    return Engine(boethius_document(validate=False))


def _assert_same_results(left: Engine, right: Engine) -> None:
    for query in PROBE_QUERIES:
        assert left.query(query).serialize() == \
            right.query(query).serialize(), query


class TestRoundTrip:
    def test_identical_query_results_vs_mhx_path(self, engine, tmp_path):
        mhx = tmp_path / "doc.mhx"
        mhxb = tmp_path / "doc.mhxb"
        engine.save_mhx(mhx)
        engine.save_mhxb(mhxb)
        via_json = Engine.from_mhx(mhx)
        via_binary = Engine.from_mhxb(mhxb)
        _assert_same_results(via_json, via_binary)

    def test_byte_identical_reserialization(self, engine, tmp_path):
        first = tmp_path / "a.mhxb"
        second = tmp_path / "b.mhxb"
        engine.save_mhxb(first)
        Engine.from_mhxb(first).save_mhxb(second)
        assert first.read_bytes() == second.read_bytes()

    def test_saving_never_materializes_the_dom(self, tmp_path):
        """What no row holds — DTD sources, comments and PIs around the
        root element — is kept with the engine and its components, so
        a cold load, a fork and a fork's fork re-save the same bytes
        without building a DOM."""
        from repro.core.goddag.goddag import _HierarchyComponent
        from repro.corpus.boethius import ENCODINGS, boethius_cmh
        from repro.store import fork_engine

        from tests.test_store import wrapping

        first_name, *_rest = ENCODINGS
        sources = dict(ENCODINGS)
        sources[first_name] = \
            f"<!--prolog-->{sources[first_name]}<?epi log?>"
        document = MultihierarchicalDocument.from_xml(
            boethius_document().text, sources)
        document.attach_cmh(boethius_cmh())  # carries DTDs
        hierarchy = document[first_name]
        first = tmp_path / "first.mhxb"
        doms: list = []
        with wrapping(_HierarchyComponent, "build_dom", doms,
                      lambda component: component.name):
            Engine(document).save_mhxb(first)
            expected = first.read_bytes()
            cold = Engine.from_mhxb(first)
            fork = fork_engine(cold)
            grandchild = fork_engine(fork)
            for label, candidate in (("cold", cold), ("fork", fork),
                                     ("fork of fork", grandchild)):
                path = tmp_path / "again.mhxb"
                candidate.save_mhxb(path)
                assert path.read_bytes() == expected, label
                assert candidate._document is None, label
        assert doms == []
        assert grandchild.document.cmh.sources() == document.cmh.sources()
        assert grandchild.document.hierarchies[hierarchy.name].to_xml() \
            == hierarchy.to_xml()
        assert hierarchy.to_xml().startswith("<!--prolog--><r>")
        assert hierarchy.to_xml().endswith("</r><?epi log?>")

    def test_cold_load_passes_invariants(self, engine, tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        restored = Engine.from_mhxb(path)
        restored.goddag.check_invariants()
        assert restored.version == engine.version
        assert restored.goddag.hierarchy_names == \
            engine.goddag.hierarchy_names

    def test_no_reparse_no_resort_artifacts(self, engine, tmp_path):
        """The cold load restores the span index (no full build) and
        the packed order keys (no recomputation)."""
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        restored = Engine.from_mhxb(path)
        assert restored.goddag._index is not None
        assert restored.goddag.index_full_builds == 0
        for name in restored.goddag.hierarchy_names:
            for node in restored.goddag.nodes_of(name):
                assert node._okey is not None
        restored.goddag.check_invariants()

    def test_cold_load_maps_once_and_builds_nothing(self, engine,
                                                   tmp_path):
        """What a cold load costs, counted (the deterministic stand-in
        for the old 5x wall-clock floor against an XML rebuild): no
        XML parse, no component build, no sort, one mapping of the
        file, and every column read-only."""
        import repro.core.goddag.goddag as goddag_module
        import repro.markup.parser as parser
        from repro.core.goddag.index import SpanIndex

        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        calls = {"parse": 0, "builder": 0, "argsort": 0, "mmap": 0}

        def counting(key, function):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return function(*args, **kwargs)
            return wrapper

        with mock.patch.object(parser, "parse",
                               counting("parse", parser.parse)), \
                mock.patch.object(
                    goddag_module, "_ComponentWriter",
                    counting("builder",
                             goddag_module._ComponentWriter)), \
                mock.patch.object(np, "argsort",
                                  counting("argsort", np.argsort)), \
                mock.patch.object(mmap, "mmap",
                                  counting("mmap", mmap.mmap)):
            restored = Engine.from_mhxb(path)
            counted = restored.query("count(/descendant::w)").strings()
        assert counted == engine.query("count(/descendant::w)").strings()
        assert calls == {"parse": 0, "builder": 0, "argsort": 0,
                         "mmap": 1}
        goddag = restored.goddag
        assert goddag.index_full_builds == 0
        columns = {}
        for name in goddag.hierarchy_names:
            component = goddag._components[name]
            for key in goddag_module.COLUMNS:
                columns[f"{name}/{key}"] = getattr(component, key)
            columns[f"{name}/s_perm"], columns[f"{name}/e_perm"] = \
                component.perms()
        for key, attribute in SpanIndex.COLUMNS.items():
            columns[f"index/{key}"] = getattr(goddag._index, attribute)
        columns["partition"] = goddag.partition.boundary_array
        for key, column in columns.items():
            assert isinstance(column, np.ndarray), key
            assert not column.flags.writeable, key

    def test_dom_materializes_lazily_and_serializes_identically(
            self, engine, tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        restored = Engine.from_mhxb(path)
        assert restored._document is None  # queries never touched it
        restored.query("count(//w)")
        assert restored._document is None
        original = {name: hierarchy.to_xml() for name, hierarchy
                    in engine.document.hierarchies.items()}
        materialized = {name: hierarchy.to_xml() for name, hierarchy
                        in restored.document.hierarchies.items()}
        assert original == materialized
        assert restored.document.text == engine.document.text

    def test_round_trip_after_updates(self, engine, tmp_path):
        engine.update('rename node /descendant::w[1] as "word"')
        engine.update('insert node <note>marginal</note> '
                      'after /descendant::word[1]')
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        restored = Engine.from_mhxb(path)
        restored.goddag.check_invariants()
        _assert_same_results(engine, restored)
        assert restored.query("//note/string(.)").serialize() \
            == "marginal"

    def test_updates_apply_on_cold_loaded_engine(self, engine, tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        restored = Engine.from_mhxb(path)
        statement = ('insert node <gloss>explicatio</gloss> '
                     'into /descendant::line[1]')
        engine.update(statement)
        restored.update(statement)
        assert engine.document.text == restored.document.text
        _assert_same_results(engine, restored)
        restored.goddag.check_invariants()

    def test_dtds_survive(self, tmp_path):
        document = boethius_document(validate=True)
        assert document.cmh is not None
        path = tmp_path / "doc.mhxb"
        Engine(document).save_mhxb(path)
        restored = Engine.from_mhxb(path)
        assert restored.document.cmh is not None
        assert restored.document.cmh.sources() == document.cmh.sources()

    def test_comments_pis_attributes_survive(self, tmp_path):
        sources = {
            "a": '<r id="top"><!--lead--><w x="1">ab</w>'
                 '<?proc data?><w>cd</w></r>',
            "b": "<r><s>abc</s><s>d</s></r>",
        }
        document = MultihierarchicalDocument.from_xml("abcd", sources)
        engine = Engine(document)
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        restored = Engine.from_mhxb(path)
        restored.goddag.check_invariants()
        assert {name: hierarchy.to_xml() for name, hierarchy
                in restored.document.hierarchies.items()} == \
            {name: hierarchy.to_xml() for name, hierarchy
             in engine.document.hierarchies.items()}
        _assert_same_results(engine, restored)

    def test_pi_data_loses_the_lead_xml_skips(self, tmp_path):
        """A DOM may hand a PI data that starts with whitespace, which
        XML skips after the target: the DOM door drops it too, inside
        the root element and around it, so the document saves the same
        ``.mhxb`` as its own ``to_xml()``."""
        source = dom.Document()
        source.append(dom.ProcessingInstruction("lead", " \t<"))
        root = dom.Element("r")
        root.append(dom.ProcessingInstruction("t", " <"))
        root.append(dom.Text("ab"))
        source.append(root)
        source.append(dom.ProcessingInstruction("tail", "\r\n x "))
        built = MultihierarchicalDocument("ab")
        built.add_hierarchy(Hierarchy("h", source))
        parsed = MultihierarchicalDocument.from_xml(
            "ab", {"h": built.hierarchies["h"].to_xml()})
        save_engine(Engine(built), tmp_path / "built.mhxb")
        save_engine(Engine(parsed), tmp_path / "parsed.mhxb")
        assert (tmp_path / "built.mhxb").read_bytes() \
            == (tmp_path / "parsed.mhxb").read_bytes()
        meta, = read_header(tmp_path / "built.mhxb")[0]["hierarchies"]
        assert meta["pis"] == [[0, "<"]]
        assert meta["prolog"] == [["pi", "lead", "<"]]
        assert meta["epilog"] == [["pi", "tail", "x "]]

    def test_save_refuses_empty_document(self, tmp_path):
        engine = Engine.from_parts(KyGoddag("ab"))
        with pytest.raises(ReproError, match="empty document"):
            save_engine(engine, tmp_path / "x.mhxb")


class TestFormatErrors:
    def test_load_mhx_rejects_binary_with_clear_error(self, engine,
                                                      tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        with pytest.raises(ReproError, match="binary .mhxb container"):
            load_mhx(path)

    def test_from_mhxb_rejects_json_with_clear_error(self, engine,
                                                     tmp_path):
        path = tmp_path / "doc.mhx"
        engine.save_mhx(path)
        with pytest.raises(ReproError, match="JSON .mhx container"):
            Engine.from_mhxb(path)

    def test_from_mhx_routes_by_extension_and_content(self, engine,
                                                      tmp_path):
        binary = tmp_path / "doc.mhxb"
        engine.save_mhxb(binary)
        assert Engine.from_mhx(binary).query(
            "count(//w)").serialize() == "6"
        # binary content under a .mhx name still routes correctly
        sniffed = tmp_path / "mislabeled.mhx"
        sniffed.write_bytes(binary.read_bytes())
        assert looks_like_mhxb(sniffed)
        assert Engine.from_mhx(sniffed).query(
            "count(//w)").serialize() == "6"

    def test_bad_magic_and_corrupt_header(self, tmp_path):
        garbage = tmp_path / "garbage.mhxb"
        garbage.write_bytes(b"\x89PNG not an mhxb")
        with pytest.raises(ReproError, match="bad magic"):
            read_header(garbage)
        truncated = tmp_path / "truncated.mhxb"
        truncated.write_bytes(MAGIC + (10_000).to_bytes(8, "little")
                              + b"{not json at all")
        with pytest.raises(ReproError, match="corrupt .mhxb header"):
            read_header(truncated)

    def test_format_field_mismatch(self, tmp_path):
        path = tmp_path / "future.mhxb"
        header = json.dumps({"format": "mhxb-99"}).encode()
        path.write_bytes(MAGIC + len(header).to_bytes(8, "little")
                         + header)
        with pytest.raises(ReproError, match="mhxb-1"):
            read_header(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ReproError, match="cannot read"):
            read_header(tmp_path / "absent.mhxb")


class TestChecksums:
    """Format v2 integrity (DESIGN.md §12): every array block and the
    header carry CRC32s, and a single flipped bit anywhere in any
    block is detected and named."""

    def test_verify_counts_every_block(self, engine, tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        header, data_start = read_header(path)
        assert verify_blocks(path) == len(header["arrays"])
        assert header["format"] == MHXB_FORMAT
        assert path.read_bytes()[:len(MAGIC_V2)] == MAGIC_V2

    def test_an_in_place_rename_drops_the_checksum_it_invalidates(
            self, engine, tmp_path):
        """A component keeps the checksums of the blocks it was saved
        with (DESIGN.md §10).  An engine that built its KyGODDAG renames
        in place, on the very component it saved: the next save must
        checksum the name ids the rename wrote."""
        physical = engine.goddag._components["physical"]
        engine.save_mhxb(tmp_path / "before.mhxb")
        assert "name_ids" in physical._encoded  # the file's ids as they are
        engine.update('rename node (/descendant::line)[2] as "vline"')
        assert engine.goddag._components["physical"] is physical
        path = tmp_path / "renamed.mhxb"
        engine.save_mhxb(path)
        header, data_start = read_header(path)
        assert verify_blocks(path) == len(header["arrays"])
        assert header["names"][:2] == ["line", "vline"]

    def test_bit_flip_in_every_block_is_detected_and_named(
            self, engine, tmp_path):
        """Satellite: corrupt each block in turn; ``verify_blocks``
        must raise an :class:`IntegrityError` naming exactly the
        corrupted block."""
        pristine = tmp_path / "doc.mhxb"
        engine.save_mhxb(pristine)
        header, data_start = read_header(pristine)
        payload = pristine.read_bytes()
        for name, entry in header["arrays"].items():
            if entry["nbytes"] == 0:
                continue  # empty blocks have no bytes to flip
            mutated = bytearray(payload)
            mutated[data_start + entry["offset"]] ^= 0x01
            victim = tmp_path / "victim.mhxb"
            victim.write_bytes(mutated)
            with pytest.raises(IntegrityError,
                               match="CRC32 mismatch") as info:
                verify_blocks(victim)
            assert info.value.block == name
            assert name in str(info.value)
            # the loader's eager-verify path reports the same failure
            with pytest.raises(IntegrityError):
                Engine.from_mhxb(victim, verify=True)

    def test_last_byte_of_last_block_is_covered(self, engine, tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        header, data_start = read_header(path)
        last_name, last = max(header["arrays"].items(),
                              key=lambda item: item[1]["offset"])
        payload = bytearray(path.read_bytes())
        payload[data_start + last["offset"] + last["nbytes"] - 1] ^= 0x80
        path.write_bytes(payload)
        with pytest.raises(IntegrityError) as info:
            verify_blocks(path)
        assert info.value.block == last_name

    def test_header_corruption_is_detected(self, engine, tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        payload = bytearray(path.read_bytes())
        # flip a bit inside the JSON header (past magic+len+crc)
        payload[len(MAGIC_V2) + 8 + 4 + 5] ^= 0x01
        path.write_bytes(payload)
        with pytest.raises(IntegrityError,
                           match="CRC32 mismatch"):
            read_header(path)

    def test_truncated_block_is_detected(self, engine, tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        payload = path.read_bytes()
        path.write_bytes(payload[:-16])
        with pytest.raises(IntegrityError, match="truncated"):
            verify_blocks(path)

    def test_unverified_load_still_works(self, engine, tmp_path):
        """``verify=False`` (the default) keeps the mmap cold load
        lazy — no full-file read at open time."""
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        restored = Engine.from_mhxb(path)
        _assert_same_results(engine, restored)


def header_bytes(path) -> bytes:
    """The header JSON a ``.mhxb`` v2 file holds, as written."""
    payload = Path(path).read_bytes()
    start = len(MAGIC_V2) + 8 + 4
    return payload[start:start + int.from_bytes(
        payload[len(MAGIC_V2):len(MAGIC_V2) + 8], "little")]


def packed_header(save) -> tuple[dict, bytes]:
    """``(the header dict _pack was handed, json.dumps of it)`` for the
    one file ``save()`` writes: the header encoded whole, from the
    components' own metadata, with no fragment cache."""
    headers = []
    pack = mhxb._pack

    def recording(path, header, *args, **kwargs):
        size = pack(path, header, *args, **kwargs)
        headers.append(header)  # as _pack completed it
        return size

    with mock.patch.object(mhxb, "_pack", recording):
        save()
    header, = headers
    return header, json.dumps(header, ensure_ascii=False).encode("utf-8")


#: what a header escapes or holds as it is: non-ASCII, quotes,
#: backslashes, control characters, ``&<>``
_HEADER_DATA = st.text(alphabet='ϸé"\\\n\t&<> a', max_size=4)


@st.composite
def header_documents(draw) -> MultihierarchicalDocument:
    """Decorated documents (attributes, comments and PIs inside and
    around the root, ``&<>`` in the text), one more hierarchy whose
    root attribute, comment and PI hold :data:`_HEADER_DATA`, and one
    given as spans, whose metadata lists are all empty."""
    document = draw(multihierarchical_documents(
        max_text=20, decorated=True, alphabet=ESCAPED_ALPHABET))
    source = draw(span_sets(document.text, attributes=True)).to_document(
        "r")
    source.root.set("n", draw(_HEADER_DATA))
    source.root.insert(0, dom.Comment(draw(_HEADER_DATA)))
    source.append(dom.ProcessingInstruction("pi", draw(_HEADER_DATA)))
    document.add_hierarchy(Hierarchy("extra", source))
    document.add_spans("bare", draw(span_sets(document.text)), "r")
    return document


class TestHeaderFragments:
    """A header spliced from each component's encoded metadata
    (:meth:`_HierarchyComponent.header_fragment`, DESIGN.md §10) is,
    byte for byte, ``json.dumps`` of the same header."""

    @settings(max_examples=examples(40), deadline=None)
    @given(document=header_documents())
    def test_spliced_header_is_the_whole_dump(self, document):
        engine = Engine(document)
        with tempfile.TemporaryDirectory() as scratch:
            folder = Path(scratch)
            # the first file encodes every fragment, the second takes
            # them all from the components
            for name in ("first", "again"):
                path = folder / f"{name}.mhxb"
                _header, dumped = packed_header(
                    lambda: save_engine(engine, path))
                assert header_bytes(path) == dumped
            assert (folder / "first.mhxb").read_bytes() \
                == (folder / "again.mhxb").read_bytes()
            assert all("header" in component._encoded for component
                       in engine.goddag.components().values())

    def test_a_stale_fragment_fails_the_comparison(self, tmp_path):
        """Another component's fragment cached on this one: the file
        says what that one holds, and the bytes differ."""
        engine = Engine(decorated_document())
        components = engine.goddag.components()
        components["b"]._encoded["header"] = \
            components["a"].header_fragment()
        path = tmp_path / "stale.mhxb"
        header, dumped = packed_header(lambda: save_engine(engine, path))
        assert header_bytes(path) != dumped
        assert read_header(path)[0]["hierarchies"][1]["attrs"] \
            == header["hierarchies"][0]["attrs"] == [[1, {"x": "1"}]]

    def test_copies_write_correct_headers(self, tmp_path):
        """A re-ranked copy (a hierarchy before it removed) and a
        private copy (a rename on a fork) keep their source's fragment
        — its metadata is theirs — and write the header a whole dump
        writes."""
        encoded: list = []
        document = decorated_document()
        for hierarchy in document.hierarchies.values():
            hierarchy.component.header_fragment()
        document.remove_hierarchy("a")
        engine = Engine(document)
        path = tmp_path / "reranked.mhxb"
        with encoding(encoded):
            header, dumped = packed_header(lambda: save_engine(engine,
                                                               path))
            assert encoded == []
            assert [(meta["name"], meta["rank"])
                    for meta in header["hierarchies"]] \
                == [("b", 0), ("c", 1)]
            assert header_bytes(path) == dumped
            fork = fork_engine(engine)
            fork.update('rename node (/descendant::s)[1] as "seg"')
            copy = fork.goddag.components()["b"]
            assert copy is not engine.goddag.components()["b"]
            path = tmp_path / "renamed.mhxb"
            header, dumped = packed_header(lambda: save_engine(fork,
                                                               path))
            assert encoded == []
        assert header_bytes(path) == dumped
        assert Engine.from_mhxb(path).query(
            "count(//seg)").serialize() == "1"


def decorated_document() -> MultihierarchicalDocument:
    """Three hierarchies, each with its own attributes, comments and
    PIs: no two header fragments alike."""
    return MultihierarchicalDocument.from_xml("abcd", {
        "a": '<r id="top"><!--lead--><w x="1">ab</w><?p d?><w>cd</w></r>',
        "b": '<r><s n="&amp;">abc</s><s>d</s></r><!--after-->',
        "c": '<r k="é"><line n="1">ab</line><!--c--><line>cd</line></r>'})


class TestV1Compatibility:
    """Old ``mhxb-1`` containers (no checksums) remain readable — the
    checked-in fixture is one; nothing writes the format any more — and
    a re-save upgrades them to v2."""

    def test_fixture_is_a_v1_container(self):
        assert V1_FIXTURE.read_bytes()[:len(MAGIC)] == MAGIC
        assert looks_like_mhxb(V1_FIXTURE)
        header, _start = read_header(V1_FIXTURE)
        assert header["format"] == MHXB_FORMAT_V1
        assert "crc32" not in next(iter(header["arrays"].values()))

    def test_v1_load_equals_fresh_build(self, engine):
        _assert_same_results(engine, Engine.from_mhxb(V1_FIXTURE))
        _assert_same_results(engine, Engine.from_mhx(V1_FIXTURE))

    def test_v1_verify_is_a_no_op(self):
        # v1 has no checksums: verify is a no-op, not a failure
        assert verify_blocks(V1_FIXTURE) == 0
        restored = Engine.from_mhxb(V1_FIXTURE, verify=True)
        assert restored.query("count(//w)").serialize() == "6"

    def test_resave_upgrades_to_v2(self, engine, tmp_path):
        upgraded = tmp_path / "new.mhxb"
        Engine.from_mhxb(V1_FIXTURE).save_mhxb(upgraded)
        assert upgraded.read_bytes()[:len(MAGIC_V2)] == MAGIC_V2
        assert read_header(upgraded)[0]["format"] == MHXB_FORMAT
        assert verify_blocks(upgraded) > 0
        _assert_same_results(engine, Engine.from_mhxb(upgraded))
        # ... to the very file a fresh build saves
        fresh = tmp_path / "fresh.mhxb"
        engine.save_mhxb(fresh)
        assert upgraded.read_bytes() == fresh.read_bytes()


class TestDocumentDoor:
    """``load_document``: a ``.mhxb`` file as the document whose
    hierarchies are the file's columns — the reader for who wants the
    rows and no engine (DESIGN.md §10)."""

    def test_document_is_the_files_columns(self, tmp_path):
        path = tmp_path / "doc.mhxb"
        source = Engine(boethius_document())  # with its CMH
        source.save_mhxb(path)
        from repro.core.goddag.goddag import _HierarchyComponent

        from tests.test_store import wrapping

        made: list = []
        doms: list = []
        with filling(made), wrapping(_HierarchyComponent, "build_dom",
                                     doms, lambda component: component):
            document = load_document(path)
            assert not made  # no node object
            control = Engine.from_mhxb(path)
            assert not made  # nor an engine's, until first use
            for _twice in range(2):
                for name in control.goddag.hierarchy_names:
                    control.goddag.nodes_of(name)
        assert hierarchies(made) == list(document.hierarchies)
        # every row once
        assert len(made) == len(set(made)) == sum(
            len(component.kinds)
            for component in control.goddag.components().values())
        for rank, hierarchy in enumerate(document.hierarchies.values()):
            assert hierarchy.component.rank == rank
        assert document.text == source.goddag.text
        assert document.root_name == "r"
        assert document.cmh.sources() == source.dtd_sources()
        # what it holds is what the file holds
        again = tmp_path / "again.mhxb"
        with wrapping(_HierarchyComponent, "build_dom", doms,
                      lambda component: component):
            Engine(document).save_mhxb(again)
        assert doms == []  # and no DOM, the load's or the save's
        assert again.read_bytes() == path.read_bytes()
        for name, hierarchy in document.hierarchies.items():
            assert hierarchy.to_xml() == source.document[name].to_xml()

    def test_verify_scans_the_blocks_first(self, engine, tmp_path):
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        header, data_start = read_header(path)
        payload = bytearray(path.read_bytes())
        payload[data_start + header["arrays"]["h1/ends"]["offset"]] ^= 1
        path.write_bytes(payload)
        with pytest.raises(IntegrityError, match="h1/ends") as info:
            load_document(path, verify=True)
        assert info.value.block == "h1/ends"
        assert load_document(path).hierarchy_names == \
            engine.document.hierarchy_names  # lazy, as ``load_engine``

    def test_v1_and_wrong_format(self, engine, tmp_path):
        document = load_document(V1_FIXTURE, verify=True)
        _assert_same_results(engine, Engine(document))
        mhx = tmp_path / "doc.mhx"
        engine.save_mhx(mhx)
        with pytest.raises(ReproError, match="load_mhx"):
            load_document(mhx)


class TestFrozenEngine:
    def test_frozen_engine_rejects_updates_atomically(self, engine):
        engine.update('insert node <note>x</note> '
                      'after /descendant::w[1]')
        before = {name: hierarchy.to_xml() for name, hierarchy
                  in engine.document.hierarchies.items()}
        engine.goddag.freeze()
        with pytest.raises(GoddagError, match="frozen snapshot"):
            engine.update("delete node /descendant::note[1]")
        # nothing mutated, not even the DOM side
        assert {name: hierarchy.to_xml() for name, hierarchy
                in engine.document.hierarchies.items()} == before
        engine.goddag.thaw()
        engine.update("delete node /descendant::note[1]")
        assert engine.query("count(//note)").serialize() == "0"

    def test_frozen_engine_still_answers_analyze_string(self, engine):
        expected = engine.query('analyze-string(/, "si")').serialize()
        engine.goddag.freeze()
        assert engine.query(
            'analyze-string(/, "si")').serialize() == expected
        engine.goddag.check_invariants()
