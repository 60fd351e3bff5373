"""Crash safety and corruption resilience of the document store
(DESIGN.md §12).

The centerpiece is the crash-consistency matrix: every file-mutating
syscall under ``add``/``update``/``remove``/``compact`` is a numbered
crash point (via the :mod:`repro.store.faultfs` injectable OS layer);
for each point the store is killed mid-operation, reopened, and every
non-quarantined document must deserialize byte-identically to either
its pre- or post-operation version.  Around it: recovery semantics
(tmp sweep, orphan adoption, newer-version adoption, quarantine of
corrupt/missing files, manifest generation fallback), durability
policies, the transactional persist-then-publish rollback, per-document
``compact`` statuses, and a randomized crash fuzz whose round count
scales up in the nightly CI job.
"""

from __future__ import annotations

import json
import os
import random
import shutil

import numpy as np
import pytest

from repro.api import Engine
from repro.errors import IntegrityError, ReproError, StoreError
from repro.cli import main
from repro.corpus.boethius import boethius_document
from repro.store import (
    DocumentStore,
    read_header,
    save_engine,
    verify_blocks,
)
from repro.store.catalog import MANIFEST_NAME, MANIFEST_PREV_NAME
from repro.store.faultfs import FaultyOs, SimulatedCrash, inject


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def store_xml(store: DocumentStore, name: str) -> dict[str, str]:
    """Canonical content of one document: per-hierarchy XML."""
    document = store.snapshot(name).engine.document
    return {hier_name: hierarchy.to_xml() for hier_name, hierarchy
            in document.hierarchies.items()}


def flip_block_byte(path, which: int = -1) -> str:
    """Flip one bit inside a real array block (never in alignment
    padding, which is not checksummed); returns the block's name."""
    header, data_start = read_header(path)
    entries = sorted(header["arrays"].items(),
                     key=lambda item: item[1]["offset"])
    name, entry = entries[which]
    payload = bytearray(path.read_bytes())
    payload[data_start + entry["offset"]] ^= 0x01
    path.write_bytes(payload)
    return name


def rewrite_block(path, block: str, edit) -> None:
    """Rewrite one array block *with valid checksums*: the file a
    writer with a bug would leave, not the one a bad disk would — every
    CRC passes and the structure is wrong in itself."""
    from repro.core.goddag.goddag import metadata_json
    from repro.store.mhxb import _map_arrays, _pack

    header, data_start = read_header(path)
    arrays = {key: np.array(value) for key, value
              in _map_arrays(path, header, data_start).items()}
    edit(arrays[block])
    del header["arrays"]
    _pack(path, header, arrays, {},
          [metadata_json(meta) for meta in header["hierarchies"]])
    assert verify_blocks(path)


def fresh_store(root) -> DocumentStore:
    store = DocumentStore.init(root)
    store.add("boe", boethius_document(validate=False))
    return store


# ---------------------------------------------------------------------------
# faultfs unit behavior
# ---------------------------------------------------------------------------


class TestFaultFs:
    def test_counting_layer_sees_every_op(self, tmp_path):
        layer = FaultyOs()
        with inject(layer):
            fresh_store(tmp_path / "cat")
        ops = {op for op, _target in layer.log}
        assert {"open", "write", "fsync", "replace",
                "fsync_dir"} <= ops
        assert layer.ops == len(layer.log)

    def test_crash_kills_the_layer_permanently(self, tmp_path):
        layer = FaultyOs(crash_at=3)
        with inject(layer):
            with pytest.raises(SimulatedCrash):
                fresh_store(tmp_path / "cat")
            with pytest.raises(SimulatedCrash):
                layer.replace(tmp_path / "a", tmp_path / "b")

    def test_torn_write_flushes_a_prefix(self, tmp_path):
        target = tmp_path / "torn.bin"
        layer = FaultyOs(crash_at=2, torn=True)
        handle = layer.open_for_write(target)
        with pytest.raises(SimulatedCrash, match="write-torn"):
            layer.write(handle, b"0123456789abcdef")
        handle.close()
        assert target.read_bytes() == b"01234567"

    def test_error_injection_fires_once(self, tmp_path):
        layer = FaultyOs(fail={"fsync": OSError("disk full")})
        handle = layer.open_for_write(tmp_path / "x")
        layer.write(handle, b"data")
        with pytest.raises(OSError, match="disk full"):
            layer.fsync(handle)
        layer.fsync(handle)  # the layer survives injected errors
        handle.close()


# ---------------------------------------------------------------------------
# the crash-consistency matrix
# ---------------------------------------------------------------------------

#: the store operations under test, as (label, callable(store))
OPERATIONS = [
    ("update", lambda store: store.update(
        "boe", 'rename node /descendant::w[1] as "word"')),
    ("add", lambda store: store.add(
        "extra", boethius_document(validate=False))),
    ("remove", lambda store: store.remove("boe")),
    ("compact", lambda store: store.compact()),
]


def snapshot_states(root, template) -> tuple[dict, dict]:
    """(pre, post) canonical XML per document for one operation."""
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(template, root)
    store = DocumentStore(root)
    pre = {name: store_xml(store, name) for name in store.names}
    return store, pre


def run_crash_matrix(tmp_path, label, operation, torn: bool):
    """Kill ``operation`` at every injected crash point; after each,
    the reopened store must serve every non-quarantined document at
    exactly the old or the new version."""
    template = tmp_path / "template"
    fresh_store(template)

    # learn the op schedule and the post-operation state
    probe_root = tmp_path / "probe"
    store, pre = snapshot_states(probe_root, template)
    counting = FaultyOs()
    with inject(counting):
        operation(store)
    post = {name: store_xml(store, name) for name in store.names}
    total_ops = counting.ops
    assert total_ops > 0, f"{label} performed no routed OS ops"

    crash_root = tmp_path / "crash"
    for crash_at in range(1, total_ops + 1):
        store, _pre = snapshot_states(crash_root, template)
        with inject(FaultyOs(crash_at=crash_at, torn=torn)):
            with pytest.raises(SimulatedCrash):
                operation(store)
        reopened = DocumentStore(crash_root)
        for name in reopened.names:
            observed = store_xml(reopened, name)
            assert observed in (pre.get(name), post.get(name)), (
                f"{label} crash point {crash_at}/{total_ops} "
                f"(torn={torn}): document {name!r} is neither the old "
                f"nor the new version")
        assert reopened.quarantined == {}, (
            f"{label} crash point {crash_at} (torn={torn}) quarantined "
            f"{list(reopened.quarantined)} — crashes must never look "
            f"like corruption")
    return total_ops


class TestCrashMatrix:
    @pytest.mark.parametrize("label,operation", OPERATIONS,
                             ids=[label for label, _ in OPERATIONS])
    def test_clean_crash_at_every_point(self, tmp_path, label,
                                        operation):
        run_crash_matrix(tmp_path, label, operation, torn=False)

    @pytest.mark.parametrize("label,operation", OPERATIONS,
                             ids=[label for label, _ in OPERATIONS])
    def test_torn_write_crash_at_every_point(self, tmp_path, label,
                                             operation):
        run_crash_matrix(tmp_path, label, operation, torn=True)

    def test_randomized_crash_fuzz(self, tmp_path):
        """Random statement batches × random crash points (the nightly
        job raises ``REPRO_CRASH_FUZZ_ROUNDS``)."""
        rounds = int(os.environ.get("REPRO_CRASH_FUZZ_ROUNDS", "5"))
        rng = random.Random(20060627)
        statements = [
            'rename node /descendant::w[1] as "word"',
            'insert node <note>n</note> after /descendant::w[2]',
            'replace value of node /descendant::w[3] with "si"',
            'delete node /descendant::note[1]',
        ]
        template = tmp_path / "template"
        fresh_store(template)
        work = tmp_path / "work"
        for round_index in range(rounds):
            batch = [rng.choice(statements)
                     for _ in range(rng.randint(1, 3))]
            store, pre = snapshot_states(work, template)
            counting = FaultyOs()
            try:
                with inject(counting):
                    store.update("boe", batch)
            except ReproError:
                continue  # statement invalid against this state: the
                # batch aborts before any file op; nothing to crash
            post = {"boe": store_xml(store, "boe")}
            store, _pre = snapshot_states(work, template)
            crash_at = rng.randint(1, counting.ops)
            with inject(FaultyOs(crash_at=crash_at,
                                 torn=rng.random() < 0.5)):
                with pytest.raises(SimulatedCrash):
                    store.update("boe", batch)
            reopened = DocumentStore(work)
            assert reopened.quarantined == {}
            observed = store_xml(reopened, "boe")
            assert observed in (pre["boe"], post["boe"]), (
                f"fuzz round {round_index}: crash at op {crash_at} of "
                f"{counting.ops} left 'boe' at a torn version")


# ---------------------------------------------------------------------------
# recovery semantics
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_tmp_litter_is_swept(self, tmp_path):
        root = tmp_path / "cat"
        fresh_store(root)
        (root / "boe.mhxb.tmp").write_bytes(b"half a save")
        (root / "store.json.tmp").write_text("{}")
        store = DocumentStore(root)
        assert sorted(store.recovery["swept"]) == [
            "boe.mhxb.tmp", "store.json.tmp"]
        assert not (root / "boe.mhxb.tmp").exists()

    def test_orphan_mhxb_is_adopted(self, tmp_path):
        root = tmp_path / "cat"
        fresh_store(root)
        engine = Engine(boethius_document(validate=False))
        save_engine(engine, root / "orphan.mhxb")
        store = DocumentStore(root)
        assert "orphan" in store.names
        assert any(item.startswith("orphan")
                   for item in store.recovery["adopted"])
        assert store.query("orphan",
                           "count(/descendant::w)").serialize() == "6"

    def test_newer_file_version_is_adopted(self, tmp_path):
        """Crash after the data-file rename but before the manifest
        write: the file's header version is authoritative."""
        root = tmp_path / "cat"
        store = fresh_store(root)
        manifest_before = (root / MANIFEST_NAME).read_text()
        engine = Engine(boethius_document(validate=False))
        engine.update('rename node /descendant::w[1] as "word"')
        save_engine(engine, root / "boe.mhxb")  # newer data, old manifest
        (root / MANIFEST_NAME).write_text(manifest_before)
        reopened = DocumentStore(root)
        assert any(item.startswith("boe")
                   for item in reopened.recovery["adopted"])
        assert reopened.snapshot("boe").version == engine.version
        assert reopened.query("boe",
                              "count(//word)").serialize() == "1"
        del store

    def test_missing_file_quarantines_not_fails(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        store.add("keep", boethius_document(validate=False))
        (root / "boe.mhxb").unlink()
        reopened = DocumentStore(root)
        assert "boe" in reopened.recovery["quarantined"]
        assert reopened.names == ["keep"]
        assert "missing" in reopened.quarantined["boe"]["reason"]
        with pytest.raises(StoreError, match="quarantined"):
            reopened.snapshot("boe")
        # the healthy document still serves
        assert reopened.query("keep",
                              "count(/descendant::w)").serialize() == "6"

    def test_corrupt_header_quarantines(self, tmp_path):
        root = tmp_path / "cat"
        fresh_store(root)
        payload = bytearray((root / "boe.mhxb").read_bytes())
        payload[20] ^= 0xFF  # inside the header JSON
        (root / "boe.mhxb").write_bytes(payload)
        reopened = DocumentStore(root)
        assert "boe" in reopened.quarantined
        with pytest.raises(StoreError, match="quarantined"):
            reopened.query("boe", "1")

    def test_manifest_falls_back_to_previous_generation(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        store.update("boe", 'rename node /descendant::w[1] as "word"')
        assert (root / MANIFEST_PREV_NAME).exists()
        (root / MANIFEST_NAME).write_text("{corrupt json", "utf-8")
        reopened = DocumentStore(root)
        assert reopened.recovery["manifest"] == MANIFEST_PREV_NAME
        # the prev manifest lags the data file; recovery adopts forward
        assert reopened.query("boe", "count(//word)").serialize() == "1"
        # recovery re-saved a fresh, valid store.json
        current = json.loads((root / MANIFEST_NAME).read_text())
        assert current["documents"]["boe"]["version"] == \
            reopened.snapshot("boe").version

    def test_generation_increases_monotonically(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        first = json.loads((root / MANIFEST_NAME).read_text())
        store.update("boe", 'rename node /descendant::w[1] as "word"')
        second = json.loads((root / MANIFEST_NAME).read_text())
        previous = json.loads((root / MANIFEST_PREV_NAME).read_text())
        assert second["generation"] > first["generation"]
        assert previous["generation"] < second["generation"]

    def test_remove_clears_quarantine(self, tmp_path):
        root = tmp_path / "cat"
        fresh_store(root)
        (root / "boe.mhxb").unlink()
        reopened = DocumentStore(root)
        assert "boe" in reopened.quarantined
        reopened.remove("boe")
        assert reopened.quarantined == {}
        assert DocumentStore(root).quarantined == {}


# ---------------------------------------------------------------------------
# corruption detection end to end
# ---------------------------------------------------------------------------


class TestCorruption:
    def test_bit_flip_is_quarantined_not_served(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        store.add("keep", boethius_document(validate=False))
        del store
        flip_block_byte(root / "boe.mhxb")
        reopened = DocumentStore(root)  # header is fine: opens clean
        assert "boe" in reopened.names
        with pytest.raises(StoreError, match="quarantined"):
            reopened.query("boe", "count(/descendant::w)")
        assert "boe" in reopened.quarantined
        assert "CRC32 mismatch" in reopened.quarantined["boe"]["reason"]
        # the quarantine is durable and the rest of the store serves
        third = DocumentStore(root)
        assert "boe" in third.quarantined
        assert third.query("keep",
                           "count(/descendant::w)").serialize() == "6"

    def test_verify_reports_block_and_quarantine(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        store.add("bad", boethius_document(validate=False))
        statuses = store.verify()
        assert all(status.startswith("ok (") for status
                   in statuses.values())
        block = flip_block_byte(root / "bad.mhxb")
        statuses = store.verify()
        assert statuses["boe"].startswith("ok (")
        assert statuses["bad"].startswith("corrupt:")
        assert block in statuses["bad"]
        with pytest.raises(ReproError, match="no document"):
            store.verify("nope")

    def test_verify_runs_the_whole_net_behind_the_checksums(
            self, tmp_path):
        """Checksums vouch for bytes, the net for the structure: a
        ``subtree_ends`` block rewritten with a valid CRC loads and
        passes every checksum, and ``verify`` still calls it corrupt —
        off a load of the file, and off the live snapshot."""
        root = tmp_path / "cat"
        store = fresh_store(root)
        store.add("bad", boethius_document(validate=False))
        store.close()

        def widen_a_subtree(subtree_ends) -> None:
            subtree_ends[1] = len(subtree_ends) + 3

        rewrite_block(root / "bad.mhxb", "h1/subtree_ends",
                      widen_a_subtree)
        store = DocumentStore(root)  # cold loads verify every checksum
        for live in (False, True):
            if live:
                assert store.query(
                    "bad", "count(/descendant::w)").serialize() == "6"
            statuses = store.verify()
            assert statuses["boe"].startswith("ok (")
            assert statuses["bad"].startswith(
                "corrupt: invariant violation: hierarchy 'structural' "
                "node 1 has subtree_end"), statuses["bad"]
        assert store.verify("boe") == {"boe": statuses["boe"]}
        assert "bad" not in store.quarantined  # verify is read-only

    def test_verify_reads_each_header_once(self, tmp_path):
        """One parsed header serves the block scan and the load of the
        file: one ``read_header`` per document per ``verify()``, with a
        live snapshot or without one."""
        from unittest import mock

        from repro.store import catalog, mhxb

        root = tmp_path / "cat"
        store = fresh_store(root)
        store.add("other", boethius_document(validate=False))
        store.close()
        store = DocumentStore(root)
        store.query("boe", "count(/descendant::w)")  # "boe" is live
        paths = []
        original = mhxb.read_header

        def counting(path):
            paths.append(os.path.basename(path))
            return original(path)

        with mock.patch.object(mhxb, "read_header", counting), \
                mock.patch.object(catalog, "read_header", counting):
            for _pass in range(2):
                statuses = store.verify()
        assert all(status.startswith("ok (") for status
                   in statuses.values())
        assert sorted(paths) == sorted(["boe.mhxb", "other.mhxb"] * 2)

    def test_first_cold_load_takes_the_recovered_header(self, tmp_path):
        """The header recovery parsed serves a document's first cold
        load — no second ``read_header`` — unless the file was replaced
        since, which is read afresh."""
        from unittest import mock

        from repro.store import catalog, mhxb

        root = tmp_path / "cat"
        store = fresh_store(root)
        store.add("other", boethius_document(validate=False))
        store.close()
        store = DocumentStore(root)
        copy = root / "copy.tmp"
        shutil.copyfile(root / "other.mhxb", copy)
        os.replace(copy, root / "other.mhxb")  # same bytes, new file
        paths = []
        original = mhxb.read_header

        def counting(path):
            paths.append(os.path.basename(path))
            return original(path)

        with mock.patch.object(mhxb, "read_header", counting), \
                mock.patch.object(catalog, "read_header", counting):
            for name in ("boe", "other"):
                assert store.query(
                    name, "count(/descendant::w)").serialize() == "6"
        assert paths == ["other.mhxb"]
        # a file gone since recovery quarantines on its first load
        store = DocumentStore(root)
        (root / "other.mhxb").unlink()
        with pytest.raises(StoreError, match="quarantined"):
            store.query("other", "count(/descendant::w)")

    def test_unverified_loads_allowed_when_opted_out(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        del store
        lax = DocumentStore(root, verify_cold_loads=False)
        assert lax.query("boe",
                         "count(/descendant::w)").serialize() == "6"


# ---------------------------------------------------------------------------
# transactional persist-then-publish (satellite: the ordering bug)
# ---------------------------------------------------------------------------


def manifest_publish_op(tmp_path, template, operation) -> int:
    """Op index (1-based) of the manifest's publishing ``replace``,
    learned from a counting run on a throwaway copy of ``template``."""
    probe = tmp_path / "rollback-probe"
    shutil.rmtree(probe, ignore_errors=True)
    shutil.copytree(template, probe)
    store = DocumentStore(probe)
    counting = FaultyOs()
    with inject(counting):
        operation(store)
    for index, (op, target) in enumerate(counting.log, start=1):
        if op == "replace" and target.endswith(MANIFEST_NAME):
            return index
    raise AssertionError("operation never published the manifest")


class TestPersistRollback:
    def test_manifest_failure_rolls_back_update(self, tmp_path):
        """``save_engine`` lands, then the manifest write fails: the
        fork must NOT publish and the in-memory catalog must roll back
        to what ``store.json`` actually says."""
        template = tmp_path / "template"
        fresh_store(template)

        def operation(store):
            store.update("boe",
                         'rename node /descendant::w[1] as "word"')

        index = manifest_publish_op(tmp_path, template, operation)
        root = tmp_path / "cat"
        shutil.copytree(template, root)
        store = DocumentStore(root)
        version = store.snapshot("boe").version
        layer = FaultyOs(fail_at={index: OSError("EIO on manifest")})
        with inject(layer):
            with pytest.raises(OSError, match="EIO on manifest"):
                operation(store)
        entry = store._manifest["documents"]["boe"]
        on_disk = json.loads((root / MANIFEST_NAME).read_text())
        assert entry == on_disk["documents"]["boe"]
        assert entry["version"] == version
        # the store still serves a consistent old-or-new version
        assert store.query("boe", "count(//word)").serialize() in (
            "0", "1")

    def test_manifest_failure_rolls_back_add(self, tmp_path):
        template = tmp_path / "template"
        fresh_store(template)

        def operation(store):
            store.add("extra", boethius_document(validate=False))

        index = manifest_publish_op(tmp_path, template, operation)
        root = tmp_path / "cat"
        shutil.copytree(template, root)
        store = DocumentStore(root)
        layer = FaultyOs(fail_at={index: OSError("EIO on manifest")})
        with inject(layer):
            with pytest.raises(OSError, match="EIO on manifest"):
                operation(store)
        assert "extra" not in store
        assert not (root / "extra.mhxb").exists()
        reopened = DocumentStore(root)
        assert reopened.names == ["boe"]
        assert reopened.recovery["adopted"] == []

    def test_save_engine_failure_keeps_old_state(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        version = store.snapshot("boe").version
        layer = FaultyOs(fail={"open": OSError("ENOSPC")})
        with inject(layer):
            with pytest.raises(OSError, match="ENOSPC"):
                store.update("boe",
                             'rename node /descendant::w[1] as "word"')
        assert store.snapshot("boe").version == version
        assert store.query("boe", "count(//word)").serialize() == "0"


# ---------------------------------------------------------------------------
# compact: skip-and-report (satellite)
# ---------------------------------------------------------------------------


class TestCompactStatuses:
    def test_missing_file_skips_without_aborting(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        store.add("second", boethius_document(validate=False))
        store.add("third", boethius_document(validate=False))
        del store
        (root / "second.mhxb").unlink()
        cold = DocumentStore(root, durability="off")
        # delete again behind recovery's back to hit compact's own path
        cold._manifest["documents"]["second"] = {
            "file": "second.mhxb", "version": 4}
        sizes = cold.compact()
        assert isinstance(sizes["boe"], int)
        assert isinstance(sizes["third"], int)
        assert isinstance(sizes["second"], str)
        assert sizes["second"].startswith("skipped:")

    def test_corrupt_cold_entry_skips_and_reports(self, tmp_path):
        root = tmp_path / "cat"
        store = fresh_store(root)
        store.add("second", boethius_document(validate=False))
        del store
        flip_block_byte(root / "second.mhxb")
        cold = DocumentStore(root)
        sizes = cold.compact()
        assert isinstance(sizes["boe"], int)
        assert sizes["second"].startswith("skipped:")
        assert "second" in cold.quarantined


# ---------------------------------------------------------------------------
# durability policies
# ---------------------------------------------------------------------------


class TestDurability:
    @pytest.mark.parametrize("mode", ["full", "batch", "off"])
    def test_all_policies_round_trip(self, tmp_path, mode):
        root = tmp_path / f"cat-{mode}"
        store = DocumentStore.init(root, durability=mode)
        store.add("boe", boethius_document(validate=False))
        store.update("boe", 'rename node /descendant::w[1] as "word"')
        reopened = DocumentStore(root, durability=mode)
        assert reopened.query("boe", "count(//word)").serialize() == "1"

    def test_full_fsyncs_every_commit(self, tmp_path):
        layer = FaultyOs()
        with inject(layer):
            store = DocumentStore.init(tmp_path / "cat",
                                       durability="full")
            store.add("boe", boethius_document(validate=False))
        assert any(op == "fsync" for op, _ in layer.log)
        assert any(op == "fsync_dir" for op, _ in layer.log)

    def test_batch_defers_syncs_until_sync(self, tmp_path):
        store = DocumentStore.init(tmp_path / "cat", durability="batch")
        layer = FaultyOs()
        with inject(layer):
            store.add("boe", boethius_document(validate=False))
            assert not any(op.startswith("fsync")
                           for op, _ in layer.log)
            assert store._dirty
            synced = store.sync()
        assert synced >= 2  # the data file and the manifest
        assert not store._dirty
        assert any(op == "fsync" for op, _ in layer.log)

    def test_off_never_syncs(self, tmp_path):
        # init() itself is always durable; only watch the workload
        store = DocumentStore.init(tmp_path / "cat", durability="off")
        layer = FaultyOs()
        with inject(layer):
            store.add("boe", boethius_document(validate=False))
            store.sync()
        assert not any(op.startswith("fsync") for op, _ in layer.log)

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="durability"):
            DocumentStore.init(tmp_path / "cat", durability="maybe")


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


class TestRecoveryCli:
    def test_verify_and_recover_verbs(self, capsys, tmp_path):
        root = str(tmp_path / "cat")
        run_cli(capsys, "store", "init", root)
        run_cli(capsys, "store", "add", root, "boe", "--sample")
        code, out, _ = run_cli(capsys, "store", "verify", root)
        assert code == 0 and "ok (" in out and "0 with problems" in out
        code, out, _ = run_cli(capsys, "store", "recover", root)
        assert code == 0 and "store.json" in out

        flip_block_byte(tmp_path / "cat" / "boe.mhxb")
        code, out, _ = run_cli(capsys, "store", "verify", root)
        assert code == 1 and "corrupt:" in out

    def test_verify_verb_reports_an_invariant_violation(self, capsys,
                                                        tmp_path):
        root = tmp_path / "cat"
        fresh_store(root).close()

        def shorten_a_span(ends) -> None:
            ends[0] -= 1

        rewrite_block(root / "boe.mhxb", "h0/ends", shorten_a_span)
        code, out, _ = run_cli(capsys, "store", "verify", str(root))
        assert code == 1 and "1 with problems" in out
        assert "corrupt: invariant violation" in out

    def test_compact_reports_skips(self, capsys, tmp_path):
        root = tmp_path / "cat"
        fresh_store(root)
        (root / "boe.mhxb").unlink()
        code, out, _ = run_cli(capsys, "store", "recover", str(root))
        assert code == 0 and "quarantined 'boe'" in out


# ---------------------------------------------------------------------------
# engine-level durability passthrough
# ---------------------------------------------------------------------------


class TestSaveDurability:
    def test_save_mhxb_durability_full_is_byte_identical(self, tmp_path):
        engine = Engine(boethius_document(validate=False))
        relaxed = tmp_path / "off.mhxb"
        durable = tmp_path / "full.mhxb"
        engine.save_mhxb(relaxed)
        engine.save_mhxb(durable, durability="full")
        assert relaxed.read_bytes() == durable.read_bytes()
        verify_blocks(durable)

    def test_bad_durability_rejected(self, tmp_path):
        engine = Engine(boethius_document(validate=False))
        with pytest.raises(ReproError, match="durability"):
            save_engine(engine, tmp_path / "x.mhxb", durability="later")

    def test_integrity_error_carries_block(self, tmp_path):
        engine = Engine(boethius_document(validate=False))
        path = tmp_path / "doc.mhxb"
        engine.save_mhxb(path)
        block = flip_block_byte(path)
        with pytest.raises(IntegrityError) as info:
            Engine.from_mhxb(path, verify=True)
        assert info.value.block == block
