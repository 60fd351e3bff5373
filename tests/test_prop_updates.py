"""The differential update fuzzer (DESIGN.md §9).

Hypothesis generates a random multihierarchical document and a
sequence of 1–30 random update statements, applied two ways:

* **incremental engine** — one :class:`~repro.api.Engine` whose live
  KyGODDAG is patched in place across the whole sequence (partition
  splices, span-index component surgery, renamed copies);
* **rebuild oracle** — a :class:`tests.updateoracle.RebuildOracle`
  that keeps only serialized state and, for every statement, re-parses,
  applies it with its own DOM applier and re-serializes.

After every applied statement the two must agree byte-for-byte on the
serialization of every hierarchy and the base text, item-for-item on a
probe query set (run against the long-lived incremental goddag vs. a
freshly rebuilt one), column for column on every hierarchy the
statement changed, and ``check_invariants()`` must pass on the
incremental structure — the whole net, after the scoped net the update
itself ran over what it rebuilt (``check=True``): wherever the whole
net passes, the scoped one must have.  Statements that fail (conflicts,
proper overlap, empty targets) must leave both sides untouched —
atomicity.

A second fuzzer runs the same sequences the way the document store
does (DESIGN.md §10): every statement is applied to a
``fork_engine`` copy of the previous generation, which shares that
generation's arrays.  The fork must agree with the oracle and the
generation it was forked from must not change by a byte — its saved
``.mhxb`` image, its probe results, its invariants — whether it was
built, cold-loaded, or cold-loaded with its document already made
(every hierarchy exported once), and whether or not earlier statements
made the document of the generation before.

A third commits batches of 1–3 statements through a persisting
``DocumentStore`` and holds every file it writes, byte for byte,
against ``save_engine`` of the oracle's document built from scratch:
a commit reuses the block checksums of the hierarchies it left alone
(DESIGN.md §10), and none may be stale.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.core.goddag import KyGoddag
from repro.errors import QueryEvaluationError, UpdateError
from repro.store import DocumentStore, fork_engine, save_engine

from tests.dombuild import assert_same_columns
from tests.strategies import (
    ELEMENT_NAMES,
    build_update_statement,
    multihierarchical_documents,
    update_ops,
)
from tests.updateoracle import RebuildOracle

#: Probe queries spanning counting, serialization, navigation, and the
#: extended (overlap) axes — cheap enough to run after every statement.
PROBE_QUERIES = [
    "count(/descendant::*)",
    "count(//leaf())",
    "/descendant::*/string(.)",
    "for $n in /descendant::* return name($n)",
    "/descendant::*[overlapping::w or xdescendant::w]/string(.)",
]


#: Statements applied across *all* fuzz examples — asserted non-zero
#: afterwards so the suite cannot silently degenerate into testing
#: only the rejection path.
_APPLIED_TOTAL = [0]


def _serialized_state(engine: Engine) -> tuple[str, dict[str, str]]:
    document = engine.document
    return document.text, {name: hierarchy.to_xml()
                           for name, hierarchy
                           in document.hierarchies.items()}


def _assert_states_match(engine: Engine, oracle: RebuildOracle,
                         context: str) -> None:
    text, sources = _serialized_state(engine)
    assert text == oracle.text, f"base text diverged {context}"
    assert sources == oracle.sources, f"serialization diverged {context}"


def _assert_columns_match(engine: Engine, oracle: RebuildOracle,
                          held: dict) -> None:
    """Every hierarchy the step changed (its component is not the one
    ``held`` had) holds, column for column and dtype for dtype, what a
    from-scratch build of the oracle's document holds."""
    changed = engine.goddag.changed_components(held)
    mine = engine.goddag.components()
    fresh = KyGoddag.build(oracle.document()).components()
    assert_same_columns([mine[name] for name in changed],
                        [fresh[name] for name in changed])


def _assert_probes_match(engine: Engine, oracle: RebuildOracle,
                         context: str) -> None:
    fresh = oracle.query_strings(PROBE_QUERIES)
    for query, expected in zip(PROBE_QUERIES, fresh):
        actual = engine.query(query).strings()
        assert actual == expected, (
            f"probe {query!r} diverged {context}: incremental "
            f"{actual!r} vs rebuilt {expected!r}")


#: Example budget: 200 on the default profile; the nightly CI profile
#: (``--hypothesis-profile=nightly``, registered in conftest) raises
#: ``settings.default.max_examples`` past that and the fuzzer follows.
FUZZ_EXAMPLES = max(200, settings.default.max_examples)


@settings(max_examples=FUZZ_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_update_sequences_match_rebuild_oracle(data):
    document = data.draw(multihierarchical_documents(max_text=30),
                         label="document")
    engine = Engine(document)
    engine.goddag.span_index()
    oracle = RebuildOracle(document)
    steps = data.draw(st.integers(min_value=1, max_value=30),
                      label="steps")
    applied = 0
    for step in range(steps):
        op = data.draw(update_ops(), label=f"op-{step}")
        element_count = int(engine.query(
            "count(/descendant::*)").items[0])
        leaf_count = int(engine.query("count(//leaf())").items[0])
        statement = build_update_statement(
            op, element_count, leaf_count,
            engine.document.hierarchy_names)
        if statement is None:
            continue
        context = f"after step {step}: {statement!r}"
        held = engine.goddag.components()
        try:
            engine.update(statement, check=True)
        except (UpdateError, QueryEvaluationError):
            # A rejected statement must be fully atomic: nothing may
            # have leaked into the document, the goddag, or the text.
            engine.goddag.check_invariants()
            _assert_states_match(engine, oracle, f"(rejected) {context}")
            continue
        applied += 1
        engine.goddag.check_invariants()
        oracle.apply(statement)
        _assert_states_match(engine, oracle, context)
        _assert_probes_match(engine, oracle, context)
        _assert_columns_match(engine, oracle, held)
    _APPLIED_TOTAL[0] += applied


def _image(engine: Engine, folder: Path) -> tuple[bytes, list]:
    """Everything an engine holds, read without touching its DOM: the
    bytes ``save_engine`` writes (every column, attribute, comment and
    the text) and the probe results off its live node objects."""
    path = folder / "image.mhxb"
    save_engine(engine, path)
    return (path.read_bytes(),
            [engine.query(query).strings() for query in PROBE_QUERIES])


@settings(max_examples=FUZZ_EXAMPLES // 2, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_forked_sequences_leave_every_source_untouched(data):
    document = data.draw(multihierarchical_documents(max_text=30),
                         label="document")
    origin = data.draw(st.sampled_from(["built", "cold", "cold+dom"]),
                       label="origin")
    oracle = RebuildOracle(document)
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)
        source = Engine(document)
        if origin != "built":
            save_engine(source, folder / "origin.mhxb")
            source = Engine.from_mhxb(folder / "origin.mhxb")
            if origin == "cold+dom":
                _serialized_state(source)
        steps = data.draw(st.integers(min_value=1, max_value=12),
                          label="steps")
        applied = 0
        for step in range(steps):
            op = data.draw(update_ops(), label=f"op-{step}")
            element_count = int(source.query(
                "count(/descendant::*)").items[0])
            leaf_count = int(source.query("count(//leaf())").items[0])
            statement = build_update_statement(
                op, element_count, leaf_count,
                source.goddag.persistent_hierarchy_names)
            if statement is None:
                continue
            context = f"after step {step} ({origin}): {statement!r}"
            before = _image(source, folder)
            fork = fork_engine(source)
            assert fork._document is None, context
            try:
                fork.update(statement, check=True)
            except (UpdateError, QueryEvaluationError):
                fork = None  # the store discards a failed fork
            else:
                applied += 1
                fork.goddag.check_invariants()
                # what a store commit would run, against its source
                fork.goddag.check_invariants(
                    fork.goddag.changed_components(
                        source.goddag.components()))
                oracle.apply(statement)
                _assert_probes_match(fork, oracle, context)
                _assert_columns_match(fork, oracle,
                                      source.goddag.components())
                # sometimes look at the document too, so the next
                # generation's source sometimes has one
                if data.draw(st.booleans(), label=f"peek-{step}"):
                    _assert_states_match(fork, oracle, context)
            source.goddag.check_invariants()
            assert _image(source, folder) == before, \
                f"the forked-from generation changed {context}"
            if fork is not None:
                source = fork
        _assert_states_match(source, oracle,
                             f"at the end of a {origin} chain")
    _APPLIED_TOTAL[0] += applied


@settings(max_examples=max(20, FUZZ_EXAMPLES // 10), deadline=None,
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(document=multihierarchical_documents(max_text=30),
       ops=st.lists(update_ops(), min_size=2, max_size=6))
def test_unpersisted_generations_compact_to_the_oracle(document, ops):
    """``persist=False`` chains: every generation forks the previous
    one's arrays, nothing reaches the disk until ``compact``, and what
    lands there reopens as the oracle's document."""
    oracle = RebuildOracle(document)
    with tempfile.TemporaryDirectory() as scratch:
        store = DocumentStore.init(Path(scratch) / "catalog")
        store.add("doc", document)
        on_disk = (store.root / "doc.mhxb").read_bytes()
        for op in ops:
            engine = store.snapshot("doc").engine
            statement = build_update_statement(
                op, int(engine.query("count(/descendant::*)").items[0]),
                int(engine.query("count(//leaf())").items[0]),
                engine.goddag.persistent_hierarchy_names)
            if statement is None:
                continue
            try:
                store.update("doc", statement, persist=False)
            except (UpdateError, QueryEvaluationError):
                assert store.snapshot("doc").engine is engine
                continue
            oracle.apply(statement)
            assert (store.root / "doc.mhxb").read_bytes() == on_disk
        published = store.snapshot("doc").engine
        store.compact()
        save_engine(published, Path(scratch) / "direct.mhxb")
        assert (store.root / "doc.mhxb").read_bytes() == \
            (Path(scratch) / "direct.mhxb").read_bytes()
        store.close()
        reopened = DocumentStore(Path(scratch) / "catalog")
        engine = reopened.snapshot("doc").engine
        engine.goddag.check_invariants()
        _assert_probes_match(engine, oracle, "after compact + reopen")
        _assert_states_match(engine, oracle, "after compact + reopen")
        reopened.close()


#: Every kind of statement, half of them renames: a copy that shares
#: every block but the name ids, whose checksum it must not inherit.
COMMIT_OPS = st.one_of(update_ops(),
                       update_ops().map(lambda op: {**op, "kind": "rename"}))


@settings(max_examples=max(40, FUZZ_EXAMPLES // 5), deadline=None,
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(document=multihierarchical_documents(max_text=30, decorated=True),
       batches=st.lists(st.lists(COMMIT_OPS, min_size=1, max_size=3),
                        min_size=1, max_size=5))
def test_commits_write_the_oracles_bytes(document, batches):
    """Persisted commits of 1–3 statement batches on decorated
    documents: after every commit the store's ``.mhxb`` is, byte for
    byte, what ``save_engine`` writes for the oracle's document built
    from scratch — an engine whose components never carried a block
    checksum or an encoded header fragment.  A commit takes the
    checksums and the header metadata (attributes, comments, PIs) of
    every hierarchy it left alone from the component (DESIGN.md §10),
    so one that outlived a change shows here as a stale ``crc32`` or
    stale metadata in the header; the file the last commit left must
    also reopen and pass ``verify()``."""
    oracle = RebuildOracle(document)
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(scratch)
        store = DocumentStore.init(folder / "catalog")
        store.add("doc", document)
        for batch in batches:
            engine = store.snapshot("doc").engine
            element_count = int(engine.query(
                "count(/descendant::*)").items[0])
            leaf_count = int(engine.query("count(//leaf())").items[0])
            statements = [
                build_update_statement(
                    op, element_count, leaf_count,
                    engine.goddag.persistent_hierarchy_names)
                for op in batch]
            statements = [statement for statement in statements
                          if statement is not None]
            if not statements:
                continue
            try:
                store.update("doc", statements)
            except (UpdateError, QueryEvaluationError):
                assert store.snapshot("doc").engine is engine
                continue
            for statement in statements:
                oracle.apply(statement)
            expected = Engine(oracle.document())
            # the one thing a from-scratch engine cannot know
            expected.goddag.version = store.snapshot("doc").engine.version
            save_engine(expected, folder / "oracle.mhxb")
            assert (store.root / "doc.mhxb").read_bytes() \
                == (folder / "oracle.mhxb").read_bytes(), statements
        store.close()
        reopened = DocumentStore(folder / "catalog")
        assert reopened.verify("doc")["doc"].startswith("ok")
        _assert_states_match(reopened.snapshot("doc").engine, oracle,
                             "after the last commit + reopen")
        reopened.close()


@settings(max_examples=max(40, FUZZ_EXAMPLES // 5), deadline=None,
          suppress_health_check=[HealthCheck.data_too_large,
                                 HealthCheck.too_slow])
@given(document=multihierarchical_documents(max_text=30), data=st.data())
def test_one_statement_renames_many_elements(document, data):
    """A statement renaming several elements — nested ones of one span
    among them, which share a merge key — renames each hierarchy in one
    batch (``KyGoddag.rename_element``): the engine agrees with the
    oracle column for column, its index passes the whole net, its file
    is the oracle's byte for byte, and a result taken before prints as
    it did."""
    engine = Engine(document)
    engine.goddag.span_index()
    oracle = RebuildOracle(document)
    count = int(engine.query("count(/descendant::*)").items[0])
    if not count:
        return
    picks = data.draw(st.lists(st.integers(1, count), min_size=1,
                               unique=True), label="picks")
    statement = ", ".join(
        f'rename node (/descendant::*)[{pick}] as '
        f'"{data.draw(st.sampled_from(ELEMENT_NAMES + ("note",)))}"'
        for pick in picks)
    taken = engine.query("/descendant::*")
    printed = taken.serialize()
    held = engine.goddag.components()
    engine.update(statement)
    oracle.apply(statement)
    _assert_states_match(engine, oracle, "after a batch rename")
    _assert_columns_match(engine, oracle, held)
    _assert_probes_match(engine, oracle, "after a batch rename")
    engine.goddag.check_invariants()
    assert taken.serialize() == printed
    expected = Engine(oracle.document())
    expected.goddag.version = engine.version
    with tempfile.TemporaryDirectory() as scratch:
        save_engine(engine, Path(scratch) / "engine.mhxb")
        save_engine(expected, Path(scratch) / "oracle.mhxb")
        assert (Path(scratch) / "engine.mhxb").read_bytes() \
            == (Path(scratch) / "oracle.mhxb").read_bytes(), statement


def test_fuzzer_actually_applied_updates():
    """Runs after the fuzz test: across all its examples, a healthy
    share of generated statements must have *applied* (not just been
    rejected) — a generator regression that conflicts everything would
    otherwise leave 200 green examples that test nothing."""
    assert _APPLIED_TOTAL[0] >= 200, (
        f"only {_APPLIED_TOTAL[0]} statements applied across the whole "
        f"fuzz run — the statement generator has degenerated")


@settings(max_examples=max(30, FUZZ_EXAMPLES // 20), deadline=None)
@given(document=multihierarchical_documents(max_text=25),
       ops=st.lists(update_ops(), min_size=2, max_size=4))
def test_multi_primitive_statements_are_atomic(document, ops):
    """Comma-combined statements: all primitives apply, or none do."""
    engine = Engine(document)
    oracle = RebuildOracle(document)
    element_count = int(engine.query("count(/descendant::*)").items[0])
    leaf_count = int(engine.query("count(//leaf())").items[0])
    parts = [build_update_statement(op, element_count, leaf_count,
                                    engine.document.hierarchy_names)
             for op in ops]
    parts = [part for part in parts if part is not None]
    if not parts:
        return
    statement = ", ".join(parts)
    held = engine.goddag.components()
    try:
        engine.update(statement, check=True)
    except (UpdateError, QueryEvaluationError):
        _assert_states_match(engine, oracle, f"(rejected) {statement!r}")
        return
    oracle.apply(statement)
    _assert_states_match(engine, oracle, repr(statement))
    _assert_probes_match(engine, oracle, repr(statement))
    _assert_columns_match(engine, oracle, held)
