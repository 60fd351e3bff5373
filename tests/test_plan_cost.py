"""Cost-based planning (DESIGN.md §16): statistics, ordering, masks.

Three contracts, in suite order:

* the vectorized statistics collectors agree with the per-node oracle
  walk and are deterministic (stable fingerprints);
* a costed plan is a pure optimization — item-for-item identical to
  the mechanical lowering on the paper corpus, generated corpora, and
  hypothesis-drawn documents;
* a plan ordered on misestimated statistics still returns the oracle
  answer, and stale statistics never serve a cached plan;
* decorrelated predicates (mask plans: axis probes and string tests
  of the context node's value) agree item for item — and error for
  error — with the mechanical lowering and the tree-walking evaluator,
  every fallback shape stays on the per-node path, and the per-node
  holes of ROADMAP item 1 stay closed by count, not by clock;
* lifted inner ``for`` clauses agree with both oracles in results,
  order and errors, every fallback shape stays per binding, and the
  batch lives on the evaluation's frame, under one epoch.
"""

from __future__ import annotations

import gc
import re
import tempfile
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.bench import corpus_at_size
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet
from repro.core.goddag import KyGoddag
from repro.core.goddag.stats import (
    GoddagStats,
    HierarchyStats,
    PlanStats,
    collect,
    collect_plan_stats,
)
from repro.core.goddag.index import SpanIndex
from repro.core.goddag.nodes import GComment, GElement, GNode, GPi, GText
from repro.core.plan import compile_query, cost, lift, logical, masks
from repro.core.runtime import functions
from repro.core.runtime.functions import default_registry
from repro.core.runtime.serializer import serialize_item
from repro.errors import GoddagError, QueryEvaluationError, ReproError
from repro.markup import dom
from repro.corpus import GeneratorConfig, generate_document
from repro.experiments.paperdata import PAPER_QUERIES
from repro.store.mhxb import read_header
from repro.store.plancache import SharedPlanCache

from tests.strategies import (
    ELEMENT_NAMES,
    VALUE_SUBJECTS,
    examples,
    multihierarchical_documents,
    nested_flwor_conditionals,
    ordered_flwors,
    predicate_trees,
)
from tests.treewalk import TreeWalkEngine

SETTINGS = settings(max_examples=examples(30), deadline=None)

#: queries that exercise every estimator branch: standard axes,
#: containment / boundary / stab join kernels, semi-join conjunctions,
#: FLWOR, and aggregates
DIFFERENTIAL_QUERIES = (
    "/descendant::w",
    "count(/descendant::w)",
    "/descendant::w/xancestor::dmg",
    "/descendant::w/overlapping::res",
    "/descendant::w[xfollowing::res]",
    "/descendant::w[xancestor::res][xfollowing::dmg]",
    "/descendant::line/xdescendant::w",
    "for $w in /descendant::w[overlapping::dmg] return string($w)",
)


def skewed_document(n_words: int = 400) -> MultihierarchicalDocument:
    return generate_document(GeneratorConfig(
        n_words=n_words, seed=11, damage_rate=0.02,
        restoration_rate=0.05, hyphenation_rate=0.2,
        boundary_cross_rate=0.5))


def adversarial_document() -> MultihierarchicalDocument:
    """Statistics lie here: ``res`` densely covers the right half (the
    coverage-based xancestor selectivity estimate is ~1.0) while every
    ``w`` lives in the left half (true selectivity 0), and the lone
    ``dmg`` *precedes* all words so ``[xfollowing::dmg]`` never holds
    despite a high histogram estimate."""
    text = "wa " * 30 + "x" * 60
    document = MultihierarchicalDocument(text)
    words = SpanSet(text)
    for index in range(30):
        words.add(Span(index * 3, index * 3 + 2, "w"))
    document.add_hierarchy(Hierarchy("words", words.to_document("r")))
    cover = SpanSet(text)
    cover.add(Span(90, len(text), "res"))
    for depth in range(8):
        cover.add(Span(91 + depth, len(text) - depth, "res",
                       depth_hint=depth + 1))
    document.add_hierarchy(Hierarchy("layers", cover.to_document("r")))
    marks = SpanSet(text)
    marks.add(Span(0, 1, "dmg"))
    document.add_hierarchy(Hierarchy("marks", marks.to_document("r")))
    return document


# ---------------------------------------------------------------------------
# statistics: vectorized collectors vs the per-node oracle
# ---------------------------------------------------------------------------


def _collect_walk(goddag: KyGoddag) -> GoddagStats:
    """The per-node walk: the differential oracle for the vectorized
    :func:`collect`."""
    stats = GoddagStats(text_length=len(goddag.text),
                        leaf_count=len(goddag.partition))
    for name in goddag.hierarchy_names:
        hierarchy = HierarchyStats(name=name,
                                   temporary=goddag.is_temporary(name))
        hierarchy.tree_edges += len(goddag.root.children_in(name))
        for node in goddag.nodes_of(name):
            if isinstance(node, GElement):
                count = hierarchy.elements_by_name.get(node.name, 0)
                hierarchy.elements_by_name[node.name] = count + 1
                hierarchy.tree_edges += len(node.children)
            elif isinstance(node, GText):
                hierarchy.text_nodes += 1
                hierarchy.text_leaf_edges += len(
                    goddag.partition.leaves_in(node.start, node.end))
            elif isinstance(node, GComment):
                hierarchy.comments += 1
            elif isinstance(node, GPi):
                hierarchy.processing_instructions += 1
        stats.hierarchies.append(hierarchy)
    return stats


class TestVectorizedInventory:
    def test_boethius_matches_walk(self, goddag):
        assert collect(goddag).rows() == _collect_walk(goddag).rows()

    def test_generated_corpus_matches_walk(self):
        goddag = KyGoddag.build(skewed_document())
        assert collect(goddag).rows() == _collect_walk(goddag).rows()

    def test_survives_updates(self, boethius_doc):
        engine = Engine(boethius_doc)
        engine.update('rename node /descendant::w[1] as "wx"')
        assert (collect(engine.goddag).rows()
                == _collect_walk(engine.goddag).rows())

    @SETTINGS
    @given(document=multihierarchical_documents())
    def test_hypothesis_documents_match_walk(self, document):
        goddag = KyGoddag.build(document)
        assert collect(goddag).rows() == _collect_walk(goddag).rows()


class TestPlanStats:
    def test_deterministic_fingerprint(self, goddag):
        first = collect_plan_stats(goddag)
        second = collect_plan_stats(goddag)
        assert first.payload() == second.payload()
        assert first.fingerprint() == second.fingerprint()

    def test_fingerprint_excludes_version(self, boethius_doc):
        replica = Engine(boethius_document_copy(boethius_doc))
        original = Engine(boethius_doc)
        assert (original.plan_stats().fingerprint()
                == replica.plan_stats().fingerprint())

    def test_cardinality_shift_changes_fingerprint(self, boethius_doc):
        engine = Engine(boethius_doc)
        before = engine.plan_stats().fingerprint()
        engine.update('rename node /descendant::w[1] as "wx"')
        assert engine.plan_stats().fingerprint() != before

    def test_payload_roundtrip(self, goddag):
        stats = collect_plan_stats(goddag)
        clone = PlanStats.from_payload(stats.payload())
        assert clone.payload() == stats.payload()

    def test_cards_match_fig2_inventory(self, goddag):
        inventory = collect(goddag)
        stats = collect_plan_stats(goddag)
        for hierarchy in inventory.hierarchies:
            assert (stats.cards[hierarchy.name]
                    == hierarchy.elements_by_name)

    @SETTINGS
    @given(document=multihierarchical_documents())
    def test_hypothesis_payloads_are_stable(self, document):
        goddag = KyGoddag.build(document)
        first = collect_plan_stats(goddag).payload()
        assert collect_plan_stats(goddag).payload() == first

    @staticmethod
    def assert_file_payload_is_live(engine: Engine) -> None:
        """``plan_stats_payload`` over the blocks a save packs (the
        header's statistics) equals ``collect_plan_stats`` over the
        live components: both go through one aggregation by name id."""
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "doc.mhxb"
            engine.save_mhxb(path)
            header, _start = read_header(path)
        assert header["plan_stats"] \
            == collect_plan_stats(engine.goddag).payload()

    @SETTINGS
    @given(document=multihierarchical_documents(decorated=True),
           data=st.data())
    def test_file_payload_equals_live_payload(self, document, data):
        """Drawn documents with PI targets in their name tables, then
        a drawn rename (which may leave a dead name behind)."""
        engine = Engine(document)
        self.assert_file_payload_is_live(engine)
        elements = int(engine.query("count(/descendant::*)").items[0])
        if elements:
            target = data.draw(st.integers(1, elements), label="target")
            name = data.draw(st.sampled_from(ELEMENT_NAMES), label="name")
            engine.update(
                f'rename node (/descendant::*)[{target}] as "{name}"')
            self.assert_file_payload_is_live(engine)

    def test_a_dead_name_counts_nowhere(self, boethius_doc):
        engine = Engine(boethius_doc)
        engine.update('for $l in /descendant::line '
                      'return rename node $l as "row"')
        physical = engine.goddag._components["physical"]
        assert physical.names == ["line", "row"]  # "line" is dead
        self.assert_file_payload_is_live(engine)
        stats = engine.plan_stats()
        assert stats.cards["physical"] == {"row": 2}
        assert "line" not in stats.names


def boethius_document_copy(document):
    from repro.corpus.boethius import boethius_document

    del document  # a fresh build is the replica
    return boethius_document(validate=False)


# ---------------------------------------------------------------------------
# persistence: the .mhxb plan-stats block
# ---------------------------------------------------------------------------


class TestMhxbPersistence:
    def test_saved_stats_match_live_collection(self, boethius_doc,
                                               tmp_path):
        engine = Engine(boethius_doc)
        live = engine.plan_stats().payload()
        path = tmp_path / "boe.mhxb"
        engine.save_mhxb(path)
        loaded = Engine.from_mhxb(path)
        attached = getattr(loaded.goddag, "_plan_stats", None)
        assert attached is not None, "load_engine must attach the block"
        assert attached.payload() == live
        assert loaded.plan_stats().payload() == live

    def test_absent_block_recollects(self, boethius_doc, tmp_path):
        engine = Engine(boethius_doc)
        path = tmp_path / "boe.mhxb"
        engine.save_mhxb(path)
        loaded = Engine.from_mhxb(path)
        # simulate a pre-§16 file with no plan_stats block
        loaded.goddag._plan_stats = None
        recollected = loaded.plan_stats()
        assert recollected is not None
        assert (recollected.fingerprint()
                == engine.plan_stats().fingerprint())


# ---------------------------------------------------------------------------
# differential: costed plans are a pure optimization
# ---------------------------------------------------------------------------


class TestCostedEqualsMechanical:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_boethius(self, boethius_doc, query):
        costed = Engine(boethius_doc)
        mechanical = Engine(boethius_doc, use_cost=False)
        assert (costed.query(query).strings()
                == mechanical.query(query).strings())

    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_skewed_corpus(self, query):
        document = skewed_document()
        costed = Engine(document)
        mechanical = Engine(document, use_cost=False)
        assert (costed.query(query).strings()
                == mechanical.query(query).strings())

    def test_paper_queries(self, boethius_doc):
        costed = Engine(boethius_doc)
        mechanical = Engine(boethius_doc, use_cost=False)
        for spec in PAPER_QUERIES:
            assert (costed.query(spec.query).strings()
                    == mechanical.query(spec.query).strings())

    @SETTINGS
    @given(document=multihierarchical_documents())
    def test_hypothesis_documents(self, document):
        costed = Engine(document)
        mechanical = Engine(document, use_cost=False)
        for query in ("/descendant::w/xancestor::res",
                      "/descendant::w[xfollowing::dmg]",
                      "/descendant::seg/overlapping::line"):
            assert (costed.query(query).strings()
                    == mechanical.query(query).strings())

    def test_estimator_is_deterministic(self, boethius_doc):
        engine = Engine(boethius_doc)
        stats = engine.plan_stats()
        query = DIFFERENTIAL_QUERIES[5]
        first = compile_query(query, stats=stats).explain()
        second = compile_query(query, stats=stats).explain()
        assert first == second
        assert "est=" in first


class TestJoinReversal:
    def test_skewed_chain_reverses(self):
        engine = Engine(skewed_document(2000))
        report = engine.explain("/descendant::w/xancestor::dmg")
        assert "cost: reversed join pair" in report
        assert "step descendant::dmg" in report

    def test_reversed_results_match_oracle(self):
        document = skewed_document(2000)
        costed = Engine(document)
        mechanical = Engine(document, use_cost=False)
        for query in ("/descendant::w/xancestor::dmg",
                      "/descendant::w/overlapping::dmg"):
            assert (costed.query(query).strings()
                    == mechanical.query(query).strings())


# ---------------------------------------------------------------------------
# misestimates + observability
# ---------------------------------------------------------------------------


class TestAdaptiveFallback:
    QUERY = "/descendant::w[xancestor::res][xfollowing::dmg]"

    def test_fallback_still_matches_oracle(self):
        document = adversarial_document()
        costed = Engine(document)
        mechanical = Engine(document, use_cost=False)
        assert (costed.query(self.QUERY).strings()
                == mechanical.query(self.QUERY).strings())


class TestObservability:
    def test_stats_carry_est_and_act(self, boethius_doc):
        engine = Engine(boethius_doc)
        result = engine.query("/descendant::w[xfollowing::res]")
        assert result.stats.est_rows is not None
        assert result.stats.act_rows == len(result.items)
        assert result.stats.op_actuals

    def test_explain_analyze_renders_est_and_act(self, boethius_doc):
        engine = Engine(boethius_doc)
        report = engine.explain("/descendant::w[xfollowing::res]",
                                analyze=True)
        assert "est=" in report and "act=" in report

    def test_plain_explain_has_no_actuals(self, boethius_doc):
        engine = Engine(boethius_doc)
        report = engine.explain("/descendant::w[xfollowing::res]")
        assert "est=" in report and "act=" not in report

    def test_mechanical_explain_is_unannotated(self, boethius_doc):
        report = compile_query("/descendant::w[xfollowing::res]").explain()
        assert "est=" not in report and "sel=" not in report


# ---------------------------------------------------------------------------
# the shared plan cache under statistics fingerprints
# ---------------------------------------------------------------------------


class TestPlanCacheFingerprints:
    def test_costed_and_mechanical_are_distinct_entries(self,
                                                        boethius_doc):
        cache = SharedPlanCache()
        engine = Engine(boethius_doc)
        query = "count(/descendant::w)"
        _mech, hit = cache.get(query, engine.options)
        assert hit is False
        costed, hit = cache.get(query, engine.options,
                                stats=engine.plan_stats())
        assert hit is False
        assert costed.costed is True
        _again, hit = cache.get(query, engine.options,
                                stats=engine.plan_stats())
        assert hit is True

    def test_identical_replicas_share_costed_plans(self, boethius_doc):
        cache = SharedPlanCache()
        first = Engine(boethius_doc)
        second = Engine(boethius_document_copy(boethius_doc))
        query = "count(/descendant::w)"
        cache.get(query, first.options, stats=first.plan_stats())
        _plan, hit = cache.get(query, second.options,
                               stats=second.plan_stats())
        assert hit is True


# ---------------------------------------------------------------------------
# decorrelated predicates: mask plans vs both oracles
# ---------------------------------------------------------------------------

Q_I1_PREDICATE = ('xdescendant::w[string(.) = "singallice"] or '
                  'overlapping::w[string(.) = "singallice"]')
Q_I2_PREDICATE = ("xdescendant::w[xancestor::dmg or xdescendant::dmg "
                  "or overlapping::dmg]")

#: every recognised predicate shape, as whole queries
MASK_QUERIES = (
    f"/descendant::line[{Q_I2_PREDICATE}]",
    # connectives over plain probes, no nested predicate
    "/descendant::w[xancestor::dmg or xdescendant::dmg]",
    "/descendant::w[xancestor::res and not(overlapping::dmg)]",
    # two levels deep
    "/descendant::line[xdescendant::w[xancestor::res"
    "[xdescendant::w[overlapping::line]]]]",
    # stacked inner predicates are a conjunction
    "/descendant::line[xdescendant::w[xancestor::dmg][overlapping::line]]",
    # beside a batched semi-join, in both orders
    f"/descendant::line[overlapping::w][{Q_I2_PREDICATE}]",
    f"/descendant::line[{Q_I2_PREDICATE}][overlapping::w]",
    # on an interval-join step
    "/descendant::line/xdescendant::w[xancestor::dmg or overlapping::dmg]",
    # a filter over a root-anchored path
    f"(/descendant::line)[{Q_I2_PREDICATE}]",
    # a filter re-entered from a loop
    f"for $l in /descendant::line return $l[{Q_I2_PREDICATE}]",
    # plain standard-axis probes: beside extended ones, as a column's
    # body, and on their own
    "/descendant::w[ancestor::line and not(xancestor::dmg)]",
    "/descendant::line[xdescendant::w[ancestor::res or self::w]]",
    "/descendant::line[descendant::w and not(descendant::res)]",
    # every axis, as the outer probe
    *(f"/descendant::line[{axis}::w[xancestor::dmg]]"
      for axis in ("xfollowing", "xpreceding", "preceding-overlapping",
                   "following-overlapping", "xancestor")),
)

#: shapes that must stay on the per-node path: ``(query, variables)``
FALLBACK_QUERIES = (
    ("/descendant::line[xdescendant::w[2]]", None),
    ("/descendant::line[xdescendant::w[position() = 1]]", None),
    ("/descendant::line[xdescendant::w[last()]]", None),
    ("/descendant::line[xdescendant::w[xancestor::dmg][1]]", None),
    ("/descendant::line[xdescendant::w[string(.) = $x]]",
     {"x": ["singallice"]}),
    ("/descendant::line[xdescendant::w[xancestor::dmg] or $x]",
     {"x": []}),
    ('/descendant::line[xdescendant::w[string(.) != "singallice"]]', None),
    # comparisons are not mask terms (yet): Q-I.1's predicate, and one
    # string comparison spoiling an otherwise recognised body
    (f"/descendant::line[{Q_I1_PREDICATE}]", None),
    ("/descendant::line[xdescendant::w[xancestor::dmg and "
     'string(.) = "singallice"]]', None),
    # a standard axis takes no witness subset: its reach includes the
    # empty elements a name column leaves out
    ("/descendant::line[descendant::w[xancestor::dmg]]", None),
    ("/descendant::w[ancestor::line[overlapping::w]]", None),
    ("/descendant::line[xdescendant::*[xancestor::dmg]]", None),
    # re-entered per item with no column to memoise
    ("for $l in /descendant::line "
     "return $l[xancestor::dmg or overlapping::dmg]", None),
)


def engines_over(document) -> tuple[Engine, Engine, TreeWalkEngine]:
    """``(costed, mechanical, tree-walking)`` engines over one shared
    KyGODDAG, so results compare by node identity."""
    goddag = KyGoddag.build(document)
    return (Engine.from_parts(goddag, document=document),
            Engine.from_parts(goddag, document=document, use_cost=False),
            TreeWalkEngine(goddag))


def assert_item_for_item(engines, query, variables=None) -> None:
    costed, *oracles = (engine.query(query, variables).items
                        for engine in engines)
    for oracle in oracles:
        assert len(costed) == len(oracle), query
        for got, want in zip(costed, oracle):
            if isinstance(want, GNode):
                assert got is want, query
            elif isinstance(want, dom.Node):  # constructed: by content
                assert serialize_item(got) == serialize_item(want), query
            else:
                assert got == want, query


def assert_same_outcome(engines, query, variables=None) -> None:
    """Item for item, or — when the query raises — the same error from
    every engine: a dynamic error is raised when, and only if, the
    erroring subexpression is reached."""
    errors = []
    for engine in engines:
        try:
            engine.query(query, variables)
        except ReproError as error:
            errors.append(f"{type(error).__name__}: {error}")
    if errors:
        assert len(errors) == len(engines), (query, errors)
        assert len(set(errors)) == 1, (query, errors)
    else:
        assert_item_for_item(engines, query, variables)


def reachable_from_closure(runner):
    """Everything a compiled runner holds on to: closure cells and
    defaults of the functions, members of containers, attributes of
    plan operators — not the modules the functions were defined in."""
    seen, queue = set(), [runner]
    while queue:
        held = queue.pop()
        if id(held) in seen:
            continue
        seen.add(id(held))
        yield held
        if callable(held) and hasattr(held, "__closure__"):
            queue.extend(cell.cell_contents
                         for cell in held.__closure__ or ())
            queue.extend(held.__defaults__ or ())
        elif isinstance(held, dict):
            queue.extend(held.values())
        elif isinstance(held, (list, tuple, set, frozenset)):
            queue.extend(held)
        elif isinstance(held, logical.Plan):
            queue.extend(vars(held).values())


#: the planner's bare ``[extended-axis::name]`` term, on every plan
BARE_PROBE = re.compile(r"\[mask [a-z-]+::[\w-]+\]")


def decorrelated(report: str) -> list[str]:
    """The lines of an explain report that show a mask the cost pass
    made: a decorrelated predicate or a lifted condition."""
    return [line for line in report.splitlines()
            if "mask " in line and not BARE_PROBE.search(line)]


def always_decorrelate():
    """Take the cost decision out of a differential run: every
    recognised predicate with something to batch gets its mask plan."""
    return mock.patch.object(cost, "DECORRELATION_MARGIN", 1e12)


@pytest.fixture(scope="module")
def boethius_engines():
    from repro.corpus.boethius import boethius_document

    return engines_over(boethius_document(validate=False))


@pytest.fixture(scope="module")
def skewed_engines():
    return engines_over(skewed_document())


class TestDecorrelatedPredicates:
    @pytest.mark.parametrize("query", MASK_QUERIES)
    def test_recognised_shapes_decorrelate(self, skewed_engines, query):
        report = skewed_engines[0].explain(query)
        assert "predicate [mask " in report, report
        assert "cost: decorrelated predicate" in report
        assert_item_for_item(skewed_engines, query)

    @pytest.mark.parametrize("query", MASK_QUERIES)
    def test_boethius(self, boethius_engines, query):
        with always_decorrelate():
            assert_item_for_item(boethius_engines, query)

    @pytest.mark.parametrize("query,variables", FALLBACK_QUERIES)
    def test_fallback_shapes_stay_per_node(self, skewed_engines, query,
                                           variables):
        with always_decorrelate():
            report = compile_query(
                query, stats=skewed_engines[0].plan_stats()).explain()
        assert not decorrelated(report), report
        assert_item_for_item(skewed_engines, query, variables)

    def test_few_candidates_stay_per_node(self, skewed_engines):
        # eight dmg candidates reaching a word or two each: a 400-row
        # w column would cost more than the dozen probes it replaces
        query = "/descendant::dmg[xdescendant::w[xancestor::res]]"
        report = skewed_engines[0].explain(query)
        assert not decorrelated(report) and "decorrelated" not in report
        with always_decorrelate():
            assert "predicate [mask " in compile_query(
                query, stats=skewed_engines[0].plan_stats()).explain()
        assert_item_for_item(skewed_engines, query)

    def test_collection_anchors_like_the_root(self, skewed_engines):
        # shard workers run corpus queries with collection() resolved
        # to their shard's root: a whole-batch step, not a re-entry
        query = f'collection("c")/descendant::line[{Q_I2_PREDICATE}]'
        compiled = compile_query(query,
                                 stats=skewed_engines[0].plan_stats())
        assert "predicate [mask " in compiled.explain()
        goddag = skewed_engines[0].goddag
        got = compiled.execute(goddag, functions={
            "collection": lambda frame, args: [frame.goddag.root]})
        want = skewed_engines[1].query(
            f"/descendant::line[{Q_I2_PREDICATE}]").items
        assert [id(n) for n in got] == [id(n) for n in want]

    def test_paper_queries_byte_identical(self, boethius_engines,
                                          skewed_engines):
        for engines in (boethius_engines, skewed_engines):
            for spec in PAPER_QUERIES:
                for query in filter(None, (spec.query,
                                           spec.amended_query)):
                    costed, *oracles = (engine.query(query).serialize()
                                        for engine in engines)
                    assert [costed] * 2 == oracles, spec.id

    def test_mechanical_plans_are_untouched(self, skewed_engines):
        for query in MASK_QUERIES:
            report = compile_query(query).explain()
            assert not decorrelated(report) and "act=" not in report

    # No nested predicate on the corpora: a per-node oracle pays the
    # nested step per candidate per context on the 2000-word corpus
    # (with one level of nesting a run took 1–80 s, with two more);
    # nesting stays drawn on the small documents below and spelled out
    # on the corpora above.  Unnested, twelve random seeds ran ≤ 1.6 s.
    @SETTINGS
    @given(tree=predicate_trees(depth=0),
           name=st.sampled_from(("line", "w", "dmg", "*")))
    def test_drawn_predicates_on_corpora(self, boethius_engines,
                                         skewed_engines, tree, name):
        for engines in (boethius_engines, skewed_engines):
            for query in (f"/descendant::{name}[{tree}]",
                          f"for $n in /descendant::{name} "
                          f"return $n[{tree}]"):
                assert_item_for_item(engines, query)
        # the root among the candidates: it tops every ancestor chain
        assert_item_for_item(boethius_engines,
                             f"/descendant-or-self::node()[{tree}]")

    @SETTINGS
    @given(document=multihierarchical_documents(),
           tree=predicate_trees(),
           name=st.sampled_from(ELEMENT_NAMES + ("*",)))
    def test_drawn_predicates_on_drawn_documents(self, document, tree,
                                                 name):
        engines = engines_over(document)
        with always_decorrelate():
            for query in (f"/descendant::{name}[{tree}]",
                          f"/descendant-or-self::node()[{tree}]",
                          f"/descendant::{name}/overlapping::*[{tree}]",
                          f"for $n in /descendant::{name} "
                          f"return $n[{tree}]"):
                assert_item_for_item(engines, query)


#: a bare probe in every position a predicate can stand: ``(label,
#: query, the query without the probe)``
PROBE_POSITIONS = (
    ("step", "/descendant::w[overlapping::line]", "/descendant::w"),
    ("join-step", "/descendant::line/xdescendant::w[overlapping::dmg]",
     "/descendant::line/xdescendant::w"),
    ("filter", "(/descendant::w)[overlapping::line]", "/descendant::w"),
    ("let-filter", "let $w := /descendant::w return $w[overlapping::line]",
     "let $w := /descendant::w return $w"),
)


class TestBareProbes:
    """``[extended-axis::name]`` is one batched existence probe wherever
    it stands, on costed and mechanical plans alike (DESIGN.md §11)."""

    @pytest.mark.parametrize("costed", (True, False),
                             ids=("costed", "mechanical"))
    @pytest.mark.parametrize("label,query,unprobed", PROBE_POSITIONS,
                             ids=[row[0] for row in PROBE_POSITIONS])
    def test_one_probe_wherever_it_stands(self, skewed_engines, costed,
                                          label, query, unprobed):
        engine = skewed_engines[0 if costed else 1]
        probe = query[query.rindex("[") + 1:-1]
        assert f"predicate [mask {probe}]" in engine.explain(query)
        result = engine.query(query)
        base = engine.query(unprobed).stats
        candidates = len(engine.query(unprobed).items)
        assert 0 < len(result.items) < candidates
        # one join step for the probe, no axis step per candidate
        assert result.stats.join_steps - base.join_steps == 1
        assert result.stats.axis_steps - base.axis_steps <= 1
        assert (result.serialize()
                == skewed_engines[2].query(query).serialize())


class TestStandardAxisProbes:
    """``ancestor::`` / ``descendant::`` / ``self::name`` as joins on
    the per-hierarchy preorder columns, from every kind of context:
    attributes climb through their owner, comments and PIs have a
    preorder like any hierarchy node, leaves take the containment
    stab, empty elements (in no name interval) are witnesses, and the
    root tops every chain."""

    @pytest.fixture(scope="class")
    def engines(self):
        return engines_over(MultihierarchicalDocument.from_xml(
            "abcdefgh", {
                "h0": '<r a="1"><line n="1"><w k="x">ab</w><!--c1-->'
                      '<w>cd</w><pb/></line><?pi data?><w id="q">ef</w>'
                      'gh</r>',
                "h1": '<r>a<dmg t="y">bc<w/></dmg>de<line><dmg>fg</dmg>'
                      '</line>h</r>',
            }))

    @pytest.mark.parametrize("query,kept", (
        ("/descendant::*/attribute::*[ancestor::w]", 2),
        ("/descendant::*/attribute::*[ancestor::line or self::w]", 2),
        ("/descendant::*/attribute::*[descendant::w]", 0),
        ("/descendant::comment()[ancestor::line]", 1),
        ("/descendant::processing-instruction()[ancestor::r]", 1),
        ("/descendant::node()[ancestor::line]", 14),
        ("/descendant::node()[descendant::pb]", 1),
        ("/descendant::node()[self::w and ancestor::dmg]", 1),
        ("/descendant-or-self::node()[descendant::w]", 3),
        ("/descendant-or-self::node()[ancestor::r]", 28),
        ("/descendant-or-self::node()[self::r]", 1),
        # the root has no ancestor, whatever names the hierarchies hold
        ("/descendant-or-self::node()[ancestor::w]", 9),
        ("/self::node()[ancestor::w or ancestor::r]", 0),
        ("/self::node()[descendant::w and not(ancestor::line)]", 1),
        ("/descendant::leaf()[ancestor::w and ancestor::dmg]", 3),
        ("/descendant::leaf()[descendant::w or self::w]", 0),
    ))
    def test_every_context_kind(self, engines, query, kept):
        assert "predicate [mask " in engines[0].explain(query)
        assert_item_for_item(engines, query)
        assert len(engines[0].query(query).items) == kept


#: the four string tests as ``(call with a {} for the subject, kept of
#: the six w of KINDS_DOCUMENT)``: ab, Cd, ef in h0, bC and two empty
#: ones in h1
VALUE_CALLS = (
    ('matches({}, "^[a-c]+$")', 1),
    ('matches({}, "^B", "i")', 1),
    ('matches({}, "b  c", "xi")', 1),
    ('contains({}, "d")', 1),
    ('contains({}, "")', 6),
    ('starts-with({}, "b")', 1),
    ('ends-with({}, "f")', 1),
)

#: one document with a candidate of every kind: elements (one empty,
#: one with an attribute), text nodes, leaves, attributes, a comment, a
#: PI and the root
KINDS_DOCUMENT = ("abCdefgh", {
    "h0": '<r a="1"><line n="1"><w k="x">ab</w><!--c1-->'
          '<w>Cd</w><pb/></line><?pi data?><w id="q">ef</w>gh</r>',
    "h1": '<r>a<dmg t="y"><w>bC</w><w/></dmg>de<line><dmg>fg</dmg>'
          '<w/></line>h</r>',
})

#: value terms among the other terms, as whole queries over
#: KINDS_DOCUMENT: ``(query, items kept)``
VALUE_QUERIES = (
    # under not(), and beside axis terms under both connectives
    ('/descendant::w[not(contains(., "b"))]', 4),
    ('/descendant::w[contains(., "b") and ancestor::line]', 1),
    ('/descendant::w[xancestor::dmg or ends-with(string(), "f")]', 2),
    ('/descendant::w[not(matches(., "^$") or overlapping::dmg)]', 1),
    # as the body of a subset column, alone and beside an axis term
    ('/descendant::line[xdescendant::w[matches(., "C")]]', 1),
    ('/descendant::dmg[overlapping::w[starts-with(string(.), "a")]]', 1),
    ('/descendant::*[xdescendant::w[contains(., "b")'
     ' and not(ancestor::dmg)]]', 1),
    ('/descendant::w[xancestor::line[contains(., "Cd")] '
     'or xfollowing::w[matches(string(), "^e")]]', 3),
    # every kind of candidate: attribute values, comment and PI data,
    # empty spans, the leaves, the root
    ('/descendant::*/attribute::*[matches(., "^[xy]$")]', 2),
    ('/descendant::*/attribute::*[starts-with(., "1")]', 1),
    ('/descendant::comment()[ends-with(., "1")]', 1),
    ('/descendant::processing-instruction()[contains(., "at")]', 1),
    ('/descendant::*[matches(., "^$")]', 3),
    ('/descendant::text()[contains(string(), "g")]', 2),
    ('/descendant::leaf()[matches(., "^[a-e]$")]', 4),
    ('/descendant-or-self::node()[starts-with(., "abCdefgh")]', 1),
    ('/descendant-or-self::node()[contains(., "bC")]', 5),
    ('/self::node()[ends-with(., "h") and descendant::w]', 1),
)

#: value-test shapes that are no mask term: ``(query, variables)``
UNMASKED_VALUE_QUERIES = (
    # the pattern, the needle or the flags are not constants
    ("/descendant::w[matches(., string(.))]", None),
    ("/descendant::w[contains(., $x)]", {"x": ["b"]}),
    ('/descendant::w[matches(., "b", $x)]', {"x": ["i"]}),
    ("/descendant::w[starts-with(., name(.))]", None),
    ('/descendant::w[matches(., ("a", "b"))]', None),
    ("/descendant::w[contains(., 1)]", None),
    # the subject is not the candidate's own string value
    ('/descendant::line[matches(string(child::w), "a")]', None),
    ('/descendant::line[contains(child::w, "a")]', None),
    ('/descendant::w[ends-with($x, "b")]', {"x": ["ab"]}),
    ('/descendant::w[contains(string(., .), "a")]', None),
    # wrong arity, the builtin's error to raise
    ('/descendant::w[contains(., "a", "i")]', None),
    ('/descendant::w[matches(.)]', None),
    ('/descendant::w[matches(., "a", "i", "x")]', None),
    ("/descendant::w[starts-with()]", None),
    # a pattern or a flag that does not compile: the error of the
    # first candidate that reaches the call — and of no other
    ('/descendant::w[matches(., "(")]', None),
    ('/descendant::w[matches(string(.), "a", "q")]', None),
    ('/descendant::nosuch[matches(., "(")]', None),
    ('/descendant::w[ancestor::r or matches(., "(")]', None),
    ('/descendant::w[xancestor::nosuch and matches(., "a", "q")]', None),
    ('/descendant::line[xdescendant::w[matches(., "*")]]', None),
    # ... which `sre` refuses with something other than `re.error`
    ('/descendant::w[matches(., "a{4294967296}")]', None),
    ('/descendant::nosuch[matches(., "a{4294967296}")]', None),
    # every comparison, a string one spoiling a recognised body
    ('/descendant::w[string(.) = "ab"]', None),
    ('/descendant::w[contains(., "a") and string(.) != "ab"]', None),
    ('/descendant::w[string-length(.) = 2]', None),
    # another function of the value
    ('/descendant::w[contains(upper-case(.), "A")]', None),
    ('/descendant::w[boolean(string(.))]', None),
    # re-entered per item with no column to memoise
    ('for $w in /descendant::w return $w[contains(., "a")]', None),
    ('("ab", "cd")[contains(., "a")]', None),
    ('(<a>ab</a>, <b>cd</b>)[starts-with(., "a")]', None),
)


class TestValueTerms:
    """String tests of the candidate's own value as mask terms: one
    pass over the candidates' string values per term, the same
    function — verdict for verdict, error for error — as the call
    evaluated per node."""

    @pytest.fixture(scope="class")
    def engines(self):
        return engines_over(
            MultihierarchicalDocument.from_xml(*KINDS_DOCUMENT))

    @pytest.mark.parametrize("subject", VALUE_SUBJECTS)
    @pytest.mark.parametrize("call,kept", VALUE_CALLS)
    def test_each_function_and_subject(self, engines, call, kept, subject):
        query = f"/descendant::w[{call.format(subject)}]"
        report = engines[0].explain(query)
        assert f"predicate [mask {call.format('string(.)')}]" in report
        assert_item_for_item(engines, query)
        assert len(engines[0].query(query).items) == kept

    @pytest.mark.parametrize("query,kept", VALUE_QUERIES)
    def test_among_other_terms(self, engines, query, kept):
        assert "predicate [mask " in engines[0].explain(query)
        assert_item_for_item(engines, query)
        assert len(engines[0].query(query).items) == kept

    @pytest.mark.parametrize("query,kept", VALUE_QUERIES)
    def test_on_the_corpus(self, skewed_engines, query, kept):
        with always_decorrelate():
            assert "predicate [mask " in skewed_engines[0].explain(query)
            assert_item_for_item(skewed_engines, query)

    def test_temporary_candidates(self, skewed_engines):
        # m elements of analyze-string temporaries, moving with every
        # call: as the rows of a subset column, and as the candidates
        # of a root-anchored scan (where the tree-walker, which binds
        # every tuple before it returns the first, sees all five
        # temporaries at once and is no oracle)
        head = ('for $w in (/descendant::w)[position() < 6] '
                'let $res := analyze-string($w, "[aeiou]+") return ')
        column = (head + "count($res/descendant::leaf()[xancestor::m"
                  '[contains(string(.), "e") and '
                  'xancestor::w[ends-with(., "e")]]])')
        scan = head + 'count(/descendant::m[matches(., "^[ae]")])'
        with always_decorrelate():
            for query, engines in ((column, skewed_engines),
                                   (scan, skewed_engines[:2])):
                assert "predicate [mask " in engines[0].explain(query)
                assert_item_for_item(engines, query)
                assert sum(engines[0].query(query).items) > 0

    def test_a_value_term_is_no_step(self, engines):
        scan = engines[0].query("/descendant::w").stats
        for query in ('/descendant::w[contains(., "b")]',
                      '/descendant::w[matches(., "b") or ends-with(., "f")]'):
            stats = engines[0].query(query).stats
            assert (stats.axis_steps, stats.batched_steps, stats.join_steps,
                    stats.ordered_steps) == (
                scan.axis_steps, scan.batched_steps, scan.join_steps,
                scan.ordered_steps)
        # inside a column the one subset probe counts, the test does not
        stats = engines[0].query(
            '/descendant::line[xdescendant::w[contains(., "b")]]').stats
        assert (stats.axis_steps, stats.join_steps) == (2, 1)

    def test_equal_terms_share_a_column(self, engines):
        # the three spellings of the subject are one term
        stats = engines[0].query(
            '/descendant::line[xdescendant::w[contains(., "b")] or '
            'overlapping::w[contains(string(), "b")]]').stats
        assert stats.join_steps == 2

    def test_a_value_only_mask_extracts_no_span_column(self, engines):
        from repro.core.goddag.joins import ColumnarNodeSet

        extracted = []
        original = ColumnarNodeSet.span_columns

        def counting(self):
            extracted.append(len(self))
            return original(self)

        # a plain candidate list, and a join's output that carries no
        # columns yet (one context: the per-node axis served it)
        queries = ('/descendant::w[contains(., "b") or matches(., "f")]',
                   '/xdescendant::w[ends-with(., "d")]')
        with mock.patch.object(ColumnarNodeSet, "span_columns", counting):
            for query in queries:
                assert "predicate [mask " in engines[0].explain(query)
                assert engines[0].query(query).items
            assert not extracted
            # the wrapper does see the extraction two axis terms share
            assert engines[0].query(
                '/descendant::w[contains(., "b") or xancestor::dmg'
                ' or overlapping::line]').items
        assert extracted

    @pytest.mark.parametrize("query,variables", UNMASKED_VALUE_QUERIES)
    def test_declined_shapes_stay_per_node(self, engines, query, variables):
        with always_decorrelate():
            report = compile_query(
                query, stats=engines[0].plan_stats()).explain()
        assert not decorrelated(report), report
        assert_same_outcome(engines, query, variables)

    def test_uncompilable_patterns_raise_only_when_reached(self, engines):
        costed = engines[0]
        for query in ('/descendant::w[matches(., "(")]',
                      '/descendant::w[matches(., "a{4294967296}")]',
                      '/descendant::w[matches(., "a", "q")]'):
            with pytest.raises(QueryEvaluationError, match="regular|flag"):
                costed.query(query)
        for pattern in ("(", "a{4294967296}"):
            assert costed.query(
                f'/descendant::nosuch[matches(., "{pattern}")]').items == []
        assert len(costed.query(
            '/descendant::w[ancestor::r or matches(., "(")]').items) == 6

    @pytest.mark.parametrize("name", (
        "matches", "contains", "starts-with", "ends-with", "string"))
    def test_overridden_builtins(self, engines, name):
        costed, mechanical, _walker = engines
        queries = [f'/descendant::w[{call.format("string(.)")}]'
                   for call, _kept in VALUE_CALLS]
        queries.append('/descendant::line[xdescendant::w'
                       '[contains(string(), "b") or matches(., "f")]]')
        override = ((lambda frame, args: ["bcf"]) if name == "string"
                    else (lambda frame, args: [args[0] == ["ab"]]))
        moved = 0
        for query in queries:
            compiled = costed.compile(query)
            assert "predicate [mask " in compiled.explain()
            got = compiled.execute(costed.goddag,
                                   functions={name: override})
            want = mechanical.compile(query).execute(
                mechanical.goddag, functions={name: override})
            assert [id(n) for n in got] == [id(n) for n in want], query
            moved += [id(n) for n in got] != [
                id(n) for n in costed.query(query).items]
        assert moved  # the override is seen, not masked away

    def test_non_node_candidates_fall_back(self, engines):
        # only a predicate with a column reaches items that are no
        # nodes; the per-node runner answers as it always did
        for query in (
                '("ab", "cd")[contains(., "a") and '
                'not(xdescendant::w[contains(., "b")])]',
                '(<a>ab</a>, <b>cd</b>)[starts-with(., "c") or '
                'xdescendant::w[contains(., "b")]]'):
            with always_decorrelate():
                assert "predicate [mask " in engines[0].explain(query)
                assert_same_outcome(engines, query)
        with always_decorrelate():
            query = ('("ab", "cd")[contains(., "a") or '
                     'contains(., "d") or xancestor::w[matches(., "b")]]')
            assert "predicate [mask " in engines[0].explain(query)
            assert engines[0].query(query).items == ["ab", "cd"]


class TestMaskFallbacksAtRunTime:
    """Cases the compiled mask plan hands back to the per-node runner
    while the query runs."""

    def test_overridden_not_function(self, skewed_engines):
        costed, mechanical, _legacy = skewed_engines
        query = "/descendant::w[not(overlapping::line) or xancestor::dmg]"
        compiled = costed.compile(query)
        assert "predicate [mask " in compiled.explain()
        functions = {"not": lambda context, args: [False]}
        got = compiled.execute(costed.goddag, functions=functions)
        want = mechanical.compile(query).execute(mechanical.goddag,
                                                 functions=functions)
        assert [id(n) for n in got] == [id(n) for n in want]
        assert 0 < len(got) < len(costed.query(query).items)

    def test_non_node_candidates_raise_as_before(self, skewed_engines):
        query = f"(1, 2)[{Q_I2_PREDICATE}]"
        with always_decorrelate():
            assert "predicate [mask " in skewed_engines[0].explain(query)
            messages = []
            for engine in skewed_engines:
                with pytest.raises(QueryEvaluationError) as raised:
                    engine.query(query)
                messages.append(str(raised.value))
        assert len(set(messages)) == 1

    def test_root_named_ancestor_subset(self):
        # elements carry the root's name: xancestor::r[P] has the root
        # as a witness, which no column row stands for
        document = MultihierarchicalDocument.from_xml("abcdef", {
            "h0": "<r><r><w>ab</w></r><w>cd</w>ef</r>",
            "h1": "<r>a<dmg>bc</dmg>def</r>",
        })
        engines = engines_over(document)
        query = "/descendant::w[xancestor::r[xdescendant::dmg]]"
        with always_decorrelate():
            assert not decorrelated(engines[0].explain(query))
            assert_item_for_item(engines, query)
            assert len(engines[0].query(query).items) == 2
            # compiled against another document's statistics, the guard
            # moves to run time
            elsewhere = MultihierarchicalDocument.from_xml("abcdef", {
                "h0": "<doc><r><w>ab</w></r><w>cd</w>ef</doc>",
                "h1": "<doc>a<dmg>bc</dmg>def</doc>",
            })
            foreign = compile_query(
                query, stats=Engine(elsewhere).plan_stats())
        assert "predicate [mask " in foreign.explain()
        got = foreign.execute(engines[0].goddag)
        assert [id(n) for n in got] == [
            id(n) for n in engines[1].query(query).items]


class TestMaskLifetime:
    def test_column_built_once_per_evaluation(self, skewed_engines):
        costed = skewed_engines[0]
        lines = len(costed.query("/descendant::line").items)
        query = ("for $l in /descendant::line "
                 "return $l[xdescendant::w[xancestor::dmg]]")
        assert "predicate [mask " in costed.explain(query)
        stats = costed.query(query).stats
        # one subset probe per entry, plus the one probe that built the
        # w column; the per-node path would make none
        assert stats.join_steps == lines + 1
        assert costed.query(query).stats.join_steps == lines + 1

    def test_equal_subpredicates_share_a_column(self, skewed_engines):
        # both operands probe the same w[xancestor::dmg] column: the
        # line scan, one probe building it, two subset probes
        query = ("/descendant::line[xdescendant::w[xancestor::dmg] or "
                 "overlapping::w[xancestor::dmg]]")
        stats = skewed_engines[0].query(query).stats
        assert stats.join_steps == 3 and stats.axis_steps == 4

    def test_temporary_hierarchies_move_the_epoch(self, skewed_engines):
        # each analyze-string call changes index membership between
        # two entries of the predicate: the m column must follow
        query = ('for $w in (/descendant::w)[position() < 6] '
                 'let $res := analyze-string($w, "[aeiou]") '
                 "return count($res/descendant::leaf()"
                 "[xancestor::m[xancestor::w[xancestor::line]]])")
        with always_decorrelate():
            assert "predicate [mask " in skewed_engines[0].explain(query)
            assert_item_for_item(skewed_engines, query)
        assert sum(skewed_engines[0].query(query).items) > 0

    @pytest.mark.parametrize("query", (
        f"/descendant::line[{Q_I2_PREDICATE}]",
        '/descendant::w[matches(string(.), ".*a.*")]',
        '/descendant::line[xdescendant::w[contains(., "a")]]',
    ))
    def test_compiled_plan_pins_no_goddag(self, query):
        document = skewed_document()
        engine = Engine(document)
        compiled = compile_query(query, stats=engine.plan_stats())
        assert "predicate [mask " in compiled.explain()
        assert compiled.execute(engine.goddag)
        # what an evaluation gathered died with its frame: no column, no
        # node and no list of string values hangs off the closure (a
        # compiled re.Pattern may — it holds no document)
        for held in reachable_from_closure(compiled._runner):
            assert not isinstance(held, (np.ndarray, GNode)), held
            assert not (isinstance(held, list) and len(held) > 8
                        and all(isinstance(v, str) for v in held)), held
        released = weakref.ref(engine.goddag)
        del engine, document
        gc.collect()
        assert released() is None
        assert compiled.explain()  # the plan itself is still alive


class TestMaskObservability:
    def test_analyze_shows_survivors(self, skewed_engines):
        costed = skewed_engines[0]
        query = f"/descendant::line[{Q_I2_PREDICATE}]"
        kept = len(costed.query(query).items)
        report = costed.explain(query, analyze=True)
        (line,) = [line for line in report.splitlines()
                   if "predicate [mask " in line]
        assert line.endswith(f"[act={kept}]")
        assert f"[mask {Q_I2_PREDICATE}]" in line
        # the masked inner steps are not plan operators any more
        assert "interval-join" not in report
        assert "act=" not in costed.explain(query)

    def test_probes_count_as_batched_join_steps(self, skewed_engines):
        stats = skewed_engines[0].query(
            f"/descendant::line[{Q_I2_PREDICATE}]").stats
        # the line scan, three inner terms over the w column, one
        # subset probe
        assert stats.axis_steps == 5 and stats.batched_steps == 5
        assert stats.join_steps == 4
        assert stats.est_rows is not None
        assert stats.act_rows == len(skewed_engines[0].query(
            f"/descendant::line[{Q_I2_PREDICATE}]").items)


class TestPerNodeHoleClosed:
    """ROADMAP item 4a: the deterministic stand-in for a wall-clock
    floor — operator counts at n=800, which repeat exactly."""

    @pytest.fixture(scope="class")
    def engine(self):
        return Engine(corpus_at_size(800))

    def test_q_i2_outer_predicate_makes_no_per_node_probe(self, engine):
        import repro.core.goddag.axes as axes
        import repro.core.plan.physical as physical

        calls = []
        original = axes.axis_exists_named

        def counting(*args, **kwargs):
            calls.append(args[1])
            return original(*args, **kwargs)

        # the name the plan operators imported and the one the kernels
        # would look up, as the perfbench census wraps them
        with mock.patch.object(axes, "axis_exists_named", counting), \
                mock.patch.object(physical, "axis_exists_named", counting):
            engine.query(f"/descendant::line[{Q_I2_PREDICATE}]")
            outer = len(calls)
            engine.query(PAPER_QUERIES[1].query)
        assert outer == 0 and not calls
        oracle = Engine(corpus_at_size(800), use_cost=False)
        with mock.patch.object(physical, "axis_exists_named", counting):
            oracle.query(PAPER_QUERIES[1].query)
        assert len(calls) > 1000  # the wrapper does see the old loop

    def test_q_i2_inner_flwor(self, engine):
        """ROADMAP item 1(b): the inner ``for $leaf in
        $l/descendant::leaf()`` runs once over all lines and its
        ``if ($leaf[ancestor::w and ancestor::dmg])`` is one mask."""
        query = PAPER_QUERIES[1].query
        report = engine.explain(query)
        assert "for $leaf [lifted over $l]" in report
        assert "cost: lifted for $leaf over $l" in report
        calls = []
        original = SpanIndex.has_containing_named

        def counting(self, name, start, end):
            calls.append(name)
            return original(self, name, start, end)

        with mock.patch.object(SpanIndex, "has_containing_named",
                               counting):
            result = engine.query(query)
            lifted = len(calls)
            oracle = Engine.from_parts(engine.goddag,
                                       document=engine.document,
                                       use_cost=False)
            oracle.query(query)
        assert lifted == 0
        assert len(calls) > 500  # one probe per leaf and name, before
        stats = result.stats
        lines = len(engine.query(
            f"/descendant::line[{Q_I2_PREDICATE}]").items)
        # the line scan and its mask (5), the one leaf batch, one probe
        # per name of the condition: nothing per line, nothing per leaf
        assert stats.axis_steps == 8 <= lines + 8
        assert stats.batched_steps / stats.axis_steps >= 0.9
        assert_item_for_item(
            (engine, oracle, TreeWalkEngine(engine.goddag)), query)
        assert engine.query(query).stats.axis_steps == 8  # and repeats

    def test_q_ii1_scan(self, engine):
        """ROADMAP item 1: the ``/descendant::w[matches(string(.), …)]``
        scan Q-II.1 and Q-III.1 open with is one pass over the ``w``
        column — the focus loop is never entered, ``matches`` is called
        for no word."""
        query = PAPER_QUERIES[2].query.replace("unawe", "un")
        scan = '/descendant::w[matches(string(.), ".*un.*")]'
        words = len(engine.query("/descendant::w").items)
        calls = []
        builtin_matches = functions._REGISTRY["matches"]
        compile_filter = masks.compile_filter

        def counting_matches(frame, args):
            calls.append("matches")
            return builtin_matches(frame, args)

        def counting_mask(op, per_node, **kwargs):
            def counted(frame, candidates):
                calls.append("per-node runner")
                return per_node(frame, candidates)

            return compile_filter(op, counted, **kwargs)

        # patched in the registry itself: passed as an override it
        # would trip the mask's guard and prove nothing
        with mock.patch.dict(functions._REGISTRY,
                             {"matches": counting_matches}), \
                mock.patch.object(masks, "compile_filter", counting_mask):
            compile_query(query, stats=engine.plan_stats()).execute(
                engine.goddag)
            masked = list(calls)
            compile_query(query).execute(engine.goddag)
        assert masked == []
        assert calls == ["matches"] * words  # one per w, before
        kept = len(engine.query(scan).items)
        assert 0 < kept < words
        (line,) = [line for line in
                   engine.explain(query, analyze=True).splitlines()
                   if "predicate [mask " in line]
        assert 'predicate [mask matches(string(.), ".*un.*")]' in line
        assert line.endswith(f"[act={kept}]")
        engines = (engine, Engine.from_parts(engine.goddag,
                                             document=engine.document,
                                             use_cost=False),
                   TreeWalkEngine(engine.goddag))
        assert_item_for_item(engines, scan)
        assert_item_for_item(engines, query)
        # a value term is no axis step: the counts are the loop's
        for text in (scan, query):
            costed, mechanical = (e.query(text).stats for e in engines[:2])
            assert (costed.axis_steps, costed.batched_steps,
                    costed.join_steps, costed.ordered_steps) == (
                mechanical.axis_steps, mechanical.batched_steps,
                mechanical.join_steps, mechanical.ordered_steps)


# ---------------------------------------------------------------------------
# lifted inner FLWORs vs both oracles
# ---------------------------------------------------------------------------

LEAF_CONDITION = "ancestor::w and ancestor::dmg"

#: every recognised shape, as whole queries
LIFTED_QUERIES = (
    # Q-I.2's body: the leaf slice, if ($y[P])
    "for $l in /descendant::line return (for $leaf in "
    f"$l/descendant::leaf() return if ($leaf[{LEAF_CONDITION}]) "
    "then <b>{$leaf}</b> else $leaf, <br/>)",
    # where $y[P]; stacked predicates conjoin
    "for $l in /descendant::line return for $leaf in "
    "$l/descendant::leaf() where $leaf[ancestor::w][ancestor::dmg] "
    "return string($leaf)",
    # both for clauses in one FLWOR
    "for $l in /descendant::line, $w in $l/xdescendant::w "
    "where $w[overlapping::dmg or xancestor::dmg] return $w",
    # the EBV path form, in an else-if chain (Q-III.1's body shape)
    "for $l in /descendant::line return for $leaf in "
    "$l/descendant::leaf() return if ($leaf/xancestor::dmg) then 2 "
    "else if ($leaf/ancestor::w) then 1 else 0",
    # per-binding steps: named, interval join, children
    "for $l in /descendant::line return for $w in $l/descendant::w "
    "return if ($w[xancestor::dmg]) then string($w) else ()",
    "for $d in /descendant::dmg return for $w in $d/xdescendant::w "
    "return if ($w[self::w and not(ancestor::line)]) then 1 else 0",
    "for $l in /descendant::line return for $n in $l/child::node() "
    "return if ($n/self::w) then <w>{string($n)}</w> else string($n)",
    # a condition with a column of its own
    "for $l in /descendant::line return for $w in $l/xdescendant::w "
    "where $w[xancestor::line[overlapping::w]] return $w",
    # nested three deep: the innermost lifts over the one above it,
    # whose clause runs (and is batched over) once per page
    "for $p in /descendant::page return for $l in $p/descendant::line "
    "return <l>{for $leaf in $l/descendant::leaf() "
    "where $leaf[ancestor::dmg] return $leaf}</l>",
    # the outer sequence repeats a binding and nests bindings
    "for $e in (/descendant::line, /descendant::line, /descendant::w) "
    "return for $leaf in $e/descendant::leaf() "
    "where $leaf[ancestor::dmg] return $leaf",
)

#: one line in all reaches the inner clause
SELECTIVE_OUTER_QUERY = (
    "for $l at $i in /descendant::line where $i = 3 return for $leaf "
    f"in $l/descendant::leaf() return if ($leaf[{LEAF_CONDITION}]) "
    "then 1 else 0")

#: shapes the pass must leave alone: ``(query, variables)``
UNLIFTED_QUERIES = (
    # a position variable on the inner clause
    ("for $l in /descendant::line return for $leaf at $p in "
     f"$l/descendant::leaf() return if ($leaf[{LEAF_CONDITION}]) "
     "then $p else 0", None),
    # the outer variable, or any variable, inside the condition
    ("for $l in /descendant::line return for $leaf in "
     "$l/descendant::leaf() return if ($leaf[ancestor::w or "
     "$l/self::line]) then 1 else 0", None),
    ("for $l in /descendant::line return for $leaf in "
     "$l/descendant::leaf() where $leaf[ancestor::w and $x] "
     "return $leaf", {"x": [1]}),
    # comparisons and positions are not mask terms
    ("for $l in /descendant::line return for $leaf in "
     '$l/descendant::leaf() where $leaf[string(.) = "a"] '
     "return $leaf", None),
    ("for $l in /descendant::line return for $leaf in "
     "$l/descendant::leaf() where $leaf[position() = 1] "
     "return $leaf", None),
    # order by, on either FLWOR
    ("for $l in /descendant::line return for $leaf in "
     "$l/descendant::leaf() order by string($leaf) "
     f"return if ($leaf[{LEAF_CONDITION}]) then 1 else 0", None),
    ("for $l in /descendant::line order by string($l) return "
     "for $leaf in $l/descendant::leaf() "
     f"where $leaf[{LEAF_CONDITION}] return $leaf", None),
    # the inner sequence starts from a let, or takes more than a step
    ("for $l in /descendant::line let $m := $l return for $leaf in "
     f"$m/descendant::leaf() where $leaf[{LEAF_CONDITION}] "
     "return $leaf", None),
    ("for $l in /descendant::line return for $leaf in "
     "$l/xdescendant::w/descendant::leaf() "
     f"where $leaf[{LEAF_CONDITION}] return $leaf", None),
    # a predicated, a hierarchy-restricted or a non-downward step
    ("for $l in /descendant::line return for $w in "
     "$l/xdescendant::w[1] where $w[xancestor::dmg] return $w", None),
    ("for $l in /descendant::line return for $t in "
     "$l/descendant::text('structural') where $t[xancestor::dmg] "
     "return $t", None),
    ("for $l in /descendant::line return for $leaf in "
     f"$l/following::leaf() where $leaf[{LEAF_CONDITION}] "
     "return 1", None),
    # analyze-string in the outer body: the leaves move under the loop
    ('for $w in /descendant::w let $res := analyze-string($w, "a") '
     "return for $leaf in $w/descendant::leaf() "
     "where $leaf[xancestor::m] return string($leaf)", None),
    ("for $w in /descendant::w return for $leaf in "
     "$w/descendant::leaf() return if ($leaf[ancestor::dmg]) "
     'then analyze-string($leaf, "a") else ()', None),
    # a quantifier binds like a let: no clause to batch over
    ("some $l in /descendant::line satisfies (for $leaf in "
     f"$l/descendant::leaf() where $leaf[{LEAF_CONDITION}] "
     "return $leaf)", None),
    # a selective outer loop: not every binding reaches the inner
    # clause, and a batch would pay for those that do not
    (SELECTIVE_OUTER_QUERY, None),
    ("for $l in /descendant::line return if ($l/xdescendant::dmg) then "
     "(for $leaf in $l/descendant::leaf() "
     f"where $leaf[{LEAF_CONDITION}] return $leaf) else ()", None),
    ("for $l in /descendant::line, $d in $l/xdescendant::dmg, $leaf in "
     f"$l/descendant::leaf() where $leaf[{LEAF_CONDITION}] "
     "return $leaf", None),
    ("for $l in /descendant::line return $l/self::line[for $leaf in "
     f"$l/descendant::leaf() where $leaf[{LEAF_CONDITION}] "
     "return $leaf]", None),
    # no condition over the variable at all
    ("for $l in /descendant::line return for $leaf in "
     "$l/descendant::leaf() return string($leaf)", None),
)


class TestLiftedInnerFlwors:
    @pytest.mark.parametrize("query", LIFTED_QUERIES)
    def test_recognised_shapes_lift(self, skewed_engines, query):
        report = skewed_engines[0].explain(query)
        assert " [lifted over $" in report, report
        assert "condition [lifted $" in report, report
        assert "cost: lifted for $" in report
        assert_item_for_item(skewed_engines, query)

    @pytest.mark.parametrize("query", LIFTED_QUERIES)
    def test_boethius(self, boethius_engines, query):
        assert_item_for_item(boethius_engines, query)

    @pytest.mark.parametrize("query,variables", UNLIFTED_QUERIES)
    def test_fallback_shapes_stay_per_binding(self, skewed_engines,
                                              query, variables):
        report = skewed_engines[0].explain(query)
        assert "lifted" not in report, report
        assert_same_outcome(skewed_engines, query, variables)

    def test_mechanical_plans_are_untouched(self, skewed_engines):
        for query in LIFTED_QUERIES:
            assert "lifted" not in compile_query(query).explain()

    def test_only_the_qualifying_condition_lifts(self, skewed_engines):
        # the where is a mask, the if compares: one lifted condition,
        # the clause still batches
        query = ("for $l in /descendant::line return for $leaf in "
                 "$l/descendant::leaf() where $leaf[ancestor::dmg] "
                 'return if ($leaf[string(.) = "a"]) then 1 else 0')
        report = skewed_engines[0].explain(query)
        assert report.count("condition [lifted $leaf") == 1
        assert "for $leaf [lifted over $l]" in report
        assert_item_for_item(skewed_engines, query)

    def test_a_filtered_middle_loop_lifts_but_feeds_nothing(
            self, skewed_engines):
        # $l lifts over $p with its where as the mask; the lines that
        # fail it never reach $leaf, so that clause stays per binding
        query = ("for $p in /descendant::page return for $l in "
                 "$p/descendant::line where $l[overlapping::w] return "
                 "for $leaf in $l/descendant::leaf() "
                 "where $leaf[ancestor::dmg] return $leaf")
        report = skewed_engines[0].explain(query)
        assert "for $l [lifted over $p]" in report
        assert report.count("[lifted over") == 1
        assert_item_for_item(skewed_engines, query)

    def test_a_selective_outer_loop_costs_no_more_steps(
            self, skewed_engines):
        """One binding in all reaches the inner clause: the costed
        plan takes the steps the mechanical one takes, not a batch
        over every line."""
        costed, mechanical, _treewalk = skewed_engines
        got = costed.query(SELECTIVE_OUTER_QUERY)
        want = mechanical.query(SELECTIVE_OUTER_QUERY)
        assert got.items == want.items and got.items
        assert got.stats.axis_steps <= want.stats.axis_steps

    def test_a_rebound_variable_ends_the_conditions(self, skewed_engines):
        query = ("for $l in /descendant::line return for $leaf in "
                 "$l/descendant::leaf() let $leaf := $l "
                 "where $leaf[overlapping::w] return $leaf")
        assert "lifted" not in skewed_engines[0].explain(query)
        assert_item_for_item(skewed_engines, query)

    def test_errors_keep_their_timing(self, skewed_engines):
        # the branch raises for the first damaged leaf reached, and
        # only if one is reached
        for condition, raises in ((LEAF_CONDITION, True),
                                  ("ancestor::nosuch", False)):
            query = ("for $l in /descendant::line return for $leaf in "
                     f"$l/descendant::leaf() return if "
                     f"($leaf[{condition}]) then 1 idiv 0 else $leaf")
            assert "[lifted over $l]" in skewed_engines[0].explain(query)
            if raises:
                with pytest.raises(QueryEvaluationError):
                    skewed_engines[0].query(query)
            assert_same_outcome(skewed_engines, query)

    def test_non_node_bindings_raise_as_before(self, skewed_engines):
        query = ("for $l in (/descendant::line, 7) return for $leaf in "
                 f"$l/descendant::leaf() where $leaf[{LEAF_CONDITION}] "
                 "return $leaf")
        assert "[lifted over $l]" in skewed_engines[0].explain(query)
        with pytest.raises(QueryEvaluationError):
            skewed_engines[0].query(query)
        assert_same_outcome(skewed_engines, query)

    def test_overridden_not_function(self, skewed_engines):
        costed, mechanical, _walker = skewed_engines
        query = ("for $l in /descendant::line return for $leaf in "
                 "$l/descendant::leaf() "
                 "where $leaf[not(ancestor::dmg)] return $leaf")
        compiled = costed.compile(query)
        assert "[lifted over $l]" in compiled.explain()
        functions = {"not": lambda context, args: [False]}
        got = compiled.execute(costed.goddag, functions=functions)
        want = mechanical.compile(query).execute(mechanical.goddag,
                                                 functions=functions)
        assert got == want == []
        assert costed.query(query).items

    @pytest.fixture(scope="class")
    def small_engines(self):
        # the tree-walker runs a drawn following:: step per binding in
        # quadratic time: a hundred words keep thirty draws in seconds
        return engines_over(skewed_document(100))

    @SETTINGS
    @given(query=nested_flwor_conditionals())
    def test_drawn_conditionals_on_corpora(self, boethius_engines,
                                           small_engines, query):
        for engines in (boethius_engines, small_engines):
            assert_same_outcome(engines, query)

    @SETTINGS
    @given(document=multihierarchical_documents(),
           query=nested_flwor_conditionals())
    def test_drawn_conditionals_on_drawn_documents(self, document,
                                                   query):
        assert_same_outcome(engines_over(document), query)


class TestLiftObservability:
    QUERY = LIFTED_QUERIES[0]

    def test_analyze_shows_the_tuples_served(self, skewed_engines):
        costed = skewed_engines[0]
        leaves = len(costed.query(
            "for $l in /descendant::line "
            "return $l/descendant::leaf()").items)
        report = costed.explain(self.QUERY, analyze=True)
        (line,) = [line for line in report.splitlines()
                   if "[lifted over" in line]
        assert line.strip() == f"for $leaf [lifted over $l] [act={leaves}]"
        assert f"act={leaves}]" in report.split("[lifted over")[1]
        assert "act=" not in costed.explain(self.QUERY)

    def test_counts_are_per_batch(self, skewed_engines):
        stats = skewed_engines[0].query(self.QUERY).stats
        # the line scan, the leaf batch, one probe per condition name
        assert stats.axis_steps == 4 and stats.batched_steps == 4
        assert stats.join_steps == 2


class TestLiftLifetime:
    QUERY = LIFTED_QUERIES[0]

    @pytest.fixture()
    def states(self):
        """Weak references to every lifted state an evaluation makes."""
        made = []

        class Watched(lift._Lifted):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                made.append(weakref.ref(self))

        with mock.patch.object(lift, "_Lifted", Watched):
            yield made

    def test_state_dies_with_the_evaluation(self, skewed_engines,
                                            states):
        costed = skewed_engines[0]
        compiled = costed.compile(self.QUERY)
        assert compiled.execute(costed.goddag)
        assert len(states) == 1
        gc.collect()
        assert states[0]() is None
        # neither the closure nor the module kept anything: a second
        # run batches again
        assert compiled.execute(costed.goddag)
        assert len(states) == 2

    def test_one_batch_per_execution_of_the_outer_clause(
            self, skewed_engines, states):
        query = ("for $p in (1, 2, 3) return for $l in /descendant::line "
                 "return for $leaf in $l/descendant::leaf() "
                 f"where $leaf[{LEAF_CONDITION}] return $leaf")
        assert_item_for_item(skewed_engines, query)
        assert len(states) == 3

    def test_state_never_crosses_an_analyze_string_epoch(
            self, skewed_engines, states):
        # the lifted pair is pure, the loop around it is not: every
        # temporary re-cuts the leaves and adds m elements, and each
        # execution of the line loop batches under the epoch it is in
        query = ('for $w in (/descendant::w)[position() < 4] '
                 'let $res := analyze-string($w, "[aeiou]") '
                 "return count(for $l in /descendant::line return "
                 "for $leaf in $l/descendant::leaf() "
                 "where $leaf[ancestor::m] return $leaf)")
        assert "[lifted over $l]" in skewed_engines[0].explain(query)
        # the tree-walker binds every tuple — all three temporaries —
        # before it returns the first: not an oracle for this order
        assert_item_for_item(skewed_engines[:2], query)
        counts = skewed_engines[0].query(query).items
        assert counts == sorted(counts) and counts[0] < counts[-1]
        live = [state() for state in states if state() is not None]
        assert not live

    def test_a_moved_document_drops_the_batch(self, skewed_engines,
                                              states):
        # count() is on the purity whitelist; an override that is not
        # pure moves the epoch between two bindings, and the clause
        # goes back to its per-binding path instead of serving leaves
        # cut before the temporary existed.  The plan calls no
        # analyze-string, so it asks for no shell: the caller hands the
        # evaluation one for the override's temporaries.
        costed, mechanical, _walker = skewed_engines
        query = ("for $l in /descendant::line return (count($l), "
                 "for $leaf in $l/descendant::leaf() "
                 "where $leaf[ancestor::m] return string($leaf))")
        builtin = default_registry()

        def run(engine):
            calls = []

            def count(frame, args):
                calls.append(args)
                if len(calls) == 2:
                    builtin["analyze-string"](
                        frame, [[frame.goddag.root], ["[aeiou]"]])
                return builtin["count"](frame, args)

            compiled = engine.compile(query)
            return compiled, compiled.execute(
                engine.goddag.shell(), functions={"count": count})

        compiled, got = run(costed)
        assert "[lifted over $l]" in compiled.explain()
        _compiled, want = run(mechanical)
        assert got == want
        assert any(isinstance(item, str) for item in got)
        assert len(states) == 1

    def test_a_document_moved_mid_loop_drops_the_verdicts(
            self, skewed_engines, states):
        # the same override inside a branch of the inner loop: the
        # leaves still ahead in that loop are decided as written, not
        # from verdicts taken before any m existed (the m elements
        # span whole words, so the leaves cut before them sit inside);
        # on a shell the caller hands over, as above
        costed, mechanical, _walker = skewed_engines
        query = ("for $l in /descendant::line return for $leaf in "
                 "$l/descendant::leaf() return if ($leaf[ancestor::m]) "
                 "then string($leaf) else count($leaf)")
        builtin = default_registry()

        def run(engine):
            calls = []

            def count(frame, args):
                calls.append(args)
                if len(calls) == 2:
                    builtin["analyze-string"](
                        frame, [[frame.goddag.root], [r"\S+"]])
                return builtin["count"](frame, args)

            compiled = engine.compile(query)
            return compiled, compiled.execute(
                engine.goddag.shell(), functions={"count": count})

        compiled, got = run(costed)
        assert "condition [lifted $leaf" in compiled.explain()
        _compiled, want = run(mechanical)
        assert got == want
        assert got[:2] == [1, 1]
        assert any(isinstance(item, str) for item in got)
        assert len(states) == 1

    def test_a_plain_plan_makes_no_temporary(self, skewed_engines):
        # without a shell, the same override cannot write the
        # structure every other evaluation reads
        costed = skewed_engines[0]
        builtin = default_registry()

        def count(frame, args):
            builtin["analyze-string"](frame, [[frame.goddag.root], ["a"]])
            return builtin["count"](frame, args)

        names = costed.goddag.hierarchy_names
        with pytest.raises(GoddagError, match="shell"):
            costed.compile("count(/descendant::line)").execute(
                costed.goddag, functions={"count": count})
        assert costed.goddag.hierarchy_names == names

    def test_compiled_plan_pins_no_goddag(self):
        document = skewed_document()
        engine = Engine(document)
        compiled = compile_query(self.QUERY, stats=engine.plan_stats())
        assert "[lifted over $l]" in compiled.explain()
        assert compiled.execute(engine.goddag)
        released = weakref.ref(engine.goddag)
        del engine, document
        gc.collect()
        assert released() is None
        assert compiled.explain()


class TestOrderedFlwors:
    """``order by`` is the last stage of the one FLWOR chain: its
    ``for``/``let``/``where`` run tuple by tuple, the keys and the
    return after the stream, as written for every tuple."""

    HOISTED = ("for $x in (3, 1, 2) let $c := count(/descendant::w) "
               "order by $x return $c + $x")

    def test_an_invariant_let_runs_once(self, boethius_engines):
        costed = boethius_engines[0]
        assert "hoist-invariant: let $c" in costed.explain(self.HOISTED)
        result = costed.query(self.HOISTED)
        assert result.items == [7, 8, 9]
        assert result.stats.axis_steps == 1
        assert_item_for_item(boethius_engines, self.HOISTED)

    @SETTINGS
    @given(query=ordered_flwors())
    def test_drawn_on_boethius(self, boethius_engines, query):
        assert_same_outcome(boethius_engines, query)

    @SETTINGS
    @given(document=multihierarchical_documents(), query=ordered_flwors())
    def test_drawn_on_drawn_documents(self, document, query):
        assert_same_outcome(engines_over(document), query)
