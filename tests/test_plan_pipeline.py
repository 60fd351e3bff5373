"""Differential tests: the compiled pipeline vs. the reference evaluator.

The tree-walking evaluator (``tests/treewalk.py``) is the oracle: for every query the
pipeline must produce an *item-for-item identical* sequence — same
length, same node identities for persistent KyGODDAG nodes, same spans
for (re-canonicalized) leaves, same serialization for snapshotted and
atomic items.  The query pool covers every axis family, the ordering
quirks (reverse axes, positional predicates, expression steps), FLWOR
with order-by, constructors and the analyze-string lifecycle; the
hypothesis test runs a rotating sample against random corpora.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Engine
from repro.core.goddag import GLeaf, GNode, KyGoddag
from repro.core.plan import compile_query
from repro.core.runtime import QueryStats
from repro.core.runtime.serializer import serialize_item
from repro.corpus.boethius import boethius_document
from repro.corpus.generator import GeneratorConfig, generate_document
from repro.experiments.paperdata import PAPER_QUERIES

from tests.strategies import multihierarchical_documents
from tests.treewalk import evaluate_query

#: Queries exercising every pipeline code path against the oracle.
WORKLOAD_QUERIES = [
    "/descendant::w/ancestor::line",
    "(/descendant::w)[3]/ancestor::*",
    "(/descendant::w)[3]/ancestor-or-self::node()",
    "(/descendant::leaf())[2]/parent::node()",
    "(/descendant::w)[5]/preceding::w",
    "(/descendant::w)[5]/preceding::w[2]",
    "(/descendant::w)[5]/preceding-sibling::node()[1]",
    "(/descendant::w)[4]/following::node()[3]",
    "(/descendant::w)[4]/following::seg",
    "(/descendant::w)[4]/preceding::seg",
    "//w",
    "//w[1]",
    "//line/w",
    "/descendant::*/self::w",
    "/descendant::*[self::w]",
    "//dmg/xancestor::w",
    "(/descendant::dmg)[1]/xancestor::node()",
    "/descendant::line[overlapping::w]",
    "/descendant::line[xdescendant::w[string(.) = 'zzz'] or overlapping::w]",
    "/descendant::leaf()[ancestor::w and ancestor::dmg]",
    "/descendant::leaf()[ancestor::r]",
    "/descendant::w[xancestor::dmg or xdescendant::dmg or overlapping::dmg]",
    "/descendant::w[xfollowing::dmg]",
    "/descendant::w[xpreceding::dmg]",
    "/descendant::w[preceding-overlapping::dmg]",
    "/descendant::w[following-overlapping::dmg]",
    "/descendant::w[matches(string(.), '.*a.*')]",
    "/descendant::w[string(.) != 'zzz']",
    "/descendant::w['zzz' = string(.)]",
    "for $w in /descendant::w return string($w)",
    "for $w at $i in /descendant::w[position() < 5] return $i",
    "for $l in /descendant::line let $c := count(/descendant::dmg) return $c",
    "for $x in (1,2,3) for $y in (4,5) return $x * $y",
    "for $w in //w order by string($w) descending return string($w)",
    "for $w in //w where string-length(string($w)) > 4 "
    "order by string($w) return name($w)",
    "some $w in /descendant::w satisfies string($w) = 'xyzzy'",
    "every $w in /descendant::w satisfies string-length(string($w)) > 0",
    "/descendant::w | /descendant::dmg",
    "(/descendant::w intersect /descendant::*) | (//dmg except //w)",
    "if (count(//w) > 3) then 'many' else 'few'",
    "if (//dmg) then 'd' else 'n'",
    "(1 to 5)[. mod 2 = 1]",
    "/descendant::w/string(.)",
    "//line/node()",
    "//line/text()",
    "//*('physical')",
    "//node('structural')",
    "count(//leaf())",
    # unpredicated leaf sibling steps under order-insensitive consumers:
    # a leaf's sibling groups repeat per hierarchy, so the unordered
    # (``ordered=False``) fast path must still deduplicate (regression,
    # ISSUE 2 review)
    "count((/descendant::leaf())[2]/preceding-sibling::node())",
    "count((/descendant::leaf())[2]/following-sibling::node())",
    "sum((1e16, 1, -1e16))",
    "/descendant::w[last()]",
    "(//w)[2.0]",
    "(//w)[2.5]",
    "<out n='{count(//w)}'>{//w[1]}</out>",
    "analyze-string(/, 'a')",
    "for $w in (//w)[position() < 3] return "
    "(let $r := analyze-string($w, '.') return count($r/descendant::m))",
    "for $w in (//w)[position() < 3] return "
    "(let $r := analyze-string($w, '.') return count($r/xdescendant::m))",
    "reverse(//w/string(.))",
    "distinct-values(//w/string(.))",
]


def items_equal(left, right) -> bool:
    """Item-for-item equality against the oracle.

    Persistent KyGODDAG nodes must be the *same objects*.  Leaves are
    compared by span: a leaf split and re-coalesced by a temporary
    hierarchy is re-canonicalized as a fresh object (even two legacy
    runs differ there).  Everything else — snapshotted temp content,
    constructed nodes, atomics — compares by serialization.
    """
    if isinstance(left, GLeaf) and isinstance(right, GLeaf):
        return (left.start, left.end) == (right.start, right.end)
    if isinstance(left, GNode) or isinstance(right, GNode):
        return left is right
    return serialize_item(left) == serialize_item(right)


def assert_pipeline_matches_oracle(goddag: KyGoddag, query: str) -> None:
    try:
        expected = evaluate_query(goddag, query)
        oracle_error = None
    except Exception as error:  # noqa: BLE001 - error parity check
        expected, oracle_error = None, error
    try:
        actual = compile_query(query).execute(goddag)
        pipeline_error = None
    except Exception as error:  # noqa: BLE001
        actual, pipeline_error = None, error
    if oracle_error is not None or pipeline_error is not None:
        assert (oracle_error is None) == (pipeline_error is None), (
            f"error mismatch for {query!r}: oracle={oracle_error!r} "
            f"pipeline={pipeline_error!r}")
        return
    assert len(actual) == len(expected), (
        f"length mismatch for {query!r}: {len(expected)} vs {len(actual)}")
    for position, (want, got) in enumerate(zip(expected, actual)):
        assert items_equal(want, got), (
            f"item {position} differs for {query!r}: "
            f"{serialize_item(want)!r} vs {serialize_item(got)!r}")


@pytest.fixture(scope="module")
def corpus_goddag() -> KyGoddag:
    config = GeneratorConfig(n_words=150, seed=7, hyphenation_rate=0.35,
                             damage_rate=0.1, restoration_rate=0.1,
                             boundary_cross_rate=0.5)
    return KyGoddag.build(generate_document(config))


@pytest.fixture(scope="module")
def boethius_goddag() -> KyGoddag:
    return KyGoddag.build(boethius_document(validate=False))


class TestDifferentialWorkload:
    @pytest.mark.parametrize("query", WORKLOAD_QUERIES)
    def test_corpus(self, corpus_goddag, query):
        assert_pipeline_matches_oracle(corpus_goddag, query)

    @pytest.mark.parametrize(
        "query",
        [spec.query for spec in PAPER_QUERIES]
        + [spec.amended_query for spec in PAPER_QUERIES
           if spec.amended_query],
        ids=[spec.id for spec in PAPER_QUERIES]
        + [spec.id + "-amended" for spec in PAPER_QUERIES
           if spec.amended_query])
    def test_paper_queries_on_boethius(self, boethius_goddag, query):
        assert_pipeline_matches_oracle(boethius_goddag, query)

    @pytest.mark.parametrize(
        "query", [spec.query for spec in PAPER_QUERIES],
        ids=[spec.id for spec in PAPER_QUERIES])
    def test_paper_queries_on_corpus(self, corpus_goddag, query):
        assert_pipeline_matches_oracle(corpus_goddag, query)


@settings(max_examples=25, deadline=None)
@given(document=multihierarchical_documents(),
       index=st.integers(min_value=0, max_value=len(WORKLOAD_QUERIES) - 1),
       offset=st.integers(min_value=0, max_value=6))
def test_differential_random_documents(document, index, offset):
    """Rotating query sample over hypothesis-generated corpora."""
    goddag = KyGoddag.build(document)
    for step in range(3):
        query = WORKLOAD_QUERIES[
            (index + step * (offset + 1)) % len(WORKLOAD_QUERIES)]
        assert_pipeline_matches_oracle(goddag, query)


# ---------------------------------------------------------------------------
# post-mutation differential pack (ISSUE 3)
# ---------------------------------------------------------------------------

#: Applied in order to the generated corpus before re-running the whole
#: workload: together they exercise every apply path (in-place rename,
#: single-hierarchy re-registration, full text rebuild).
POST_MUTATION_STATEMENTS = [
    "rename node (/descendant::w)[2] as 'word'",
    "add markup mark to 'damage' covering (/descendant::w)[4]",
    "insert node <w>addendum</w> after (/descendant::w)[1]",
    "replace value of node (/descendant::w)[3] with 'mended'",
    "remove markup (/descendant::mark)[1]",
    "delete node (/descendant::w)[5]",
]


@pytest.fixture(scope="module")
def mutated_engine() -> Engine:
    """An engine whose plan cache was warmed *before* the mutations.

    Every workload query compiles pre-mutation, so the re-query pass
    below pins that compiled-plan caches are keyed by document version
    and never serve pre-mutation state (the stale-plan regression).
    """
    config = GeneratorConfig(n_words=120, seed=7, hyphenation_rate=0.35,
                             damage_rate=0.1, restoration_rate=0.1,
                             boundary_cross_rate=0.5)
    engine = Engine(generate_document(config))
    engine.goddag.span_index()
    for query in WORKLOAD_QUERIES:
        try:
            engine.compile(query)
        except Exception:  # noqa: BLE001 - some queries only error at runtime
            pass
    for statement in POST_MUTATION_STATEMENTS:
        engine.update(statement, check=True)
    return engine


class TestPostMutationDifferential:
    """query → update → re-query: the full workload after mutations."""

    @pytest.mark.parametrize("query", WORKLOAD_QUERIES)
    def test_workload_after_mutations(self, mutated_engine, query):
        assert_pipeline_matches_oracle(mutated_engine.goddag, query)

    @pytest.mark.parametrize(
        "query", [spec.query for spec in PAPER_QUERIES],
        ids=[spec.id for spec in PAPER_QUERIES])
    def test_paper_queries_after_mutations(self, mutated_engine, query):
        assert_pipeline_matches_oracle(mutated_engine.goddag, query)

    def test_mutations_visible_through_cached_plans(self, mutated_engine):
        assert mutated_engine.query("count(//word)").items == [1]
        assert mutated_engine.query(
            "count(//w[string(.) = 'mended'])").items == [1]
        assert mutated_engine.query(
            "count(//w[string(.) = 'addendum'])").items == [1]
        assert mutated_engine.query("count(//mark)").items == [0]

    def test_mutated_engine_matches_full_rebuild(self, mutated_engine):
        rebuilt = Engine(_reserialized_document(mutated_engine.document))
        for query in ("count(/descendant::*)", "count(//leaf())",
                      "/descendant::*/string(.)"):
            assert mutated_engine.query(query).strings() == \
                rebuilt.query(query).strings()


def _reserialized_document(document):
    """Round-trip the mutated document through its serialized form."""
    from repro.cmh import MultihierarchicalDocument

    return MultihierarchicalDocument.from_xml(
        document.text,
        {name: hierarchy.to_xml()
         for name, hierarchy in document.hierarchies.items()})


# ---------------------------------------------------------------------------
# explain() golden snapshots
# ---------------------------------------------------------------------------


EXPLAIN_GOLDENS = {
    "1 + 2 * 3": (
        "query: 1 + 2 * 3\n"
        "rewrites:\n"
        "  - constant-folding: 2 * 3 -> 6\n"
        "  - constant-folding: 1 + 6 -> 7\n"
        "plan:\n"
        "  const (7)"
    ),
    "//w": (
        "query: //w\n"
        "rewrites:\n"
        "  - anchor-normalization: // -> /descendant-or-self::node()/\n"
        "  - step-fusion: descendant-or-self::node()/child::T -> "
        "descendant::T\n"
        "plan:\n"
        "  path anchor=root\n"
        "    step descendant::w [skip-leaves]"
    ),
    '/descendant::line[xdescendant::w[string(.) = "singallice"]]': (
        'query: /descendant::line[xdescendant::w[string(.) = '
        '"singallice"]]\n'
        "rewrites:\n"
        "  - join-lowering: xdescendant:: step lowered to a "
        "set-at-a-time containment join\n"
        "plan:\n"
        "  path anchor=root\n"
        "    step descendant::line [skip-leaves]\n"
        "      predicate [boolean]\n"
        "        path anchor=relative [unordered-result]\n"
        "          interval-join xdescendant::w [kernel=containment, "
        "skip-leaves, unordered]\n"
        "            predicate [boolean]\n"
        "              compare general '='\n"
        "                call string()\n"
        "                  context-item\n"
        "                const ('singallice')"
    ),
    "/descendant::line[overlapping::w]": (
        "query: /descendant::line[overlapping::w]\n"
        "rewrites:\n"
        "  - join-lowering: overlapping:: step lowered to a "
        "set-at-a-time stab join\n"
        "  - join-lowering: [overlapping::w] predicate batched as a "
        "semi-join existence probe\n"
        "plan:\n"
        "  path anchor=root\n"
        "    step descendant::line [skip-leaves]\n"
        "      predicate [mask overlapping::w]"
    ),
    "for $w in //w let $c := count(//line) return $c": (
        "query: for $w in //w let $c := count(//line) return $c\n"
        "rewrites:\n"
        "  - anchor-normalization: // -> /descendant-or-self::node()/\n"
        "  - step-fusion: descendant-or-self::node()/child::T -> "
        "descendant::T\n"
        "  - anchor-normalization: // -> /descendant-or-self::node()/\n"
        "  - step-fusion: descendant-or-self::node()/child::T -> "
        "descendant::T\n"
        "  - hoist-invariant: let $c evaluated once per FLWOR execution\n"
        "plan:\n"
        "  flwor\n"
        "    for $w\n"
        "      path anchor=root\n"
        "        step descendant::w [skip-leaves]\n"
        "    let $c [hoisted-invariant]\n"
        "      call count()\n"
        "        path anchor=root [unordered-result]\n"
        "          step descendant::line [skip-leaves, unordered]\n"
        "    var $c"
    ),
}


class TestExplainGoldens:
    @pytest.mark.parametrize("query", list(EXPLAIN_GOLDENS))
    def test_explain_snapshot(self, query):
        assert compile_query(query).explain() == EXPLAIN_GOLDENS[query]

    def test_engine_explain_and_cli_agree(self, capsys):
        from repro.cli import main

        code = main(["explain", "--sample", "1 + 2 * 3"])
        assert code == 0
        assert capsys.readouterr().out.strip() == \
            EXPLAIN_GOLDENS["1 + 2 * 3"]


# ---------------------------------------------------------------------------
# engine integration: plan cache, stats
# ---------------------------------------------------------------------------


class TestEnginePipeline:
    @pytest.fixture()
    def engine(self) -> Engine:
        return Engine(boethius_document(validate=False))

    def test_plan_cache_hit_reported(self, engine):
        first = engine.query("count(/descendant::w)")
        assert first.stats is not None
        assert first.stats.plan_cache_hit is False
        second = engine.query("count(/descendant::w)")
        assert second.stats.plan_cache_hit is True
        assert first.items == second.items == [6]

    def test_compile_returns_cached_object(self, engine):
        compiled = engine.compile("count(//w)")
        assert engine.compile("count(//w)") is compiled
        assert engine.execute(compiled).items == [6]

    def test_stats_counters_populated(self, engine):
        result = engine.query("/descendant::line[overlapping::w]")
        assert result.stats.axis_steps > 0
        assert result.stats.batched_steps > 0

    def test_per_call_stats_object(self, engine):
        stats = QueryStats()
        evaluate_query(engine.goddag, "/descendant::w", stats=stats)
        assert stats.axis_steps == 1

    def test_xpath_rejects_flwor_through_pipeline(self, engine):
        from repro.errors import QuerySyntaxError

        with pytest.raises(QuerySyntaxError):
            engine.xpath("for $x in //w return $x")
