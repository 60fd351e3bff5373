"""Shared hypothesis strategies for multihierarchical documents."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st

from repro.errors import CMHError
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet

def examples(count: int) -> int:
    """A property test's example budget: ``count`` under the tier-1
    profile, and the active profile's own when it asks for more than
    tier-1 does (``HYPOTHESIS_PROFILE=nightly``)."""
    active = settings.default.max_examples
    if active > settings.get_profile("tier1").max_examples:
        return max(count, active)
    return count


#: A small alphabet keeps texts readable in failure reports while still
#: exercising multi-byte characters.
TEXT_ALPHABET = "ab ϸx"

ELEMENT_NAMES = ("w", "line", "dmg", "res", "seg")


@st.composite
def base_texts(draw, min_size: int = 1, max_size: int = 40) -> str:
    return draw(st.text(alphabet=TEXT_ALPHABET, min_size=min_size,
                        max_size=max_size))


@st.composite
def span_sets(draw, text: str, max_spans: int = 6) -> SpanSet:
    """A properly-nesting span set over ``text``.

    Spans are drawn independently; draws that would properly overlap an
    already accepted span are discarded (not shrunk away), which keeps
    the strategy deterministic per draw sequence.
    """
    spans = SpanSet(text)
    count = draw(st.integers(min_value=0, max_value=max_spans))
    for index in range(count):
        if not text:
            break
        start = draw(st.integers(min_value=0, max_value=len(text)))
        end = draw(st.integers(min_value=start, max_value=len(text)))
        name = draw(st.sampled_from(ELEMENT_NAMES))
        try:
            spans.add(Span(start, end, name, depth_hint=index))
        except CMHError:
            continue  # properly overlapping within one hierarchy
    return spans


@st.composite
def multihierarchical_documents(draw, max_hierarchies: int = 3,
                                max_spans: int = 6,
                                min_text: int = 1,
                                max_text: int = 40
                                ) -> MultihierarchicalDocument:
    text = draw(base_texts(min_size=min_text, max_size=max_text))
    document = MultihierarchicalDocument(text)
    n_hierarchies = draw(st.integers(min_value=1,
                                     max_value=max_hierarchies))
    for index in range(n_hierarchies):
        spans = draw(span_sets(text, max_spans=max_spans))
        document.add_hierarchy(
            Hierarchy(f"h{index}", spans.to_document("r")))
    return document


# ---------------------------------------------------------------------------
# interval-join scenarios (the extended-axis join suite, DESIGN.md §11)
# ---------------------------------------------------------------------------


@st.composite
def join_scenarios(draw, max_hierarchies: int = 3, max_spans: int = 6,
                   max_text: int = 40) -> tuple:
    """``(document, context picks, temporary spans | None)``.

    The raw material of one extended-axis join differential check: a
    multihierarchical document, unbounded index draws the test folds
    modulo the live node count into a context subset, and — half the
    time — an extra properly-nesting span set to register as a
    *temporary* hierarchy (the ``analyze-string`` shape: membership
    joins must see lazily merged sub-indexes, not just built ones).
    """
    document = draw(multihierarchical_documents(
        max_hierarchies=max_hierarchies, max_spans=max_spans,
        max_text=max_text))
    picks = draw(st.lists(st.integers(min_value=0, max_value=999),
                          min_size=1, max_size=6))
    temporary = draw(st.one_of(
        st.none(), span_sets(document.text, max_spans=4)))
    return document, picks, temporary


# ---------------------------------------------------------------------------
# decorrelatable predicates (the mask-plan differential suite, DESIGN.md §16)
# ---------------------------------------------------------------------------

EXTENDED_AXES = ("xancestor", "xdescendant", "xfollowing", "xpreceding",
                 "overlapping", "preceding-overlapping",
                 "following-overlapping")

#: standard axes a mask term may probe (no nested predicate)
STANDARD_PROBE_AXES = ("ancestor", "descendant", "self")

#: the string tests a mask term may hold, over ``(subject, literal)``,
#: and the three spellings of the context node's string value
VALUE_CALLS = ('matches({}, "{}")', 'matches({}, "^{}", "i")',
               'contains({}, "{}")', 'starts-with({}, "{}")',
               'ends-with({}, "{}")')
VALUE_SUBJECTS = ("string(.)", "string()", ".")


@st.composite
def predicate_trees(draw, depth: int = 2) -> str:
    """The text of one predicate body in the grammar the cost pass
    decorrelates: ``and`` / ``or`` / ``not()`` over
    ``extended-axis::name``, — ``depth`` levels deep —
    ``extended-axis::name[tree]``, the plain standard-axis probes
    ``ancestor::name`` / ``descendant::name`` / ``self::name``, and the
    string tests ``matches`` / ``contains`` / ``starts-with`` /
    ``ends-with`` of the context node's value against a literal.

    One atom in twelve is ``string(.) = "literal"``, which is outside
    the grammar: a tree holding one stays on the per-node path, so the
    suite keeps comparing that path too.  Literals are drawn from
    :data:`TEXT_ALPHABET` (no regex metacharacter among them), so on
    generated documents a string test now and then names an element's
    text.
    """
    def atom() -> str:
        kinds = ("axis",) * 3 + ("nested",) * 4 if depth else ("axis",) * 7
        kind = draw(st.sampled_from(kinds + ("standard",) * 2
                                    + ("value",) * 2 + ("string",)))
        if kind == "string":
            literal = draw(st.text(alphabet=TEXT_ALPHABET, max_size=3))
            return f'string(.) = "{literal}"'
        if kind == "value":
            literal = draw(st.text(alphabet=TEXT_ALPHABET, max_size=2))
            call = draw(st.sampled_from(VALUE_CALLS))
            return call.format(draw(st.sampled_from(VALUE_SUBJECTS)),
                               literal)
        if kind == "standard":
            return (f"{draw(st.sampled_from(STANDARD_PROBE_AXES))}::"
                    f"{draw(st.sampled_from(ELEMENT_NAMES))}")
        step = (f"{draw(st.sampled_from(EXTENDED_AXES))}::"
                f"{draw(st.sampled_from(ELEMENT_NAMES))}")
        if kind == "nested":
            step += f"[{draw(predicate_trees(depth=depth - 1))}]"
        return step

    def operand() -> str:
        shape = draw(st.sampled_from(("atom", "atom", "not", "group")))
        if shape == "atom":
            return atom()
        if shape == "not":
            return f"not({atom()})"
        return f"({atom()} {draw(st.sampled_from(('and', 'or')))} {atom()})"

    connective = draw(st.sampled_from((None, "and", "or")))
    if connective is None:
        return operand()
    count = draw(st.integers(min_value=2, max_value=3))
    return f" {connective} ".join(operand() for _ in range(count))


# ---------------------------------------------------------------------------
# nested-FLWOR conditionals (the lifted inner ``for``, DESIGN.md §16)
# ---------------------------------------------------------------------------

#: inner steps ``for $i in $o/step`` is drawn from: liftable downward
#: steps of every batch shape (the leaf slice, named and unnamed
#: per-binding steps, an interval join), and two the pass leaves alone
INNER_STEPS = ("descendant::leaf()", "descendant-or-self::leaf()",
               "descendant::w", "descendant::node()",
               "descendant-or-self::node()", "child::*",
               "child::text()", "xdescendant::w", "xdescendant::dmg",
               "following::leaf()", "descendant::w[1]")

#: what ``$o`` ranges over: elements by name, every element, or the
#: root alone — under ``descendant-or-self::node()`` the root is then a
#: ``$i`` too, the one context that tops every ancestor chain
OUTER_PATHS = tuple(f"/descendant::{name}"
                    for name in ELEMENT_NAMES + ("*",)) + ("/self::node()",)

#: one in six queries takes one of these shapes, each a documented
#: fallback of the lifting pass — or, for ``empty``, a lifted clause
#: whose every sequence is empty
FALLBACK_SHAPES = ("position-variable", "outer-variable", "comparison",
                   "order-by", "empty", "raising-branch")


@st.composite
def nested_flwor_conditionals(draw) -> str:
    """``for $o in … return for $i in $o/step …`` whose body branches
    on a drawn :func:`predicate_trees` condition over ``$i``.

    Five in six take a shape the cost pass lifts (given a liftable
    step): ``if ($i[P])``, ``where $i[P]``, the EBV path form
    ``$i/axis::name``, both clauses in one FLWOR, or an ``else if``
    chain.  The sixth is one of :data:`FALLBACK_SHAPES`.
    """
    outer = draw(st.sampled_from(OUTER_PATHS))
    step = draw(st.sampled_from(INNER_STEPS))
    tree = draw(predicate_trees(depth=1))
    probe = (f"{draw(st.sampled_from(EXTENDED_AXES + STANDARD_PROBE_AXES))}"
             f"::{draw(st.sampled_from(ELEMENT_NAMES))}")
    head = f"for $o in {outer} return "
    branch = "then <y>{$i}</y> else $i"
    if draw(st.integers(min_value=0, max_value=5)):
        shape = draw(st.sampled_from(
            ("if", "where", "path", "one-flwor", "chain")))
    else:
        shape = draw(st.sampled_from(FALLBACK_SHAPES))
    if shape == "if":
        return f"{head}for $i in $o/{step} return if ($i[{tree}]) {branch}"
    if shape == "where":
        return f"{head}for $i in $o/{step} where $i[{tree}] return $i"
    if shape == "path":
        return (f"{head}for $i in $o/{step} "
                f"return if ($i/{probe}) then 1 else 0")
    if shape == "one-flwor":
        return (f"for $o in {outer}, $i in $o/{step} "
                f"where $i[{tree}] return $i")
    if shape == "chain":
        return (f"{head}for $i in $o/{step} return if ($i[{tree}]) "
                f"then 2 else if ($i/{probe}) then 1 else 0")
    if shape == "position-variable":
        return (f"{head}for $i at $p in $o/{step} "
                f"return if ($i[{tree}]) then $p else 0")
    if shape == "outer-variable":
        return (f"{head}for $i in $o/{step} "
                f"return if ($i[({tree}) or $o/self::w]) {branch}")
    if shape == "comparison":
        return (f"{head}for $i in $o/{step} "
                f'return if ($i[string(.) = "a"]) {branch}')
    if shape == "order-by":
        return (f"{head}for $i in $o/{step} order by string($i) "
                f"return if ($i[{tree}]) {branch}")
    if shape == "empty":
        return (f"{head}for $i in $o/child::nosuch "
                f"return if ($i[{tree}]) {branch}")
    return (f"{head}for $i in $o/{step} "
            f"return if ($i[{tree}]) then 1 idiv 0 else $i")


# ---------------------------------------------------------------------------
# update statements (the differential update fuzzer, DESIGN.md §9)
# ---------------------------------------------------------------------------

#: Update operation shapes the fuzzer draws from.
UPDATE_OP_KINDS = (
    "rename", "replace-value", "delete", "remove-markup",
    "insert", "add-markup", "add-markup-leaves",
)

#: Safe inside both string literals and constructor content.
UPDATE_TEXT_ALPHABET = "ab xy"

INSERT_LOCATIONS = ("into", "into-first", "into-last", "before", "after")


@st.composite
def update_ops(draw) -> dict:
    """One abstract update operation.

    Indices are unbounded draws; :func:`build_update_statement` folds
    them modulo the live document's element/leaf/hierarchy counts, so
    the same op dictionary stays meaningful as the document evolves
    under earlier updates of the sequence.
    """
    return {
        "kind": draw(st.sampled_from(UPDATE_OP_KINDS)),
        "index": draw(st.integers(min_value=0, max_value=999)),
        "index2": draw(st.integers(min_value=0, max_value=999)),
        "name": draw(st.sampled_from(ELEMENT_NAMES + ("note", "mark"))),
        "text": draw(st.text(alphabet=UPDATE_TEXT_ALPHABET, max_size=6)),
        "location": draw(st.sampled_from(INSERT_LOCATIONS)),
        "hierarchy": draw(st.integers(min_value=0, max_value=9)),
    }


def build_update_statement(op: dict, element_count: int, leaf_count: int,
                           hierarchy_names: list[str]) -> str | None:
    """Concretize one abstract op against the current document state.

    Returns ``None`` when the op has no valid target (e.g. an element
    op over a document that currently has no elements).
    """
    kind = op["kind"]
    if kind == "add-markup-leaves":
        if not leaf_count:
            return None
        first = op["index"] % leaf_count + 1
        last = op["index2"] % leaf_count + 1
        if last < first:
            first, last = last, first
        hierarchy = hierarchy_names[op["hierarchy"]
                                    % len(hierarchy_names)]
        return (f"add markup {op['name']} to \"{hierarchy}\" covering "
                f"/descendant::leaf()[position() >= {first} and "
                f"position() <= {last}]")
    if not element_count:
        return None
    target = f"(/descendant::*)[{op['index'] % element_count + 1}]"
    if kind == "rename":
        return f"rename node {target} as \"{op['name']}\""
    if kind == "replace-value":
        return f"replace value of node {target} with \"{op['text']}\""
    if kind == "delete":
        return f"delete node {target}"
    if kind == "remove-markup":
        return f"remove markup {target}"
    if kind == "insert":
        source = (f"<{op['name']}>{op['text']}</{op['name']}>"
                  if op["text"] else f"<{op['name']}/>")
        location = op["location"]
        prefix = {"into": "into", "into-first": "as first into",
                  "into-last": "as last into", "before": "before",
                  "after": "after"}[location]
        return f"insert node {source} {prefix} {target}"
    if kind == "add-markup":
        hierarchy = hierarchy_names[op["hierarchy"]
                                    % len(hierarchy_names)]
        return (f"add markup {op['name']} to \"{hierarchy}\" "
                f"covering {target}")
    raise AssertionError(f"unknown op kind {kind!r}")
