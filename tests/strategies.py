"""Shared hypothesis strategies for multihierarchical documents."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st

from repro.errors import CMHError
from repro.cmh import Hierarchy, MultihierarchicalDocument
from repro.cmh.spans import Span, SpanSet
from repro.markup import dom

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

#: :data:`TEXT_ALPHABET` and the three characters character data escapes
ESCAPED_ALPHABET = TEXT_ALPHABET + "&<>"

#: attribute values: every character an attribute value escapes, and ``>``
#: (which it does not)
ATTRIBUTE_ALPHABET = 'a &<>"\n\t'


@st.composite
def base_texts(draw, min_size: int = 1, max_size: int = 40,
               alphabet: str = TEXT_ALPHABET) -> str:
    return draw(st.text(alphabet=alphabet, min_size=min_size,
                        max_size=max_size))


def attribute_maps(max_size: int = 2):
    return st.dictionaries(st.sampled_from(("n", "type", "x")),
                           st.text(alphabet=ATTRIBUTE_ALPHABET, max_size=3),
                           max_size=max_size)


@st.composite
def span_sets(draw, text: str, max_spans: int = 6,
              attributes: bool = False) -> SpanSet:
    """A properly-nesting span set over ``text``, its elements with
    drawn attributes when ``attributes``.

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
        attrs = tuple(draw(attribute_maps()).items()) if attributes else ()
        try:
            spans.add(Span(start, end, name, attrs, depth_hint=index))
        except CMHError:
            continue  # properly overlapping within one hierarchy
    return spans


@st.composite
def multihierarchical_documents(draw, max_hierarchies: int = 3,
                                max_spans: int = 6,
                                min_text: int = 1,
                                max_text: int = 40,
                                alphabet: str = TEXT_ALPHABET,
                                decorated: bool = False
                                ) -> MultihierarchicalDocument:
    """A document of up to ``max_hierarchies`` span hierarchies over a
    text drawn from ``alphabet``.  ``decorated`` draws attributes on
    the elements and the root, and comments and PIs inside elements,
    between text and around the root element (:func:`decorations`)."""
    text = draw(base_texts(min_size=min_text, max_size=max_text,
                           alphabet=alphabet))
    document = MultihierarchicalDocument(text)
    n_hierarchies = draw(st.integers(min_value=1,
                                     max_value=max_hierarchies))
    for index in range(n_hierarchies):
        spans = draw(span_sets(text, max_spans=max_spans,
                               attributes=decorated))
        if decorated:
            document.add_hierarchy(Hierarchy(
                f"h{index}", draw(decorations(spans.to_document("r")))))
        else:
            document.add_spans(f"h{index}", spans, "r")
    return document


_MISC_DATA = st.text(alphabet="a &<>", max_size=3)


@st.composite
def decorations(draw, document: dom.Document) -> dom.Document:
    """``document`` with drawn root attributes and comments and PIs
    inserted into element child lists and around the root element."""
    root = document.root
    for name, value in draw(attribute_maps()).items():
        root.set(name, value)
    # the document itself among the parents: before or after the root
    parents = [document, root, *root.iter_elements()]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        if draw(st.booleans()):
            node = dom.Comment(draw(_MISC_DATA))
        else:
            node = dom.ProcessingInstruction(
                draw(st.sampled_from(("pi", "x-y"))), draw(_MISC_DATA))
        parent = draw(st.sampled_from(parents))
        parent.insert(draw(st.integers(min_value=0,
                                       max_value=len(parent.children))),
                      node)
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


#: ``order by`` keys over ``$a``: strings, numbers, and a key that is
#: empty for short values (what ``empty greatest|least`` places)
ORDER_KEYS = ("string($a)", "string-length(string($a))",
              "count($a/descendant::leaf())",
              "if (string-length(string($a)) > 3) then string($a) else ()")

#: the one subexpression of a drawn ordered FLWOR that may raise, for
#: the values that start with "s" only
RAISING = 'if (starts-with(string($a), "s")) then 1 idiv 0 else 1'


@st.composite
def ordered_flwors(draw) -> str:
    """A FLWOR that ends in ``order by``: one or two ``for`` clauses
    (the first maybe with ``at $p``), maybe a ``let`` and a ``where``,
    one or two keys with ``descending`` / ``empty greatest|least``,
    and maybe a nested FLWOR or an ``analyze-string`` in the return or
    in a key.

    At most one subexpression can raise — in the ``let``, the
    ``where``, a key or the return — so the error every engine reports
    is the same one.
    """
    raising = draw(st.sampled_from(
        (None, None, None, "let", "where", "key", "return")))
    at = draw(st.booleans())
    clauses = [f"for $a{' at $p' if at else ''} in "
               f"{draw(st.sampled_from(OUTER_PATHS))}"]
    if draw(st.booleans()):
        clauses.append("for $b in " + draw(st.sampled_from(
            ("$a/descendant::leaf()", "$a/xdescendant::w", "(1, 2)",
             "/descendant::dmg"))))
    if raising == "let":
        clauses.append(f"let $c := {RAISING}")
    elif draw(st.booleans()):
        clauses.append("let $c := " + draw(st.sampled_from(
            ("count(/descendant::w)", "string($a)",
             "$a/descendant::leaf()"))))
    if raising == "where":
        clauses.append(f"where {RAISING} = 1")
    elif draw(st.booleans()):
        clauses.append("where " + draw(st.sampled_from(
            (f"$a[{draw(predicate_trees(depth=1))}]",
             "count(/descendant::dmg) > 0", "string-length(string($a)) > 1",
             "exists($a/descendant::leaf())"))))
    keys = list(draw(st.lists(
        st.sampled_from(ORDER_KEYS + ("$p",) if at else ORDER_KEYS),
        min_size=1, max_size=2)))
    nested = draw(st.sampled_from((None, "return", "key")))
    nesting = draw(st.sampled_from((
        "for $i in $a/descendant::leaf() return string($i)",
        'analyze-string($a, "[ae]")')))
    if nested == "key":
        keys[-1] = f"count({nesting})"
    if raising == "key":
        keys[0] = RAISING
    specs = ", ".join(
        key + draw(st.sampled_from(("", " ascending", " descending")))
        + draw(st.sampled_from(("", " empty greatest", " empty least")))
        for key in keys)
    body = "string($a)"
    if nested == "return":
        body = f"<r>{{{nesting}}}</r>"
    elif raising == "return":
        body = RAISING
    elif draw(st.booleans()):
        body = "($a, $p)" if at else "<r>{$a}</r>"
    return f"{' '.join(clauses)} order by {specs} return {body}"


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
