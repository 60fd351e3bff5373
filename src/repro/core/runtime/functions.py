"""The built-in function library.

Covers the XPath/XQuery core functions the paper's queries use plus the
standard everyday set (strings, numbers, sequences, booleans), the
paper's ``analyze-string`` (Definition 4), and documented KyGODDAG
extensions:

* ``hierarchy($node?)`` — the owning hierarchy name (empty string for
  the shared root and leaves).  Lets queries disambiguate element names
  that occur in several hierarchies (e.g. the paper's ``<res>`` name
  collision, EXPERIMENTS.md Q-III.1).
* ``leaves($node?)`` — the node's leaf sequence (``leaves(n)``).
* ``span($node?)`` — the ``(start, end)`` character span.
* ``hierarchies()`` — all hierarchy names of the document.

Functions receive ``(ctx, args)`` where ``args`` is a list of already
evaluated sequences; they return a sequence.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Any, Callable

from repro.errors import FunctionError
from repro.core.goddag.nodes import GAttr, GElement, GNode, GPi, GRoot
from repro.core.runtime import values
from repro.core.runtime.analyze import analyze_string
from repro.core.runtime.context import Frame

Registry = dict[str, Callable[[Frame, list], list]]


def default_registry() -> Registry:
    """A fresh copy of the built-in function registry."""
    return dict(_REGISTRY)


_REGISTRY: Registry = {}


def _register(name: str, min_args: int, max_args: int | None):
    """Register a builtin with arity checking under ``name``."""

    def decorator(fn: Callable[..., list]):
        def wrapper(ctx: Frame, args: list) -> list:
            if len(args) < min_args or (max_args is not None
                                        and len(args) > max_args):
                expected = (str(min_args) if min_args == max_args
                            else f"{min_args}..{max_args or 'N'}")
                raise FunctionError(
                    f"{name}() expects {expected} arguments, "
                    f"got {len(args)}")
            return fn(ctx, args)

        _REGISTRY[name] = wrapper
        return fn

    return decorator


def _context_or_arg(ctx: Frame, args: list, index: int = 0) -> list:
    """The ``index``-th argument, defaulting to the context item."""
    if len(args) > index:
        return args[index]
    return [ctx.context_item()]


def _one_string(sequence: list) -> str:
    """The string value of an optional singleton ('' when empty)."""
    if not sequence:
        return ""
    if len(sequence) > 1:
        raise FunctionError("expected at most one item, got a sequence")
    return values.string_value(values.atomize(sequence[0]))


def _one_number(sequence: list) -> float:
    if not sequence:
        return math.nan
    if len(sequence) > 1:
        raise FunctionError("expected at most one item, got a sequence")
    return values.to_number(sequence[0])


def _translate_flags(flags: str) -> int:
    mapping = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE,
               "x": re.VERBOSE}
    out = 0
    for flag in flags:
        if flag not in mapping:
            raise FunctionError(f"unsupported regex flag {flag!r}")
        out |= mapping[flag]
    return out


def _compile(pattern: str, flags: str) -> re.Pattern:
    try:
        return re.compile(pattern, _translate_flags(flags))
    # a repetition count past 2**32 overflows and a deep nesting
    # exhausts the stack inside ``sre`` before either is an ``re.error``
    except (re.error, OverflowError, RecursionError) as error:
        raise FunctionError(
            f"invalid regular expression {pattern!r}: {error}") from error


#: The builtins that test one string value against constants, with the
#: ``str`` method behind each (``matches`` compiles its pattern).
STRING_TESTS = {"matches": None, "contains": "__contains__",
                "starts-with": "startswith", "ends-with": "endswith"}


def string_test(name: str, constant: str, flags: str = ""):
    """``fn(str) -> truthy``: what the :data:`STRING_TESTS` builtin
    ``name`` decides about one string value against constant arguments
    — the form a mask plan maps over a whole column of them
    (DESIGN.md §16).  Raises the builtin's :class:`FunctionError` for
    a pattern or flag that does not compile; the function returned
    raises on no ``str``."""
    if name == "matches":
        return _compile(constant, flags).search
    return operator.methodcaller(STRING_TESTS[name], constant)


# ---------------------------------------------------------------------------
# focus / node functions
# ---------------------------------------------------------------------------


@_register("position", 0, 0)
def _fn_position(ctx: Frame, args: list) -> list:
    return [ctx.position]


@_register("last", 0, 0)
def _fn_last(ctx: Frame, args: list) -> list:
    return [ctx.size]


@_register("count", 1, 1)
def _fn_count(ctx: Frame, args: list) -> list:
    return [len(args[0])]


@_register("name", 0, 1)
def _fn_name(ctx: Frame, args: list) -> list:
    sequence = _context_or_arg(ctx, args)
    if not sequence:
        return [""]
    node = sequence[0]
    if isinstance(node, (GElement, GRoot, GAttr, GPi)):
        return [node.name]
    return [""]


@_register("local-name", 0, 1)
def _fn_local_name(ctx: Frame, args: list) -> list:
    name = _fn_name(ctx, args)[0]
    _prefix, _sep, local = name.rpartition(":")
    return [local]


@_register("root", 0, 1)
def _fn_root(ctx: Frame, args: list) -> list:
    return [ctx.goddag.root]


@_register("hierarchy", 0, 1)
def _fn_hierarchy(ctx: Frame, args: list) -> list:
    """Extension: the hierarchy owning a node ('' for root/leaves)."""
    sequence = _context_or_arg(ctx, args)
    if not sequence:
        return [""]
    node = sequence[0]
    if isinstance(node, GNode) and node.hierarchy is not None:
        return [node.hierarchy]
    return [""]


@_register("hierarchies", 0, 0)
def _fn_hierarchies(ctx: Frame, args: list) -> list:
    """Extension: all hierarchy names, in registration order."""
    return list(ctx.goddag.hierarchy_names)


@_register("leaves", 0, 1)
def _fn_leaves(ctx: Frame, args: list) -> list:
    """Extension: ``leaves(n)`` — the node's leaf sequence."""
    sequence = _context_or_arg(ctx, args)
    if not sequence:
        return []
    node = sequence[0]
    if not isinstance(node, GNode):
        raise FunctionError("leaves() requires a KyGODDAG node")
    return list(ctx.goddag.leaves_of(node))


@_register("span", 0, 1)
def _fn_span(ctx: Frame, args: list) -> list:
    """Extension: the (start, end) character span of a node."""
    sequence = _context_or_arg(ctx, args)
    if not sequence:
        return []
    node = sequence[0]
    if not isinstance(node, GNode):
        raise FunctionError("span() requires a KyGODDAG node")
    return [node.start, node.end]


@_register("analyze-string", 2, 3)
def _fn_analyze_string(ctx: Frame, args: list) -> list:
    node_sequence = args[0]
    if len(node_sequence) != 1 or not isinstance(node_sequence[0], GNode):
        raise FunctionError(
            "analyze-string() requires a single KyGODDAG node")
    flags = _one_string(args[2]) if len(args) > 2 else ""
    return analyze_string(ctx, node_sequence[0], _one_string(args[1]),
                          flags)


# ---------------------------------------------------------------------------
# strings
# ---------------------------------------------------------------------------


@_register("string", 0, 1)
def _fn_string(ctx: Frame, args: list) -> list:
    return [_one_string(_context_or_arg(ctx, args))]


@_register("concat", 2, None)
def _fn_concat(ctx: Frame, args: list) -> list:
    return ["".join(_one_string(arg) for arg in args)]


@_register("string-join", 1, 2)
def _fn_string_join(ctx: Frame, args: list) -> list:
    separator = _one_string(args[1]) if len(args) > 1 else ""
    return [separator.join(
        values.string_value(values.atomize(item)) for item in args[0])]


@_register("contains", 2, 2)
def _fn_contains(ctx: Frame, args: list) -> list:
    return [_one_string(args[1]) in _one_string(args[0])]


@_register("starts-with", 2, 2)
def _fn_starts_with(ctx: Frame, args: list) -> list:
    return [_one_string(args[0]).startswith(_one_string(args[1]))]


@_register("ends-with", 2, 2)
def _fn_ends_with(ctx: Frame, args: list) -> list:
    return [_one_string(args[0]).endswith(_one_string(args[1]))]


@_register("substring", 2, 3)
def _fn_substring(ctx: Frame, args: list) -> list:
    text = _one_string(args[0])
    start = _one_number(args[1])
    if math.isnan(start):
        return [""]
    begin = round(start) - 1
    if len(args) > 2:
        length = _one_number(args[2])
        if math.isnan(length):
            return [""]
        stop = begin + round(length)
    else:
        stop = len(text)
    begin = max(begin, 0)
    stop = max(stop, begin)
    return [text[begin:stop]]


@_register("substring-before", 2, 2)
def _fn_substring_before(ctx: Frame, args: list) -> list:
    text, needle = _one_string(args[0]), _one_string(args[1])
    index = text.find(needle)
    return [text[:index] if index != -1 else ""]


@_register("substring-after", 2, 2)
def _fn_substring_after(ctx: Frame, args: list) -> list:
    text, needle = _one_string(args[0]), _one_string(args[1])
    index = text.find(needle)
    return [text[index + len(needle):] if index != -1 else ""]


@_register("string-length", 0, 1)
def _fn_string_length(ctx: Frame, args: list) -> list:
    return [len(_one_string(_context_or_arg(ctx, args)))]


@_register("normalize-space", 0, 1)
def _fn_normalize_space(ctx: Frame, args: list) -> list:
    return [" ".join(_one_string(_context_or_arg(ctx, args)).split())]


@_register("translate", 3, 3)
def _fn_translate(ctx: Frame, args: list) -> list:
    text = _one_string(args[0])
    source = _one_string(args[1])
    target = _one_string(args[2])
    table: dict[int, int | None] = {}
    for index, char in enumerate(source):
        if ord(char) in table:
            continue
        table[ord(char)] = (ord(target[index]) if index < len(target)
                            else None)
    return [text.translate(table)]


@_register("upper-case", 1, 1)
def _fn_upper_case(ctx: Frame, args: list) -> list:
    return [_one_string(args[0]).upper()]


@_register("lower-case", 1, 1)
def _fn_lower_case(ctx: Frame, args: list) -> list:
    return [_one_string(args[0]).lower()]


@_register("matches", 2, 3)
def _fn_matches(ctx: Frame, args: list) -> list:
    flags = _one_string(args[2]) if len(args) > 2 else ""
    regex = _compile(_one_string(args[1]), flags)
    return [regex.search(_one_string(args[0])) is not None]


@_register("replace", 3, 4)
def _fn_replace(ctx: Frame, args: list) -> list:
    flags = _one_string(args[3]) if len(args) > 3 else ""
    regex = _compile(_one_string(args[1]), flags)
    replacement = _one_string(args[2]).replace("$0", r"\g<0>")
    replacement = re.sub(r"\$(\d)", r"\\\1", replacement)
    return [regex.sub(replacement, _one_string(args[0]))]


@_register("tokenize", 2, 3)
def _fn_tokenize(ctx: Frame, args: list) -> list:
    flags = _one_string(args[2]) if len(args) > 2 else ""
    regex = _compile(_one_string(args[1]), flags)
    text = _one_string(args[0])
    if not text:
        return []
    return [token for token in regex.split(text)]


# ---------------------------------------------------------------------------
# numbers
# ---------------------------------------------------------------------------


@_register("number", 0, 1)
def _fn_number(ctx: Frame, args: list) -> list:
    return [_one_number(_context_or_arg(ctx, args))]


@_register("sum", 1, 2)
def _fn_sum(ctx: Frame, args: list) -> list:
    if not args[0]:
        return [args[1][0]] if len(args) > 1 and args[1] else [0]
    return [sum(values.to_number(item) for item in args[0])]


@_register("avg", 1, 1)
def _fn_avg(ctx: Frame, args: list) -> list:
    if not args[0]:
        return []
    return [sum(values.to_number(item) for item in args[0]) / len(args[0])]


def _extremum(args: list, pick) -> list:
    if not args[0]:
        return []
    atoms = values.atomize_sequence(args[0])
    if all(isinstance(a, (int, float)) and not isinstance(a, bool)
           for a in atoms):
        return [pick(atoms)]
    numbers = [values.to_number(a) for a in atoms]
    if not any(math.isnan(n) for n in numbers):
        return [pick(numbers)]
    return [pick(str(a) for a in atoms)]


@_register("min", 1, 1)
def _fn_min(ctx: Frame, args: list) -> list:
    return _extremum(args, min)


@_register("max", 1, 1)
def _fn_max(ctx: Frame, args: list) -> list:
    return _extremum(args, max)


@_register("floor", 1, 1)
def _fn_floor(ctx: Frame, args: list) -> list:
    number = _one_number(args[0])
    return [number if math.isnan(number) else math.floor(number)]


@_register("ceiling", 1, 1)
def _fn_ceiling(ctx: Frame, args: list) -> list:
    number = _one_number(args[0])
    return [number if math.isnan(number) else math.ceil(number)]


@_register("round", 1, 1)
def _fn_round(ctx: Frame, args: list) -> list:
    number = _one_number(args[0])
    if math.isnan(number):
        return [number]
    return [math.floor(number + 0.5)]  # XPath rounds .5 up


@_register("abs", 1, 1)
def _fn_abs(ctx: Frame, args: list) -> list:
    return [abs(_one_number(args[0]))]


# ---------------------------------------------------------------------------
# booleans
# ---------------------------------------------------------------------------


@_register("boolean", 1, 1)
def _fn_boolean(ctx: Frame, args: list) -> list:
    return [values.effective_boolean_value(args[0])]


@_register("not", 1, 1)
def _fn_not(ctx: Frame, args: list) -> list:
    return [not values.effective_boolean_value(args[0])]


@_register("true", 0, 0)
def _fn_true(ctx: Frame, args: list) -> list:
    return [True]


@_register("false", 0, 0)
def _fn_false(ctx: Frame, args: list) -> list:
    return [False]


# ---------------------------------------------------------------------------
# sequences
# ---------------------------------------------------------------------------


@_register("exists", 1, 1)
def _fn_exists(ctx: Frame, args: list) -> list:
    return [bool(args[0])]


@_register("empty", 1, 1)
def _fn_empty(ctx: Frame, args: list) -> list:
    return [not args[0]]


@_register("data", 1, 1)
def _fn_data(ctx: Frame, args: list) -> list:
    return values.atomize_sequence(args[0])


@_register("distinct-values", 1, 1)
def _fn_distinct_values(ctx: Frame, args: list) -> list:
    seen: list = []
    for item in values.atomize_sequence(args[0]):
        if not any(type(item) is type(other) and item == other
                   for other in seen):
            seen.append(item)
    return seen


@_register("reverse", 1, 1)
def _fn_reverse(ctx: Frame, args: list) -> list:
    return list(reversed(args[0]))


@_register("subsequence", 2, 3)
def _fn_subsequence(ctx: Frame, args: list) -> list:
    sequence = args[0]
    start = round(_one_number(args[1]))
    if len(args) > 2:
        length = round(_one_number(args[2]))
        stop = start + length
    else:
        stop = len(sequence) + 1
    begin = max(start - 1, 0)
    return sequence[begin:max(stop - 1, begin)]


@_register("index-of", 2, 2)
def _fn_index_of(ctx: Frame, args: list) -> list:
    needle = values.atomize(args[1][0]) if args[1] else None
    out: list = []
    for position, item in enumerate(values.atomize_sequence(args[0]),
                                    start=1):
        if needle is not None and values.compare_atomic("eq", item, needle):
            out.append(position)
    return out


@_register("insert-before", 3, 3)
def _fn_insert_before(ctx: Frame, args: list) -> list:
    sequence, position_seq, inserts = args
    position = max(1, round(_one_number(position_seq)))
    index = min(position - 1, len(sequence))
    return sequence[:index] + inserts + sequence[index:]


@_register("remove", 2, 2)
def _fn_remove(ctx: Frame, args: list) -> list:
    position = round(_one_number(args[1]))
    return [item for index, item in enumerate(args[0], start=1)
            if index != position]


@_register("head", 1, 1)
def _fn_head(ctx: Frame, args: list) -> list:
    return args[0][:1]


@_register("tail", 1, 1)
def _fn_tail(ctx: Frame, args: list) -> list:
    return args[0][1:]


@_register("zero-or-one", 1, 1)
def _fn_zero_or_one(ctx: Frame, args: list) -> list:
    if len(args[0]) > 1:
        raise FunctionError("zero-or-one() got more than one item")
    return args[0]


@_register("one-or-more", 1, 1)
def _fn_one_or_more(ctx: Frame, args: list) -> list:
    if not args[0]:
        raise FunctionError("one-or-more() got an empty sequence")
    return args[0]


@_register("exactly-one", 1, 1)
def _fn_exactly_one(ctx: Frame, args: list) -> list:
    if len(args[0]) != 1:
        raise FunctionError(
            f"exactly-one() got {len(args[0])} items")
    return args[0]
