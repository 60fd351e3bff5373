"""The value model of the extended query language.

A value is a flat sequence (Python list) of *items*.  An item is

* a KyGODDAG node (:class:`~repro.core.goddag.nodes.GNode`),
* a constructed DOM node (:class:`~repro.markup.dom.Node`) produced by
  an element constructor, or
* an atomic: ``str``, ``int``, ``float``, or ``bool``.

Conversions follow XPath pragmatics: nodes atomize to their string
value; general comparisons are existential with numeric promotion when
either side is numeric (matching how XPath 1.0 queries behave over
untyped document-centric XML).
"""

from __future__ import annotations

import math
import operator
from typing import Any

from repro.errors import QueryEvaluationError
from repro.markup import dom
from repro.core.goddag.nodes import GNode

Item = Any
Sequence = list


def is_node(item: Item) -> bool:
    """True for KyGODDAG and constructed DOM nodes."""
    return isinstance(item, (GNode, dom.Node))


def string_value(item: Item) -> str:
    """The string value of any item."""
    if isinstance(item, GNode):
        return item.string_value()
    if isinstance(item, dom.Node):
        return item.text_content()
    if isinstance(item, bool):
        return "true" if item else "false"
    if isinstance(item, (int, float)):
        return format_number(item)
    return str(item)


def atomize(item: Item) -> Item:
    """Node → string value; atomics pass through."""
    if is_node(item):
        return string_value(item)
    return item


def atomize_sequence(sequence: Sequence) -> Sequence:
    return [atomize(item) for item in sequence]


def effective_boolean_value(sequence: Sequence) -> bool:
    """The XQuery effective boolean value of a sequence."""
    if not sequence:
        return False
    first = sequence[0]
    if is_node(first):
        return True
    if len(sequence) > 1:
        raise QueryEvaluationError(
            "effective boolean value of a multi-item atomic sequence is "
            "undefined")
    if isinstance(first, bool):
        return first
    if isinstance(first, (int, float)):
        return bool(first) and not (isinstance(first, float)
                                    and math.isnan(first))
    if isinstance(first, str):
        return bool(first)
    raise QueryEvaluationError(
        f"no effective boolean value for {type(first).__name__}")


def to_number(item: Item) -> float:
    """XPath ``number()`` semantics: unconvertible values become NaN."""
    value = atomize(item)
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(str(value).strip())
    except ValueError:
        return math.nan


def format_number(value: int | float) -> str:
    """XPath-style number formatting: integral floats print bare."""
    if isinstance(value, bool):  # bool is an int subclass; guard first
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def singleton_number(sequence: Sequence) -> float | int | None:
    """The numeric value of an arithmetic operand (``None`` if empty)."""
    if not sequence:
        return None
    if len(sequence) > 1:
        raise QueryEvaluationError(
            "arithmetic requires singleton operands")
    value = atomize(sequence[0])
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    return to_number(value)


def _mod(left: int | float, right: int | float) -> int | float:
    result = math.fmod(left, right)
    if isinstance(left, int) and isinstance(right, int):
        return int(result)
    return result


_ARITHMETIC = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "div": operator.truediv,
    "idiv": lambda left, right: int(left / right),
    "mod": _mod,
}


def arithmetic(op: str, left: int | float, right: int | float
               ) -> int | float:
    """``left op right`` over two numbers — the one arithmetic table.

    The compiled plans call it at run time and the rewriter at compile
    time (constant folding), so the two can never disagree.  Every
    arithmetic failure is a :class:`QueryEvaluationError`: division by
    zero, and the domain/overflow errors ``mod`` and ``idiv`` hit on
    zero, infinite or NaN operands.
    """
    function = _ARITHMETIC.get(op)
    if function is None:
        raise QueryEvaluationError(f"unknown arithmetic operator {op!r}")
    try:
        return function(left, right)
    except ZeroDivisionError:
        raise QueryEvaluationError("division by zero") from None
    except (ValueError, OverflowError) as error:
        raise QueryEvaluationError(
            f"{left} {op} {right}: {error}") from None


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

_OPERATOR_NAMES = {
    "=": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}


def compare_atomic(op: str, left: Item, right: Item) -> bool:
    """Compare two atomics under XPath coercion rules.

    ``op`` is a value-comparison name (``eq``/``ne``/``lt``/…).  When
    either side is numeric (or boolean), both sides are promoted to
    numbers; otherwise both are compared as strings.
    """
    if isinstance(left, bool) or isinstance(right, bool):
        left_value, right_value = bool_of_atomic(left), bool_of_atomic(right)
        return _apply(op, left_value, right_value)
    if isinstance(left, (int, float)) or isinstance(right, (int, float)):
        left_number, right_number = to_number(left), to_number(right)
        if math.isnan(left_number) or math.isnan(right_number):
            return op == "ne"
        return _apply(op, left_number, right_number)
    return _apply(op, str(left), str(right))


def bool_of_atomic(value: Item) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value)
    return bool(str(value))


def _apply(op: str, left: Any, right: Any) -> bool:
    if op == "eq":
        return left == right
    if op == "ne":
        return left != right
    if op == "lt":
        return left < right
    if op == "le":
        return left <= right
    if op == "gt":
        return left > right
    if op == "ge":
        return left >= right
    raise QueryEvaluationError(f"unknown comparison operator {op!r}")


def general_compare(op: str, left: Sequence, right: Sequence) -> bool:
    """Existential general comparison (``=``, ``!=``, ``<``, …)."""
    name = _OPERATOR_NAMES[op]
    left_atoms = atomize_sequence(left)
    right_atoms = atomize_sequence(right)
    for left_value in left_atoms:
        for right_value in right_atoms:
            if compare_atomic(name, left_value, right_value):
                return True
    return False


def value_compare(op: str, left: Sequence, right: Sequence) -> Sequence:
    """Value comparison (``eq`` …): empty operand yields empty."""
    if not left or not right:
        return []
    if len(left) > 1 or len(right) > 1:
        raise QueryEvaluationError(
            f"value comparison '{op}' requires singleton operands")
    return [compare_atomic(op, atomize(left[0]), atomize(right[0]))]


def singleton_node(sequence: Sequence, what: str) -> Item:
    """The single node of a sequence, or raise a clear dynamic error."""
    if len(sequence) != 1 or not is_node(sequence[0]):
        raise QueryEvaluationError(f"{what} requires a single node operand")
    return sequence[0]


# ---------------------------------------------------------------------------
# predicates and ordering
# ---------------------------------------------------------------------------


def predicate_holds(result: Sequence, position: int) -> bool:
    """A predicate's verdict for the candidate at ``position``: a
    numeric singleton selects by position, anything else by its
    effective boolean value."""
    if (len(result) == 1 and isinstance(result[0], (int, float))
            and not isinstance(result[0], bool)):
        return float(result[0]) == float(position)
    return effective_boolean_value(result)


def order_key_value(sequence: Sequence, empty_least: bool) -> tuple:
    """A totally ordered ``order by`` key: (empty-rank, type-rank, value).

    ``empty least`` makes the empty sequence the smallest key — first
    ascending, last descending; ``empty greatest`` the largest.  The
    direction flip itself is handled by the reverse sort.
    """
    if not sequence:
        return (0 if empty_least else 2, 0, 0)
    value = atomize(sequence[0])
    if isinstance(value, bool):
        return (1, 0, int(value))
    if isinstance(value, (int, float)):
        return (1, 0, float(value))
    return (1, 1, str(value))
