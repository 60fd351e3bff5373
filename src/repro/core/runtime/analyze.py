"""``fn:analyze-string`` — Definition 4 of the paper.

``analyze-string($node, $pattern)``:

1. creates a new KyGODDAG hierarchy with a fresh name (``rest``,
   ``rest2``, …);
2. wraps the content of ``$node`` in a ``<res>`` element of that
   hierarchy;
3. tags each non-overlapping match of ``$pattern`` with ``<m>``;
4. when ``$pattern`` is a well-formed XML fragment
   (``"xxx<a>xxx</a>xxx"``), each embedded tag pair becomes a regex
   group and each group's matches are tagged with the originating
   element name (nested tags nest);
5. the temporary hierarchy is deleted after the whole query finishes:
   it is made on the evaluation's private shell of the KyGODDAG
   (:meth:`~repro.core.goddag.goddag.KyGoddag.shell`), which is
   dropped at hand-over.

Because the match markup is a real (temporary) hierarchy, the search
results participate in *all* extended axes — the paper's central trick
for relating text matches to structure even within a single-hierarchy
document.

Paper-compat note: the paper passes ``.*unawe.*`` yet expects ``<m>``
around ``unawe`` only (Example 1), so redundant leading/trailing
``.*``/``.*?`` are stripped by default
(:attr:`QueryOptions.analyze_strip_dotstar`); Python's ``re`` stands in
for XML Schema regular expressions (DESIGN.md §3).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import FunctionError
from repro.cmh.spans import Span, SpanSet
from repro.core.goddag.nodes import GNode
from repro.core.runtime.context import Frame

_TAG = re.compile(r"</?([A-Za-z_][\w.\-]*)>")

_FLAG_LETTERS = {"i": re.IGNORECASE, "s": re.DOTALL, "m": re.MULTILINE,
                 "x": re.VERBOSE}


def _translate_flags(flags: str) -> int:
    """XPath flag letters to ``re`` flags (shared with fn:matches)."""
    out = 0
    for flag in flags:
        if flag not in _FLAG_LETTERS:
            raise FunctionError(f"unsupported regex flag {flag!r}")
        out |= _FLAG_LETTERS[flag]
    return out


@dataclass(frozen=True)
class PatternTemplate:
    """A compiled analyze-string pattern.

    ``groups`` maps each synthesized regex group name to the element
    name it originated from and its nesting depth in the fragment.
    """

    regex: re.Pattern
    groups: tuple[tuple[str, str, int], ...]
    source: str


def compile_pattern(pattern: str, strip_dotstar: bool,
                    flags: str = "") -> PatternTemplate:
    """Translate an (optionally XML-fragment) pattern to a regex.

    Start tags become named groups ``(?P<_agN>``, end tags become
    ``)``; everything else is passed through as regex source.
    ``flags`` uses the XPath letters (``i``/``s``/``m``/``x``).
    """
    parts: list[str] = []
    groups: list[tuple[str, str, int]] = []
    stack: list[str] = []
    cursor = 0
    counter = 0
    for match in _TAG.finditer(pattern):
        parts.append(pattern[cursor:match.start()])
        cursor = match.end()
        name = match.group(1)
        if match.group(0).startswith("</"):
            if not stack or stack[-1] != name:
                raise FunctionError(
                    f"analyze-string pattern has mismatched tag "
                    f"</{name}>: {pattern!r}")
            stack.pop()
            parts.append(")")
        else:
            group_name = f"_ag{counter}"
            counter += 1
            groups.append((group_name, name, len(stack)))
            stack.append(name)
            parts.append(f"(?P<{group_name}>")
    if stack:
        raise FunctionError(
            f"analyze-string pattern has unclosed tag <{stack[-1]}>: "
            f"{pattern!r}")
    parts.append(pattern[cursor:])
    source = "".join(parts)
    if strip_dotstar:
        source = _strip_anchoring_dotstars(source)
    try:
        regex = re.compile(source, _translate_flags(flags))
    except re.error as error:
        raise FunctionError(
            f"invalid analyze-string pattern {pattern!r}: {error}"
        ) from error
    return PatternTemplate(regex, tuple(groups), source)


def _strip_anchoring_dotstars(source: str) -> str:
    """Remove redundant leading/trailing ``.*`` / ``.*?`` (paper-compat)."""
    stripped = source
    while True:
        if stripped.startswith(".*?"):
            stripped = stripped[3:]
        elif stripped.startswith(".*"):
            stripped = stripped[2:]
        else:
            break
    while True:
        if stripped.endswith(".*?") and not stripped.endswith("\\.*?"):
            stripped = stripped[:-3]
        elif stripped.endswith(".*") and not stripped.endswith("\\.*"):
            stripped = stripped[:-2]
        else:
            break
    return stripped if stripped else source


def analyze_string(ctx: Frame, node: GNode, pattern: str,
                   flags: str = "") -> list:
    """Execute Definition 4; returns the temporary ``<res>`` element.

    ``flags`` extends the paper's signature with the XPath 2.0 regex
    flags (``i``/``s``/``m``/``x``), matching our ``matches()``.
    """
    if not isinstance(node, GNode):
        raise FunctionError(
            "analyze-string requires a KyGODDAG node as its first argument")
    options = ctx.options
    template = compile_pattern(pattern, options.analyze_strip_dotstar,
                               flags)
    goddag = ctx.goddag
    base = node.start
    content = goddag.text[node.start:node.end]
    spans = SpanSet(goddag.text)
    spans.add(Span(node.start, node.end, options.analyze_wrapper,
                   depth_hint=0))
    for match in template.regex.finditer(content):
        if match.start() == match.end():
            continue  # zero-length matches produce no markup
        spans.add(Span(base + match.start(), base + match.end(),
                       options.analyze_match, depth_hint=1))
        for group_name, element_name, depth in template.groups:
            group_start, group_end = match.span(group_name)
            if group_start == -1 or group_start == group_end:
                continue
            spans.add(Span(base + group_start, base + group_end,
                           element_name, depth_hint=2 + depth))
    hierarchy = ctx.temp_manager.create(
        spans, base_name=options.analyze_hierarchy_base)
    return [ctx.temp_manager.top_element(hierarchy)]
