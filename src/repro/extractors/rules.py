"""Rule-based extractor blackboxes.

These are the reusable building blocks the six evaluation IE programs
are built from (Section 8; Figure 8b). All of them are
*position-deterministic*: whether an extraction is reported at some
position depends only on the text within the declared context β of its
extent, which is what lets the reuse engine copy mentions safely.

Implementation notes on determinism:

* Regex scanning restarts one character after each match start instead
  of at the match end, so a match at position x is reported iff the
  pattern matches at x — independent of other matches. (Plain
  ``finditer`` skips overlapping matches, which would make extraction
  results depend on far-away text.)
* Patterns must not use anchors or constructs that look outside the
  declared context (no ``^``/``$`` unless intended, no lookbehind past
  β characters).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Pattern, Sequence, Tuple, Union

from .base import Extraction, Extractor, RelSpan


def scan_overlapping(pattern: Pattern[str], text: str) -> Iterator[re.Match]:
    """Yield matches allowing overlaps (position-deterministic)."""
    pos = 0
    while pos <= len(text):
        m = pattern.search(text, pos)
        if m is None:
            return
        yield m
        pos = m.start() + 1


@dataclass(frozen=True)
class IntGroupScalar:
    """Picklable scalar callable: ``int(match.group(group))``.

    Plain lambdas cannot cross process boundaries; the parallel runtime
    ships extractors to worker processes, so scalar callables used in
    the task library must be module-level or instances of picklable
    classes like this one.
    """

    group: str

    def __call__(self, m: "re.Match") -> int:
        return int(m.group(self.group))


class RegexExtractor(Extractor):
    """Extracts one tuple per regex match.

    ``groups`` maps output variable names to regex group names or
    numbers; matched groups become span fields. ``scalars`` optionally
    maps output variables to callables computing scalar values from the
    match object.
    """

    def __init__(self, name: str, pattern: str,
                 groups: Dict[str, Union[str, int]],
                 scope: int, context: int,
                 scalars: Optional[Dict[str, object]] = None,
                 work_factor: int = 0, flags: int = 0) -> None:
        output_vars = list(groups) + list(scalars or {})
        super().__init__(name, output_vars, scope, context, work_factor)
        self.pattern = re.compile(pattern, flags)
        self.groups = dict(groups)
        self.scalars = dict(scalars or {})

    def _extract(self, text: str) -> Iterable[Extraction]:
        for m in scan_overlapping(self.pattern, text):
            fields: List[Tuple[str, object]] = []
            ok = True
            for var, group in self.groups.items():
                if m.group(group) is None:
                    ok = False
                    break
                fields.append((var, RelSpan(m.start(group), m.end(group))))
            if not ok:
                continue
            for var, func in self.scalars.items():
                fields.append((var, func(m)))  # type: ignore[operator]
            yield Extraction(tuple(sorted(fields)))


class DictionaryExtractor(Extractor):
    """Extracts every occurrence of any phrase from a dictionary."""

    def __init__(self, name: str, var: str, phrases: Sequence[str],
                 scope: int, context: int, work_factor: int = 0,
                 ignore_case: bool = False) -> None:
        if not phrases:
            raise ValueError("dictionary must not be empty")
        super().__init__(name, [var], scope, context, work_factor)
        self.var = var
        self.phrases = tuple(phrases)
        alternation = "|".join(
            re.escape(p) for p in sorted(phrases, key=len, reverse=True))
        self.pattern = re.compile(alternation,
                                  re.IGNORECASE if ignore_case else 0)

    def _extract(self, text: str) -> Iterable[Extraction]:
        for m in scan_overlapping(self.pattern, text):
            yield Extraction.of(**{self.var: RelSpan(m.start(), m.end())})


class LineExtractor(Extractor):
    """Extracts whole lines that satisfy a content test.

    A line's extent is the line itself (without the newline); its
    boundaries depend only on the adjacent newline characters, so
    β = 2 suffices (we default a little higher for safety).
    """

    def __init__(self, name: str, var: str, scope: int,
                 must_contain: Optional[str] = None,
                 must_match: Optional[str] = None,
                 context: int = 4, work_factor: int = 0) -> None:
        super().__init__(name, [var], scope, context, work_factor)
        self.var = var
        self.must_contain = must_contain
        self.pattern = re.compile(must_match) if must_match else None

    def _line_ok(self, line: str) -> bool:
        if not line.strip():
            return False
        if self.must_contain is not None and self.must_contain not in line:
            return False
        if self.pattern is not None and self.pattern.search(line) is None:
            return False
        return True

    def _extract(self, text: str) -> Iterable[Extraction]:
        offset = 0
        for line in text.split("\n"):
            if self._line_ok(line) and len(line) < self.scope:
                yield Extraction.of(
                    **{self.var: RelSpan(offset, offset + len(line))})
            offset += len(line) + 1


class SectionExtractor(Extractor):
    """Extracts the body of a ``== Header ==`` section.

    The extent runs from the character after the header line to the
    start of the next ``== `` header (or end of region). Section
    extractors are the blackboxes with the very large scopes in
    Figure 8b — a section mention covers everything inside it, so α
    must exceed the longest possible section.
    """

    _HEADER = re.compile(r"^== (.+?) ==$", re.MULTILINE)

    def __init__(self, name: str, var: str, header: str, scope: int,
                 context: int = 32, work_factor: int = 0) -> None:
        super().__init__(name, [var], scope, context, work_factor)
        self.var = var
        self.header = header

    def _extract(self, text: str) -> Iterable[Extraction]:
        headers = list(self._HEADER.finditer(text))
        for i, m in enumerate(headers):
            if m.group(1).strip() != self.header:
                continue
            start = m.end()
            if start < len(text) and text[start] == "\n":
                start += 1
            end = headers[i + 1].start() if i + 1 < len(headers) else len(text)
            while end > start and text[end - 1] == "\n":
                end -= 1
            if end <= start:
                continue
            if end - start >= self.scope:
                end = start + self.scope - 1
            yield Extraction.of(**{self.var: RelSpan(start, end)})


class SentenceExtractor(Extractor):
    """Splits a region into sentences ending in ``.``, ``!`` or ``?``.

    This is the rule-based analogue of the paper's ME sentence
    segmenter; the learning-based one lives in
    :mod:`repro.extractors.learning`.
    """

    _SENTENCE = re.compile(r"[^.!?\n]+[.!?]")

    def __init__(self, name: str, var: str, scope: int = 400,
                 context: int = 4, work_factor: int = 0) -> None:
        super().__init__(name, [var], scope, context, work_factor)
        self.var = var

    def _extract(self, text: str) -> Iterable[Extraction]:
        for m in self._SENTENCE.finditer(text):
            start, end = m.start(), m.end()
            while start < end and text[start] == " ":
                start += 1
            if end - start < self.scope:
                yield Extraction.of(**{self.var: RelSpan(start, end)})
