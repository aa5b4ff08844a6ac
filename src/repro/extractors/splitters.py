"""Splitters an IE blackbox may declare (split-correctness).

Doleschal et al. (*Split-Correctness in Information Extraction*) call
an extractor P split-correct for a splitter S when P(d) is the union of
P over the splits of d, each split's extractions shifted to where the
split sits in d. An extractor that declares a splitter promises exactly
that, and the reuse engine then treats each split as a region of its
own: a split whose text the unit already extracted replays its recorded
outputs, and only the splits whose text is new are extracted
(:mod:`repro.reuse.replay`).

A splitter cuts a text into consecutive, non-overlapping splits that
cover it; :func:`split_bounds` returns them as ``(start, end)`` offsets.
Two splitters exist:

* ``"line"`` — one split per line, the newline included; the last line
  may lack one. :class:`~repro.extractors.rules.LineExtractor` declares
  it: a line's output depends on that line only.
* ``"header"`` — a split starts at every ``== … ==`` header line (the
  regex of :class:`~repro.extractors.rules.SectionExtractor`, which
  declares it) and runs up to the next one; text before the first
  header is a split of its own. A section body ends at the next header
  of any name, so it never leaves its split.

**Selection.** Doleschal et al.'s splitter is any unary spanner: it
need not cover the document. So an extractor may also declare a split
*key* (``Extractor.split_key``), a literal taken from its own rule, and
it is then split-correct for the splits its key selects
(:func:`split_selected`): it extracts nothing from any other split.

* ``"header"``: a split is selected when it opens with a header whose
  name, stripped, is the key — the test
  :class:`~repro.extractors.rules.SectionExtractor` applies to every
  header (:func:`header_name`). The text before the first header holds
  no header and is never selected.
* ``"line"``: a line is selected when it contains the key, the
  ``must_contain`` test of
  :class:`~repro.extractors.rules.LineExtractor`.

A key may answer "no" only where the split provably extracts nothing;
answering "yes" too often costs work, never correctness. Every place
that cuts a region into splits skips the unselected ones: no replay
lookup, no extraction, no record.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Optional, Tuple

#: A splitter: the start offsets of its splits in ``text``, ascending,
#: the first always 0.
SplitFn = Callable[[str], List[int]]

#: A split key test: whether an extractor keyed on the first argument
#: may extract anything from the split text in the second.
KeyFn = Callable[[str, str], bool]

#: The header line :class:`~repro.extractors.rules.SectionExtractor`
#: keys on (shared so both always agree).
HEADER = re.compile(r"^== (.+?) ==$", re.MULTILINE)


def header_name(match: "re.Match[str]") -> str:
    """The name of a :data:`HEADER` match, as a section key compares it."""
    return match.group(1).strip()


def _line_starts(text: str) -> List[int]:
    starts = [0]
    at = text.find("\n")
    end = len(text) - 1
    while 0 <= at < end:
        starts.append(at + 1)
        at = text.find("\n", at + 1)
    return starts


def _header_starts(text: str) -> List[int]:
    starts = [0]
    starts.extend(m.start() for m in HEADER.finditer(text) if m.start())
    return starts


def _line_selects(key: str, split: str) -> bool:
    return key in split


def _header_selects(key: str, split: str) -> bool:
    match = HEADER.match(split)
    return match is not None and header_name(match) == key


SPLITTERS: Dict[str, SplitFn] = {
    "line": _line_starts,
    "header": _header_starts,
}

#: The key test of each splitter kind.
SELECTORS: Dict[str, KeyFn] = {
    "line": _line_selects,
    "header": _header_selects,
}

#: Test-only fault injection (see :mod:`repro.check.faults`): a splitter
#: kind mapped to a wrong split function (or key test) that replaces
#: it. Empty in production.
_fault_splitters: Dict[str, SplitFn] = {}
_fault_selectors: Dict[str, KeyFn] = {}


def split_starts(kind: str, text: str) -> List[int]:
    """Start offsets of the ``kind`` splits of ``text``."""
    fn = _fault_splitters.get(kind) if _fault_splitters else None
    return (fn or SPLITTERS[kind])(text)


def split_bounds(kind: str, text: str) -> List[Tuple[int, int]]:
    """The ``kind`` splits of ``text`` as ``(start, end)`` offsets: at
    least one (an empty text is one empty split), consecutive, covering
    the text."""
    starts = split_starts(kind, text)
    ends = starts[1:] + [len(text)]
    return list(zip(starts, ends))


def split_selected(kind: str, key: Optional[str], split: str) -> bool:
    """Whether an extractor split-correct for ``kind`` and keyed on
    ``key`` may extract anything from the split text ``split``; every
    split is selected without a key."""
    if key is None:
        return True
    fn = _fault_selectors.get(kind) if _fault_selectors else None
    return (fn or SELECTORS[kind])(key, split)
