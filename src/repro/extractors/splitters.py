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
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Tuple

#: A splitter: the start offsets of its splits in ``text``, ascending,
#: the first always 0.
SplitFn = Callable[[str], List[int]]

#: The header line :class:`~repro.extractors.rules.SectionExtractor`
#: keys on (shared so both always agree).
HEADER = re.compile(r"^== (.+?) ==$", re.MULTILINE)


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


SPLITTERS: Dict[str, SplitFn] = {
    "line": _line_starts,
    "header": _header_starts,
}

#: Test-only fault injection (see :mod:`repro.check.faults`): a splitter
#: kind mapped to a wrong split function that replaces it. Empty in
#: production.
_fault_splitters: Dict[str, SplitFn] = {}


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
