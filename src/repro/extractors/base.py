"""Extractor ("IE blackbox") interface.

An extractor takes the text of one region and returns extractions:
tuples of named output fields, each either a span (relative to the
region) or a scalar. Every extractor declares its *scope* α and
*context* β (Definitions 2–3 of the paper); the reuse engine relies on
these to copy previously extracted mentions safely.

Declared semantics an extractor must honor:

* **scope α** — for every extraction, ``extent_end − extent_start < α``
  where the extent spans all its output spans.
* **context β** — whether an extraction at some position is produced
  depends only on the text within β characters of its extent (with
  region boundaries counting as part of the context when closer than β).
* **splitter** (optional) — the extractor is split-correct for the
  named splitter (:mod:`repro.extractors.splitters`): its output on a
  text is the union of its outputs on the text's splits.
* **split key** (optional, with a splitter) — a literal from the
  extractor's own rule that selects the splits it can extract from;
  every other split yields nothing
  (:func:`~repro.extractors.splitters.split_selected`).

The paper's blackboxes are heavyweight Perl/Java programs; pure-Python
regex scans are comparatively too cheap for extraction cost to dominate
the way it does on the authors' testbed. Each extractor therefore has a
``work_factor``: deterministic per-character CPU work emulating the
multi-pass analysis real extractors do. Set it to 0 for instant
extractors (useful in unit tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

Scalar = Union[str, int, float, bool, None]
FieldValue = Union["RelSpan", Scalar]

_SKIP_BURN = False


@contextmanager
def profiling_mode() -> Iterator[None]:
    """Temporarily disable the emulated blackbox work.

    The optimizer's statistics collector needs extraction *structure*
    (which regions, how many tuples), not extraction *cost*; skipping
    the work loop makes sampling nearly free without changing any
    extraction result. Extraction rates are then measured separately on
    a couple of regions with the work enabled.
    """
    global _SKIP_BURN
    previous = _SKIP_BURN
    _SKIP_BURN = True
    try:
        yield
    finally:
        _SKIP_BURN = previous


@dataclass(frozen=True, order=True)
class RelSpan:
    """A span relative to the extractor's input region."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start > self.end:
            raise ValueError(f"RelSpan start {self.start} > end {self.end}")

    def __len__(self) -> int:
        return self.end - self.start

    def shift(self, delta: int) -> "RelSpan":
        return RelSpan(self.start + delta, self.end + delta)


@dataclass(frozen=True)
class Extraction:
    """One output tuple of an extractor, relative to its input region.

    ``fields`` maps output variable names to span or scalar values. The
    *extent* is the hull of all span fields and is what scope/context
    guarantees are stated over.
    """

    fields: Tuple[Tuple[str, FieldValue], ...]

    @classmethod
    def of(cls, **fields: FieldValue) -> "Extraction":
        return cls(tuple(sorted(fields.items())))

    def get(self, var: str) -> FieldValue:
        for name, value in self.fields:
            if name == var:
                return value
        raise KeyError(var)

    def field_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.fields)

    def span_items(self) -> List[Tuple[str, RelSpan]]:
        return [(n, v) for n, v in self.fields if isinstance(v, RelSpan)]

    def extent(self) -> Optional[Tuple[int, int]]:
        """Hull ``(start, end)`` of all span fields; None if no spans."""
        spans = [v for _, v in self.fields if isinstance(v, RelSpan)]
        if not spans:
            return None
        return (min(s.start for s in spans), max(s.end for s in spans))

    def shift(self, delta: int) -> "Extraction":
        """Translate all span fields by ``delta``."""
        return Extraction(tuple(
            (n, v.shift(delta) if isinstance(v, RelSpan) else v)
            for n, v in self.fields))


class Extractor(ABC):
    """Base class for IE blackboxes."""

    #: The splitter the extractor is split-correct for, if any.
    splitter: Optional[str] = None
    #: The key selecting the splits it can extract from (None: all).
    split_key: Optional[str] = None

    def __init__(self, name: str, output_vars: Sequence[str],
                 scope: int, context: int, work_factor: int = 0) -> None:
        if scope <= 0:
            raise ValueError("scope (alpha) must be positive")
        if context < 0:
            raise ValueError("context (beta) must be >= 0")
        if work_factor < 0:
            raise ValueError("work_factor must be >= 0")
        self.name = name
        self.output_vars = tuple(output_vars)
        self.scope = scope
        self.context = context
        self.work_factor = work_factor

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"alpha={self.scope}, beta={self.context})")

    @abstractmethod
    def _extract(self, text: str) -> Iterable[Extraction]:
        """Produce extractions from ``text`` (region-relative offsets)."""

    def extract(self, text: str) -> List[Extraction]:
        """Run the blackbox on a region's text.

        Performs the extractor's emulated analysis work, runs the
        concrete extraction logic, and checks the scope declaration.
        """
        self._burn(text)
        out: List[Extraction] = []
        for ext in self._extract(text):
            hull = ext.extent()
            if hull is not None:
                if hull[0] < 0 or hull[1] > len(text):
                    raise ValueError(
                        f"{self.name}: extraction {hull} outside region "
                        f"of length {len(text)}")
                if hull[1] - hull[0] >= self.scope:
                    raise ValueError(
                        f"{self.name}: extraction extent {hull} violates "
                        f"declared scope {self.scope}")
            out.append(ext)
        return out

    def _burn(self, text: str) -> int:
        """Deterministic per-character work emulating a heavy blackbox."""
        if not self.work_factor or _SKIP_BURN:
            return 0
        acc = 0
        for _ in range(self.work_factor):
            for ch in text:
                acc = (acc * 31 + ord(ch)) & 0xFFFFFFFF
        return acc
