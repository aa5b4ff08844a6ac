"""Runtime decomposition accounting (the Figure 11 categories).

Every system reports its elapsed time split into the paper's
components: Match, Extraction, Copy, Opt, and Others (relational
operators, reuse-file I/O, bookkeeping). Timers are accumulated with
``perf_counter`` around the relevant code regions; the engine takes
care that categories never nest, so the parts sum to at most the
total and "Others" is the measured remainder.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Optional

if TYPE_CHECKING:  # typing-only; avoids a package import cycle
    from .fastpath.stats import FastPathStats
    from .runtime.metrics import RuntimeMetrics

MATCH = "match"
EXTRACT = "extract"
COPY = "copy"
OPT = "opt"
IO = "io"
OTHER = "other"

CATEGORIES = (MATCH, EXTRACT, COPY, OPT, IO, OTHER)


@dataclass
class Timings:
    """Accumulated seconds per category plus the wall-clock total.

    ``runtime`` optionally carries the execution runtime's telemetry
    (:class:`~repro.runtime.metrics.RuntimeMetrics`) for the run that
    produced these timings: per-batch wall time, worker utilization,
    pages/sec. It is attached by the systems when they route their
    page loop through :mod:`repro.runtime`.

    ``fastpath`` optionally carries the snapshot-delta fast-path
    counters (:class:`~repro.fastpath.stats.FastPathStats`): pages
    recycled, match-store hits, automata reused. Attached by the
    engines.
    """

    parts: Dict[str, float] = field(default_factory=dict)
    total: float = 0.0
    runtime: Optional["RuntimeMetrics"] = field(default=None, repr=False,
                                                compare=False)
    fastpath: Optional["FastPathStats"] = field(default=None, repr=False,
                                                compare=False)

    def add(self, category: str, seconds: float) -> None:
        self.parts[category] = self.parts.get(category, 0.0) + seconds

    def get(self, category: str) -> float:
        return self.parts.get(category, 0.0)

    @property
    def others(self) -> float:
        """Total minus all attributed categories, clamped at 0.

        Under the thread/process backends the per-worker category
        seconds are summed across workers while ``total`` is the
        parent's wall clock, so the attributed sum can legitimately
        exceed ``total`` — the derived remainder must never go
        negative. The clamped-away excess is *not* silently dropped:
        it is reported explicitly as :attr:`overlap_seconds`.
        """
        attributed = sum(self.parts.values())
        return max(0.0, self.total - attributed)

    @property
    def overlap_seconds(self) -> float:
        """Attributed seconds in excess of wall ``total`` (>= 0).

        Zero for serial runs; under parallel backends this is the
        amount of per-worker time that overlapped in wall-clock terms
        — the quantity the :attr:`others` clamp keeps out of the
        decomposition instead of mis-reporting it as a negative
        remainder. Meaningless (and reported as 0) when no wall total
        was measured.
        """
        if self.total <= 0.0:
            return 0.0
        attributed = sum(self.parts.values())
        return max(0.0, attributed - self.total)

    def as_row(self) -> Dict[str, float]:
        """Figure 11-style decomposition row."""
        return {
            "match": self.get(MATCH),
            "extraction": self.get(EXTRACT),
            "copy": self.get(COPY),
            "opt": self.get(OPT),
            "io": self.get(IO),
            "others": self.others,
            "total": self.total,
        }

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the shared ``to_dict`` contract).

        The decomposition row plus — when attached — the nested
        runtime and fast-path telemetry, each through its own
        ``to_dict``. This is what ``repro run --metrics-json`` and the
        serving layer's ``/metrics`` endpoint emit; everything in the
        returned mapping is plain JSON types.
        """
        out: Dict[str, object] = dict(self.as_row())
        out["overlap_seconds"] = self.overlap_seconds
        if self.runtime is not None:
            out["runtime"] = self.runtime.to_dict()
        if self.fastpath is not None:
            out["fastpath"] = self.fastpath.to_dict()
        return out


class _NoopMeasure:
    """Returned for nested measures; attributes nothing."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NOOP_MEASURE = _NoopMeasure()


class _Measure:
    """Hand-rolled measuring context: the engine opens one of these
    per input row per category, so the ~2.5us a ``@contextmanager``
    generator costs per block was showing up as phantom matcher time
    on fast-path runs whose real per-row work is sub-microsecond."""

    __slots__ = ("_timer", "category", "_start")

    def __init__(self, timer: "Timer") -> None:
        self._timer = timer
        self.category = ""
        self._start = 0.0

    def __enter__(self) -> None:
        self._timer._active = True
        self._start = time.perf_counter()
        return None

    def __exit__(self, *exc) -> bool:
        timer = self._timer
        timer.timings.add(self.category, time.perf_counter() - self._start)
        timer._active = False
        return False


class Timer:
    """Accumulates time into a :class:`Timings` object.

    The ``measure`` context manager is reentrancy-guarded: while one
    category is being measured, nested measures are ignored so no
    second of wall-clock is attributed twice. The returned context
    object is reused across calls (enter it immediately, ``with
    timer.measure(...)``-style; holding several un-entered measures
    from one timer is not supported).
    """

    def __init__(self, timings: Timings) -> None:
        self.timings = timings
        self._active = False
        self._measure = _Measure(self)

    def measure(self, category: str) -> "_Measure | _NoopMeasure":
        if self._active:
            return _NOOP_MEASURE
        m = self._measure
        m.category = category
        return m

    @contextmanager
    def measure_total(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings.total += time.perf_counter() - start
