"""Fast-path hit/miss accounting.

Mirrors :class:`~repro.runtime.metrics.RuntimeMetrics`: a small
mutable counter bundle attached to :class:`~repro.timing.Timings`
(``timings.fastpath``) so every system's per-snapshot report carries
how much work its fast paths avoided. Counters merge across parallel
workers exactly like :class:`~repro.reuse.engine.UnitRunStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from ..obs.util import safe_rate


@dataclass
class FastPathStats:
    """Counters for one snapshot run's fast-path activity."""

    #: page pairs considered (q version existed).
    pages_paired: int = 0
    #: byte-identical pages recycled whole: the page-table row copied
    #: (groups kept by reference) and the previous run's rows returned,
    #: no plan walk.
    pages_recycled: int = 0
    #: byte-identical pairs, recycled or not, counted whatever the
    #: fast-path setting: the churn the re-plan trigger reads.
    pages_identical: int = 0
    #: output tuples of the recycled pages' capture.
    tuples_recycled: int = 0
    #: ST/UD candidate regions a matcher ran on.
    memo_misses: int = 0
    #: regions and declared splits answered by content-addressed
    #: replay: text the unit recorded on the previous page, so no
    #: matcher ran and nothing was extracted.
    region_short_circuits: int = 0

    # Kept only because the benchmark harness reads them by name. An
    # identical page is recycled whole or not short-circuited at all;
    # there is no match store (no hits, no evictions) and no automaton
    # cache; and reuse files are loaded whole, never read by seeks.

    @property
    def pages_short_circuited(self) -> int:
        return self.pages_recycled

    @property
    def memo_hits(self) -> int:
        return 0

    @property
    def cache_hits(self) -> int:
        return 0

    @property
    def cache_evictions(self) -> int:
        return 0

    @property
    def automata_built(self) -> int:
        return 0

    @property
    def automata_reused(self) -> int:
        return 0

    @property
    def reader_index_seeks(self) -> int:
        return 0

    def merge(self, other: "FastPathStats") -> None:
        """Accumulate a worker's counters into this one."""
        self.pages_paired += other.pages_paired
        self.pages_recycled += other.pages_recycled
        self.pages_identical += other.pages_identical
        self.tuples_recycled += other.tuples_recycled
        self.memo_misses += other.memo_misses
        self.region_short_circuits += other.region_short_circuits

    @property
    def combined_hit_rate(self) -> float:
        """Replayed regions and splits over those plus the ST/UD
        candidates a matcher ran on; 0.0 when there were none."""
        return safe_rate(self.region_short_circuits,
                         self.region_short_circuits + self.memo_misses)

    @property
    def unchanged_fraction(self) -> float:
        """Recycled over paired pages; 0.0 with no pairs."""
        return safe_rate(self.pages_recycled, self.pages_paired)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (the shared ``to_dict`` contract)."""
        return {
            "pages_paired": self.pages_paired,
            "pages_short_circuited": self.pages_short_circuited,
            "pages_recycled": self.pages_recycled,
            "pages_identical": self.pages_identical,
            "tuples_recycled": self.tuples_recycled,
            "memo_misses": self.memo_misses,
            "region_short_circuits": self.region_short_circuits,
            "combined_hit_rate": self.combined_hit_rate,
        }

    def describe(self) -> str:
        return (f"recycled {self.pages_recycled}/{self.pages_paired} "
                f"pages whole ({self.tuples_recycled} tuples); "
                f"{self.region_short_circuits} regions/splits replayed "
                f"without a matcher, {self.memo_misses} matched "
                f"(combined {self.combined_hit_rate:.0%})")
