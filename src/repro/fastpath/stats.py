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
    #: byte-identical pages recycled whole: capture groups copied byte
    #: for byte and the previous run's rows returned, no plan walk.
    pages_recycled: int = 0
    #: output tuples of the recycled pages' capture.
    tuples_recycled: int = 0
    #: match-store lookups answered from the store (hits) / answered by
    #: running the matcher (misses).
    memo_hits: int = 0
    memo_misses: int = 0
    #: fingerprint-equal region pairs answered in O(1) by the memo's
    #: equal-region shortcut (no matcher ran, no store entry needed).
    region_short_circuits: int = 0
    #: entries the match store evicted while this run inserted.
    cache_evictions: int = 0
    #: suffix automata built vs reused from the per-page-pair cache.
    automata_built: int = 0
    automata_reused: int = 0
    #: q-region bytes copied to build automata. Builds are the only
    #: automaton path that copies text — cache hits are fingerprint
    #: compares — so this staying flat across hits is the proof.
    automata_bytes_copied: int = 0

    # Kept only because the benchmark harness reads them by name. An
    # identical page is recycled whole or not short-circuited at all;
    # every match-store hit is counted in ``memo_hits``; and reuse
    # files are read sequentially or loaded whole, never by seeks.

    @property
    def pages_short_circuited(self) -> int:
        return self.pages_recycled

    @property
    def cache_hits(self) -> int:
        return 0

    @property
    def reader_index_seeks(self) -> int:
        return 0

    def merge(self, other: "FastPathStats") -> None:
        """Accumulate a worker's counters into this one."""
        self.pages_paired += other.pages_paired
        self.pages_recycled += other.pages_recycled
        self.tuples_recycled += other.tuples_recycled
        self.memo_hits += other.memo_hits
        self.memo_misses += other.memo_misses
        self.region_short_circuits += other.region_short_circuits
        self.cache_evictions += other.cache_evictions
        self.automata_built += other.automata_built
        self.automata_reused += other.automata_reused
        self.automata_bytes_copied += other.automata_bytes_copied

    @property
    def memo_hit_rate(self) -> float:
        """The match store's hit rate: hits over store lookups; 0.0
        when nothing was looked up."""
        return safe_rate(self.memo_hits, self.memo_hits + self.memo_misses)

    @property
    def combined_hit_rate(self) -> float:
        """Fraction of matcher-level lookups answered without running a
        matcher: store hits and equal-region shortcuts over all lookups
        (memo_misses counts exactly the lookups that did run one)."""
        hits = self.memo_hits + self.region_short_circuits
        return safe_rate(hits, hits + self.memo_misses)

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
            "tuples_recycled": self.tuples_recycled,
            "memo_hits": self.memo_hits,
            "memo_misses": self.memo_misses,
            "memo_hit_rate": self.memo_hit_rate,
            "region_short_circuits": self.region_short_circuits,
            "cache_evictions": self.cache_evictions,
            "combined_hit_rate": self.combined_hit_rate,
            "automata_built": self.automata_built,
            "automata_reused": self.automata_reused,
            "automata_bytes_copied": self.automata_bytes_copied,
        }

    def describe(self) -> str:
        return (f"recycled {self.pages_recycled}/{self.pages_paired} "
                f"pages whole ({self.tuples_recycled} tuples); match store "
                f"{self.memo_hits}h/{self.memo_misses}m "
                f"(+{self.region_short_circuits} region hits, "
                f"combined {self.combined_hit_rate:.0%}, "
                f"{self.cache_evictions} evicted); automata "
                f"{self.automata_reused} reused/{self.automata_built} built")
