"""Corpus change statistics (the quantities behind Figure 8a).

These feed both the experiment reports and the optimizer's estimate of
``f`` — the fraction of pages with an earlier version in the previous
snapshot (Figure 7b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..fastpath.fingerprint import pages_identical
from .snapshot import Snapshot


@dataclass(frozen=True)
class SnapshotDelta:
    """Change profile between two consecutive snapshots."""

    prev_index: int
    next_index: int
    pages_prev: int
    pages_next: int
    shared_urls: int
    identical_pages: int

    @property
    def fraction_with_previous(self) -> float:
        """The optimizer's ``f``: pages of the new snapshot whose URL
        existed in the previous one."""
        if self.pages_next == 0:
            return 0.0
        return self.shared_urls / self.pages_next

    @property
    def fraction_identical(self) -> float:
        """Fraction of new-snapshot pages byte-identical to their
        previous version (what makes Shortcut win or lose)."""
        if self.pages_next == 0:
            return 0.0
        return self.identical_pages / self.pages_next


def snapshot_delta(prev: Snapshot, nxt: Snapshot) -> SnapshotDelta:
    shared = 0
    identical = 0
    for page in nxt:
        old = prev.get(page.url)
        if old is None:
            continue
        shared += 1
        if pages_identical(page, old):
            identical += 1
    return SnapshotDelta(prev.index, nxt.index, len(prev), len(nxt),
                         shared, identical)


@dataclass(frozen=True)
class CorpusProfile:
    """Aggregate statistics over a snapshot sequence (Figure 8a row)."""

    snapshots: int
    avg_pages: float
    avg_bytes: float
    avg_fraction_identical: float
    avg_fraction_with_previous: float


def profile_corpus(snapshots: Sequence[Snapshot]) -> CorpusProfile:
    """Summarize a full snapshot sequence."""
    if not snapshots:
        raise ValueError("need at least one snapshot")
    deltas: List[SnapshotDelta] = [
        snapshot_delta(a, b) for a, b in zip(snapshots, snapshots[1:])
    ]
    avg_pages = sum(len(s) for s in snapshots) / len(snapshots)
    avg_bytes = sum(s.total_bytes() for s in snapshots) / len(snapshots)
    if deltas:
        avg_ident = sum(d.fraction_identical for d in deltas) / len(deltas)
        avg_prev = sum(d.fraction_with_previous for d in deltas) / len(deltas)
    else:
        avg_ident = avg_prev = 0.0
    return CorpusProfile(len(snapshots), avg_pages, avg_bytes,
                         avg_ident, avg_prev)
