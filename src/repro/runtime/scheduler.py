"""Page batches: pack the canonical page order into balanced batches.

:func:`plan_batches` partitions a page sequence into size-balanced
batches packed **largest-first** (LPT greedy): pages sorted by
descending weight are dealt onto the currently-lightest batch, which
bounds the heaviest batch at (4/3 − 1/(3m)) × optimal and guarantees
the largest page lands in a batch alone whenever that is the balanced
choice.

The price of LPT is that batches are not contiguous slices of the
canonical order, so per-batch outputs cannot be merged by plain
concatenation — the driver merges by canonical page id instead (see
:mod:`repro.runtime.driver`). Pages *within* one batch stay in
canonical order, so per-batch processing and capture buffers remain
deterministic.

Weights are total page length in characters — the best cheap proxy
for per-page IE cost: extraction, matching, and copy work all scale
with region characters. A mild oversubscription
(:data:`DEFAULT_BATCHES_PER_JOB` batches per worker) leaves the pool
queue small items to hand an idle worker at the run's tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

from ..text.document import Page

#: Batches per worker: enough slack to smooth page-length skew
#: without drowning the run in per-batch overhead.
DEFAULT_BATCHES_PER_JOB = 4


@dataclass(frozen=True)
class PageBatch:
    """A set of pages processed together, in canonical relative order."""

    index: int
    pages: Tuple[Page, ...]

    @property
    def chars(self) -> int:
        return sum(len(p.text) for p in self.pages)

    def __len__(self) -> int:
        return len(self.pages)

    def __iter__(self) -> Iterator[Page]:
        return iter(self.pages)


def pack_lpt(weights: Sequence[float], n_bins: int
             ) -> List[List[int]]:
    """LPT greedy: deal indices, heaviest first, onto the lightest bin.

    Returns per-bin index lists; indices within a bin are in original
    order, and bins are ordered by their smallest index so downstream
    numbering is deterministic. Empty bins are dropped.
    """
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    order = sorted(range(len(weights)),
                   key=lambda i: (-weights[i], i))
    bins: List[List[int]] = [[] for _ in range(n_bins)]
    loads = [0.0] * n_bins
    for i in order:
        b = min(range(n_bins), key=lambda s: (loads[s], s))
        bins[b].append(i)
        loads[b] += weights[i]
    packed = [sorted(b) for b in bins if b]
    packed.sort(key=lambda b: b[0])
    return packed


def plan_batches(pages: Sequence[Page], jobs: int) -> List[PageBatch]:
    """Partition ``pages`` into at most ``jobs * DEFAULT_BATCHES_PER_JOB``
    batches with near-equal character totals.

    Every page appears in exactly one batch; pages within a batch are
    in canonical order; batches are ordered by the canonical position
    of their first page; no batch is empty.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if not pages:
        return []
    n_batches = min(len(pages), jobs * DEFAULT_BATCHES_PER_JOB)
    # Weight 1 + len(text): even empty pages carry bookkeeping cost,
    # and it keeps the packing defined for all-empty snapshots.
    weights = [1 + len(p.text) for p in pages]
    return [PageBatch(index=k, pages=tuple(pages[i] for i in group))
            for k, group in enumerate(pack_lpt(weights, n_batches))]
