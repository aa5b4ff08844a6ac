"""Runtime metrics: what did the parallel run actually do?

Per-batch wall time, worker utilization, pages/sec, steal and split
counts for one snapshot run. The systems attach a
:class:`RuntimeMetrics` to their :class:`~repro.timing.Timings`
(``timings.runtime``) so callers that already consume timing
decompositions get runtime telemetry through the same object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..obs.util import safe_rate
from .scheduler import PageBatch


@dataclass(frozen=True)
class BatchMetric:
    """One work item's execution record.

    ``kind`` distinguishes whole-page batches (``"pages"``) from
    sub-page split parts (``"part"``); part items report ``pages=0``
    so page counts aren't inflated by splitting.
    """

    index: int
    pages: int
    chars: int
    seconds: float
    kind: str = "pages"


@dataclass
class RuntimeMetrics:
    """Aggregate runtime telemetry for one snapshot run."""

    backend: str
    jobs: int
    wall_seconds: float
    batches: List[BatchMetric]
    #: Work items an idle worker stole from another worker's queue.
    steals: int = 0
    #: Pages that were split into sub-page parts.
    split_pages: int = 0
    #: Total sub-page parts those pages produced.
    split_parts: int = 0
    #: Whether page text traveled via a shared-memory segment.
    shared_text: bool = False
    #: Per-worker-slot busy seconds (empty when unknown).
    slot_busy: List[float] = field(default_factory=list)

    @property
    def pages(self) -> int:
        """Pages processed — split pages count once, via their parent."""
        return sum(b.pages for b in self.batches) + self.split_pages

    @property
    def busy_seconds(self) -> float:
        """Sum of worker-side batch times (can exceed wall time)."""
        return sum(b.seconds for b in self.batches)

    @property
    def pages_per_second(self) -> float:
        """Pages over wall seconds; 0.0 on a zero/degenerate clock."""
        return safe_rate(self.pages, self.wall_seconds)

    @property
    def worker_utilization(self) -> float:
        """Busy time over available worker time, in [0, 1].

        0.0 whenever the denominator is degenerate (instant run,
        ``jobs == 0``) — never a ``ZeroDivisionError`` or ``nan``.
        """
        return min(1.0, safe_rate(self.busy_seconds,
                                  self.jobs * self.wall_seconds))

    @property
    def worker_busy_fractions(self) -> List[float]:
        """Per-slot busy fraction of wall time, each capped at 1.0."""
        return [min(1.0, safe_rate(busy, self.wall_seconds))
                for busy in self.slot_busy]

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the shared ``to_dict`` contract)."""
        return {
            "backend": self.backend,
            "jobs": self.jobs,
            "wall_seconds": self.wall_seconds,
            "pages": self.pages,
            "batches": len(self.batches),
            "busy_seconds": self.busy_seconds,
            "pages_per_second": self.pages_per_second,
            "worker_utilization": self.worker_utilization,
            "steals": self.steals,
            "split_pages": self.split_pages,
            "split_parts": self.split_parts,
            "shared_text": self.shared_text,
            "worker_busy_fractions": self.worker_busy_fractions,
        }

    #: Backwards-compatible alias (pre-serve callers used ``as_dict``).
    as_dict = to_dict

    def describe(self) -> str:
        extra = ""
        if self.steals:
            extra += f" steals={self.steals}"
        if self.split_pages:
            extra += f" splits={self.split_pages}/{self.split_parts}"
        if self.shared_text:
            extra += " shm"
        return (f"{self.backend} jobs={self.jobs} "
                f"batches={len(self.batches)} "
                f"pages/s={self.pages_per_second:.1f} "
                f"util={self.worker_utilization:.0%}" + extra)


def build_metrics(backend: str, jobs: int, wall_seconds: float,
                  batches: Sequence[PageBatch],
                  batch_seconds: Sequence[float],
                  extra_batches: Sequence[BatchMetric] = (),
                  steals: int = 0, split_pages: int = 0,
                  split_parts: int = 0, shared_text: bool = False,
                  slot_busy: Sequence[float] = ()) -> RuntimeMetrics:
    """Assemble metrics from scheduler batches and measured times.

    ``extra_batches`` carries non-PageBatch work items (sub-page
    parts).
    """
    if len(batches) != len(batch_seconds):
        raise ValueError("one measured time per batch required")
    records = [BatchMetric(index=b.index, pages=len(b), chars=b.chars,
                           seconds=s)
               for b, s in zip(batches, batch_seconds)]
    records.extend(extra_batches)
    return RuntimeMetrics(backend=backend, jobs=jobs,
                          wall_seconds=wall_seconds, batches=records,
                          steals=steals, split_pages=split_pages,
                          split_parts=split_parts,
                          shared_text=shared_text,
                          slot_busy=list(slot_busy))
