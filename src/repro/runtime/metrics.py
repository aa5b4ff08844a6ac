"""Runtime metrics: what did the parallel run actually do?

Per-batch wall time, worker utilization and pages/sec for one
snapshot run. The systems attach a
:class:`RuntimeMetrics` to their :class:`~repro.timing.Timings`
(``timings.runtime``) so callers that already consume timing
decompositions get runtime telemetry through the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..obs.util import safe_rate
from .scheduler import PageBatch


@dataclass(frozen=True)
class BatchMetric:
    """One batch's execution record."""

    index: int
    pages: int
    chars: int
    seconds: float


@dataclass
class RuntimeMetrics:
    """Aggregate runtime telemetry for one snapshot run."""

    backend: str
    jobs: int
    wall_seconds: float
    batches: List[BatchMetric]

    @property
    def pages(self) -> int:
        """Pages processed."""
        return sum(b.pages for b in self.batches)

    @property
    def split_parts(self) -> int:
        """Always 0: a page is the unit of parallel work and is never
        split. Kept read-only because the benchmark harness reads it
        (``runtime.split_parts``) and its directory is frozen."""
        return 0

    @property
    def steals(self) -> int:
        """Always 0: workers take items from one pool queue, nothing
        is stolen. Kept read-only because the benchmark harness reads
        it (``runtime.steals``) and its directory is frozen."""
        return 0

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
        }

    def describe(self) -> str:
        return (f"{self.backend} jobs={self.jobs} "
                f"batches={len(self.batches)} "
                f"pages/s={self.pages_per_second:.1f} "
                f"util={self.worker_utilization:.0%}")


def build_metrics(backend: str, jobs: int, wall_seconds: float,
                  batches: Sequence[PageBatch],
                  batch_seconds: Sequence[float]) -> RuntimeMetrics:
    """Assemble metrics from page batches and measured times."""
    if len(batches) != len(batch_seconds):
        raise ValueError("one measured time per batch required")
    records = [BatchMetric(index=b.index, pages=len(b), chars=b.chars,
                           seconds=s)
               for b, s in zip(batches, batch_seconds)]
    return RuntimeMetrics(backend=backend, jobs=jobs,
                          wall_seconds=wall_seconds, batches=records)
