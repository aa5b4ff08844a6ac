"""Opt-in profiling hooks: wall/CPU per IE unit and matcher, slow pages.

A :class:`Profiler` (installed with :func:`install`) accumulates three
things while the engines run:

* per-IE-unit wall and CPU seconds (``time.process_time`` deltas), so
  the cost-based optimizer's per-unit statistics can be sanity-checked
  against what the units actually cost;
* per-matcher wall and CPU seconds, keyed on the matcher *name* —
  the Figure 13 view of where Match time goes;
* a top-K slowest-pages log (a bounded min-heap, so memory stays
  O(K) no matter how many pages stream through).

Every instrumentation site guards with ``if profile.ENABLED:`` — one
module-attribute load per site when profiling is off, the same
zero-cost pattern as :mod:`repro.check.invariants` — and the recorded
numbers never feed back into execution, so extraction output is
byte-identical with profiling on or off.

A single lock guards the dicts and the heap (only paid when profiling
is enabled). A forked process worker profiles each work item into a
fresh profiler and hands it back with the item's value; the parent
folds it in with :meth:`Profiler.merge`.
"""

from __future__ import annotations

import heapq
import threading
from typing import Any, Dict, List, Optional, Tuple

from .util import safe_rate

#: Master switch; sites guard with ``if profile.ENABLED:``.
ENABLED = False

#: The installed profiler (None when profiling is off).
PROFILER: Optional["Profiler"] = None

DEFAULT_TOP_K = 10


class _Acc:
    """calls / wall / cpu accumulator."""

    __slots__ = ("calls", "wall", "cpu")

    def __init__(self) -> None:
        self.calls = 0
        self.wall = 0.0
        self.cpu = 0.0

    def add(self, wall: float, cpu: float) -> None:
        self.calls += 1
        self.wall += max(0.0, wall)
        self.cpu += max(0.0, cpu)

    def absorb(self, other: "_Acc") -> None:
        self.calls += other.calls
        self.wall += other.wall
        self.cpu += other.cpu

    def to_dict(self) -> Dict[str, float]:
        return {"calls": self.calls, "wall_seconds": self.wall,
                "cpu_seconds": self.cpu,
                "mean_wall_seconds": safe_rate(self.wall, self.calls)}


class Profiler:
    """Per-unit / per-matcher accounting plus a top-K slow-page heap."""

    def __init__(self, top_k: int = DEFAULT_TOP_K) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.top_k = top_k
        self._lock = threading.Lock()
        self._units: Dict[str, _Acc] = {}
        self._matchers: Dict[str, _Acc] = {}
        # Min-heap of (seconds, seq, did): the root is the *fastest*
        # retained page, so pushpop keeps exactly the K slowest.
        self._pages: List[Tuple[float, int, str]] = []
        self._seq = 0
        self.pages_seen = 0

    # -- recording hooks ---------------------------------------------------

    def record_unit(self, uid: str, wall: float, cpu: float) -> None:
        with self._lock:
            acc = self._units.get(uid)
            if acc is None:
                acc = self._units[uid] = _Acc()
            acc.add(wall, cpu)

    def record_matcher(self, name: str, wall: float, cpu: float) -> None:
        with self._lock:
            acc = self._matchers.get(name)
            if acc is None:
                acc = self._matchers[name] = _Acc()
            acc.add(wall, cpu)

    def record_page(self, did: str, seconds: float) -> None:
        with self._lock:
            self.pages_seen += 1
            self._keep_page(did, seconds)

    def _keep_page(self, did: str, seconds: float) -> None:
        self._seq += 1
        entry = (max(0.0, seconds), self._seq, did)
        if len(self._pages) < self.top_k:
            heapq.heappush(self._pages, entry)
        elif entry > self._pages[0]:
            heapq.heapreplace(self._pages, entry)

    def merge(self, other: "Profiler") -> None:
        """Fold ``other``'s accounting (a process worker's) into this
        profiler."""
        with self._lock:
            for mine, theirs in ((self._units, other._units),
                                 (self._matchers, other._matchers)):
                for key, acc in theirs.items():
                    mine.setdefault(key, _Acc()).absorb(acc)
            for seconds, _, did in sorted(other._pages):
                self._keep_page(did, seconds)
            self.pages_seen += other.pages_seen

    def __getstate__(self) -> Dict[str, Any]:
        # A worker's profiler travels back to the parent without its lock.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- export ------------------------------------------------------------

    def slow_pages(self) -> List[Dict[str, Any]]:
        """The K slowest pages, slowest first."""
        with self._lock:
            entries = sorted(self._pages, reverse=True)
        return [{"did": did, "seconds": seconds}
                for seconds, _, did in entries]

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            units = {uid: acc.to_dict()
                     for uid, acc in sorted(self._units.items())}
            matchers = {name: acc.to_dict()
                        for name, acc in sorted(self._matchers.items())}
        return {
            "top_k": self.top_k,
            "pages_seen": self.pages_seen,
            "units": units,
            "matchers": matchers,
            "slow_pages": self.slow_pages(),
        }


# -- module-level facade ----------------------------------------------------

def install(top_k: int = DEFAULT_TOP_K) -> Profiler:
    """Install a fresh profiler and flip :data:`ENABLED` on."""
    global PROFILER, ENABLED
    PROFILER = Profiler(top_k=top_k)
    ENABLED = True
    return PROFILER


def uninstall() -> Optional[Profiler]:
    """Disable profiling; returns the profiler that was installed."""
    global PROFILER, ENABLED
    profiler, PROFILER = PROFILER, None
    ENABLED = False
    return profiler


def record_unit(uid: str, wall: float, cpu: float) -> None:
    profiler = PROFILER
    if profiler is not None:
        profiler.record_unit(uid, wall, cpu)


def record_matcher(name: str, wall: float, cpu: float) -> None:
    profiler = PROFILER
    if profiler is not None:
        profiler.record_matcher(name, wall, cpu)


def record_page(did: str, seconds: float) -> None:
    profiler = PROFILER
    if profiler is not None:
        profiler.record_page(did, seconds)
