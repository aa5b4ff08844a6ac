"""The end-to-end Delex system (Section 7).

Given an IE task (xlog program + registry + declarations), Delex:

1. compiles the program into an execution tree and identifies its IE
   units and chains;
2. on the first reuse snapshot, estimates cost-model statistics from a
   small page sample and the last ``k`` snapshots, then runs Algorithm 1
   to assign a matcher to every IE unit. The paper re-plans on every
   snapshot; here the plan is kept until the last run's own page counts
   drift from those of the run it was chosen on (see
   :class:`PageMix`), because on a steady series the sample costs as
   much as the extraction it prices and picks the same plan;
3. executes the so-augmented tree with the reuse engine, recycling the
   previous snapshot's capture and writing capture for the next: a
   page table whose entries point into append-only group segments
   (:mod:`repro.reuse.files`), so the capture of an unchanged page is
   the previous table entry.

The first snapshot is a bootstrap: plain execution plus capture.

The Cyclex and Shortcut baselines are this system over a one-unit
plan (:mod:`repro.core.cyclex`): they override only :meth:`_compile`
and :meth:`_choose_assignment`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..corpus.snapshot import Snapshot
from ..extractors.library import IETask
from ..fastpath.config import FastPathFlag, fastpath_enabled
from ..optimizer.params import Statistics
from ..optimizer.search import SearchResult, search_plan
from ..optimizer.stats import collect_statistics
from ..plan.compile import CompiledPlan, compile_program
from ..plan.units import IEChain, IEUnit, find_units, partition_chains
from ..reuse.engine import (
    PageRows,
    PlanAssignment,
    ReuseEngine,
    SnapshotRunResult,
)
from ..reuse.files import TABLE_NAME, CaptureSummary, PageTable
from ..reuse.scope import PageMatchScope
from ..runtime.executor import Executor
from ..timing import OPT, Timer, Timings


#: Absolute change in either :class:`PageMix` fraction, against the run
#: the plan was chosen on, that makes the next snapshot re-plan, at
#: least. A regime shift moves one fraction by 0.33 or more where it
#: lands.
REPLAN_DRIFT = 0.2

#: Standard errors a fraction may move by on noise alone before the
#: next snapshot re-plans. A stationary series moves by binomial noise,
#: which grows as the page count shrinks: at 16 pages a calm series
#: (``p_unchanged`` 0.3) reads an identical fraction anywhere in
#: 0.125-0.5625, which a fixed 0.2 took for drift twice in 11
#: snapshots.
REPLAN_Z = 3.0


def drift_bound(fraction: float, pages: int) -> float:
    """How far ``fraction`` of ``pages`` pages may move before the plan
    is re-chosen: ``max(REPLAN_DRIFT, z·SE)`` with SE the binomial
    standard error of the fraction. At 160 pages SE is at most 0.04,
    so the bound is :data:`REPLAN_DRIFT` from there up."""
    se = math.sqrt(fraction * (1.0 - fraction) / max(1, pages))
    return max(REPLAN_DRIFT, REPLAN_Z * se)


@dataclass(frozen=True)
class PageMix:
    """The page population of one run, as the re-plan trigger sees it.

    Both fractions are counts the engine keeps anyway, so the trigger
    reads no clock: the share of pages with a previous version, and the
    share byte-identical to it. The second is counted whether or not
    the page is then recycled, so the trigger sees churn with the fast
    paths off too.
    """

    with_previous: float
    identical: float
    pages: int

    @classmethod
    def of(cls, result: SnapshotRunResult) -> "PageMix":
        pages = max(1, result.pages)
        fastpath = result.timings.fastpath
        identical = fastpath.pages_identical if fastpath is not None else 0
        return cls(result.pages_with_previous / pages, identical / pages,
                   pages)

    def bounds(self) -> Tuple[float, float]:
        """:func:`drift_bound` of each fraction of this run."""
        return (drift_bound(self.with_previous, self.pages),
                drift_bound(self.identical, self.pages))

    def drifted_from(self, baseline: "PageMix") -> bool:
        """Whether either fraction moved past its bound at
        ``baseline``."""
        with_previous, identical = baseline.bounds()
        return (abs(self.with_previous - baseline.with_previous)
                > with_previous
                or abs(self.identical - baseline.identical) > identical)

    def to_dict(self) -> Dict[str, float]:
        return {"pages_with_previous_frac": round(self.with_previous, 4),
                "pages_identical_frac": round(self.identical, 4),
                "pages": self.pages}


class DelexSystem:
    """Multi-blackbox IE over evolving text with unit-level recycling."""

    name = "delex"

    def __init__(self, task: IETask, workdir: str,
                 sample_size: int = 8, k_snapshots: int = 3,
                 fixed_assignment: Optional[PlanAssignment] = None,
                 capture_history: int = 2,
                 scope: Optional["PageMatchScope"] = None,
                 executor: Optional[Executor] = None,
                 fastpath: FastPathFlag = None) -> None:
        self.task = task
        self.workdir = workdir
        self.executor = executor
        self.fastpath = fastpath_enabled(fastpath)
        os.makedirs(workdir, exist_ok=True)
        self.plan, self.units = self._compile(task)
        self.chains: List[IEChain] = partition_chains(self.units)
        self.sample_size = sample_size
        self.k_snapshots = k_snapshots
        self.fixed_assignment = fixed_assignment
        self.scope = scope
        self.capture_history = max(1, capture_history)
        self._history: List[Snapshot] = []
        self._prev_dir: Optional[str] = None
        self._snapshot_serial = 0
        self.last_search: Optional[SearchResult] = None
        self.last_assignment: Optional[PlanAssignment] = None
        #: Statistics behind ``last_search`` and the snapshot index they
        #: were sampled on. On snapshots where the plan is kept without
        #: re-sampling (no page-mix drift, fixed assignment) these stay
        #: at the values that justified the current plan.
        self.last_stats: Optional[Statistics] = None
        self.last_stats_index: Optional[int] = None
        #: Whether the snapshot last processed ran the collector and
        #: search, and the page mix of the run the current plan was
        #: chosen on (the trigger's baseline; None: plan afresh).
        self.replanned = False
        self.plan_mix: Optional[PageMix] = None
        #: What the trigger read for the last snapshot: the previous
        #: run's page mix and the baseline it was compared with.
        self.last_trigger: Optional[Dict[str, object]] = None
        self._last_result: Optional[SnapshotRunResult] = None
        self._extract_rates: Dict[str, float] = {}
        self._match_rates: Dict[str, float] = {}
        #: The last run's materialized rows split by producing page
        #: (``did -> relation -> rows``), collected by the engine at no
        #: extra extraction cost. They belong to the capture in
        #: ``_prev_dir``: the next run recycles identical pages from
        #: both, and the serving layer applies them as a delta. The
        #: lists are shared between runs and never mutated.
        self.last_page_rows: Optional[Dict[str, PageRows]] = None
        #: Capture directory -> the segment files its page table
        #: references, for the retained captures the GC has seen.
        self._capture_refs: Dict[str, Set[str]] = {}

    def _compile(self, task: IETask) -> Tuple[CompiledPlan, List[IEUnit]]:
        """The plan the engine runs and its IE units."""
        plan = compile_program(task.program, task.registry)
        return plan, find_units(plan)

    def _out_dir(self) -> str:
        return os.path.join(self.workdir,
                            f"snap_{self._snapshot_serial:04d}")

    def resume(self, history: List[Snapshot], prev_dir: Optional[str],
               serial: int) -> None:
        """Restore state after a process restart.

        ``history`` lists the most recently processed snapshots, oldest
        first (at least the last one); ``prev_dir`` is the capture
        directory written for the last processed snapshot; ``serial``
        is the next capture serial to use. Used by
        :class:`~repro.core.pipeline.DelexPipeline`.

        The previous run's rows are not restored, so the first snapshot
        after a restart recycles no page: every page runs its units
        with their assigned matchers against the capture in
        ``prev_dir``, and the snapshot after it recycles again. A
        ``prev_dir`` without a readable page table (written by an older
        layout, or left by a crash before its table was written) is no
        capture: every page of that snapshot runs from scratch. The
        first reuse snapshot after a restart plans afresh.
        """
        if serial < 0:
            raise ValueError("serial must be >= 0")
        if prev_dir is not None and not os.path.isdir(prev_dir):
            raise ValueError(f"capture directory {prev_dir!r} missing")
        self._history = list(history)
        self._prev_dir = prev_dir
        self._snapshot_serial = serial
        self._last_result = None
        self.last_page_rows = None
        self.plan_mix = None
        self._capture_refs = {}

    def process(self, snapshot: Snapshot,
                prev_snapshot: Optional[Snapshot] = None
                ) -> SnapshotRunResult:
        """Process one snapshot; call with consecutive snapshots.

        ``prev_snapshot`` is accepted for interface symmetry with the
        baselines but Delex tracks its own history; when provided it
        must be the snapshot Delex saw last.
        """
        if prev_snapshot is not None and self._history:
            if prev_snapshot.index != self._history[-1].index:
                raise ValueError("prev_snapshot is not the last snapshot "
                                 "processed by this DelexSystem")
        timings = Timings()
        timer = Timer(timings)
        self.replanned = False
        self.last_trigger = None
        assignment = self._choose_assignment(snapshot, timer)
        self.last_assignment = assignment
        engine = ReuseEngine(self.plan, self.units, assignment,
                             scope=self.scope, executor=self.executor,
                             fastpath=self.fastpath)
        out_dir = self._out_dir()
        page_rows: Dict[str, PageRows] = {}
        result = engine.run_snapshot(
            snapshot,
            self._history[-1] if self._history else None,
            self._prev_dir, out_dir, timings=timings,
            page_rows_out=page_rows, prev_page_rows=self.last_page_rows)
        self.last_page_rows = page_rows
        self._last_result = result
        if self.replanned:
            self.plan_mix = PageMix.of(result)
        self._gc_old_capture(out_dir, result.capture)
        self._prev_dir = out_dir
        self._snapshot_serial += 1
        self._history.append(snapshot)
        if len(self._history) > max(self.k_snapshots + 1, 4):
            self._history.pop(0)
        return result

    def _choose_assignment(self, snapshot: Snapshot,
                           timer: Timer) -> PlanAssignment:
        """Pick the matcher assignment for ``snapshot``.

        The first reuse snapshot samples, searches and adopts the
        winner. Later snapshots keep that plan until the last run's
        :class:`PageMix` differs from the one of the run the plan was
        chosen on by more than :func:`drift_bound`; then this snapshot
        samples and searches again and adopts the new winner.
        """
        if not self._history or self._prev_dir is None:
            return self.fixed_assignment or PlanAssignment.all_dn(self.units)
        if self.fixed_assignment is not None:
            return self.fixed_assignment
        mix = (PageMix.of(self._last_result)
               if self._last_result is not None else None)
        baseline = self.plan_mix
        self.last_trigger = {
            "mix": mix.to_dict() if mix is not None else None,
            "baseline": baseline.to_dict() if baseline is not None else None,
            "bound": ([round(b, 4) for b in baseline.bounds()]
                      if baseline is not None else None),
        }
        if (mix is None or baseline is None
                or mix.drifted_from(baseline)):
            self._sample_and_search(snapshot, timer)
        return self.last_search.assignment

    def _sample_and_search(self, snapshot: Snapshot, timer: Timer) -> None:
        """Run the §6.3 collector plus Algorithm-1 search and adopt the
        winner; the seconds count as Opt."""
        with timer.measure_total():
            with timer.measure(OPT):
                prev_stats = (self._last_result.unit_stats
                              if self._last_result is not None else None)
                stats = collect_statistics(
                    self.plan, self.units, snapshot, self._history,
                    sample_size=self.sample_size,
                    k_snapshots=self.k_snapshots,
                    max_match_pairs=min(self.sample_size, 3),
                    prev_capture_dir=self._prev_dir,
                    prev_unit_stats=prev_stats,
                    known_extract_rates=self._extract_rates,
                    known_match_rates=self._match_rates,
                    fastpath=self.fastpath)
                search = search_plan(self.units, stats, self.chains)
        self.last_search = search
        self.last_stats = stats
        self.last_stats_index = snapshot.index
        self.replanned = True

    def _gc_old_capture(self, out_dir: str,
                        capture: Optional[CaptureSummary]) -> None:
        """Keep the page tables of the last ``capture_history`` + 1
        captures (``out_dir``'s, just written as ``capture``, and the
        ones before it) and every segment they reference; delete every
        other capture file, and capture directories left empty.

        A segment is never deleted while a retained table references
        it, since the next run may read it through ``out_dir``'s table.
        The engine bounds what one table references (a full capture
        once its segments hold twice its live bytes), so this bounds
        the disk use.
        """
        workdir = os.path.normpath(self.workdir)
        serial = self._snapshot_serial
        retained = {os.path.join(workdir, f"snap_{s:04d}")
                    for s in range(max(0, serial - self.capture_history),
                                   serial + 1)}
        out_dir = os.path.normpath(out_dir)
        if capture is not None:
            self._capture_refs[out_dir] = set(capture.segments)
        self._capture_refs = {d: refs for d, refs
                              in self._capture_refs.items() if d in retained}
        live: Set[str] = set()
        for directory in retained:
            refs = self._capture_refs.get(directory)
            if refs is None:
                try:
                    refs = set(PageTable.load(directory)
                               .segment_paths(directory).values())
                except (OSError, ValueError):
                    refs = set()
                self._capture_refs[directory] = refs
            live |= refs
        for name in os.listdir(workdir):
            directory = os.path.join(workdir, name)
            if not name.startswith("snap_") or not os.path.isdir(directory):
                continue
            kept = 0
            for file_name in os.listdir(directory):
                path = os.path.join(directory, file_name)
                if (directory in retained if file_name == TABLE_NAME
                        else path in live):
                    kept += 1
                else:
                    os.unlink(path)
            if not kept:
                os.rmdir(directory)

    def describe_plan(self) -> Dict[str, str]:
        """The matcher assignment used for the last snapshot."""
        if self.last_assignment is None:
            return {}
        return dict(self.last_assignment.matchers)
