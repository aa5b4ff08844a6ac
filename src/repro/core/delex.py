"""The end-to-end Delex system (Section 7).

Given an IE task (xlog program + registry + declarations), Delex:

1. compiles the program into an execution tree and identifies its IE
   units and chains;
2. per snapshot, estimates cost-model statistics from a small page
   sample and the last ``k`` snapshots, then runs Algorithm 1 to assign
   a matcher to every IE unit;
3. executes the so-augmented tree with the reuse engine, recycling the
   previous snapshot's capture files and writing capture for the next.

The first snapshot is a bootstrap: plain execution plus capture.

The Cyclex and Shortcut baselines are this system over a one-unit
plan (:mod:`repro.core.cyclex`): they override only :meth:`_compile`
and :meth:`_choose_assignment`.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from ..corpus.snapshot import Snapshot
from ..extractors.library import IETask
from ..fastpath.config import FastPathFlag, fastpath_enabled
from ..fastpath.matchcache import CrossSnapshotMatchCache
from ..obs import registry as _oreg
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
from ..reuse.scope import PageMatchScope
from ..runtime.executor import Executor
from ..runtime.scheduler import PageScheduler
from ..timing import OPT, Timer, Timings


class DelexSystem:
    """Multi-blackbox IE over evolving text with unit-level recycling."""

    name = "delex"

    def __init__(self, task: IETask, workdir: str,
                 sample_size: int = 8, k_snapshots: int = 3,
                 fixed_assignment: Optional[PlanAssignment] = None,
                 capture_history: int = 2,
                 scope: Optional["PageMatchScope"] = None,
                 executor: Optional[Executor] = None,
                 scheduler: Optional[PageScheduler] = None,
                 fastpath: FastPathFlag = None) -> None:
        self.task = task
        self.workdir = workdir
        self.executor = executor
        self.scheduler = scheduler
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
        #: re-sampling (fixed assignment, adaptive keep) these stay at
        #: the values that justified the current plan.
        self.last_stats: Optional[Statistics] = None
        self.last_stats_index: Optional[int] = None
        #: ``f`` estimator passed to the collector: "flat" reproduces
        #: the paper; the adaptive controller samples with "recency".
        self.f_mode = "flat"
        self._last_result: Optional[SnapshotRunResult] = None
        self._extract_rates: Dict[str, float] = {}
        #: The last run's materialized rows split by producing page
        #: (``did -> relation -> rows``), collected by the engine at no
        #: extra extraction cost. They belong to the capture in
        #: ``_prev_dir``: the next run recycles identical pages from
        #: both, and the serving layer applies them as a delta. The
        #: lists are shared between runs and never mutated.
        self.last_page_rows: Optional[Dict[str, PageRows]] = None
        #: The match store: owned here (not by the engine, which is
        #: rebuilt per ``process`` call) so content-keyed match results
        #: survive across the whole snapshot series.
        self.match_cache: Optional[CrossSnapshotMatchCache] = (
            CrossSnapshotMatchCache() if self.fastpath else None)

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
        ``prev_dir``, and the snapshot after it recycles again.
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
        assignment = self._choose_assignment(snapshot, timer)
        self.last_assignment = assignment
        engine = ReuseEngine(self.plan, self.units, assignment,
                             scope=self.scope, executor=self.executor,
                             scheduler=self.scheduler,
                             fastpath=self.fastpath,
                             match_cache=self.match_cache)
        out_dir = self._out_dir()
        page_rows: Dict[str, PageRows] = {}
        result = engine.run_snapshot(
            snapshot,
            self._history[-1] if self._history else None,
            self._prev_dir, out_dir, timings=timings,
            page_rows_out=page_rows, prev_page_rows=self.last_page_rows)
        self.last_page_rows = page_rows
        self._last_result = result
        if self.match_cache is not None and _oreg.ENABLED:
            _oreg.publish_matchcache(self.name, self.match_cache)
        self._gc_old_capture()
        self._prev_dir = out_dir
        self._snapshot_serial += 1
        self._history.append(snapshot)
        if len(self._history) > max(self.k_snapshots + 1, 4):
            self._history.pop(0)
        return result

    def _choose_assignment(self, snapshot: Snapshot,
                           timer: Timer) -> PlanAssignment:
        """Pick the matcher assignment for ``snapshot``.

        Base behavior re-optimizes every reuse snapshot: sample, search,
        adopt. :class:`~repro.adapt.replan.AdaptiveDelexSystem`
        overrides this to plan once and re-enter the optimizer only on
        a drift signal.
        """
        if not self._history or self._prev_dir is None:
            return self.fixed_assignment or PlanAssignment.all_dn(self.units)
        if self.fixed_assignment is not None:
            return self.fixed_assignment
        search, _stats, _seconds = self._sample_and_search(snapshot, timer)
        return search.assignment

    def _sample_and_search(self, snapshot: Snapshot, timer: Timer
                           ) -> Tuple[SearchResult, Statistics, float]:
        """Run the §6.3 collector plus Algorithm-1 search; returns the
        search result, the sampled statistics, and the wall seconds
        spent (also attributed to the Opt timing category)."""
        start = time.perf_counter()
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
                    f_mode=self.f_mode)
                search = search_plan(self.units, stats, self.chains)
        self.last_search = search
        self.last_stats = stats
        self.last_stats_index = snapshot.index
        return search, stats, time.perf_counter() - start

    def _gc_old_capture(self) -> None:
        """Drop capture directories older than ``capture_history``."""
        keep_from = self._snapshot_serial - self.capture_history
        for serial in range(max(0, keep_from)):
            directory = os.path.join(self.workdir, f"snap_{serial:04d}")
            if os.path.isdir(directory):
                for name in os.listdir(directory):
                    os.unlink(os.path.join(directory, name))
                os.rmdir(directory)

    def describe_plan(self) -> Dict[str, str]:
        """The matcher assignment used for the last snapshot."""
        if self.last_assignment is None:
            return {}
        return dict(self.last_assignment.matchers)
