"""The ``repro check`` driver: budgeted fuzz campaign + reporting.

One entry point, :func:`run_check`, behind the CLI verb. It spends a
wall-clock budget sweeping fuzz cases through the differential oracle:

1. seeds run in order ``seed, seed+1, ...``, each expanded over the
   (task, corpus) pairs where the reusing systems actually copy —
   a sweep that never exercises the copy path proves nothing — plus
   one more task per seed, so that consecutive seeds cover every task;
2. the first failing case stops the campaign; if shrinking is enabled
   the series is minimized within the remaining budget;
3. the (shrunk) failing series is written as a replayable repro
   bundle when ``bundle_dir`` is given;
4. the exit code is 0 iff every case agreed.

``fault`` plants one of :data:`repro.check.faults.FAULT_NAMES` for the
whole campaign — the harness's self-test mode: a healthy tree must
*fail* a ``--fault`` run (the oracle caught the planted bug) and pass
a clean one.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..extractors import ALL_TASKS, make_task
from .bundle import write_bundle
from .faults import injected_fault
from .fuzz import (
    FuzzSpec,
    ShrinkResult,
    build_series,
    oracle_predicate,
    run_case,
    shrink_series,
)
from .grid import GRID_NAMES, build_grid
from .oracle import OracleReport

#: (task, corpus) pairs every seed of the campaign sweeps. The first
#: two are copy-heavy for delex under fixed assignments (the
#: interesting regime) and together cover both corpus change models;
#: the third is a regime-shifting series (churn burst mid-series), so
#: every grid — including the small CI one — sweeps at least one drift
#: config.
CASE_MIX: Tuple[Tuple[str, str], ...] = (("play", "wikipedia"),
                                         ("chair", "dblife"),
                                         ("chair", "drift_churn"))

#: The tasks :data:`CASE_MIX` leaves out. Each seed adds one of them,
#: on its home corpus, so consecutive seeds put every task of
#: :data:`~repro.extractors.ALL_TASKS` under the oracle.
ROTATING_TASKS: Tuple[str, ...] = tuple(
    t for t in ALL_TASKS if t not in {task for task, _ in CASE_MIX})


def seed_cases(seed: int) -> Tuple[Tuple[str, str], ...]:
    """The (task, corpus) pairs one seed sweeps: :data:`CASE_MIX` plus
    the rotating task of this seed on its home corpus."""
    task = ROTATING_TASKS[seed % len(ROTATING_TASKS)]
    return CASE_MIX + ((task, make_task(task, work_scale=0).corpus),)


@dataclass
class CheckSummary:
    """What a campaign did and how it ended."""

    ok: bool = True
    cases_run: int = 0
    configs_swept: int = 0
    checks_run: int = 0
    seconds: float = 0.0
    failing_spec: Optional[FuzzSpec] = None
    failing_report: Optional[OracleReport] = None
    shrink: Optional[ShrinkResult] = None
    bundle_path: Optional[str] = None

    def describe(self) -> str:
        lines = [f"check: {self.cases_run} case(s), "
                 f"{self.configs_swept} config sweep(s) in "
                 f"{self.seconds:.1f}s"
                 + (f", {self.checks_run} invariant checks"
                    if self.checks_run else "")]
        if self.ok:
            lines.append("check: PASS — every config agreed with the "
                         "from-scratch reference")
            return "\n".join(lines)
        lines.append("check: FAIL")
        if self.failing_spec is not None:
            lines.append(f"  spec: {self.failing_spec.as_dict()}")
        report = (self.shrink.report if self.shrink is not None
                  else self.failing_report)
        if report is not None:
            for disc in report.discrepancies()[:5]:
                lines.append("  " + disc.describe())
        if self.shrink is not None:
            lines.append(
                f"  shrunk to {self.shrink.n_pages} page(s) x "
                f"{self.shrink.n_snapshots} snapshot(s) in "
                f"{self.shrink.evaluations} evaluation(s)")
        if self.bundle_path is not None:
            lines.append(f"  repro bundle: {self.bundle_path} "
                         "(replay with `python -m repro check "
                         f"--replay {self.bundle_path}`)")
        return "\n".join(lines)


def run_check(seed: int = 0, budget: float = 60.0, grid: str = "small",
              shrink: bool = True, check: bool = True,
              fault: Optional[str] = None,
              bundle_dir: Optional[str] = None,
              n_pages: int = 6, n_snapshots: int = 3,
              progress: Optional[Callable[[str], None]] = None
              ) -> CheckSummary:
    """Run a budgeted differential-check campaign."""
    if grid not in GRID_NAMES:
        raise ValueError(f"unknown grid {grid!r}")
    say = progress or (lambda message: None)
    summary = CheckSummary()
    start = time.perf_counter()
    deadline = start + budget
    grid_size = len(build_grid(grid))
    with injected_fault(fault):
        current_seed = seed
        while time.perf_counter() < deadline and summary.ok:
            for task, corpus in seed_cases(current_seed):
                spec = FuzzSpec(seed=current_seed, task=task,
                                corpus=corpus, n_pages=n_pages,
                                n_snapshots=n_snapshots, grid=grid)
                report = run_case(spec, check=check)
                summary.cases_run += 1
                summary.configs_swept += len(report.outcomes)
                summary.checks_run += report.checks_run
                say(f"seed {current_seed} {task}/{corpus}: "
                    + ("ok" if report.ok else "DIVERGED")
                    + f" ({report.seconds:.2f}s, {grid_size} configs)")
                if not report.ok:
                    summary.ok = False
                    summary.failing_spec = spec
                    summary.failing_report = report
                    break
                if time.perf_counter() >= deadline:
                    break
            current_seed += 1
        if not summary.ok and shrink:
            summary.shrink = _shrink_within_budget(
                summary.failing_spec, summary.failing_report,
                deadline, say)
        if not summary.ok and bundle_dir is not None:
            series = (summary.shrink.series if summary.shrink is not None
                      else build_series(summary.failing_spec))
            report = (summary.shrink.report
                      if summary.shrink is not None
                      else summary.failing_report)
            summary.bundle_path = write_bundle(
                bundle_dir, series, task=summary.failing_spec.task,
                grid=grid, report=report, spec=summary.failing_spec,
                fault=fault)
            say(f"wrote repro bundle to {summary.bundle_path}")
    summary.seconds = time.perf_counter() - start
    return summary


def _shrink_within_budget(spec: FuzzSpec, report: OracleReport,
                          deadline: float,
                          say: Callable[[str], None]) -> ShrinkResult:
    """Shrink the failing case, stopping at the wall-clock deadline."""
    say("shrinking failing series ...")
    base_predicate = oracle_predicate(spec)

    def bounded(candidate):
        if time.perf_counter() >= deadline:
            return None  # out of budget: treat as passing, stop early
        return base_predicate(candidate)

    result = shrink_series(build_series(spec), bounded, report)
    say(f"shrunk to {result.n_pages} page(s) x "
        f"{result.n_snapshots} snapshot(s) "
        f"({result.evaluations} evaluations)")
    return result


def main_check(args) -> int:  # pragma: no cover - thin CLI glue
    """Implementation of ``python -m repro check`` (see repro.cli)."""
    say = (lambda message: print(message, file=sys.stderr)) \
        if args.verbose else None
    if args.replay is not None:
        from .bundle import load_bundle, replay_bundle

        bundle = load_bundle(args.replay)
        print(f"replaying bundle: {bundle.n_pages} page(s) x "
              f"{bundle.n_snapshots} snapshot(s), grid={bundle.grid}, "
              f"task={bundle.task}"
              + (f", fault={bundle.fault}" if bundle.fault else ""))
        report = replay_bundle(args.replay,
                               check=(args.check == "on"))
        print(report.summary())
        return 0 if report.ok else 1
    summary = run_check(seed=args.seed, budget=args.budget,
                        grid=args.grid, shrink=args.shrink,
                        check=(args.check == "on"), fault=args.fault,
                        bundle_dir=args.bundle_dir,
                        progress=say)
    print(summary.describe())
    return 0 if summary.ok else 1
