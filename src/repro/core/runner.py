"""Experiment runner: execute systems over snapshot sequences.

Drives No-reuse / Shortcut / Cyclex / Delex over the same evolving
corpus and collects per-snapshot runtimes, decompositions, and result
sets — the raw material for every figure in Section 8.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..corpus.snapshot import Snapshot
from ..extractors.library import IETask, make_task
from ..fastpath.config import FastPathFlag
from ..obs import registry as _oreg
from ..plan.compile import compile_program
from ..reuse.engine import PlanAssignment, SnapshotRunResult
from ..runtime.executor import Executor, make_executor
from ..timing import Timings
from .cyclex import CyclexSystem
from .delex import DelexSystem
from .noreuse import NoReuseSystem
from .shortcut import ShortcutSystem

SYSTEM_NAMES = ("noreuse", "shortcut", "cyclex", "delex")


def task_cost_hint(task: IETask) -> float:
    """The task's heaviest blackbox ``work_factor``.

    Feeds the runtime's auto backend chooser: expensive emulated
    blackboxes amortize process-pool overhead, cheap ones don't.
    """
    return float(max((e.work_factor for e in task.extractors()),
                     default=0))


def resolve_executor(task: IETask, executor: Optional[Executor] = None,
                     jobs: int = 1, backend: str = "auto",
                     cpu_count: Optional[int] = None
                     ) -> Optional[Executor]:
    """Build the executor a run should use (None means serial).

    An explicit ``executor`` wins; otherwise ``jobs``/``backend`` are
    handed to :func:`repro.runtime.make_executor` with the task's
    blackbox cost as the auto-chooser hint. ``cpu_count`` overrides the
    machine's core count for the auto chooser (tests).
    """
    if executor is not None:
        return executor
    if jobs <= 1 and backend in ("auto", "serial"):
        return None
    return make_executor(backend, jobs=jobs,
                         cost_hint=task_cost_hint(task),
                         cpu_count=cpu_count)


def make_system(name: str, task: IETask, workdir: str,
                executor: Optional[Executor] = None, jobs: int = 1,
                backend: str = "auto",
                fastpath: FastPathFlag = None, **kwargs):
    """Instantiate one of the four systems for a task.

    ``executor`` (or ``jobs``/``backend``) selects the execution
    runtime the system's page loop runs on; the default is serial.
    ``fastpath`` switches the snapshot-delta fast paths of the reusing
    systems (shortcut/cyclex/delex) on or off; it accepts a bool or the
    CLI strings ``"on"``/``"off"`` and defaults to on. No-reuse ignores
    it (it never pairs pages).
    """
    plan = compile_program(task.program, task.registry)
    executor = resolve_executor(task, executor, jobs, backend)
    if name == "noreuse":
        return NoReuseSystem(plan, executor=executor, **kwargs)
    if name in ("shortcut", "cyclex"):
        cls = ShortcutSystem if name == "shortcut" else CyclexSystem
        return cls(plan, os.path.join(workdir, name), task.program_alpha,
                   task.program_beta, executor=executor, fastpath=fastpath,
                   **kwargs)
    if name == "delex":
        return DelexSystem(task, os.path.join(workdir, "delex"),
                           executor=executor, fastpath=fastpath, **kwargs)
    raise ValueError(f"unknown system {name!r}; choose from {SYSTEM_NAMES}")


def canonical_results(result: SnapshotRunResult) -> Dict[str, frozenset]:
    """Order-insensitive view of a run's extracted relations."""
    return {rel: frozenset(rows) for rel, rows in result.results.items()}


@dataclass
class SnapshotReport:
    """One system's outcome on one snapshot."""

    snapshot_index: int
    seconds: float
    timings: Timings
    mentions: int
    results: Dict[str, frozenset] = field(repr=False, default_factory=dict)
    optimizer: Optional[Dict[str, object]] = field(repr=False, default=None)
    """Optimizer audit trail for the systems that run a plan (shortcut,
    cyclex, delex): the chosen assignment, the sampled statistics
    behind it and what the re-plan trigger read."""
    capture: Optional[Dict[str, int]] = field(repr=False, default=None)
    """Byte counts of the capture the run wrote, for reusing systems
    (:meth:`~repro.reuse.files.CaptureSummary.to_dict`)."""
    units: Optional[Dict[str, Dict[str, int]]] = field(repr=False,
                                                       default=None)
    """Per IE unit, the reuse funnel of the run (input chars, then
    replayed, copy-zone and extracted chars), for the systems that run
    the reuse engine (:meth:`~repro.reuse.engine.UnitRunStats.to_dict`).
    """


def optimizer_snapshot_doc(instance) -> Optional[Dict[str, object]]:
    """Assemble the per-snapshot optimizer audit record, if the system
    exposes one (duck-typed on the delex attributes)."""
    assignment = getattr(instance, "last_assignment", None)
    if assignment is None:
        return None
    doc: Dict[str, object] = {"assignment": dict(assignment.matchers)}
    search = getattr(instance, "last_search", None)
    if search is not None:
        doc["estimated_cost"] = search.estimated_cost
        doc["plans_considered"] = search.considered
    stats = getattr(instance, "last_stats", None)
    if stats is not None:
        doc["statistics"] = stats.to_dict()
        doc["sampled_at_snapshot"] = getattr(instance, "last_stats_index",
                                             None)
    trigger = getattr(instance, "last_trigger", None)
    if trigger is not None:
        # Why the plan was kept or re-chosen: the previous run's page
        # mix against the one of the run the plan was chosen on.
        doc["replanned"] = instance.replanned
        doc["trigger"] = dict(trigger)
    return doc


@dataclass
class SeriesReport:
    """One system's outcomes over a whole snapshot sequence."""

    system: str
    task: str
    snapshots: List[SnapshotReport] = field(default_factory=list)

    def total_seconds(self, skip_bootstrap: bool = True) -> float:
        reports = self.snapshots[1:] if skip_bootstrap else self.snapshots
        return sum(r.seconds for r in reports)

    def seconds_series(self, skip_bootstrap: bool = True) -> List[float]:
        reports = self.snapshots[1:] if skip_bootstrap else self.snapshots
        return [r.seconds for r in reports]

    def mean_decomposition(self, skip_bootstrap: bool = True
                           ) -> Dict[str, float]:
        reports = self.snapshots[1:] if skip_bootstrap else self.snapshots
        if not reports:
            return {}
        keys = ("match", "extraction", "copy", "opt", "io", "others",
                "total")
        acc = {k: 0.0 for k in keys}
        for report in reports:
            row = report.timings.as_row()
            for k in keys:
                acc[k] += row[k]
        return {k: v / len(reports) for k, v in acc.items()}


def run_series(task: IETask, snapshots: Sequence[Snapshot],
               systems: Sequence[str] = SYSTEM_NAMES,
               workdir: Optional[str] = None,
               keep_results: bool = True,
               system_kwargs: Optional[Dict[str, dict]] = None,
               executor: Optional[Executor] = None,
               jobs: int = 1, backend: str = "auto",
               fastpath: FastPathFlag = None,
               ) -> Dict[str, SeriesReport]:
    """Run the requested systems over consecutive snapshots.

    Every system sees the snapshots in the same order; the first
    snapshot is the bootstrap. ``executor`` (or ``jobs``/``backend``)
    selects the execution runtime shared by all systems in the run;
    results are backend-independent by construction. ``fastpath``
    configures the snapshot-delta fast paths of the reusing systems
    (default on); results are fast-path-independent by construction
    too. Returns one :class:`SeriesReport` per system.
    """
    own_dir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="repro_run_")
    system_kwargs = system_kwargs or {}
    executor = resolve_executor(task, executor, jobs, backend)
    reports: Dict[str, SeriesReport] = {}
    try:
        for system_name in systems:
            instance = make_system(system_name, task,
                                   os.path.join(workdir, system_name),
                                   executor=executor, fastpath=fastpath,
                                   **system_kwargs.get(system_name, {}))
            report = SeriesReport(system=system_name, task=task.name)
            prev: Optional[Snapshot] = None
            for snapshot in snapshots:
                result = instance.process(snapshot, prev)
                if _oreg.ENABLED:  # publish point: once per snapshot
                    _oreg.publish_timings(system_name, result.timings)
                report.snapshots.append(SnapshotReport(
                    snapshot_index=snapshot.index,
                    seconds=result.timings.total,
                    timings=result.timings,
                    mentions=result.total_mentions(),
                    results=(canonical_results(result)
                             if keep_results else {}),
                    optimizer=optimizer_snapshot_doc(instance),
                    capture=(result.capture.to_dict()
                             if result.capture is not None else None),
                    units=({uid: stats.to_dict() for uid, stats
                            in sorted(result.unit_stats.items())}
                           if getattr(result, "unit_stats", None)
                           else None)))
                prev = snapshot
            reports[system_name] = report
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)
    return reports


def verify_agreement(reports: Dict[str, SeriesReport],
                     reference: str = "noreuse") -> List[str]:
    """Check Theorem 1: every system's results equal the reference's.

    Returns a list of human-readable mismatch descriptions (empty when
    everything agrees).
    """
    problems: List[str] = []
    ref = reports.get(reference)
    if ref is None:
        return [f"reference system {reference!r} missing"]
    for name, report in reports.items():
        if name == reference:
            continue
        for ref_snap, snap in zip(ref.snapshots, report.snapshots):
            if ref_snap.results != snap.results:
                for rel in ref_snap.results:
                    missing = ref_snap.results[rel] - snap.results.get(
                        rel, frozenset())
                    extra = snap.results.get(
                        rel, frozenset()) - ref_snap.results[rel]
                    if missing or extra:
                        problems.append(
                            f"{name} snapshot {snap.snapshot_index} "
                            f"relation {rel}: {len(missing)} missing, "
                            f"{len(extra)} extra")
    return problems


def verify_serial_parallel(task: IETask, snapshots: Sequence[Snapshot],
                           systems: Sequence[str] = SYSTEM_NAMES,
                           jobs: int = 2, backend: str = "auto",
                           system_kwargs: Optional[Dict[str, dict]] = None,
                           ) -> List[str]:
    """Theorem 1, runtime edition: serial == parallel, per system.

    Runs every requested system twice over the same snapshots — once
    serially, once on a ``jobs``-worker executor — and reports any
    snapshot whose canonical results differ, plus the usual
    cross-system agreement problems of both runs.
    """
    serial = run_series(task, snapshots, systems=systems, jobs=1,
                        system_kwargs=system_kwargs)
    parallel = run_series(task, snapshots, systems=systems, jobs=jobs,
                          backend=backend, system_kwargs=system_kwargs)
    problems: List[str] = []
    for name in systems:
        for s_snap, p_snap in zip(serial[name].snapshots,
                                  parallel[name].snapshots):
            if s_snap.results != p_snap.results:
                problems.append(
                    f"{name} snapshot {s_snap.snapshot_index}: serial "
                    f"and parallel (jobs={jobs}, {backend}) results "
                    "differ")
    problems.extend(verify_agreement(serial))
    problems.extend(f"parallel: {p}" for p in verify_agreement(parallel))
    return problems


def verify_fastpath(task: IETask, snapshots: Sequence[Snapshot],
                    systems: Sequence[str] = SYSTEM_NAMES,
                    system_kwargs: Optional[Dict[str, dict]] = None,
                    jobs: int = 1, backend: str = "auto") -> List[str]:
    """Theorem 1, fast-path edition: fastpath on == fastpath off.

    Runs every requested system twice over the same snapshots — once
    with the snapshot-delta fast paths enabled, once disabled — and
    reports any snapshot whose canonical results differ, plus the
    usual cross-system agreement problems of both runs. The fast
    paths are behaviour-preserving by design; this harness is the
    executable statement of that claim.
    """
    fast = run_series(task, snapshots, systems=systems, jobs=jobs,
                      backend=backend, system_kwargs=system_kwargs,
                      fastpath=True)
    slow = run_series(task, snapshots, systems=systems, jobs=jobs,
                      backend=backend, system_kwargs=system_kwargs,
                      fastpath=False)
    problems: List[str] = []
    for name in systems:
        for f_snap, s_snap in zip(fast[name].snapshots,
                                  slow[name].snapshots):
            if f_snap.results != s_snap.results:
                problems.append(
                    f"{name} snapshot {f_snap.snapshot_index}: fastpath "
                    "on and off results differ")
    problems.extend(f"fast: {p}" for p in verify_agreement(fast))
    problems.extend(f"slow: {p}" for p in verify_agreement(slow))
    return problems


def run_task_series(task_name: str, snapshots: Sequence[Snapshot],
                    systems: Sequence[str] = SYSTEM_NAMES,
                    work_scale: float = 1.0,
                    workdir: Optional[str] = None,
                    **kwargs) -> Dict[str, SeriesReport]:
    """Convenience wrapper: build the task by name and run the series."""
    task = make_task(task_name, work_scale=work_scale)
    return run_series(task, snapshots, systems=systems, workdir=workdir,
                      **kwargs)
