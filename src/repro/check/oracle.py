"""The differential oracle: every config against from-scratch truth.

Theorem 1 claims all four systems — under any matcher assignment, with
the fast paths on or off, on any execution backend — produce exactly
the tuples a from-scratch run produces. The oracle is that claim as an
executable: it runs a snapshot series through the reference config
(noreuse, serial, no fast paths) to establish per-snapshot ground
truth *with per-page attribution*, then drives every
:class:`~repro.check.grid.CheckConfig` of a sweep grid over the same
series and diffs:

* **result tuples** per snapshot and relation — the first divergence
  is reported with the offending tuples and the page(s) the reference
  attributes them to;
* **capture files** (page tables and group segments) byte-for-byte
  within each :meth:`~repro.check.grid.CheckConfig.capture_group`
  against the group's serial + fastpath-off baseline — a reusing
  system's capture is part of its observable behaviour, and a
  divergence is localized through the two page tables to the first
  page and unit whose groups (or table entries) differ.

With ``check=True`` the whole sweep runs under the
:mod:`~repro.check.invariants` layer and every baseline page table is
re-checked for page-order monotonicity on disk; violations become
discrepancies like any other.

The oracle never raises on a mismatch — it returns an
:class:`OracleReport` whose :class:`Discrepancy` records the fuzzer's
shrinker and the repro bundle writer consume.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.runner import canonical_results, make_system
from ..corpus.snapshot import Snapshot
from ..extractors.library import IETask
from ..plan.compile import compile_program
from ..reuse.attribution import (
    attributed_pages,
    extract_page_rows,
    tuple_attribution,
)
from ..reuse.files import (
    TABLE_NAME,
    ReuseFileReader,
    parse_inputs,
    parse_outputs,
)
from ..timing import Timer, Timings
from . import invariants
from .grid import CheckConfig

#: How many offending tuples a discrepancy records (keep reports small).
SAMPLE_TUPLES = 3


@dataclass(frozen=True)
class Discrepancy:
    """One observed divergence from the reference behaviour.

    ``kind`` is one of:

    * ``results``   — a snapshot's canonical tuples differ;
    * ``capture``   — a capture file differs from its group baseline;
    * ``invariant`` — a runtime invariant raised during the run;
    * ``error``     — the config crashed outright.
    """

    kind: str
    config_id: str
    snapshot_index: int          # -1 when not snapshot-scoped
    location: str                # relation, capture path, or invariant
    detail: str
    pages: Tuple[str, ...] = ()  # attributed page dids ("?" = unknown)
    missing: Tuple = ()          # sample tuples the config lost
    extra: Tuple = ()            # sample tuples the config invented

    def describe(self) -> str:
        where = (f"snapshot {self.snapshot_index} "
                 if self.snapshot_index >= 0 else "")
        pages = (" pages=" + ",".join(self.pages)) if self.pages else ""
        return (f"[{self.kind}] {self.config_id} {where}"
                f"{self.location}: {self.detail}{pages}")


@dataclass
class ConfigOutcome:
    """One config's sweep outcome."""

    config: CheckConfig
    seconds: float = 0.0
    snapshots_run: int = 0
    discrepancies: List[Discrepancy] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies


@dataclass
class OracleReport:
    """The full sweep verdict."""

    task: str
    n_snapshots: int
    n_pages: int
    reference_id: str
    outcomes: List[ConfigOutcome] = field(default_factory=list)
    checks_run: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    def discrepancies(self) -> List[Discrepancy]:
        return [d for o in self.outcomes for d in o.discrepancies]

    def first_discrepancy(self) -> Optional[Discrepancy]:
        found = self.discrepancies()
        return found[0] if found else None

    def summary(self) -> str:
        bad = [o for o in self.outcomes if not o.ok]
        head = (f"oracle: {len(self.outcomes)} configs on "
                f"{self.n_snapshots} snapshots x {self.n_pages} pages "
                f"of {self.task}: "
                + ("all agree" if not bad
                   else f"{len(bad)} config(s) diverge"))
        lines = [head]
        for outcome in bad:
            for disc in outcome.discrepancies:
                lines.append("  " + disc.describe())
        if self.checks_run:
            lines.append(f"  invariant checks executed: {self.checks_run}")
        return "\n".join(lines)


@dataclass
class Reference:
    """Ground truth with per-page attribution.

    ``results[i]`` is snapshot *i*'s canonical relation map;
    ``attribution[i][rel][tuple]`` lists the dids of the pages whose
    from-scratch extraction produced that tuple (canonical tuples
    carry no page id of their own, so this map is what turns a bare
    tuple diff into the ISSUE-required first divergent *(page, unit,
    tuple)* report).
    """

    results: List[Dict[str, frozenset]]
    attribution: List[Dict[str, Dict[tuple, Tuple[str, ...]]]]


def build_reference(task: IETask,
                    snapshots: Sequence[Snapshot]) -> Reference:
    """From-scratch truth, page by page (serial, no fast paths).

    Both the per-page extraction loop and the tuple->pages inversion
    live in :mod:`repro.reuse.attribution` — the same machinery the
    serving layer's delta-apply uses, so the oracle and the server can
    never drift apart on what "the page that produced this tuple"
    means (pinned by ``tests/test_attribution.py``).
    """
    plan = compile_program(task.program, task.registry)
    timer = Timer(Timings())
    results: List[Dict[str, frozenset]] = []
    attribution: List[Dict[str, Dict[tuple, Tuple[str, ...]]]] = []
    for snapshot in snapshots:
        page_order = [p.did for p in snapshot.canonical_pages()]
        page_rows = extract_page_rows(plan, snapshot.canonical_pages(),
                                      timer)
        attr = tuple_attribution(page_rows, order=page_order)
        results.append({rel: frozenset(tuples)
                        for rel, tuples in attr.items()})
        attribution.append(attr)
    return Reference(results=results, attribution=attribution)


def attribute_pages(tuples: Sequence[tuple],
                    rel_attr: Dict[tuple, Tuple[str, ...]]
                    ) -> Tuple[str, ...]:
    """The reference pages responsible for the given tuples.

    Thin alias of :func:`repro.reuse.attribution.attributed_pages`,
    kept under its historical name for the oracle's callers.
    """
    return attributed_pages(tuples, rel_attr)


def diff_results(reference: Reference, got: Dict[str, frozenset],
                 snapshot_index: int,
                 config_id: str) -> Optional[Discrepancy]:
    """First divergent relation of one snapshot, attributed to pages."""
    want = reference.results[snapshot_index]
    rel_attr_all = reference.attribution[snapshot_index]
    for rel in sorted(set(want) | set(got)):
        missing = want.get(rel, frozenset()) - got.get(rel, frozenset())
        extra = got.get(rel, frozenset()) - want.get(rel, frozenset())
        if not missing and not extra:
            continue
        missing_sample = tuple(sorted(missing))[:SAMPLE_TUPLES]
        extra_sample = tuple(sorted(extra))[:SAMPLE_TUPLES]
        rel_attr = rel_attr_all.get(rel, {})
        pages = attribute_pages(
            list(missing_sample) + list(extra_sample), rel_attr)
        return Discrepancy(
            kind="results", config_id=config_id,
            snapshot_index=snapshot_index, location=rel,
            detail=(f"{len(missing)} missing, {len(extra)} extra "
                    f"tuple(s) vs reference"),
            pages=pages, missing=missing_sample, extra=extra_sample)
    return None


def _capture_files(config_dir: str) -> Dict[str, str]:
    """Every page table and group segment under a config's workdir, by
    relative path."""
    out: Dict[str, str] = {}
    for dirpath, _dirnames, filenames in os.walk(config_dir):
        for name in filenames:
            if name.endswith(".reuse") or name == TABLE_NAME:
                path = os.path.join(dirpath, name)
                out[os.path.relpath(path, config_dir)] = path
    return out


def _first_divergent_page(dir_a: str, dir_b: str) -> str:
    """Localize a byte-level diff in two captures' directories to the
    first page and unit, in table order, whose groups differ — or, if
    every group is equal, whose table entries do."""
    try:
        reader_a, reader_b = ReuseFileReader(dir_a), ReuseFileReader(dir_b)
    except (OSError, ValueError) as exc:
        return f"page tables differ (unreadable: {exc})"
    try:
        table_a, table_b = reader_a.table, reader_b.table
        if table_a.dids != table_b.dids or table_a.units != table_b.units:
            return (f"page tables list different pages or units: "
                    f"{len(table_a.dids)} vs {len(table_b.dids)} "
                    f"page(s)")
        rows = list(zip(table_a.rows(), table_b.rows()))
        for (did, row_a), (_did, row_b) in rows:
            for uid, entry_a, entry_b in zip(table_a.units, row_a, row_b):
                for side, parse in (("I", lambda d: parse_inputs(did, d)),
                                    ("O", parse_outputs)):
                    data_a = reader_a.read_group(uid, entry_a, side)
                    data_b = reader_b.read_group(uid, entry_b, side)
                    if data_a == data_b:
                        continue
                    recs_a, recs_b = parse(data_a), parse(data_b)
                    for i, (ra, rb) in enumerate(zip(recs_a, recs_b)):
                        if ra != rb:
                            return (f"first divergent group: page {did!r}, "
                                    f"unit {uid} {side}, record {i}: "
                                    f"baseline {ra!r} vs {rb!r}")
                    return (f"first divergent group: page {did!r}, unit "
                            f"{uid} {side}: {len(recs_a)} vs "
                            f"{len(recs_b)} record(s)")
        for (did, row_a), (_did, row_b) in rows:
            for uid, entry_a, entry_b in zip(table_a.units, row_a, row_b):
                if entry_a != entry_b:
                    return (f"equal groups, first divergent table entry: "
                            f"page {did!r}, unit {uid}: baseline "
                            f"{entry_a} vs {entry_b}")
    except ValueError as exc:
        return f"capture files differ (unparsable: {exc})"
    finally:
        reader_a.close()
        reader_b.close()
    return "page tables differ outside their pages"


def compare_captures(baseline: ConfigOutcome, baseline_dir: str,
                     other: ConfigOutcome,
                     other_dir: str) -> Optional[Discrepancy]:
    """Byte-compare two configs' capture trees (same capture group)."""
    files_a = _capture_files(baseline_dir)
    files_b = _capture_files(other_dir)
    only_a = sorted(set(files_a) - set(files_b))
    only_b = sorted(set(files_b) - set(files_a))
    if only_a or only_b:
        return Discrepancy(
            kind="capture", config_id=other.config.config_id,
            snapshot_index=-1,
            location=(only_a + only_b)[0],
            detail=(f"capture file set differs from baseline "
                    f"{baseline.config.config_id}: "
                    f"{len(only_a)} missing, {len(only_b)} extra"))
    for rel_path in sorted(files_a):
        with open(files_a[rel_path], "rb") as fh:
            bytes_a = fh.read()
        with open(files_b[rel_path], "rb") as fh:
            bytes_b = fh.read()
        if bytes_a != bytes_b:
            return Discrepancy(
                kind="capture", config_id=other.config.config_id,
                snapshot_index=-1, location=rel_path,
                detail=(f"bytes differ from baseline "
                        f"{baseline.config.config_id}: "
                        + _first_divergent_page(
                            os.path.dirname(files_a[rel_path]),
                            os.path.dirname(files_b[rel_path]))))
    return None


def _run_view_config(cfg: CheckConfig, task: IETask,
                     snapshots: Sequence[Snapshot], config_dir: str,
                     reference: Reference) -> ConfigOutcome:
    """Drive one *view-maintenance* config over the series.

    Instead of a bare engine, the series flows through a
    :class:`~repro.serve.views.MaterializedView` with the config's
    maintenance mode, and what gets diffed against the reference is
    each *published generation* — so the sweep covers the serving
    path end to end: snapshot diffing, the store delta, and (for
    ``view="delta"``) the delta rules, the classifier, and the
    incrementally merged relation index.
    """
    # Imported lazily: the serving layer pulls in repro.delta and the
    # engine stack, which the bare-engine sweep does not need.
    from ..serve.views import MaterializedView, ViewConfig

    outcome = ConfigOutcome(config=cfg)
    start = time.perf_counter()
    try:
        view = MaterializedView(
            ViewConfig(name=cfg.slug, task=task.name, system=cfg.view,
                       fastpath=cfg.fastpath, jobs=cfg.jobs,
                       backend=cfg.backend
                       if cfg.backend != "serial" else "serial"),
            config_dir, task=task)
        for i, snapshot in enumerate(snapshots):
            view.apply_snapshot(snapshot, check=True)
            outcome.snapshots_run = i + 1
            generation = view.generation
            got = (generation.canonical()
                   if generation is not None else {})
            disc = diff_results(reference, got, i, cfg.config_id)
            if disc is not None:
                outcome.discrepancies.append(disc)
                break
    except invariants.InvariantViolation as violation:
        outcome.discrepancies.append(Discrepancy(
            kind="invariant", config_id=cfg.config_id,
            snapshot_index=outcome.snapshots_run,
            location=violation.invariant, detail=violation.detail,
            pages=tuple(str(v) for k, v in
                        sorted(violation.context.items())
                        if k == "did")))
    except Exception as exc:
        outcome.discrepancies.append(Discrepancy(
            kind="error", config_id=cfg.config_id,
            snapshot_index=outcome.snapshots_run,
            location=type(exc).__name__, detail=str(exc)))
    outcome.seconds = time.perf_counter() - start
    return outcome


def _run_config(cfg: CheckConfig, task: IETask,
                snapshots: Sequence[Snapshot], config_dir: str,
                reference: Reference) -> ConfigOutcome:
    """Drive one config over the series, diffing every snapshot."""
    if cfg.view != "-":
        return _run_view_config(cfg, task, snapshots, config_dir,
                                reference)
    outcome = ConfigOutcome(config=cfg)
    start = time.perf_counter()
    kwargs = dict(cfg.system_kwargs(task))
    if cfg.system == "delex":
        # Keep every capture dir alive for the byte-level comparison.
        kwargs.setdefault("capture_history", max(2, len(snapshots)))
    try:
        instance = make_system(
            cfg.system, task, config_dir, jobs=cfg.jobs,
            backend=cfg.backend if cfg.backend != "serial" else "serial",
            fastpath=cfg.fastpath, **kwargs)
        prev: Optional[Snapshot] = None
        for i, snapshot in enumerate(snapshots):
            result = instance.process(snapshot, prev)
            prev = snapshot
            outcome.snapshots_run = i + 1
            disc = diff_results(reference, canonical_results(result),
                                i, cfg.config_id)
            if disc is not None:
                outcome.discrepancies.append(disc)
                break
    except invariants.InvariantViolation as violation:
        outcome.discrepancies.append(Discrepancy(
            kind="invariant", config_id=cfg.config_id,
            snapshot_index=outcome.snapshots_run,
            location=violation.invariant, detail=violation.detail,
            pages=tuple(str(v) for k, v in
                        sorted(violation.context.items())
                        if k == "did")))
    except Exception as exc:
        outcome.discrepancies.append(Discrepancy(
            kind="error", config_id=cfg.config_id,
            snapshot_index=outcome.snapshots_run,
            location=type(exc).__name__, detail=str(exc)))
    outcome.seconds = time.perf_counter() - start
    return outcome


def _group_baseline(group: List[Tuple[CheckConfig, ConfigOutcome, str]]
                    ) -> Optional[Tuple[ConfigOutcome, str]]:
    """The serial + fastpath-off anchor of one capture group."""
    for cfg, outcome, config_dir in group:
        if cfg.backend == "serial" and cfg.fastpath == "off":
            return outcome, config_dir
    return None


def run_oracle(task: IETask, snapshots: Sequence[Snapshot],
               grid: Sequence[CheckConfig],
               workdir: Optional[str] = None, check: bool = False,
               progress: Optional[Callable[[str], None]] = None
               ) -> OracleReport:
    """Sweep the grid over the series; return the full verdict.

    ``workdir=None`` uses (and removes) a temporary directory; pass a
    path to keep the capture trees for post-mortem inspection.
    ``check=True`` runs the whole sweep under the invariant layer and
    re-checks baseline capture files for page-group monotonicity.
    """
    own_dir = workdir is None
    workdir = workdir or tempfile.mkdtemp(prefix="repro_check_")
    os.makedirs(workdir, exist_ok=True)
    say = progress or (lambda message: None)
    start = time.perf_counter()
    n_pages = max((len(s.pages) for s in snapshots), default=0)
    report = OracleReport(task=task.name, n_snapshots=len(snapshots),
                          n_pages=n_pages, reference_id="noreuse/-"
                          "/fp-off/serialx1")
    try:
        say("building from-scratch reference ...")
        if check:
            invariants.reset_counter()
        with invariants.checking(check or invariants.ENABLED):
            reference = build_reference(task, snapshots)
            groups: Dict[Tuple[str, str],
                         List[Tuple[CheckConfig, ConfigOutcome, str]]] = {}
            for cfg in grid:
                config_dir = os.path.join(workdir, cfg.slug)
                outcome = _run_config(cfg, task, snapshots, config_dir,
                                      reference)
                report.outcomes.append(outcome)
                say(f"{cfg.config_id}: "
                    + ("ok" if outcome.ok
                       else outcome.discrepancies[0].kind)
                    + f" ({outcome.seconds:.2f}s)")
                if cfg.capture_comparable() and outcome.ok:
                    groups.setdefault(cfg.capture_group(), []).append(
                        (cfg, outcome, config_dir))
            # Byte-level capture comparison within each group.
            for key in sorted(groups):
                group = groups[key]
                anchor = _group_baseline(group)
                if anchor is None:
                    continue
                baseline_outcome, baseline_dir = anchor
                if check:
                    _monotonic_check(baseline_outcome, baseline_dir)
                for cfg, outcome, config_dir in group:
                    if config_dir == baseline_dir:
                        continue
                    disc = compare_captures(baseline_outcome,
                                            baseline_dir, outcome,
                                            config_dir)
                    if disc is not None:
                        outcome.discrepancies.append(disc)
                        say(disc.describe())
        if check:
            report.checks_run = invariants.checks_run
    finally:
        if own_dir:
            shutil.rmtree(workdir, ignore_errors=True)
    report.seconds = time.perf_counter() - start
    return report


def _monotonic_check(outcome: ConfigOutcome, config_dir: str) -> None:
    """On-disk page-order recheck of a baseline's page tables."""
    for rel_path, path in sorted(_capture_files(config_dir).items()):
        if os.path.basename(path) != TABLE_NAME:
            continue
        try:
            invariants.check_page_table_monotonic(os.path.dirname(path))
        except invariants.InvariantViolation as violation:
            outcome.discrepancies.append(Discrepancy(
                kind="invariant",
                config_id=outcome.config.config_id,
                snapshot_index=-1, location=rel_path,
                detail=violation.detail))
