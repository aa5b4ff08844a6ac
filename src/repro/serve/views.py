"""Named materialized views over an evolving corpus.

A :class:`MaterializedView` registers one xlog task as a continuously
maintained extracted view: the view owns a per-view work directory
(reuse files live there), a :class:`~repro.serve.store.TupleStore`
(the published generations), and the maintenance machinery that turns
an arriving snapshot into a store delta. All views of a
:class:`ViewRegistry` are fed from the same ingest loop, so one
snapshot stream maintains many programs at once (the shared-corpus,
many-views deployment of the ROADMAP north star).

Three maintenance modes, selected per view:

* ``system="delex"`` (default) — the snapshot runs through a
  :class:`~repro.core.delex.DelexSystem`, which always collects
  per-page rows: the engine recycles against the view's reuse files exactly as in
  batch mode, and its ``last_page_rows`` *is* the per-page attribution
  of the recycled run (no second extraction pass). The store delta
  replaces only the pages whose text changed.
* ``system="noreuse"`` — differential maintenance without capture
  files: only changed/new pages are extracted, from scratch, via the
  shared attribution helper
  (:func:`repro.reuse.attribution.extract_page_rows`); unchanged
  pages' rows are carried over. Cheaper per snapshot when churn is
  low and there is no engine state to manage, at the cost of paying
  full extraction for every changed page.
* ``system="delta"`` — true differential maintenance
  (:mod:`repro.delta`): the snapshot applies as an ``(adds, dels)``
  delta flowing through the compiled relational plan. Sub-page
  regions whose text an edit did not touch (wherever it now sits)
  reuse memoized extractor output, the relation index is merged
  incrementally instead of rebuilt, and a per-page classifier falls
  back to re-derivation when delta propagation is unsafe
  (non-row-determined selections). The view's tombstone map
  feeds :attr:`SnapshotDiff.resurrected` so a page that leaves and
  returns is an explicit retract-then-add, never a silent no-op.

All modes produce byte-identical stores (Theorem 1 — pinned by the
serve test suite), which is what lets ``--check on`` cross-guard them:
under the guard the delex mode verifies, before publishing, that every
unchanged page's stored rows equal what the engine just produced for
that page and that the delta covers exactly the snapshot's page set;
the delta mode goes further and cross-checks the *entire*
delta-maintained generation — relation indexes byte-for-byte, changed
pages' rows as sets — against a from-scratch batch extraction of the
snapshot. Any drift raises :class:`ViewConsistencyError` and the
store keeps serving the previous generation.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..check import invariants
from ..core.runner import make_system
from ..delta.maintain import DeltaApplyResult, DeltaMaintainer
from ..obs import registry as _oreg
from ..corpus.snapshot import Snapshot
from ..extractors.library import IETask, make_task
from ..fastpath.fingerprint import pages_identical
from ..plan.compile import compile_program
from ..reuse.attribution import PageRows, extract_page_rows
from ..text.document import Page
from ..timing import Timer, Timings
from .store import Generation, QueryResult, TupleStore, _sort_key

MAINTENANCE_SYSTEMS = ("delex", "noreuse", "delta")

#: How many apply records a view keeps for ``/metrics``.
APPLY_HISTORY = 64


class ViewConsistencyError(RuntimeError):
    """The maintained store and the engine's run disagree."""


@dataclass(frozen=True)
class ViewConfig:
    """Registration-time description of one materialized view."""

    name: str
    task: str
    system: str = "delex"
    fastpath: str = "on"
    jobs: int = 1
    backend: str = "auto"
    work_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.system not in MAINTENANCE_SYSTEMS:
            raise ValueError(
                f"unknown maintenance system {self.system!r}; choose "
                f"from {MAINTENANCE_SYSTEMS}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "task": self.task,
            "system": self.system,
            "fastpath": self.fastpath,
            "jobs": self.jobs,
            "backend": self.backend,
            "work_scale": self.work_scale,
        }


@dataclass
class ApplyRecord:
    """Telemetry of one successful snapshot apply on one view."""

    gen_id: int
    snapshot_index: int
    seconds: float                 # wall: diff + run + delta + swap
    engine_seconds: float          # the run's Timings.total share
    pages_total: int
    pages_changed: int
    pages_new: int
    pages_deleted: int
    pages_unchanged: int
    tuples_total: int
    timings: Dict[str, object] = field(default_factory=dict)
    #: Differential-mode telemetry (decision counts, fallback ratio,
    #: extractor calls vs memo hits); None for the other modes.
    delta: Optional[Dict[str, object]] = None
    #: Wall-clock timestamp — display only, never used for durations.
    applied_at: float = 0.0
    #: Monotonic timestamp of the same instant — the ingest loop
    #: derives ``lag_seconds`` from this, so a wall-clock step (NTP
    #: slew, DST, manual reset) can never produce a negative lag.
    applied_mono: float = 0.0
    lag_seconds: Optional[float] = None   # enqueue -> applied (ingest)

    def to_dict(self) -> Dict[str, object]:
        return {
            "generation": self.gen_id,
            "snapshot_index": self.snapshot_index,
            "seconds": self.seconds,
            "engine_seconds": self.engine_seconds,
            "pages_total": self.pages_total,
            "pages_changed": self.pages_changed,
            "pages_new": self.pages_new,
            "pages_deleted": self.pages_deleted,
            "pages_unchanged": self.pages_unchanged,
            "tuples_total": self.tuples_total,
            "timings": self.timings,
            "applied_at": self.applied_at,
            "lag_seconds": self.lag_seconds,
            **({"delta": self.delta} if self.delta is not None else {}),
        }


@dataclass(frozen=True)
class SnapshotDiff:
    """Fingerprint diff of an arriving snapshot vs the applied state.

    ``resurrected`` is the subset of ``new`` whose did was previously
    deleted from this view (tracked via the view's tombstone map). A
    returning page has no retained state or stored rows — treating it
    as anything but a fresh retract-then-add (in particular, treating
    a same-fingerprint return as "unchanged") would resurrect stale
    tuples or drop the page silently, so the category is explicit and
    the delta layer's classifier records it per page.
    """

    changed: Tuple[str, ...]
    new: Tuple[str, ...]
    deleted: Tuple[str, ...]
    unchanged: Tuple[str, ...]
    resurrected: Tuple[str, ...] = ()


class MaterializedView:
    """One registered task, maintained incrementally and served."""

    def __init__(self, config: ViewConfig, workdir: str,
                 task: Optional[IETask] = None,
                 lazy_index: bool = False) -> None:
        self.config = config
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        #: ``task`` injection bypasses the library lookup — the check
        #: oracle sweeps views over tasks it may have built itself.
        self.task: IETask = task if task is not None else make_task(
            config.task, work_scale=config.work_scale)
        self.plan = compile_program(self.task.program, self.task.registry)
        #: ``lazy_index`` (the sharded tier) defers the relation-index
        #: rebuild from the apply path to the first reader; the
        #: published rows are byte-identical either way.
        self.store = TupleStore(
            config.name, self.plan.program.head_relations(),
            lazy_index=lazy_index)
        self._system = None
        self._delta: Optional[DeltaMaintainer] = None
        if config.system == "delex":
            self._system = make_system(
                "delex", self.task, os.path.join(workdir, "delex"),
                jobs=config.jobs, backend=config.backend,
                fastpath=config.fastpath)
        elif config.system == "delta":
            self._delta = DeltaMaintainer(self.plan)
        #: did -> content fingerprint at deletion time; membership is
        #: what turns a returning did into ``SnapshotDiff.resurrected``.
        self._tombstones: Dict[str, str] = {}
        self._prev_snapshot: Optional[Snapshot] = None
        self.history: Deque[ApplyRecord] = deque(maxlen=APPLY_HISTORY)
        self.quarantine: List[Dict[str, object]] = []
        self.last_error: Optional[str] = None
        #: Test seam: called with the snapshot right before the store
        #: swap; a raising hook models an apply-time fault and must
        #: leave the previous generation serving (exercised by the
        #: quarantine tests).
        self._apply_hook: Optional[Callable[[Snapshot], None]] = None

    # -- status -----------------------------------------------------------

    @property
    def healthy(self) -> bool:
        return not self.quarantine

    @property
    def generation(self) -> Optional[Generation]:
        return self.store.current()

    def describe(self) -> Dict[str, object]:
        generation = self.generation
        return {
            "config": self.config.to_dict(),
            "relations": list(self.store.schema),
            "healthy": self.healthy,
            "generation": (generation.describe()
                           if generation is not None else None),
            "quarantined": list(self.quarantine),
            "last_error": self.last_error,
            "applies": len(self.history),
        }

    # -- queries (any thread) ---------------------------------------------

    def query(self, relation: str, **kwargs) -> QueryResult:
        return self.store.query(relation, **kwargs)

    # -- maintenance (ingest thread only) ---------------------------------

    def diff_snapshot(self, snapshot: Snapshot) -> SnapshotDiff:
        """Split the snapshot against the applied state by page identity."""
        prev = self._prev_snapshot
        prev_pages: Dict[str, Page] = (
            {p.did: p for p in prev.pages} if prev is not None else {})
        changed: List[str] = []
        new: List[str] = []
        unchanged: List[str] = []
        for page in snapshot.canonical_pages():
            old = prev_pages.pop(page.did, None)
            if old is None:
                new.append(page.did)
            elif pages_identical(page, old):
                unchanged.append(page.did)
            else:
                changed.append(page.did)
        deleted = sorted(prev_pages)
        resurrected = tuple(did for did in new if did in self._tombstones)
        return SnapshotDiff(changed=tuple(changed), new=tuple(new),
                            deleted=tuple(deleted),
                            unchanged=tuple(unchanged),
                            resurrected=resurrected)

    def apply_snapshot(self, snapshot: Snapshot,
                       check: bool = False) -> ApplyRecord:
        """Maintain the view for one arriving snapshot.

        Runs the configured maintenance mode, applies the result as a
        store delta, and publishes the next generation atomically. On
        any exception the store is untouched (the swap is the last
        step) and the caller — the ingest loop — decides between retry
        and quarantine. Snapshot indexes must be strictly increasing
        per view; gaps are fine (a quarantined snapshot is skipped,
        the next one diffs against the last *applied* snapshot).
        """
        prev = self._prev_snapshot
        if prev is not None and snapshot.index <= prev.index:
            raise ValueError(
                f"view {self.config.name!r}: snapshot index "
                f"{snapshot.index} does not advance past applied "
                f"index {prev.index}")
        start = time.perf_counter()
        diff = self.diff_snapshot(snapshot)
        replaced = set(diff.changed) | set(diff.new)
        delta_result: Optional[DeltaApplyResult] = None
        with invariants.checking(check or invariants.ENABLED):
            if self._delta is not None:
                timings, delta_result = self._apply_delta_mode(
                    snapshot, diff, check)
                upserts = delta_result.upserts
            elif self._system is not None:
                timings, upserts = self._apply_delex(snapshot, replaced,
                                                     diff, check)
            else:
                timings, upserts = self._apply_noreuse(snapshot, replaced)
        if self._apply_hook is not None:
            self._apply_hook(snapshot)
        generation = self.store.apply_delta(
            snapshot.index, upserts, deletes=diff.deleted,
            relations=(delta_result.relations
                       if delta_result is not None else None))
        prev_pages = ({p.did: p for p in self._prev_snapshot.pages}
                      if self._prev_snapshot is not None else {})
        for did in diff.deleted:
            page = prev_pages.get(did)
            self._tombstones[did] = page.fingerprint if page else ""
        for did in diff.resurrected:
            self._tombstones.pop(did, None)
        self._prev_snapshot = snapshot
        self.last_error = None
        record = ApplyRecord(
            gen_id=generation.gen_id,
            snapshot_index=snapshot.index,
            seconds=time.perf_counter() - start,
            engine_seconds=timings.total,
            pages_total=len(snapshot),
            pages_changed=len(diff.changed),
            pages_new=len(diff.new),
            pages_deleted=len(diff.deleted),
            pages_unchanged=len(diff.unchanged),
            tuples_total=generation.tuples_estimate(),
            timings=timings.to_dict(),
            delta=(delta_result.to_dict()
                   if delta_result is not None else None),
            applied_at=time.time(),
            applied_mono=time.monotonic(),
        )
        self.history.append(record)
        if _oreg.ENABLED:
            self._publish_apply(record, timings)
            if delta_result is not None:
                self._publish_delta(record, delta_result)
        return record

    def _publish_apply(self, record: ApplyRecord, timings: Timings) -> None:
        """Fold one apply's telemetry into the process metrics registry."""
        name = self.config.name
        _oreg.REGISTRY.inc(
            "repro_view_applies_total",
            help="snapshots applied per view", view=name)
        _oreg.REGISTRY.observe(
            "repro_view_apply_seconds", record.seconds,
            help="wall seconds per snapshot apply (diff + run + delta + "
                 "swap)", view=name)
        _oreg.REGISTRY.inc(
            "repro_view_pages_replaced_total",
            float(record.pages_changed + record.pages_new),
            help="pages whose rows were recomputed by an apply",
            view=name)
        _oreg.REGISTRY.set(
            "repro_view_tuples", float(record.tuples_total),
            help="tuples in the view's current generation", view=name)
        _oreg.REGISTRY.set(
            "repro_view_generation", float(record.gen_id),
            help="current generation id per view", view=name)
        _oreg.publish_timings(f"view:{name}", timings)

    def _apply_delex(self, snapshot: Snapshot, replaced: set,
                     diff: SnapshotDiff, check: bool
                     ) -> Tuple[Timings, PageRows]:
        """Incremental maintenance through the delex engine."""
        assert self._system is not None
        result = self._system.process(snapshot, None)
        page_rows = self._system.last_page_rows or {}
        if check:
            self._check_against_engine(snapshot, page_rows, diff)
        upserts = {did: page_rows[did] for did in sorted(replaced)
                   if did in page_rows}
        return result.timings, upserts

    def _apply_noreuse(self, snapshot: Snapshot, replaced: set
                       ) -> Tuple[Timings, PageRows]:
        """Differential maintenance: extract only changed/new pages."""
        timings = Timings()
        timer = Timer(timings)
        pages = [p for p in snapshot.canonical_pages()
                 if p.did in replaced]
        with timer.measure_total():
            upserts = extract_page_rows(self.plan, pages, timer)
        return timings, upserts

    def _apply_delta_mode(self, snapshot: Snapshot, diff: SnapshotDiff,
                          check: bool
                          ) -> Tuple[Timings, DeltaApplyResult]:
        """Differential maintenance through the relational plan."""
        assert self._delta is not None
        timings = Timings()
        timer = Timer(timings)
        with timer.measure_total():
            result = self._delta.apply(snapshot, diff, check=check)
        if check:
            self._check_delta_against_batch(snapshot, result)
        return timings, result

    def _check_delta_against_batch(self, snapshot: Snapshot,
                                   result: DeltaApplyResult) -> None:
        """The delta-mode ``--check on`` guard: before the swap, the
        delta-maintained generation must equal what a from-scratch
        batch extraction of the whole snapshot would publish —
        relation indexes byte-for-byte (content *and* sort order),
        replaced pages' rows as sets. Failure keeps the previous
        generation serving; the ingest loop quarantines the snapshot.
        """
        timer = Timer(Timings())
        oracle_rows = extract_page_rows(
            self.plan, list(snapshot.canonical_pages()), timer)
        for rel in self.store.schema:
            want: set = set()
            for rels in oracle_rows.values():
                want.update(rels.get(rel, ()))
            want_sorted = tuple(sorted(want, key=_sort_key))
            if result.relations.get(rel, ()) != want_sorted:
                got = result.relations.get(rel, ())
                raise ViewConsistencyError(
                    f"view {self.config.name!r} snapshot "
                    f"{snapshot.index}: delta-maintained relation "
                    f"{rel!r} diverges from the batch oracle "
                    f"({len(got)} vs {len(want_sorted)} tuple(s), or "
                    "sort order drift)")
        for did, rels in result.upserts.items():
            fresh = oracle_rows.get(did)
            if fresh is None:
                raise ViewConsistencyError(
                    f"view {self.config.name!r} snapshot "
                    f"{snapshot.index}: delta upserted page {did!r} "
                    "that is not in the snapshot")
            for rel in self.store.schema:
                if set(rels.get(rel, ())) != set(fresh.get(rel, ())):
                    raise ViewConsistencyError(
                        f"view {self.config.name!r} snapshot "
                        f"{snapshot.index}: delta rows for page "
                        f"{did!r} relation {rel!r} diverge from "
                        "re-extraction")

    def _publish_delta(self, record: ApplyRecord,
                       result: DeltaApplyResult) -> None:
        """The ``repro_delta_*`` metric families (observability.md)."""
        name = self.config.name
        for decision, count in sorted(result.decision_counts().items()):
            _oreg.REGISTRY.inc(
                "repro_delta_pages_total", float(count),
                help="pages per classifier decision per view",
                view=name, decision=decision)
        counters = result.counters
        _oreg.REGISTRY.inc(
            "repro_delta_tuples_total", float(counters.rows_added),
            help="tuple-level delta rows per view by kind",
            view=name, kind="added")
        _oreg.REGISTRY.inc(
            "repro_delta_tuples_total", float(counters.rows_retracted),
            help="tuple-level delta rows per view by kind",
            view=name, kind="retracted")
        _oreg.REGISTRY.inc(
            "repro_delta_extractor_calls_total",
            float(counters.extractor_calls),
            help="extractor invocations the delta apply could not avoid",
            view=name)
        _oreg.REGISTRY.inc(
            "repro_delta_memo_hits_total", float(counters.memo_hits),
            help="IE region memo hits (extractions reused, not re-run)",
            view=name)
        _oreg.REGISTRY.set(
            "repro_delta_fallback_ratio", result.fallback_ratio,
            help="share of changed pages that fell back to "
                 "re-extraction in the last apply", view=name)
        _oreg.REGISTRY.observe(
            "repro_delta_apply_seconds", record.seconds,
            help="wall seconds per differential apply", view=name)

    def _check_against_engine(self, snapshot: Snapshot,
                              page_rows: PageRows,
                              diff: SnapshotDiff) -> None:
        """The ``--check on`` guard: store and engine must agree.

        Two properties, both verified *before* the swap so a failure
        leaves the previous generation serving:

        * coverage — the engine attributed rows to exactly the
          snapshot's pages, and carrying unchanged pages over covers
          what the delta skips;
        * drift — every unchanged page's stored rows are identical to
          what the engine just (re)produced for that page. Combined
          with upserts coming verbatim from the same run, this implies
          the published generation equals the engine's full result.
        """
        snapshot_dids = {p.did for p in snapshot.pages}
        if set(page_rows) != snapshot_dids:
            missing = sorted(snapshot_dids - set(page_rows))[:3]
            extra = sorted(set(page_rows) - snapshot_dids)[:3]
            raise ViewConsistencyError(
                f"view {self.config.name!r} snapshot {snapshot.index}: "
                f"engine page coverage mismatch (missing={missing}, "
                f"extra={extra})")
        generation = self.store.current()
        stored = generation.page_rows if generation is not None else {}
        for did in diff.unchanged:
            kept = stored.get(did)
            fresh = page_rows.get(did, {})
            if kept is None:
                raise ViewConsistencyError(
                    f"view {self.config.name!r} snapshot "
                    f"{snapshot.index}: unchanged page {did!r} missing "
                    "from the current generation")
            for rel in self.store.schema:
                if tuple(fresh.get(rel, ())) != tuple(kept.get(rel, ())):
                    raise ViewConsistencyError(
                        f"view {self.config.name!r} snapshot "
                        f"{snapshot.index}: unchanged page {did!r} "
                        f"relation {rel!r} drifted between the store "
                        "and the engine")


class ViewRegistry:
    """All views of one serving deployment, under one root directory."""

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self._lock = threading.Lock()
        self._views: Dict[str, MaterializedView] = {}

    def register(self, config: ViewConfig,
                 lazy_index: bool = False) -> MaterializedView:
        with self._lock:
            if config.name in self._views:
                raise ValueError(f"view {config.name!r} already "
                                 "registered")
            view = MaterializedView(
                config, os.path.join(self.workdir, config.name),
                lazy_index=lazy_index)
            self._views[config.name] = view
            return view

    def get(self, name: str) -> MaterializedView:
        with self._lock:
            if name not in self._views:
                raise KeyError(f"no view {name!r}; registered: "
                               f"{sorted(self._views)}")
            return self._views[name]

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._views)

    def views(self) -> List[MaterializedView]:
        with self._lock:
            return [self._views[name] for name in sorted(self._views)]

    @property
    def healthy(self) -> bool:
        return all(view.healthy for view in self.views())

    def describe(self) -> Dict[str, object]:
        return {view.config.name: view.describe()
                for view in self.views()}
