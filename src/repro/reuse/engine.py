"""The Delex execution engine (Sections 4, 5, 7).

Processes a corpus snapshot one page at a time, in canonical page
order (sorted by page id), so the groups of changed pages are appended
to each unit's segments, and read from the previous ones, in a stable
order. Per IE unit and input region it:

1. records the input tuple to ``I_U^{n+1}``;
2. matches the region against the unit's recorded input regions on the
   previous version of the page, with the unit's assigned matcher
   (ST/UD results are recorded in the page pair's match cache so RU
   units can recycle them);
3. derives copy zones and extraction regions (α/β safety), copies
   recorded output tuples, re-extracts only the extraction regions;
4. records all output tuples (copied or fresh) to ``O_U^{n+1}`` and
   hands them to the parent operator.

Every other operator (joins, non-absorbed σ/π) runs as plain
relational evaluation.

The page loop is :func:`repro.runtime.driver.run_pages`; this module
supplies what is specific to unit-level reuse. The per-page work lives
in the picklable :class:`PageEvaluator` and there is one per-page body
(:func:`_evaluate_page`), whether a page runs in a worker's batch or
in the serial one, and one page recycle (:func:`_recycle_page`) that,
with the fast paths on, re-emits an identical page whole from the
previous rows under any matcher plan. The previous snapshot's capture
sits behind one :class:`PrevCaptureSource`, which loads its page table
once and hands out any page's groups as table entries whose bytes are
read only when a unit parses them. One
:class:`~repro.reuse.files.CaptureWriter` stores every page: a
recycled page copies its table entries, a page that ran hands over the
:data:`~repro.reuse.files.PageGroups` its
:class:`~repro.reuse.files.PageRecorder` recorded, and each unit's
groups keep the previous entry when byte-equal to it and are appended
otherwise. With one worker slot the engine streams: pages are recycled
as the batch advances and each page is stored as soon as it is done;
with more, the parent recycles what it can up front, workers return
the rest's group bytes, and the parent stores every page in canonical
order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..check import invariants as _inv
from ..corpus.snapshot import Snapshot
from ..fastpath.config import FastPathFlag, fastpath_enabled
from ..fastpath.fingerprint import pages_identical
from ..fastpath.memo import MatchMemo
from ..fastpath.stats import FastPathStats
from ..matchers.base import DN_NAME, RU_NAME, MatchCache
from ..matchers.registry import make_matcher
from ..obs import profile as _oprof
from ..obs import trace as _otrace
from ..plan.compile import CompiledPlan
from ..plan.operators import Node, TupleRow, plan_walker
from ..plan.units import IEUnit, units_by_top
from ..runtime.driver import PageLookup, PageWork, run_pages
from ..runtime.executor import Executor
from ..text.document import Page
from ..text.regions import MatchSegment
from ..text.span import Span
from ..xlog.registry import EvalContext
from ..timing import COPY, EXTRACT, IO, MATCH, Timer, Timings
from .files import (
    BLOCK_SIZE,
    CaptureSummary,
    CaptureWriter,
    InputTuple,
    OutputTuple,
    PageCapture,
    PageGroups,
    PageRecorder,
    PageTable,
    ReuseFileReader,
    UnitGroups,
    encode_fields,
)
from .regions import dedupe_extensions, derive_reuse, extraction_keep
from .scope import PageMatchScope, SameUrlScope

#: Per-unit previous capture handed to the evaluator for one page: the
#: recorded I and O page groups of every unit whose capture is readable
#: (bytes are read where they are used, which in a parallel run is in
#: the parent before dispatch, and parsed where they are used).
PrevCapture = PageCapture

#: Materialized rows per relation of one page (``materialize_rows``).
PageRows = Dict[str, List[Tuple]]

#: What running (or recycling) one page yields: its rows and its
#: recorded groups (None for a recycled page: its groups are the
#: previous ones).
PageResult = Tuple[PageRows, Optional[PageGroups]]

#: What a unit without a readable capture on a page sees.
_NO_CAPTURE = UnitGroups("")


@dataclass(frozen=True)
class PlanAssignment:
    """Matcher name per IE-unit uid — one point of the plan space."""

    matchers: Dict[str, str]

    @classmethod
    def uniform(cls, units: List[IEUnit], name: str) -> "PlanAssignment":
        return cls({u.uid: name for u in units})

    @classmethod
    def all_dn(cls, units: List[IEUnit]) -> "PlanAssignment":
        return cls.uniform(units, DN_NAME)

    def of(self, unit: IEUnit) -> str:
        return self.matchers[unit.uid]

    def describe(self) -> str:
        return ",".join(f"{uid}={m}" for uid, m in sorted(self.matchers.items()))


@dataclass
class UnitRunStats:
    """Per-unit accounting for one snapshot run (feeds the optimizer)."""

    input_tuples: int = 0
    input_chars: int = 0
    output_tuples: int = 0
    copied_tuples: int = 0
    matcher_calls: int = 0
    extracted_chars: int = 0
    copy_zone_chars: int = 0
    i_blocks: int = 0
    o_blocks: int = 0

    @property
    def extraction_fraction(self) -> float:
        """The cost model's g: fraction of input chars re-extracted."""
        if self.input_chars == 0:
            return 0.0
        return min(1.0, self.extracted_chars / self.input_chars)

    def merge(self, other: "UnitRunStats") -> None:
        """Accumulate a worker's counters into this one."""
        self.input_tuples += other.input_tuples
        self.input_chars += other.input_chars
        self.output_tuples += other.output_tuples
        self.copied_tuples += other.copied_tuples
        self.matcher_calls += other.matcher_calls
        self.extracted_chars += other.extracted_chars
        self.copy_zone_chars += other.copy_zone_chars
        self.i_blocks += other.i_blocks
        self.o_blocks += other.o_blocks


@dataclass
class SnapshotRunResult:
    """Output and accounting of running a plan over one snapshot."""

    results: Dict[str, List[Tuple]]
    timings: Timings
    unit_stats: Dict[str, UnitRunStats] = field(default_factory=dict)
    pages: int = 0
    pages_with_previous: int = 0
    #: What the capture the run wrote holds (None: it wrote none).
    capture: Optional[CaptureSummary] = field(default=None, repr=False)

    def total_mentions(self) -> int:
        return sum(len(rows) for rows in self.results.values())


def materialize_rows(rows: List[TupleRow], page_text: str) -> List[Tuple]:
    """Convert tuples into hashable, system-independent form."""
    out: List[Tuple] = []
    for row in rows:
        items = []
        for var in sorted(row):
            value = row[var]
            if isinstance(value, Span):
                items.append((var, (value.start, value.end,
                                    page_text[value.start:value.end])))
            else:
                items.append((var, value))
        out.append(tuple(items))
    return out


def min_match_length(beta: int) -> int:
    """ST's shortest reported segment for a unit with context β.

    A match shorter than 2β + 2 enables no copying, so ST skips such
    segments — but large-β units (CRFs) still benefit from full-region
    matches of short regions, hence the cap.
    """
    return max(8, min(2 * beta + 2, 32))


class PageEvaluator:
    """Per-page plan evaluation with unit-level reuse.

    Holds exactly the state one page's evaluation needs — the compiled
    plan, its IE units, and the matcher assignment — and nothing tied
    to the driving process (no file handles, no scope, no executor),
    which is what makes it safe to pickle into process-pool workers.

    :meth:`run_page` runs every unit with its assigned matcher; a
    byte-identical page is re-emitted without running it by
    :func:`_recycle_page`.
    """

    def __init__(self, plan: CompiledPlan, units: List[IEUnit],
                 assignment: PlanAssignment,
                 fastpath: FastPathFlag = None) -> None:
        self.plan = plan
        self.units = units
        self.assignment = assignment
        self.fastpath = fastpath_enabled(fastpath)
        self._unit_of_top = units_by_top(units)
        self._unit_by_uid = {u.uid: u for u in units}

    # ``units_by_top`` keys on ``id(node)``; raw object ids are stale
    # after a pickle round-trip, so rebuild the map on unpickle (node
    # identity between plan and units is preserved within one payload).
    def __getstate__(self) -> Dict[str, object]:
        return {"plan": self.plan, "units": self.units,
                "assignment": self.assignment, "fastpath": self.fastpath}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self._unit_of_top = units_by_top(self.units)  # type: ignore[arg-type]
        self._unit_by_uid = {u.uid: u for u in self.units}

    def uids(self) -> List[str]:
        return [u.uid for u in self.units]

    def unit(self, uid: str) -> IEUnit:
        return self._unit_by_uid[uid]

    # -- per-page evaluation ----------------------------------------------

    def run_page(self, page: Page, q_page: Optional[Page],
                 prev_capture: PrevCapture, recorder: PageRecorder,
                 stats: Dict[str, UnitRunStats], timer: Timer,
                 cache: Optional[MatchCache] = None,
                 fp_stats: Optional[FastPathStats] = None
                 ) -> Dict[str, List[TupleRow]]:
        """Evaluate the plan over one page, reusing ``prev_capture`` and
        recording the page's new capture into ``recorder``."""
        cache = cache if cache is not None else MatchCache()
        fp_stats = fp_stats if fp_stats is not None else FastPathStats()

        # The equal-region shortcut, counting into this page's stats.
        match_memo: Optional[MatchMemo] = None
        if q_page is not None:
            fp_stats.pages_paired += 1
            if self.fastpath:
                match_memo = MatchMemo(fp_stats)

        def step(node: Node, evaluate) -> Optional[List[TupleRow]]:
            unit = self._unit_of_top.get(id(node))
            if unit is None:
                return None
            return self._run_unit(
                unit, evaluate(unit.ie_node.child), page, q_page,
                prev_capture.get(unit.uid, _NO_CAPTURE), recorder,
                cache, stats[unit.uid],
                timer, match_memo=match_memo)

        evaluate = plan_walker(page.text, page.did, {}, step)
        return {rel: evaluate(self.plan.roots[rel])
                for rel in self.plan.program.head_relations()}

    # -- per-unit execution with reuse --------------------------------------

    def _run_unit(self, unit: IEUnit, input_rows: List[TupleRow],
                  page: Page, q_page: Optional[Page],
                  prev: UnitGroups, recorder: PageRecorder,
                  cache: MatchCache, unit_stats: UnitRunStats,
                  timer: Timer,
                  match_memo: Optional[MatchMemo] = None
                  ) -> List[TupleRow]:
        """Run one IE unit over its input rows on one page."""
        matcher_name = self.assignment.of(unit)
        prev_inputs: List[InputTuple] = []
        recorded_outputs: Dict[int, List[OutputTuple]] = {}
        if input_rows and q_page is not None and matcher_name != DN_NAME:
            # Every row may reuse (the from-scratch test below is the
            # same for all of them), so parse the recorded groups once.
            # A framed line that is not a record leaves this page's
            # capture unusable: the unit runs from scratch here, as it
            # would on a torn file.
            try:
                with timer.measure(IO):
                    prev_inputs = prev.inputs
                    if prev_inputs:
                        recorded_outputs = prev.outputs()
            except ValueError:
                prev_inputs = []
        ctx = EvalContext(page.text, page.did)

        # Opt-in observability (off by default: one module-attribute
        # check per unit run). Wall/CPU per unit feeds `repro obs
        # report`; the unit span carries the matcher chosen and the
        # copy/fresh split so a trace explains where the time went.
        _obs = _oprof.ENABLED or _otrace.ENABLED
        if _obs:
            _w0 = time.perf_counter()
            _c0 = time.process_time()
            _copied0 = unit_stats.copied_tuples

        min_length = min_match_length(unit.beta)
        matcher = make_matcher(matcher_name, cache, min_length=min_length)
        # Distinct paths the input rows took, for the unit trace event.
        paths: Optional[List[str]] = [] if _otrace.ENABLED else None

        out_rows: List[TupleRow] = []
        for row in input_rows:
            region = row[unit.in_var]
            if not isinstance(region, Span):
                raise TypeError(f"unit {unit.uid}: input {unit.in_var!r} "
                                "is not a span")
            unit_stats.input_tuples += 1
            unit_stats.input_chars += len(region)
            c = ""
            with timer.measure(IO):
                tid = recorder.input(unit.uid, region.start, region.end, c)

            copied: List[Dict[str, object]] = []
            if q_page is None or matcher_name == DN_NAME or not prev_inputs:
                path = "scratch"
                extraction_regions = [region.interval]
                derivation = None
            else:
                path = "match"
                candidates = {pi.tid: pi for pi in prev_inputs
                              if pi.c == c}
                if _oprof.ENABLED:
                    _m0 = time.perf_counter()
                    _mc0 = time.process_time()
                with timer.measure(MATCH):
                    unit_stats.matcher_calls += len(candidates)
                    cand_regions = {tid: pi.interval
                                    for tid, pi in candidates.items()}
                    if match_memo is not None:
                        segments: List[MatchSegment] = \
                            match_memo.match_many(
                                matcher, page.text, region.interval,
                                q_page.text, cand_regions)
                    else:
                        segments = matcher.match_many(
                            page.text, region.interval, q_page.text,
                            cand_regions)
                    if matcher_name not in (DN_NAME, RU_NAME):
                        # Fresh matching work (ST/UD/plug-ins like
                        # WS) is recorded for RU units to recycle.
                        cache.record(segments)
                if _oprof.ENABLED:
                    _oprof.record_matcher(
                        matcher_name, time.perf_counter() - _m0,
                        time.process_time() - _mc0)
                with timer.measure(COPY):
                    derivation = derive_reuse(
                        region.interval, page.did, segments,
                        candidates, recorded_outputs, unit.alpha,
                        unit.beta)
                copied = derivation.copied
                extraction_regions = derivation.extraction_regions
                unit_stats.copied_tuples += len(copied)
                unit_stats.copy_zone_chars += derivation.covered_chars()
            if paths is not None and path not in paths:
                paths.append(path)

            fresh: List[Dict[str, object]] = []
            for er in extraction_regions:
                unit_stats.extracted_chars += len(er)
                with timer.measure(EXTRACT):
                    extractions = unit.extractor.extract(
                        page.text[er.start:er.end])
                er_span = Span(page.did, er.start, er.end)
                for extraction in extractions:
                    extent = extraction.extent()
                    abs_extent = (None if extent is None else
                                  (extent[0] + er.start,
                                   extent[1] + er.start))
                    if derivation is not None and not extraction_keep(
                            abs_extent, er, region.interval, unit.beta):
                        continue
                    post = unit.apply_absorbed(
                        unit.ie_node.extension_fields(extraction, er_span),
                        ctx)
                    if post is not None:
                        fresh.append(post)

            # Copy zones and extraction regions overlap by design (the
            # α+β margins), so only the mixed case can hold duplicates.
            with timer.measure(COPY):
                if not fresh:
                    extensions = copied
                elif not copied:
                    extensions = fresh
                else:
                    extensions = dedupe_extensions(copied + fresh)
            unit_stats.output_tuples += len(extensions)
            with timer.measure(IO):
                for ext in extensions:
                    recorder.output(unit.uid, tid, encode_fields(ext))
            for ext in extensions:
                if unit.projects_away_input:
                    out_rows.append(dict(ext))
                else:
                    out_rows.append({**row, **ext})
        if _obs:
            _wall = time.perf_counter() - _w0
            if _oprof.ENABLED:
                _oprof.record_unit(unit.uid, _wall,
                                   time.process_time() - _c0)
            if _otrace.ENABLED:
                _otrace.event("unit", cat="unit", start=_w0, dur=_wall,
                              uid=unit.uid, matcher=matcher_name,
                              path="+".join(paths or ()),
                              rows_in=len(input_rows),
                              rows_out=len(out_rows),
                              copied=unit_stats.copied_tuples - _copied0)
        if _inv.ENABLED:
            # --check layer: every span the unit emits stays inside
            # the page it was emitted for.
            _inv.check_rows_in_page(out_rows, page, unit=unit.uid)
        return out_rows

def _evaluate_page(evaluator: PageEvaluator, page: Page,
                   q_page: Optional[Page], prev_capture: PrevCapture,
                   stats: Dict[str, UnitRunStats], timer: Timer,
                   fp_stats: FastPathStats) -> PageResult:
    """The one per-page body: run the plan with reuse, return the
    materialized rows per relation and the page's recorded capture."""
    recorder = PageRecorder()
    if _oprof.ENABLED:
        _p0 = time.perf_counter()
    with (_otrace.span("page", cat="page", did=page.did,
                       paired=q_page is not None, recycled=False)
          if _otrace.ENABLED else _otrace.NULL):
        page_rows = evaluator.run_page(page, q_page, prev_capture,
                                       recorder, stats, timer,
                                       cache=MatchCache(),
                                       fp_stats=fp_stats)
    if _oprof.ENABLED:
        _oprof.record_page(page.did, time.perf_counter() - _p0)
    return ({rel: materialize_rows(rows, page.text)
             for rel, rows in page_rows.items()}, recorder.groups())


def _recycle_page(evaluator: PageEvaluator, page: Page,
                  q_page: Optional[Page], prev_capture: PrevCapture,
                  prev_rows: Optional[PageRows],
                  fp_stats: FastPathStats) -> Optional[PageRows]:
    """The one page recycle, for the serial page body and the parallel
    parent alike, and the one reuse rule for an unchanged page.

    With the fast paths on, a page is recycled when ``q_page``'s rows
    from the previous run are known, every unit's capture of
    ``q_page`` is readable and the pair is byte-identical: whatever
    the matcher plan or the URL. Extractors are deterministic in their
    region's text, and neither materialized rows nor capture records
    carry a page id, so the previous rows give the canonical results
    running the page would give under any plan (Theorem 1; Shortcut in
    Section 8); under a fixed plan their row order and the capture
    bytes are equal too. With the fast paths off every page runs, which
    keeps that switch the reference engine the recycle is checked
    against.

    Returns those rows (shared, never mutated); otherwise touches
    nothing and returns None. The page's capture is the previous one:
    the caller's :class:`~repro.reuse.files.CaptureWriter` copies its
    table entries, reading nothing. Only the page counters and the
    recycled tuples are booked: the units ran on nothing, so their
    :class:`UnitRunStats` stay as they are. A group that is corrupt on
    disk is never parsed here; it is caught when a later run parses it
    (see :meth:`PageEvaluator._run_unit`). The caller books it as
    capture I/O."""
    if (prev_rows is None or not evaluator.fastpath
            or not prev_capture.complete()
            or not pages_identical(page, q_page)):
        return None
    with (_otrace.span("page", cat="page", did=page.did, paired=True,
                       recycled=True)
          if _otrace.ENABLED else _otrace.NULL):
        fp_stats.pages_paired += 1
        fp_stats.pages_recycled += 1
        fp_stats.tuples_recycled += prev_capture.output_count()
        if _inv.ENABLED:
            # --check layer: a pair recycled whole must really be
            # byte-identical.
            _inv.check_identity_pair(page, q_page)
    return prev_rows


def _engine_batch(state, lookup: PageLookup, items, timer: Timer):
    """Process one batch of whole pages in a (possibly remote) worker.

    ``state`` is ``(evaluator, writer)``. ``writer`` is the run's
    :class:`~repro.reuse.files.CaptureWriter` when it has one worker
    slot: the batch holds every page in canonical order, recycles what
    it can and stores each page as soon as the page is done. With more
    slots it is None and each page's groups go back to the parent.
    ``items`` yields ``(did, q_did, prev_capture, prev_rows)`` per page;
    ``prev_rows`` (the previous run's rows of ``q_did``) is given only
    where the page may still be recycled here, i.e. in a serial run.
    Returns ``(did, (rows per relation, groups or None))`` per page,
    plus the batch's per-unit stats and fast-path counters.
    """
    evaluator, writer = state
    stats = {uid: UnitRunStats() for uid in evaluator.uids()}
    fp_stats = FastPathStats()
    out = []
    for did, q_did, prev_capture, prev_rows in items:
        page = lookup.current[did]
        q_page = lookup.previous[q_did] if q_did is not None else None
        with timer.measure(IO):
            rel_rows = _recycle_page(evaluator, page, q_page, prev_capture,
                                     prev_rows, fp_stats)
            if rel_rows is not None and writer is not None:
                writer.write_page(did, None, prev_capture)
        groups: Optional[PageGroups] = None
        if rel_rows is None:
            rel_rows, groups = _evaluate_page(
                evaluator, page, q_page, prev_capture, stats, timer,
                fp_stats)
            if writer is not None:
                with timer.measure(IO):
                    writer.write_page(did, groups, prev_capture)
                groups = None
        out.append((did, (rel_rows, groups)))
    return out, (stats, fp_stats)


class PrevCaptureSource:
    """The previous snapshot's capture, one page at a time, per unit.

    The page table is loaded once (its segments ``stat``-ed once), and
    any page's capture can then be asked for in any order, which is
    what scopes that pair pages across URLs need. Nothing is read until
    a unit parses a group. A previous capture must never break the
    current run: without a readable table (none written, torn, an older
    layout) there is no previous capture, and a unit whose segment is
    damaged is left out on the pages whose groups it holds, so it
    extracts there from scratch.
    """

    def __init__(self, directory: Optional[str],
                 uids: Sequence[str]) -> None:
        self.reader: Optional[ReuseFileReader] = None
        if directory is not None:
            try:
                self.reader = ReuseFileReader(directory, uids)
            except (OSError, ValueError):
                pass

    @property
    def table(self) -> Optional[PageTable]:
        return self.reader.table if self.reader is not None else None

    def read(self, q_page: Optional[Page]) -> PrevCapture:
        """The recorded groups on ``q_page`` of every unit whose
        capture of it is readable."""
        if q_page is None:
            return PageCapture("")
        return self.groups(q_page.did)

    def groups(self, did: str) -> PrevCapture:
        """:meth:`read` for the page with id ``did``."""
        if self.reader is None:
            return PageCapture(did)
        return self.reader.capture(did)

    def close(self) -> None:
        if self.reader is not None:
            self.reader.close()


class ReuseEngine:
    """Executes a compiled plan over snapshots with unit-level reuse."""

    def __init__(self, plan: CompiledPlan, units: List[IEUnit],
                 assignment: PlanAssignment,
                 scope: Optional[PageMatchScope] = None,
                 executor: Optional[Executor] = None,
                 fastpath: FastPathFlag = None) -> None:
        self.plan = plan
        self.units = units
        self.assignment = assignment
        self.scope = scope if scope is not None else SameUrlScope()
        self.executor = executor
        self.fastpath = fastpath_enabled(fastpath)
        missing = [u.uid for u in units if u.uid not in assignment.matchers]
        if missing:
            raise ValueError(f"assignment missing units {missing}")
        self.evaluator = PageEvaluator(plan, units, assignment,
                                       fastpath=self.fastpath)
        for uid, name in assignment.matchers.items():
            # Fail fast on unknown matcher names instead of mid-run.
            make_matcher(name, MatchCache())

    # -- snapshot-level driver -------------------------------------------

    def run_snapshot(self, snapshot: Snapshot,
                     prev_snapshot: Optional[Snapshot],
                     prev_dir: Optional[str], out_dir: str,
                     timings: Optional[Timings] = None,
                     page_rows_out: Optional[Dict[str, PageRows]] = None,
                     prev_page_rows: Optional[Dict[str, PageRows]] = None
                     ) -> SnapshotRunResult:
        """Run the plan over ``snapshot``, reusing ``prev_dir`` capture.

        ``prev_snapshot``/``prev_dir`` are None for the bootstrap run.
        Capture for the *next* snapshot is written under ``out_dir``; it
        references the segments of ``prev_dir``'s capture (and of the
        ones that table references) by paths relative to ``out_dir``.

        ``page_rows_out``, when given, is filled with the run's
        materialized rows split by producing page (``did -> relation
        -> rows``) — the per-page attribution of this (possibly
        recycled) run, at zero extra extraction cost. The serving
        layer applies it as a delta; concatenating it in canonical
        page order reproduces ``results`` exactly.

        ``prev_page_rows`` is the ``page_rows_out`` of the run that
        wrote ``prev_dir``. With it and the fast paths on, a page
        byte-identical to its previous version is recycled whole: its
        previous rows are returned and its table entries copied (see
        :func:`_recycle_page`).
        """
        timings = timings if timings is not None else Timings()
        timer = Timer(timings)
        stats = {u.uid: UnitRunStats() for u in self.units}
        results: Dict[str, List[Tuple]] = {
            rel: [] for rel in self.plan.program.head_relations()}
        pages = snapshot.canonical_pages()
        if _inv.ENABLED:
            # --check layer: the page table lists one row per page in
            # this exact order, so strict did monotonicity here is the
            # on-disk page-order invariant.
            _inv.check_page_order([p.did for p in pages])
        jobs = self.executor.jobs if self.executor is not None else 1
        fp_stats = FastPathStats()
        self.scope.begin_snapshot(prev_snapshot)
        # Root trace span: one per snapshot run (never sampled away),
        # carrying the page count and the fast-path outcome so a trace
        # alone explains why this snapshot was fast or slow.
        _snap = (_otrace.span("snapshot", cat="snapshot",
                              index=snapshot.index, pages=len(pages),
                              parallel=jobs > 1)
                 if _otrace.ENABLED else _otrace.NULL)
        uids = [u.uid for u in self.units]
        source: Optional[PrevCaptureSource] = None
        writer: Optional[CaptureWriter] = None
        summary: Optional[CaptureSummary] = None
        try:
            with _snap, timer.measure_total():
                with timer.measure(IO):
                    source = PrevCaptureSource(
                        prev_dir if prev_snapshot is not None else None,
                        uids)
                    writer = CaptureWriter(out_dir, uids, source.table,
                                           prev_dir)
                pages_with_prev = self._run_pages(
                    pages, jobs, source, writer, stats, results, timer,
                    fp_stats, page_rows_out, prev_page_rows or {})
                _snap.set("pages_with_prev", pages_with_prev)
                _snap.set("recycled", fp_stats.pages_recycled)
                _snap.set("region_short_circuits",
                          fp_stats.region_short_circuits)
                with timer.measure(IO):
                    summary = writer.close()
        finally:
            if source is not None:
                source.close()
            if writer is not None and summary is None:
                writer.abort()
        for uid, (i_bytes, o_bytes) in writer.logical_bytes.items():
            stats[uid].i_blocks = -(-i_bytes // BLOCK_SIZE)
            stats[uid].o_blocks = -(-o_bytes // BLOCK_SIZE)
        if timings.fastpath is None:
            timings.fastpath = fp_stats
        else:
            timings.fastpath.merge(fp_stats)
        return SnapshotRunResult(results=results, timings=timings,
                                 unit_stats=stats, pages=len(pages),
                                 pages_with_previous=pages_with_prev,
                                 capture=summary)

    # -- the page loop ------------------------------------------------------

    def _run_pages(self, pages: Sequence[Page], jobs: int,
                   source: PrevCaptureSource,
                   writer: CaptureWriter,
                   stats: Dict[str, UnitRunStats],
                   results: Dict[str, List[Tuple]], timer: Timer,
                   fp_stats: FastPathStats,
                   page_rows_out: Optional[Dict[str, PageRows]],
                   prev_page_rows: Dict[str, PageRows]) -> int:
        evaluator = self.evaluator
        # Pair pages in canonical order in the parent so stateful
        # scopes (fingerprint claims) behave the same on every backend.
        pair_of = {page.did: self.scope.pair_for(page) for page in pages}

        def prev_rows_of(did: str) -> Optional[PageRows]:
            q_page = pair_of[did]
            return None if q_page is None else prev_page_rows.get(q_page.did)

        # One worker slot streams: its single batch runs inline, in
        # canonical order, so each page's previous groups are taken as
        # the batch advances (the payload stays a generator), pages are
        # recycled in that same pass and each page is stored as soon as
        # it is done. More slots need picklable payloads and an
        # order-free merge: every page's previous entries are taken up
        # front, the parent recycles what it can before batching
        # (recycled pages never reach a worker), reads the groups of
        # the pages that run, workers return each page's group bytes
        # and the parent stores every page below, in canonical order.
        # The choice is what ``jobs`` already says, and trades memory
        # for parallelism.
        streaming = jobs <= 1
        with timer.measure(IO):
            prev_capture = {page.did: source.read(pair_of[page.did])
                            for page in pages}
        recycled: Dict[str, PageResult] = {}
        to_run = pages
        if not streaming:
            with timer.measure(IO):
                for page in pages:
                    done = _recycle_page(
                        evaluator, page, pair_of[page.did],
                        prev_capture[page.did], prev_rows_of(page.did),
                        fp_stats)
                    if done is not None:
                        recycled[page.did] = (done, None)
            to_run = [p for p in pages if p.did not in recycled]

        def payload(batch: Sequence[Page]):
            if streaming:
                return ((p.did,
                         pair_of[p.did].did if pair_of[p.did] else None,
                         prev_capture[p.did], prev_rows_of(p.did))
                        for p in batch)
            with timer.measure(IO):
                for p in batch:
                    prev_capture[p.did].load()
            return tuple((p.did,
                          pair_of[p.did].did if pair_of[p.did] else None,
                          prev_capture[p.did], None)
                         for p in batch)

        work = PageWork(
            batch_fn=_engine_batch,
            state=(evaluator, writer if streaming else None),
            payload=payload,
            prev_pages=[pair_of[p.did] for p in to_run
                        if pair_of[p.did] is not None])
        run = run_pages(work, to_run, self.executor, timer)
        for batch_stats, batch_fp in run.extras:
            for uid, unit_stats in batch_stats.items():
                stats[uid].merge(unit_stats)
            fp_stats.merge(batch_fp)
        by_did = {**run.by_did, **recycled}
        for page in pages:
            rel_rows = by_did[page.did][0]
            if page_rows_out is not None:
                page_rows_out[page.did] = rel_rows
            for rel, rows in rel_rows.items():
                results[rel].extend(rows)
        if not streaming:
            with timer.measure(IO):
                for page in pages:
                    writer.write_page(page.did, by_did[page.did][1],
                                      prev_capture[page.did])
        timer.timings.runtime = run.metrics
        return sum(1 for q in pair_of.values() if q is not None)
