"""The Delex execution engine (Sections 4, 5, 7).

Processes a corpus snapshot one page at a time, in canonical page
order (sorted by page id), so each unit's reuse files are written in a
stable order; each is read exactly once, whole. Per IE unit and
input region it:

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
(:func:`_evaluate_page`) whether a page runs in a worker's batch or is
assembled from split parts in the parent, and one page recycle
(:func:`_recycle_page`) that re-emits an identical page whole from the
previous capture and rows. The previous snapshot's capture sits behind
one :class:`PrevCaptureSource`, which reads each reuse file whole, once,
and hands out any page's groups as bytes. Either way a page's new
capture is its :data:`~repro.reuse.files.PageGroups`: recorded by a
:class:`~repro.reuse.files.PageRecorder` or, for a recycled page, the
previous groups' bytes. Whether a page may be recycled depends only on
the plan and the page's recorded I groups once the pair is identical,
so a :class:`RecycleMemo` the caller keeps across snapshots answers it
for pages whose groups it has seen. With one worker slot the engine
streams: pages are recycled as the batch advances and each page's
groups are written as soon as the page is done; with more, the parent
recycles what it can up front, workers return the rest's group bytes,
and the parent copies them into the reuse files in canonical order.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..check import invariants as _inv
from ..corpus.snapshot import Snapshot
from ..fastpath.config import FastPathFlag, fastpath_enabled
from ..fastpath.fingerprint import pages_identical
from ..fastpath.matchcache import CrossSnapshotMatchCache
from ..fastpath.memo import AutomatonCache, MatchMemo
from ..fastpath.stats import FastPathStats
from ..text import tokens as _tokens_mod
from ..text.tokens import TokenCache
from ..matchers.base import DN_NAME, RU_NAME, ST_NAME, UD_NAME, MatchCache
from ..matchers.dn import EQ_NAME
from ..matchers.registry import make_matcher
from ..matchers.ws import WS_NAME
from ..obs import profile as _oprof
from ..obs import trace as _otrace
from ..plan.compile import CompiledPlan
from ..plan.operators import Node, ScanNode, TupleRow, plan_walker
from ..plan.units import IEUnit, units_by_top
from ..runtime.driver import Extensions, PageLookup, PageWork, run_pages
from ..runtime.executor import Executor
from ..runtime.scheduler import PageScheduler
from ..runtime.split import SplitConfig
from ..text.document import Page
from ..text.regions import MatchSegment
from ..text.span import Span
from ..xlog.registry import EvalContext
from ..timing import COPY, EXTRACT, IO, MATCH, Timer, Timings
from .files import (
    InputTuple,
    OutputTuple,
    PageGroups,
    PageRecorder,
    ReuseFileReader,
    ReuseFileWriter,
    UnitGroups,
    decode_fields,
    encode_fields,
    page_marker,
)
from .regions import dedupe_extensions, derive_reuse, extraction_keep
from .scope import PageMatchScope, SameUrlScope

#: Per-unit previous capture handed to the evaluator for one page:
#: ``uid -> recorded I and O page groups``, as read from the unit's
#: reuse files (outputs are parsed where they are used, which in a
#: parallel run is in the workers).
PrevCapture = Dict[str, UnitGroups]

#: Materialized rows per relation of one page (``materialize_rows``).
PageRows = Dict[str, List[Tuple]]

#: What running (or recycling) one page yields: its rows and its capture.
PageResult = Tuple[PageRows, PageGroups]

#: What a unit without a readable capture on a page sees.
_NO_CAPTURE = UnitGroups("", b"", b"")

#: Each unit's recorded (input rows, input chars) on a recyclable page,
#: in unit order: what :meth:`PageEvaluator.recycle_page` books.
UnitSizes = Tuple[Tuple[int, int], ...]

#: Every unit's (I, O) reuse-file writer for the snapshot being run.
Writers = Dict[str, Tuple[ReuseFileWriter, ReuseFileWriter]]


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

    def total_mentions(self) -> int:
        return sum(len(rows) for rows in self.results.values())


#: A recycle verdict's key: the plan (``(uid, matcher)`` per unit, in
#: unit order) and each unit's recorded I-group bytes on the page.
RecycleKey = Tuple[Tuple[Tuple[str, str], ...], Tuple[bytes, ...]]


class RecycleMemo:
    """Whole-page recycle verdicts by content, kept across snapshots.

    Once a page pair is identical and keeps its URL (checked on every
    page), :meth:`PageEvaluator.page_recyclable` is a function of the
    plan and the units' recorded I groups alone, so its answer — the
    units' :data:`UnitSizes`, or None — is keyed by exactly those. It
    holds only the entries the last run looked up or added: at most
    one snapshot's pages. Recycles run in one thread (the serial batch
    or the parallel parent), so the memo is never shared or pickled.
    """

    __slots__ = ("_last", "_this")

    def __init__(self) -> None:
        self._last: Dict[RecycleKey, Optional[UnitSizes]] = {}
        self._this: Dict[RecycleKey, Optional[UnitSizes]] = {}

    def lookup(self, key: RecycleKey,
               compute: Callable[[], Optional[UnitSizes]]
               ) -> Optional[UnitSizes]:
        """The verdict stored under ``key``, else ``compute()``'s."""
        if key in self._this:
            return self._this[key]
        verdict = (self._last.pop(key) if key in self._last
                   else compute())
        self._this[key] = verdict
        return verdict

    def end_run(self) -> None:
        """Keep what this run used; forget the rest."""
        self._last, self._this = self._this, {}

    def __len__(self) -> int:
        return len(self._last) + len(self._this)


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


def _safe_filename(uid: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in uid)


class PageEvaluator:
    """Per-page plan evaluation with unit-level reuse.

    Holds exactly the state one page's evaluation needs — the compiled
    plan, its IE units, and the matcher assignment — and nothing tied
    to the driving process (no file handles, no scope, no executor),
    which is what makes it safe to pickle into process-pool workers.

    On a byte-identical page pair each unit decides for itself whether
    it may take the identity short circuit (see
    :meth:`_identity_candidate`); under every plan, including ones with
    RU units, the short circuit leaves the same outputs, counters and
    page-pair :class:`MatchCache` contents as the slow path. When every
    unit would take it on every row, :meth:`page_recyclable` says so
    and :meth:`recycle_page` re-emits the page without running it.
    """

    def __init__(self, plan: CompiledPlan, units: List[IEUnit],
                 assignment: PlanAssignment,
                 fastpath: FastPathFlag = None) -> None:
        self.plan = plan
        self.units = units
        self.assignment = assignment
        self.fastpath = fastpath_enabled(fastpath)
        # The match store, attached by the owning engine (or per
        # worker); deliberately not pickled — process workers get a
        # fresh per-worker store, thread workers share the engine's.
        self.match_cache: Optional[CrossSnapshotMatchCache] = None
        self._unit_of_top = units_by_top(units)
        self._unit_by_uid = {u.uid: u for u in units}
        #: The plan half of every :data:`RecycleKey` this evaluator makes.
        self._plan_key = tuple((u.uid, assignment.of(u)) for u in units)

    # ``units_by_top`` keys on ``id(node)``; raw object ids are stale
    # after a pickle round-trip, so rebuild the map on unpickle (node
    # identity between plan and units is preserved within one payload).
    def __getstate__(self) -> Dict[str, object]:
        return {"plan": self.plan, "units": self.units,
                "assignment": self.assignment, "fastpath": self.fastpath}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.match_cache = None
        self._unit_of_top = units_by_top(self.units)  # type: ignore[arg-type]
        self._unit_by_uid = {u.uid: u for u in self.units}
        self._plan_key = tuple((u.uid, self.assignment.of(u))
                               for u in self.units)

    def uids(self) -> List[str]:
        return [u.uid for u in self.units]

    def unit(self, uid: str) -> IEUnit:
        return self._unit_by_uid[uid]

    def frontier_units(self) -> List[IEUnit]:
        """Units whose input is the raw page scan — the only units a
        sub-page split may precompute (a σ between scan and IE, or a
        producing unit below, would change the input region)."""
        return [u for u in self.units
                if isinstance(u.ie_node.child, ScanNode)]

    # -- per-page evaluation ----------------------------------------------

    def run_page(self, page: Page, q_page: Optional[Page],
                 prev_capture: PrevCapture, recorder: PageRecorder,
                 stats: Dict[str, UnitRunStats], timer: Timer,
                 cache: Optional[MatchCache] = None,
                 fp_stats: Optional[FastPathStats] = None,
                 precomputed: Optional[Extensions] = None
                 ) -> Dict[str, List[TupleRow]]:
        """Evaluate the plan over one page, reusing ``prev_capture`` and
        recording the page's new capture into ``recorder``.

        ``precomputed`` maps frontier-unit uids to the raw extension
        dicts split parts already extracted from this page; those
        units skip their blackbox call (see :meth:`_run_unit`).
        """
        cache = cache if cache is not None else MatchCache()
        fp_stats = fp_stats if fp_stats is not None else FastPathStats()

        # Per-page-pair fast-path context. The memo's fingerprints and
        # the automaton cache live exactly as long as one (page,
        # q_page) pair — the same lifetime as the MatchCache — so keys
        # never need a page component; the match store they consult is
        # content-keyed and outlives the pair.
        match_memo: Optional[MatchMemo] = None
        automatons: Optional[AutomatonCache] = None
        tokens: Optional[TokenCache] = None
        kernel = "auto" if self.fastpath else "off"
        page_identical = False
        if q_page is not None:
            fp_stats.pages_paired += 1
            if self.fastpath:
                match_memo = MatchMemo(fp_stats, self.match_cache)
                automatons = AutomatonCache(fp_stats)
                if _tokens_mod.numpy_enabled():
                    tokens = TokenCache()
                page_identical = (bool(prev_capture)
                                  and pages_identical(page, q_page))
            if page_identical:
                fp_stats.pages_short_circuited += 1
                if _inv.ENABLED:
                    # --check layer: a fingerprint short circuit must
                    # really be a byte-identical pair.
                    _inv.check_identity_pair(page, q_page)

        def step(node: Node, evaluate) -> Optional[List[TupleRow]]:
            unit = self._unit_of_top.get(id(node))
            if unit is None:
                return None
            return self._run_unit(
                unit, evaluate(unit.ie_node.child), page, q_page,
                prev_capture.get(unit.uid, _NO_CAPTURE), recorder,
                cache, stats[unit.uid],
                timer, match_memo=match_memo, automatons=automatons,
                tokens=tokens, kernel=kernel,
                page_identical=page_identical, fp_stats=fp_stats,
                precomputed=(precomputed or {}).get(unit.uid))

        evaluate = plan_walker(page.text, page.did, {}, step)
        return {rel: evaluate(self.plan.roots[rel])
                for rel in self.plan.program.head_relations()}

    # -- per-unit execution with reuse --------------------------------------

    def _run_unit(self, unit: IEUnit, input_rows: List[TupleRow],
                  page: Page, q_page: Optional[Page],
                  prev: UnitGroups, recorder: PageRecorder,
                  cache: MatchCache, unit_stats: UnitRunStats,
                  timer: Timer,
                  match_memo: Optional[MatchMemo] = None,
                  automatons: Optional[AutomatonCache] = None,
                  tokens: Optional[TokenCache] = None,
                  kernel: str = "auto",
                  page_identical: bool = False,
                  fp_stats: Optional[FastPathStats] = None,
                  precomputed: Optional[List[Dict[str, object]]] = None
                  ) -> List[TupleRow]:
        """Run one IE unit over its input rows on one page.

        ``precomputed``, when given, is the unit's raw whole-page
        extension list already extracted by split parts. The driver
        only precomputes frontier units (one input row, the page scan)
        on pages where they run from scratch, so the unit takes the
        from-scratch branch below with the blackbox call replaced by
        that list — every record, counter and row is otherwise
        produced by the same code as an unsplit run.
        """
        matcher_name = self.assignment.of(unit)
        prev_inputs: List[InputTuple] = []
        recorded_outputs: Dict[int, List[OutputTuple]] = {}
        if (input_rows and precomputed is None and q_page is not None
                and matcher_name != DN_NAME):
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
        matcher = make_matcher(matcher_name, cache, min_length=min_length,
                               automatons=automatons, tokens=tokens,
                               kernel=kernel)
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
            if (precomputed is not None or q_page is None
                    or matcher_name == DN_NAME or not prev_inputs):
                path = "scratch"
                extraction_regions = [region.interval]
                derivation = None
            else:
                identity = None
                if page_identical:
                    identity = self._identity_candidate(
                        matcher, matcher_name, min_length, region,
                        prev_inputs, c, cache)
                if identity is not None:
                    # Unchanged-page short circuit: the slow path on a
                    # byte-identical page pair reduces to copying every
                    # recorded output of the exact-match candidate with
                    # shift 0 (full-region copy zone, no extraction
                    # regions, ``extensions = copied`` untouched).
                    # Mirror the slow path's counters so the optimizer
                    # statistics are identical either way.
                    # Counter mirror only — no timer block for a bare
                    # increment; its ~0s would cost more to attribute
                    # than it measures.
                    path = "identity"
                    n_cand = sum(1 for pi in prev_inputs if pi.c == c)
                    unit_stats.matcher_calls += n_cand
                    if fp_stats is not None:
                        fp_stats.matcher_calls_avoided += n_cand
                    if matcher_name != RU_NAME:
                        # The one segment the matcher returns for the
                        # region against itself, left for RU units
                        # exactly as the slow path would record it.
                        cache.record([MatchSegment(
                            region.start, region.start, len(region),
                            identity.tid)])
                    with timer.measure(COPY):
                        copied = [decode_fields(out.fields, page.did)
                                  for out in recorded_outputs.get(
                                      identity.tid, [])]
                    extraction_regions = []
                    derivation = None
                    unit_stats.copied_tuples += len(copied)
                    unit_stats.copy_zone_chars += len(region)
                    if fp_stats is not None:
                        fp_stats.tuples_recycled += len(copied)
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
                        if (match_memo is not None
                                and matcher_name not in (DN_NAME, RU_NAME)):
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
                if precomputed is not None:
                    assert len(input_rows) == 1, \
                        f"unit {unit.uid}: precomputed extensions need " \
                        f"the single scan row, got {len(input_rows)}"
                    raw = precomputed
                else:
                    with timer.measure(EXTRACT):
                        extractions = unit.extractor.extract(
                            page.text[er.start:er.end])
                    er_span = Span(page.did, er.start, er.end)
                    raw = []
                    for extraction in extractions:
                        extent = extraction.extent()
                        abs_extent = (None if extent is None else
                                      (extent[0] + er.start,
                                       extent[1] + er.start))
                        if derivation is not None and not extraction_keep(
                                abs_extent, er, region.interval, unit.beta):
                            continue
                        raw.append(unit.ie_node.extension_fields(
                            extraction, er_span))
                for fields in raw:
                    post = unit.apply_absorbed(fields, ctx)
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

    def _identity_candidate(self, matcher, matcher_name: str,
                            min_length: int, region: Span,
                            prev_inputs: List[InputTuple], c: str,
                            cache: MatchCache) -> Optional[InputTuple]:
        """The previous input tuple whose recorded outputs the identity
        path may recycle wholesale — or None if the slow path must run.

        On a byte-identical page pair the slow path reduces to a pure
        full-region copy (shift 0, ``extensions = copied``) only when
        every condition below holds; each guard closes a case where the
        slow path would produce different bytes:

        * the matcher must yield a *full-region* self-match — UD and EQ
          always do; ST only when ``len(region) >= min_length``; WS only
          when ``len(region) >= k`` (below the threshold the slow path
          re-extracts, so fall back; it is cheap there anyway); RU
          when the page pair's ``cache`` holds a shift-0 segment
          covering the region, which RU trims to exactly the region
          against the exact candidate.
        * an exact-interval candidate with the same ``c`` must exist —
          otherwise there is nothing to recycle verbatim.
        * no *earlier* same-``c`` candidate may yield a length-|R|
          segment: it would win :func:`select_p_disjoint`'s stable
          tie-break, copying from a different q interval. Later
          candidates cannot win the tie-break (stable sort, equal key)
          and shorter ones cannot reach length |R|. For UD/ST/WS/EQ any
          earlier candidate at least |R| long blocks. RU only trims the
          ``cache``, so such a candidate blocks only if a cached
          segment covers R and maps it into the candidate:
          ``seg.p_start <= R.s``, ``seg.p_end >= R.e`` and
          ``[R.s - shift, R.e - shift)`` inside it.
        * in a plan with RU units, a producer (UD or ST) must leave
          the ``cache`` the slow path would have left. The caller
          records ``[MatchSegment(R.start, R.start, |R|)]`` tagged
          with the candidate; that is exactly what the matcher returns
          when the exact candidate is the only same-``c`` one. WS never
          qualifies there: on an identical region it also reports
          internal repeats as shifted segments.
        """
        length = region.end - region.start
        if length <= 0:
            return None
        covering: List[MatchSegment] = []
        if matcher_name == RU_NAME:
            covering = [seg for seg in cache.segments
                        if seg.p_start <= region.start
                        and seg.p_start + seg.length >= region.end]
            if not any(seg.shift == 0 for seg in covering):
                return None
        elif matcher_name == ST_NAME:
            if length < min_length:
                return None
        elif matcher_name == WS_NAME:
            if length < getattr(matcher, "k", 12):
                return None
        elif matcher_name not in (UD_NAME, EQ_NAME):
            return None
        same_c = [pi for pi in prev_inputs if pi.c == c]
        if (matcher_name != RU_NAME
                and RU_NAME in self.assignment.matchers.values()
                and (matcher_name == WS_NAME or len(same_c) != 1)):
            return None
        for pi in same_c:
            if pi.s == region.start and pi.e == region.end:
                return pi
            if pi.e - pi.s >= length and (matcher_name != RU_NAME or any(
                    pi.s <= region.start - seg.shift
                    and region.end - seg.shift <= pi.e
                    for seg in covering)):
                return None
        return None

    # -- whole-page recycle ---------------------------------------------------

    def page_recyclable(self, page: Page, q_page: Optional[Page],
                        prev_capture: PrevCapture,
                        memo: Optional[RecycleMemo] = None
                        ) -> Optional[UnitSizes]:
        """Whether :meth:`run_page` would provably re-emit the previous
        run's page: the pair is byte-identical and every unit would take
        the identity path on every row, with that row's own recorded
        outputs. Returns each unit's :data:`UnitSizes` if so, else None.

        Only a page paired with its own URL qualifies. The previous rows
        belong to ``q_page``; a renamed page (a scope that pairs across
        URLs) takes the per-unit path, which re-tags every copied span
        with the new page id.

        Past those checks the answer depends only on the plan and the
        units' recorded I groups (see :meth:`_recycle_verdict`), so
        ``memo`` answers it for groups it has seen.
        """
        if (not self.fastpath or q_page is None or not prev_capture
                or page.did != q_page.did
                or any(self.assignment.of(u) == DN_NAME
                       or u.uid not in prev_capture for u in self.units)
                or not pages_identical(page, q_page)):
            return None
        groups = [prev_capture[u.uid] for u in self.units]
        if memo is None:
            return self._recycle_verdict(groups)
        key = (self._plan_key, tuple(g.i_data for g in groups))
        sizes = memo.lookup(key, lambda: self._recycle_verdict(groups))
        if _inv.ENABLED:
            # --check layer: a memoised verdict is the one the page's
            # groups give now.
            _inv.check_recycle_verdict(sizes,
                                       self._recycle_verdict(groups))
        return sizes

    def _recycle_verdict(self, groups: List[UnitGroups]
                         ) -> Optional[UnitSizes]:
        """The recycle verdict on an identical page from the units'
        recorded groups (in unit order): each unit's recorded (rows,
        chars) if every unit takes the identity path on every row, None
        if one does not or its I records do not parse.

        On such a page each unit's input rows are exactly its recorded
        inputs (its producers re-emit their recorded outputs), so the
        rows are walked from the capture alone. Units go in
        :func:`~repro.plan.units.find_units` order, which is the plan
        walker's evaluation order, with a scratch :class:`MatchCache`
        that receives the segment the identity path records for non-RU
        producers — so RU units see what they would see in the run.
        """
        cache = MatchCache()
        sizes = []
        for unit, unit_groups in zip(self.units, groups):
            name = self.assignment.of(unit)
            min_length = min_match_length(unit.beta)
            matcher = make_matcher(name, cache, min_length=min_length)
            try:
                prev_inputs = unit_groups.inputs
                regions = [Span(unit_groups.did, pi.s, pi.e)
                           for pi in prev_inputs]
            except ValueError:
                return None
            for pi, region in zip(prev_inputs, regions):
                # ``c`` is "" for every row the engine records.
                if self._identity_candidate(
                        matcher, name, min_length, region, prev_inputs, "",
                        cache) is not pi:
                    return None
                if name != RU_NAME:
                    cache.record([MatchSegment(pi.s, pi.s, pi.e - pi.s,
                                               pi.tid)])
            sizes.append((len(prev_inputs),
                          sum(pi.e - pi.s for pi in prev_inputs)))
        return tuple(sizes)

    def recycle_page(self, page: Page, q_page: Page,
                     prev_capture: PrevCapture, sizes: UnitSizes,
                     stats: Dict[str, UnitRunStats],
                     fp_stats: FastPathStats) -> PageGroups:
        """Re-emit a page :meth:`page_recyclable` accepted with
        ``sizes``: add the counters the identity path would have added
        row by row and return every unit's previous page groups,
        verbatim, as the page's capture.

        The rows come from the previous run, not from the O groups, so
        those are copied unparsed; a framed line in them that is not a
        record is caught when a later run parses the group (see
        :meth:`_run_unit`)."""
        fp_stats.pages_paired += 1
        fp_stats.pages_short_circuited += 1
        fp_stats.pages_recycled += 1
        if _inv.ENABLED:
            _inv.check_identity_pair(page, q_page)
        capture: PageGroups = {}
        for unit, (rows, chars) in zip(self.units, sizes):
            groups = prev_capture[unit.uid]
            outputs = groups.output_count()
            unit_stats = stats[unit.uid]
            unit_stats.input_tuples += rows
            unit_stats.input_chars += chars
            # Every recorded input is a same-``c`` candidate of every
            # row (each row matched itself under ``c == ""``).
            unit_stats.matcher_calls += rows * rows
            unit_stats.copied_tuples += outputs
            unit_stats.copy_zone_chars += chars
            unit_stats.output_tuples += outputs
            fp_stats.matcher_calls_avoided += rows * rows
            fp_stats.tuples_recycled += outputs
            capture[unit.uid] = (groups.i_data, groups.o_data)
        return capture


def _evaluate_page(evaluator: PageEvaluator, page: Page,
                   q_page: Optional[Page], prev_capture: PrevCapture,
                   stats: Dict[str, UnitRunStats], timer: Timer,
                   fp_stats: FastPathStats,
                   precomputed: Optional[Extensions] = None
                   ) -> PageResult:
    """The one per-page body: run the plan with reuse, return the
    materialized rows per relation and the page's recorded capture."""
    recorder = PageRecorder()
    if _oprof.ENABLED:
        _p0 = time.perf_counter()
    with (_otrace.span("page", cat="page", did=page.did,
                       paired=q_page is not None,
                       split=precomputed is not None, recycled=False)
          if _otrace.ENABLED else _otrace.NULL):
        page_rows = evaluator.run_page(page, q_page, prev_capture,
                                       recorder, stats, timer,
                                       cache=MatchCache(),
                                       fp_stats=fp_stats,
                                       precomputed=precomputed)
    if _oprof.ENABLED:
        _oprof.record_page(page.did, time.perf_counter() - _p0)
    return ({rel: materialize_rows(rows, page.text)
             for rel, rows in page_rows.items()}, recorder.groups())


def _recycle_page(evaluator: PageEvaluator, page: Page,
                  q_page: Optional[Page], prev_capture: PrevCapture,
                  prev_rows: Optional[PageRows],
                  stats: Dict[str, UnitRunStats], timer: Timer,
                  fp_stats: FastPathStats,
                  memo: Optional[RecycleMemo]) -> Optional[PageResult]:
    """The one page recycle, for the serial page body and the parallel
    parent alike: if ``q_page``'s rows from the previous run are known
    and :meth:`PageEvaluator.page_recyclable` holds, return those rows
    (shared, never mutated) and the previous groups as the page's
    capture; otherwise touch nothing and return None. Booked as
    capture I/O, which is all a recycle does."""
    if prev_rows is None:
        return None
    with timer.measure(IO):
        sizes = evaluator.page_recyclable(page, q_page, prev_capture, memo)
        if sizes is None:
            return None
        with (_otrace.span("page", cat="page", did=page.did, paired=True,
                           split=False, recycled=True)
              if _otrace.ENABLED else _otrace.NULL):
            capture = evaluator.recycle_page(page, q_page, prev_capture,
                                             sizes, stats, fp_stats)
    return prev_rows, capture


def _write_page(writers: Writers, did: str, capture: PageGroups) -> None:
    """Append one page's groups to every unit's I and O file; a unit
    that recorded nothing on the page gets two empty groups."""
    header = page_marker(did)
    for uid, (writer_i, writer_o) in writers.items():
        i_data, o_data = capture.get(uid, (b"", b""))
        writer_i.write_page(header, i_data)
        writer_o.write_page(header, o_data)


def _engine_batch(state, lookup: PageLookup, items, timer: Timer):
    """Process one batch of whole pages in a (possibly remote) worker.

    ``state`` is ``(evaluator, writers, memo)``. ``writers`` and the
    :class:`RecycleMemo` are the run's when it has one worker slot: the
    batch holds every page in canonical order, recycles what it can and
    writes each page's groups as soon as the page is done. With more
    slots both are None and each page's groups go back to the parent.
    ``items`` yields ``(did, q_did, prev_capture, prev_rows)`` per page;
    ``prev_rows`` (the previous run's rows of ``q_did``) is given only
    where the page may still be recycled here, i.e. in a serial run.
    Returns ``(did, (rows per relation, groups or None))`` per page,
    plus the batch's per-unit stats and fast-path counters.
    """
    evaluator, writers, memo = state
    # Process workers arrive with match_cache dropped by the pickle
    # whitelist: give each worker its own match store (hits accumulate
    # across the items a worker processes; counters merge through
    # fp_stats). Thread workers share the engine's evaluator, whose
    # store is already attached and thread-safe.
    if evaluator.fastpath and evaluator.match_cache is None:
        evaluator.match_cache = CrossSnapshotMatchCache()
    stats = {uid: UnitRunStats() for uid in evaluator.uids()}
    fp_stats = FastPathStats()
    out = []
    for did, q_did, prev_capture, prev_rows in items:
        page = lookup.current(did)
        q_page = lookup.previous(q_did) if q_did is not None else None
        rel_rows, capture = (
            _recycle_page(evaluator, page, q_page, prev_capture, prev_rows,
                          stats, timer, fp_stats, memo)
            or _evaluate_page(evaluator, page, q_page, prev_capture, stats,
                              timer, fp_stats))
        if writers is not None:
            with timer.measure(IO):
                _write_page(writers, did, capture)
            capture = None
        out.append((did, (rel_rows, capture)))
    return out, (stats, fp_stats)


class PrevCaptureSource:
    """The previous snapshot's capture, one page at a time, per unit.

    Each unit's I and O reuse files are read whole, once, on first use
    (Section 5.2's single scan); any page's groups can then be asked
    for in any order, which is what scopes that pair pages across URLs
    need. A truncated or corrupt reuse file (e.g. the previous run died
    mid-write) must never break the current run: a unit whose file has
    a torn header, or whose group on a page is not whole record lines,
    is dropped and extracts from scratch for the rest of the snapshot.
    """

    def __init__(self, paths: Dict[str, Tuple[str, str]]) -> None:
        self._paths = dict(paths)
        self._readers: Dict[str, Tuple[ReuseFileReader,
                                       ReuseFileReader]] = {}

    def read(self, q_page: Optional[Page], timer: Timer) -> PrevCapture:
        """``uid -> recorded I and O groups`` on ``q_page``, for every
        unit whose capture is still readable."""
        capture: PrevCapture = {}
        if q_page is None:
            return capture
        did = q_page.did
        with timer.measure(IO):
            for uid in list(self._paths):
                try:
                    readers = self._readers.get(uid)
                    if readers is None:
                        i_path, o_path = self._paths[uid]
                        readers = self._readers[uid] = (
                            ReuseFileReader(i_path), ReuseFileReader(o_path))
                    capture[uid] = UnitGroups(
                        did, readers[0].read_group(did),
                        readers[1].read_group(did))
                except ValueError:
                    del self._paths[uid]
        return capture

    def close(self) -> None:
        for readers in self._readers.values():
            for reader in readers:
                reader.close()
        self._readers.clear()


class ReuseEngine:
    """Executes a compiled plan over snapshots with unit-level reuse."""

    def __init__(self, plan: CompiledPlan, units: List[IEUnit],
                 assignment: PlanAssignment,
                 scope: Optional[PageMatchScope] = None,
                 executor: Optional[Executor] = None,
                 scheduler: Optional[PageScheduler] = None,
                 fastpath: FastPathFlag = None,
                 match_cache: Optional[CrossSnapshotMatchCache] = None,
                 split: Optional[SplitConfig] = None
                 ) -> None:
        self.plan = plan
        self.units = units
        self.assignment = assignment
        self.scope = scope if scope is not None else SameUrlScope()
        self.executor = executor
        self.scheduler = scheduler if scheduler is not None else PageScheduler()
        self.split = split if split is not None else SplitConfig()
        self.fastpath = fastpath_enabled(fastpath)
        # The match store outlives this engine: callers that rebuild an
        # engine per snapshot (DelexSystem, serve views) pass their own
        # so content-keyed match results carry across the whole series.
        self.match_cache = match_cache
        if self.match_cache is None and self.fastpath:
            self.match_cache = CrossSnapshotMatchCache()
        missing = [u.uid for u in units if u.uid not in assignment.matchers]
        if missing:
            raise ValueError(f"assignment missing units {missing}")
        self.evaluator = PageEvaluator(plan, units, assignment,
                                       fastpath=self.fastpath)
        self.evaluator.match_cache = self.match_cache
        for uid, name in assignment.matchers.items():
            # Fail fast on unknown matcher names instead of mid-run.
            make_matcher(name, MatchCache())

    # -- snapshot-level driver -------------------------------------------

    def run_snapshot(self, snapshot: Snapshot,
                     prev_snapshot: Optional[Snapshot],
                     prev_dir: Optional[str], out_dir: str,
                     timings: Optional[Timings] = None,
                     page_rows_out: Optional[Dict[str, PageRows]] = None,
                     prev_page_rows: Optional[Dict[str, PageRows]] = None,
                     recycle_memo: Optional[RecycleMemo] = None
                     ) -> SnapshotRunResult:
        """Run the plan over ``snapshot``, reusing ``prev_dir`` capture.

        ``prev_snapshot``/``prev_dir`` are None for the bootstrap run.
        Capture for the *next* snapshot is written under ``out_dir``.

        ``page_rows_out``, when given, is filled with the run's
        materialized rows split by producing page (``did -> relation
        -> rows``) — the per-page attribution of this (possibly
        recycled) run, at zero extra extraction cost. The serving
        layer applies it as a delta; concatenating it in canonical
        page order reproduces ``results`` exactly.

        ``prev_page_rows`` is the ``page_rows_out`` of the run that
        wrote ``prev_dir``. With it, a page whose every unit would take
        the identity path is recycled whole: its capture groups are
        copied byte for byte and its previous rows are returned (see
        :func:`_recycle_page`). ``recycle_memo``, kept by the caller
        across its runs like the rows, answers that test for pages
        whose recorded groups it has seen.
        """
        timings = timings if timings is not None else Timings()
        timer = Timer(timings)
        os.makedirs(out_dir, exist_ok=True)
        writers = {
            u.uid: (ReuseFileWriter(self._file(out_dir, u.uid, "I")),
                    ReuseFileWriter(self._file(out_dir, u.uid, "O")))
            for u in self.units
        }
        stats = {u.uid: UnitRunStats() for u in self.units}
        results: Dict[str, List[Tuple]] = {
            rel: [] for rel in self.plan.program.head_relations()}
        pages = snapshot.canonical_pages()
        if _inv.ENABLED:
            # --check layer: reuse files are written one page group per
            # page in this exact order, so strict did monotonicity here
            # is the on-disk page-group monotonicity invariant.
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
        source = PrevCaptureSource(
            self._capture_paths(prev_dir)
            if prev_dir is not None and prev_snapshot is not None else {})
        try:
            with _snap, timer.measure_total():
                pages_with_prev = self._run_pages(
                    pages, jobs, source, writers, stats, results, timer,
                    fp_stats, page_rows_out, prev_page_rows or {},
                    recycle_memo)
                _snap.set("pages_with_prev", pages_with_prev)
                _snap.set("short_circuited",
                          fp_stats.pages_short_circuited)
                _snap.set("recycled", fp_stats.pages_recycled)
                _snap.set("memo_hits", fp_stats.memo_hits)
        finally:
            source.close()
            if recycle_memo is not None:
                recycle_memo.end_run()
            for wi, wo in writers.values():
                wi.close()
                wo.close()
        for u in self.units:
            wi, wo = writers[u.uid]
            stats[u.uid].i_blocks = wi.blocks
            stats[u.uid].o_blocks = wo.blocks
        if timings.fastpath is None:
            timings.fastpath = fp_stats
        else:
            timings.fastpath.merge(fp_stats)
        return SnapshotRunResult(results=results, timings=timings,
                                 unit_stats=stats, pages=len(pages),
                                 pages_with_previous=pages_with_prev)

    @staticmethod
    def _file(directory: str, uid: str, kind: str) -> str:
        return os.path.join(directory, f"{_safe_filename(uid)}.{kind}.reuse")

    def _capture_paths(self, prev_dir: str
                       ) -> Dict[str, Tuple[str, str]]:
        """Units' (I, O) capture paths that exist under ``prev_dir``."""
        out: Dict[str, Tuple[str, str]] = {}
        for u in self.units:
            i_path = self._file(prev_dir, u.uid, "I")
            o_path = self._file(prev_dir, u.uid, "O")
            if os.path.exists(i_path) and os.path.exists(o_path):
                out[u.uid] = (i_path, o_path)
        return out

    # -- the page loop ------------------------------------------------------

    def _run_pages(self, pages: Sequence[Page], jobs: int,
                   source: PrevCaptureSource,
                   writers: Writers,
                   stats: Dict[str, UnitRunStats],
                   results: Dict[str, List[Tuple]], timer: Timer,
                   fp_stats: FastPathStats,
                   page_rows_out: Optional[Dict[str, PageRows]],
                   prev_page_rows: Dict[str, PageRows],
                   memo: Optional[RecycleMemo]) -> int:
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
        # recycled in that same pass and each page's groups are written
        # as soon as it is done. More slots need picklable payloads and
        # an order-free merge: every page's previous groups are taken up
        # front, the parent recycles what it can before batching
        # (recycled pages never reach a worker), workers return each
        # page's group bytes and the parent writes them below, in
        # canonical order. The choice is what ``jobs`` already says,
        # and trades memory for parallelism.
        streaming = jobs <= 1
        recycled: Dict[str, PageResult] = {}
        to_run = pages
        if streaming:
            def prev_capture_of(did: str) -> PrevCapture:
                return source.read(pair_of[did], timer)
        else:
            prev_capture_of = {page.did: source.read(pair_of[page.did],
                                                     timer)
                               for page in pages}.__getitem__
            for page in pages:
                done = _recycle_page(
                    evaluator, page, pair_of[page.did],
                    prev_capture_of(page.did), prev_rows_of(page.did),
                    stats, timer, fp_stats, memo)
                if done is not None:
                    recycled[page.did] = done
            to_run = [p for p in pages if p.did not in recycled]

        def payload(batch: Sequence[Page]):
            items = ((p.did,
                      pair_of[p.did].did if pair_of[p.did] else None,
                      prev_capture_of(p.did),
                      prev_rows_of(p.did) if streaming else None)
                     for p in batch)
            return items if streaming else tuple(items)

        frontier = evaluator.frontier_units()

        def may_split(page: Page) -> bool:
            """Part workers extract blindly, so a page is split only
            when every frontier unit runs from scratch on it — the
            condition :meth:`PageEvaluator._run_unit` uses to skip the
            reuse machinery (a framed I group is empty exactly when it
            holds no inputs)."""
            if pair_of[page.did] is None:
                return True
            prev_capture = prev_capture_of(page.did)
            return not any(
                self.assignment.of(u) != DN_NAME
                and prev_capture.get(u.uid, _NO_CAPTURE).i_data
                for u in frontier)

        def assemble(page: Page, extensions: Extensions,
                     timer: Timer) -> PageResult:
            """Re-run a split page here with its frontier extractions
            precomputed: chained units, relational operators and the
            capture records run exactly as in an unsplit run."""
            return _evaluate_page(
                evaluator, page, pair_of[page.did],
                prev_capture_of(page.did), stats, timer, fp_stats,
                precomputed=extensions)

        work = PageWork(
            batch_fn=_engine_batch,
            state=((evaluator, writers, memo) if streaming
                   else (evaluator, None, None)),
            payload=payload,
            frontier=[(u.uid, u.ie_node, u.alpha, u.beta)
                      for u in frontier],
            may_split=may_split, assemble=assemble,
            prev_pages=[pair_of[p.did] for p in to_run
                        if pair_of[p.did] is not None])
        run = run_pages(work, to_run, self.executor, self.scheduler,
                        self.split, timer)
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
                    _write_page(writers, page.did, by_did[page.did][1])
        timer.timings.runtime = run.metrics
        return sum(1 for q in pair_of.values() if q is not None)
