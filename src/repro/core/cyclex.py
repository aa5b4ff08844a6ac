"""The Cyclex baseline: whole-program, single-blackbox reuse.

Cyclex [Chen et al., ICDE-08] treats the entire IE program as one IE
blackbox with program-level scope/context (α_prog, β_prog). Per page
it matches the new version against the old one with a single matcher
(chosen per snapshot by a small cost probe, mirroring the Cyclex
optimizer), copies final mentions from guaranteed-safe zones, and
re-runs the whole program over the derived extraction regions.

Because tight program-level α/β are hard to obtain for multi-blackbox
programs (Section 3), the α_prog of the section-based tasks is page
scale — extraction regions blow up to nearly the whole page whenever
anything changed, which is precisely why Delex wins on those tasks.

:class:`ProgramRecycler` is everything whole-program recycling needs
that is not the recycling *policy*: the per-relation result files
(open, read-or-skip one page group per paired page so the one-pass
scan stays aligned, emit in canonical page order so the files are
byte-identical on every backend), the three page work items —
``fresh`` (from scratch), ``copy`` (byte-identical page, previous
rows verbatim) and ``pair`` (match/copy/extract against the old
version) — and the hand-off to :func:`repro.runtime.driver.run_pages`
(fresh pages are the only ones that may be split). A subclass decides
which item a page becomes: :class:`CyclexSystem` uses all three;
:class:`~repro.core.shortcut.ShortcutSystem` is the same recycler
restricted to ``fresh`` and ``copy``.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Tuple

from ..corpus.snapshot import Snapshot
from ..fastpath.config import FastPathFlag, fastpath_enabled
from ..fastpath.fingerprint import pages_identical
from ..fastpath.stats import FastPathStats
from ..matchers.base import DN_NAME, ST_NAME, UD_NAME, MatchCache
from ..matchers.registry import make_matcher
from ..plan.compile import CompiledPlan
from ..reuse.engine import SnapshotRunResult, materialize_rows
from ..reuse.files import (
    InputTuple,
    OutputTuple,
    ReuseFileReader,
    ReuseFileWriter,
    decode_fields,
    encode_fields,
)
from ..reuse.regions import dedupe_extensions, derive_reuse, extraction_keep
from ..runtime.driver import PageLookup, PageWork, run_pages
from ..runtime.executor import Executor
from ..runtime.scheduler import PageScheduler
from ..runtime.split import SplitConfig
from ..text.document import Page
from ..text.regions import MatchSegment
from ..text.span import Interval, Span
from ..timing import COPY, IO, MATCH, OPT, Timer, Timings
from .noreuse import assemble_plain, plain_frontier, run_page_plain

_PROGRAM_ITID = 0

#: Previous final rows of one page, per relation.
PrevRows = Dict[str, List[OutputTuple]]

#: One page's work item: ``("fresh", did)``, ``("copy", did, prev_rows)``
#: or ``("pair", did, q_did, prev_rows)``.
_WorkItem = Tuple


def _min_length(beta: int) -> int:
    """A match shorter than 2β + 2 enables no copying (capped so
    large-β programs still match short pages whole)."""
    return max(8, min(2 * beta + 2, 32))


def _run_region(plan: CompiledPlan, page: Page, er: Interval,
                timer: Timer) -> Dict[str, list]:
    """Run the whole program over one extraction region."""
    sub_page = Page(did=page.did, url=page.url,
                    text=page.text[er.start:er.end])
    sub_rows = run_page_plain(plan, sub_page, timer)
    shifted: Dict[str, list] = {}
    for rel, rows in sub_rows.items():
        shifted[rel] = [_shift_row(row, er.start) for row in rows]
    return shifted


def _process_pair(plan: CompiledPlan, alpha: int, beta: int, matcher,
                  page: Page, q_page: Page, prev_rows: PrevRows,
                  timer: Timer) -> Dict[str, list]:
    """Match/copy/extract one changed page against its old version."""
    with timer.measure(MATCH):
        segments = [
            MatchSegment(s.p_start, s.q_start, s.length, _PROGRAM_ITID)
            for s in matcher.match(page.text, page.whole,
                                   q_page.text, q_page.whole)
        ]
    q_input = {_PROGRAM_ITID: InputTuple(_PROGRAM_ITID, q_page.did, 0,
                                         len(q_page.text))}
    # Shared extraction regions (program-level α/β).
    with timer.measure(COPY):
        derivation = derive_reuse(
            page.whole, page.did, segments, q_input,
            {}, alpha, beta)
    extraction_rows: Dict[str, list] = {rel: [] for rel in prev_rows}
    for er in derivation.extraction_regions:
        sub_rows = _run_region(plan, page, er, timer)
        for rel, rows in sub_rows.items():
            for row in rows:
                extent = _row_extent(row)
                if extraction_keep(extent, er, page.whole, beta):
                    extraction_rows.setdefault(rel, []).append(row)
    page_rows: Dict[str, list] = {}
    for rel in plan.program.head_relations():
        with timer.measure(COPY):
            copy_derivation = derive_reuse(
                page.whole, page.did, segments, q_input,
                {_PROGRAM_ITID: prev_rows.get(rel, [])},
                alpha, beta)
            page_rows[rel] = dedupe_extensions(
                copy_derivation.copied + extraction_rows.get(rel, []))
    return page_rows


def _recycle_batch(state, lookup: PageLookup, items, timer: Timer):
    """Process one batch of page work items (runs in any executor).

    A fresh matcher and match cache per batch is results-identical to
    a single-matcher run: the whole-program recyclers never assign RU,
    so the cache is write-only.
    """
    plan, alpha, beta, matcher_name, kernel = state
    matcher = make_matcher(matcher_name, MatchCache(),
                           min_length=_min_length(beta), kernel=kernel)
    out: List[Tuple[str, Dict[str, list]]] = []
    for item in items:
        kind, did = item[0], item[1]
        if kind == "fresh":
            page_rows = run_page_plain(plan, lookup.current(did), timer)
        elif kind == "copy":
            # Byte-identical page: a full-page match yields one
            # full-page copy zone and no extraction regions, so the
            # output per relation is exactly the decoded previous rows
            # (deduplicated, as the pair path's merge would).
            with timer.measure(COPY):
                page_rows = {
                    rel: dedupe_extensions(
                        [decode_fields(o.fields, did)
                         for o in item[2].get(rel, [])])
                    for rel in plan.program.head_relations()}
        else:
            page_rows = _process_pair(
                plan, alpha, beta, matcher, lookup.current(did),
                lookup.previous(item[2]), item[3], timer)
        out.append((did, page_rows))
    return out, None


class ProgramRecycler:
    """Recycles the program's *final* results page by page."""

    name = ""

    def __init__(self, plan: CompiledPlan, workdir: str,
                 executor: Optional[Executor],
                 scheduler: Optional[PageScheduler],
                 split: Optional[SplitConfig]) -> None:
        self.plan = plan
        self.workdir = workdir
        self.executor = executor
        self.scheduler = scheduler if scheduler is not None else PageScheduler()
        self.split = split if split is not None else SplitConfig()
        os.makedirs(workdir, exist_ok=True)
        self._prev_dir: Optional[str] = None
        self._snapshot_serial = 0

    def _result_file(self, directory: str, rel: str) -> str:
        return os.path.join(directory, f"{self.name}_{rel}.O.reuse")

    # -- the policy a subclass supplies -----------------------------------

    def _batch_state(self, snapshot: Snapshot,
                     prev_snapshot: Optional[Snapshot],
                     timer: Timer) -> tuple:
        """``(plan, α, β, matcher name, kernel)`` for this snapshot.
        ``prev_snapshot`` is None when nothing can be recycled."""
        raise NotImplementedError

    def _classify(self, page: Page, q_page: Page, prev_rows: PrevRows,
                  fp_stats: FastPathStats) -> _WorkItem:
        """The work item of a page whose previous version ``q_page``
        and previous rows are at hand."""
        raise NotImplementedError

    # -- snapshot processing ----------------------------------------------

    def process(self, snapshot: Snapshot,
                prev_snapshot: Optional[Snapshot] = None
                ) -> SnapshotRunResult:
        timings = Timings()
        timer = Timer(timings)
        relations = self.plan.program.head_relations()
        out_dir = os.path.join(self.workdir,
                               f"snap_{self._snapshot_serial:04d}")
        os.makedirs(out_dir, exist_ok=True)
        writers = {rel: ReuseFileWriter(self._result_file(out_dir, rel))
                   for rel in relations}
        readers: Dict[str, ReuseFileReader] = {}
        if self._prev_dir is not None and prev_snapshot is not None:
            for rel in relations:
                path = self._result_file(self._prev_dir, rel)
                if os.path.exists(path):
                    readers[rel] = ReuseFileReader(path)
        results: Dict[str, list] = {rel: [] for rel in relations}
        pages = snapshot.canonical_pages()
        pages_with_prev = 0
        fp_stats = FastPathStats()
        try:
            with timer.measure_total():
                state = self._batch_state(
                    snapshot, prev_snapshot if readers else None, timer)
                # Parent, canonical order: pair pages with their
                # previous versions and stream the previous result
                # files; every paired page's group is consumed whether
                # or not it is used, which keeps the scan aligned.
                items: Dict[str, _WorkItem] = {}
                prev_pages: List[Page] = []
                for page in pages:
                    q_page = (prev_snapshot.get(page.url)
                              if prev_snapshot is not None else None)
                    items[page.did] = ("fresh", page.did)
                    if q_page is None:
                        continue
                    pages_with_prev += 1
                    if not readers:
                        continue
                    prev_rows: PrevRows = {}
                    for rel, reader in readers.items():
                        with timer.measure(IO):
                            prev_rows[rel] = reader.read_page_outputs(
                                page.did)
                    item = self._classify(page, q_page, prev_rows, fp_stats)
                    if item[0] == "pair":
                        prev_pages.append(q_page)
                    items[page.did] = item
                work = PageWork(
                    batch_fn=_recycle_batch, state=state,
                    payload=lambda batch: tuple(items[p.did]
                                                for p in batch),
                    frontier=plain_frontier(self.plan),
                    may_split=lambda page: items[page.did][0] == "fresh",
                    assemble=lambda page, extensions, timer: assemble_plain(
                        self.plan, page, extensions, timer),
                    prev_pages=prev_pages)
                run = run_pages(work, pages, self.executor, self.scheduler,
                                self.split, timer)
                for page in pages:
                    self._emit(page, run.by_did[page.did], writers,
                               results, timer)
        finally:
            for writer in writers.values():
                writer.close()
            for reader in readers.values():
                reader.close()
        timings.runtime = run.metrics
        timings.fastpath = fp_stats
        self._prev_dir = out_dir
        self._snapshot_serial += 1
        return SnapshotRunResult(results=results, timings=timings,
                                 pages=len(pages),
                                 pages_with_previous=pages_with_prev)

    def _emit(self, page: Page, page_rows: Dict[str, list],
              writers: Dict[str, ReuseFileWriter],
              results: Dict[str, list], timer: Timer) -> None:
        for rel, rows in page_rows.items():
            writers[rel].begin_page(page.did)
            with timer.measure(IO):
                for row in rows:
                    writers[rel].append_output(page.did, _PROGRAM_ITID,
                                               encode_fields(row))
            results[rel].extend(materialize_rows(rows, page.text))


class CyclexSystem(ProgramRecycler):
    """Single-blackbox recycling over the whole IE program."""

    name = "cyclex"

    def __init__(self, plan: CompiledPlan, workdir: str,
                 program_alpha: int, program_beta: int,
                 probe_pages: int = 6,
                 executor: Optional[Executor] = None,
                 scheduler: Optional[PageScheduler] = None,
                 fastpath: FastPathFlag = None,
                 fixed_matcher: Optional[str] = None,
                 split: Optional[SplitConfig] = None) -> None:
        super().__init__(plan, workdir, executor, scheduler, split)
        self.alpha = program_alpha
        self.beta = program_beta
        self.probe_pages = probe_pages
        self.fastpath = fastpath_enabled(fastpath)
        # Pin the per-snapshot matcher choice (skips the timing-based
        # probe, whose winner is machine-dependent) — lets parity tests
        # compare two runs byte-for-byte.
        self.fixed_matcher = fixed_matcher
        self.last_matcher: Optional[str] = None

    def _kernel(self) -> str:
        """Matcher kernel mode for this run's fastpath setting."""
        return "auto" if self.fastpath else "off"

    # -- matcher selection (the Cyclex optimizer, probe-based) ------------

    def _choose_matcher(self, snapshot: Snapshot,
                        prev_snapshot: Snapshot, timer: Timer) -> str:
        """Pick DN/UD/ST by probing a few changed page pairs.

        Estimated per-page cost = match time + extraction time scaled
        by the fraction of the page left uncovered by copy zones.
        Extraction rate is estimated from one from-scratch page run.
        """
        with timer.measure(OPT):
            # Sample shared pages in canonical page order so the probe
            # sees the corpus's real identical/changed mix (a
            # changed-only sample would never credit a matcher for
            # cheap full-page copies on identical pages).
            pairs: List[Tuple[Page, Page]] = []
            for page in snapshot.canonical_pages():
                old = prev_snapshot.get(page.url)
                if old is not None:
                    pairs.append((page, old))
                if len(pairs) >= self.probe_pages:
                    break
            if not pairs:
                return UD_NAME  # nothing shared: matcher never runs
            # Extraction seconds per character, probed on one page.
            sample_page = pairs[0][0]
            start = time.perf_counter()
            probe_timer = Timer(Timings())
            run_page_plain(self.plan, sample_page, probe_timer)
            extract_rate = ((time.perf_counter() - start)
                            / max(1, len(sample_page.text)))
            best_name, best_cost = DN_NAME, extract_rate * sum(
                len(p.text) for p, _ in pairs)
            for name in (UD_NAME, ST_NAME):
                matcher = make_matcher(
                    name, MatchCache(),
                    min_length=_min_length(self.beta),
                    kernel=self._kernel())
                cost = 0.0
                for page, old in pairs:
                    t0 = time.perf_counter()
                    segments = matcher.match(page.text, page.whole,
                                             old.text, old.whole)
                    cost += time.perf_counter() - t0
                    derivation = derive_reuse(
                        page.whole, page.did,
                        [MatchSegment(s.p_start, s.q_start, s.length,
                                      _PROGRAM_ITID) for s in segments],
                        {_PROGRAM_ITID: InputTuple(_PROGRAM_ITID, old.did,
                                                   0, len(old.text))},
                        {}, self.alpha, self.beta)
                    uncovered = sum(
                        len(er) for er in derivation.extraction_regions)
                    cost += extract_rate * uncovered
                if cost < best_cost:
                    best_name, best_cost = name, cost
            return best_name

    # -- recycling policy ---------------------------------------------------

    def _batch_state(self, snapshot: Snapshot,
                     prev_snapshot: Optional[Snapshot],
                     timer: Timer) -> tuple:
        matcher_name = DN_NAME
        if prev_snapshot is not None:
            matcher_name = self.fixed_matcher or self._choose_matcher(
                snapshot, prev_snapshot, timer)
        self.last_matcher = matcher_name
        return (self.plan, self.alpha, self.beta, matcher_name,
                self._kernel())

    def _classify(self, page: Page, q_page: Page, prev_rows: PrevRows,
                  fp_stats: FastPathStats) -> _WorkItem:
        matcher_name = self.last_matcher
        if matcher_name == DN_NAME:
            return ("fresh", page.did)
        fp_stats.pages_paired += 1
        # The unchanged-page short circuit is only safe when the pair
        # path is guaranteed a full-page self-match: UD always produces
        # one, ST only on pages at least ``min_length`` long (shorter
        # ones fall through).
        threshold = _min_length(self.beta) if matcher_name == ST_NAME else 1
        if (self.fastpath and matcher_name in (UD_NAME, ST_NAME)
                and len(page.text) >= threshold
                and pages_identical(page, q_page)):
            fp_stats.pages_short_circuited += 1
            fp_stats.matcher_calls_avoided += 1
            fp_stats.tuples_recycled += sum(
                len(rows) for rows in prev_rows.values())
            return ("copy", page.did, prev_rows)
        return ("pair", page.did, q_page.did, prev_rows)


def _shift_row(row: dict, delta: int) -> dict:
    out = {}
    for var, value in row.items():
        if isinstance(value, Span):
            out[var] = Span(value.did, value.start + delta,
                            value.end + delta)
        else:
            out[var] = value
    return out


def _row_extent(row: dict) -> Optional[Tuple[int, int]]:
    spans = [v for v in row.values() if isinstance(v, Span)]
    if not spans:
        return None
    return (min(s.start for s in spans), max(s.end for s in spans))
