"""The No-reuse baseline: re-run the IE program from scratch.

This is what the paper calls the common solution today — apply IE to
every snapshot in isolation. It pays full extraction cost every time
and writes no capture files: in the paper's terms, the Delex plan in
which every unit is assigned DN and nothing is captured.

The page loop is :func:`repro.runtime.driver.run_pages`. This module
supplies only what is specific to from-scratch extraction: the batch
function (:func:`run_page_plain` per page), the frontier (every IE
node reading the raw page scan — all of them may be split, no page
recycles anything), and the assembly of a split page (the precomputed
frontier rows seed the plan memo).

:func:`run_page_plain` is also the independent from-scratch reference
that ``repro check`` and the per-page attribution compare against; it
shares nothing with the reuse engine but the plan walker. Cyclex's
program unit (:class:`~repro.core.cyclex.ProgramExtractor`) is this
function wrapped as one IE blackbox.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..corpus.snapshot import Snapshot
from ..plan.compile import CompiledPlan
from ..plan.operators import (
    IENode,
    ScanNode,
    TupleRow,
    plain_ie_step,
    plan_walker,
)
from ..reuse.engine import SnapshotRunResult, materialize_rows
from ..runtime.driver import (
    Extensions,
    FrontierEntry,
    PageLookup,
    PageWork,
    run_pages,
)
from ..runtime.executor import Executor
from ..runtime.scheduler import PageScheduler
from ..runtime.split import SplitConfig
from ..text.document import Page
from ..text.span import Span
from ..timing import EXTRACT, Timer, Timings


def run_page_plain(plan: CompiledPlan, page: Page, timer: Timer,
                   memo: Optional[Dict[int, List[TupleRow]]] = None
                   ) -> Dict[str, List[TupleRow]]:
    """Evaluate the whole plan over one page from scratch, attributing
    blackbox time to EXTRACT.

    ``memo``, when given, seeds node results — the split assembly uses
    it to inject precomputed frontier extractions.
    """
    def extract(extractor, text):
        with timer.measure(EXTRACT):
            return extractor.extract(text)

    evaluate = plan_walker(page.text, page.did,
                           {} if memo is None else memo,
                           plain_ie_step(page.text, extract))
    return {rel: evaluate(plan.roots[rel])
            for rel in plan.program.head_relations()}


def scan_frontier(plan: CompiledPlan) -> List[IENode]:
    """IE nodes extracting directly from the page scan, in plan order.

    Only these are split-safe: any operator between scan and IE could
    change the input region, and a producing IE below would make the
    chunk geometry depend on upstream output.
    """
    return [n for n in plan.all_nodes()
            if isinstance(n, IENode) and isinstance(n.child, ScanNode)]


def plain_frontier(plan: CompiledPlan) -> List[FrontierEntry]:
    """The driver frontier of a plan run without IE units, keyed by
    :func:`scan_frontier` ordinal."""
    return [(ordinal, node, node.extractor.scope, node.extractor.context)
            for ordinal, node in enumerate(scan_frontier(plan))]


def assemble_plain(plan: CompiledPlan, page: Page, extensions: Extensions,
                   timer: Timer) -> Dict[str, List[TupleRow]]:
    """Finish a split page from scratch: precomputed frontier nodes
    are seeded into the plan memo; chained IE nodes, relational
    operators and any frontier node left out extract here."""
    frontier = scan_frontier(plan)
    memo: Dict[int, List[TupleRow]] = {}
    for ordinal, exts in extensions.items():
        node = frontier[ordinal]
        scan_row = {node.child.var: Span(page.did, 0, len(page.text))}
        memo[id(node)] = [{**scan_row, **ext} for ext in exts]
    return run_page_plain(plan, page, timer, memo=memo)


def _materialized(page_rows: Dict[str, List[TupleRow]],
                  page: Page) -> Dict[str, List[Tuple]]:
    return {rel: materialize_rows(rows, page.text)
            for rel, rows in page_rows.items()}


def _scratch_batch(plan: CompiledPlan, lookup: PageLookup,
                   dids: Sequence[str], timer: Timer):
    """Whole pages from scratch; rows are materialized here so the
    parent does no per-row work for unsplit pages."""
    out = []
    for did in dids:
        page = lookup.current(did)
        out.append((did, _materialized(run_page_plain(plan, page, timer),
                                       page)))
    return out, None


class NoReuseSystem:
    """Applies the program from scratch to each snapshot."""

    name = "noreuse"

    def __init__(self, plan: CompiledPlan,
                 executor: Optional[Executor] = None,
                 scheduler: Optional[PageScheduler] = None,
                 split: Optional[SplitConfig] = None) -> None:
        self.plan = plan
        self.executor = executor
        self.scheduler = scheduler if scheduler is not None else PageScheduler()
        self.split = split if split is not None else SplitConfig()

    def process(self, snapshot: Snapshot,
                prev_snapshot: Optional[Snapshot] = None
                ) -> SnapshotRunResult:
        timings = Timings()
        timer = Timer(timings)
        results: Dict[str, list] = {
            rel: [] for rel in self.plan.program.head_relations()}
        pages = snapshot.canonical_pages()
        work = PageWork(
            batch_fn=_scratch_batch, state=self.plan,
            payload=lambda batch: tuple(p.did for p in batch),
            frontier=plain_frontier(self.plan),
            assemble=lambda page, extensions, timer: _materialized(
                assemble_plain(self.plan, page, extensions, timer), page))
        with timer.measure_total():
            run = run_pages(work, pages, self.executor, self.scheduler,
                            self.split, timer)
            for page in pages:
                for rel, rows in run.by_did[page.did].items():
                    results[rel].extend(rows)
        timings.runtime = run.metrics
        # From scratch by definition: the previous snapshot only counts.
        with_previous = sum(1 for p in pages
                            if prev_snapshot is not None
                            and prev_snapshot.get(p.url) is not None)
        return SnapshotRunResult(results=results, timings=timings,
                                 pages=len(pages),
                                 pages_with_previous=with_previous)
