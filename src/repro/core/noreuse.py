"""The No-reuse baseline: re-run the IE program from scratch.

This is what the paper calls the common solution today — apply IE to
every snapshot in isolation. It pays full extraction cost every time
and writes no capture files: in the paper's terms, the Delex plan in
which every unit is assigned DN and nothing is captured.

The page loop is :func:`repro.runtime.driver.run_pages`. This module
supplies only what is specific to from-scratch extraction: the batch
function, :func:`run_page_plain` per page.

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
from ..plan.operators import TupleRow, plain_ie_step, plan_walker
from ..reuse.engine import SnapshotRunResult, materialize_rows
from ..runtime.driver import PageLookup, PageWork, run_pages
from ..runtime.executor import Executor
from ..text.document import Page
from ..timing import EXTRACT, Timer, Timings


def run_page_plain(plan: CompiledPlan, page: Page, timer: Timer
                   ) -> Dict[str, List[TupleRow]]:
    """Evaluate the whole plan over one page from scratch, attributing
    blackbox time to EXTRACT."""
    def extract(extractor, text):
        with timer.measure(EXTRACT):
            return extractor.extract(text)

    evaluate = plan_walker(page.text, page.did, {},
                           plain_ie_step(page.text, extract))
    return {rel: evaluate(plan.roots[rel])
            for rel in plan.program.head_relations()}


def _materialized(page_rows: Dict[str, List[TupleRow]],
                  page: Page) -> Dict[str, List[Tuple]]:
    return {rel: materialize_rows(rows, page.text)
            for rel, rows in page_rows.items()}


def _scratch_batch(plan: CompiledPlan, lookup: PageLookup,
                   dids: Sequence[str], timer: Timer):
    """Whole pages from scratch; rows are materialized here so the
    parent does no per-row work."""
    out = []
    for did in dids:
        page = lookup.current[did]
        out.append((did, _materialized(run_page_plain(plan, page, timer),
                                       page)))
    return out, None


class NoReuseSystem:
    """Applies the program from scratch to each snapshot."""

    name = "noreuse"

    def __init__(self, plan: CompiledPlan,
                 executor: Optional[Executor] = None) -> None:
        self.plan = plan
        self.executor = executor

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
            payload=lambda batch: tuple(p.did for p in batch))
        with timer.measure_total():
            run = run_pages(work, pages, self.executor, timer)
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
