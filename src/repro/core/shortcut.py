"""The Shortcut baseline: reuse IE results on byte-identical pages.

Shortcut compares each page with its previous version
(:func:`~repro.fastpath.fingerprint.pages_identical`: content
fingerprints, confirmed by the text); when the page at a URL is
identical to its previous version, the previous final results are
copied over, otherwise the program runs from scratch on the page.
This is the reuse-at-page-level strawman of Section 3 — great when the
corpus barely changes (DBLife), nearly useless when most pages receive
edits (Wikipedia).

In the paper's terms it is the whole-program recycler with the
matching step removed, and that is how it is written:
:class:`~repro.core.cyclex.ProgramRecycler` restricted to its ``copy``
(identical page) and ``fresh`` (anything else) work items. The result
files, the one-pass scan over the previous ones, the runtime hand-off
and the canonical-order emission are the recycler's.
"""

from __future__ import annotations

from typing import Optional

from ..corpus.snapshot import Snapshot
from ..fastpath.fingerprint import pages_identical
from ..fastpath.stats import FastPathStats
from ..matchers.base import DN_NAME
from ..plan.compile import CompiledPlan
from ..runtime.executor import Executor
from ..runtime.scheduler import PageScheduler
from ..runtime.split import SplitConfig
from ..text.document import Page
from ..timing import Timer
from .cyclex import PrevRows, ProgramRecycler, _WorkItem


class ShortcutSystem(ProgramRecycler):
    """Copies final results for unchanged pages, re-extracts the rest."""

    name = "shortcut"

    def __init__(self, plan: CompiledPlan, workdir: str,
                 executor: Optional[Executor] = None,
                 scheduler: Optional[PageScheduler] = None,
                 split: Optional[SplitConfig] = None) -> None:
        super().__init__(plan, workdir, executor, scheduler, split)

    def _batch_state(self, snapshot: Snapshot,
                     prev_snapshot: Optional[Snapshot],
                     timer: Timer) -> tuple:
        return (self.plan, 0, 0, DN_NAME, "off")  # no page is ever matched

    def _classify(self, page: Page, q_page: Page, prev_rows: PrevRows,
                  fp_stats: FastPathStats) -> _WorkItem:
        if pages_identical(page, q_page):
            return ("copy", page.did, prev_rows)
        return ("fresh", page.did)
