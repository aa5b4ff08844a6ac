"""The one work-item driver: split, arena, merge and assembly.

Every system turns a snapshot into per-page results the same way, and
split-correctness (Doleschal et al.; PAPERS.md) names the one
abstraction behind it: a **work item** is either a *batch of whole
pages* or one *(α, β)-safe part* of a page that dominates the
snapshot, and item results merge by canonical page id. This module
owns everything about that which does not depend on the system:

* **split planning** — which pages are cut into parts
  (:mod:`~repro.runtime.split`), for the frontier IE nodes the system
  declares;
* **page transport** — workers look pages up by id; the process
  backend ships text once through the shared-memory arena
  (:mod:`~repro.runtime.shm`), same-address-space backends share the
  parent's :class:`~repro.text.document.Page` objects;
* **payloads and costs** — LPT page batches (``1 + chars``) and parts
  (``hi − lo + α + 2β``, the widened chunk a part really extracts),
  placed and stolen by :meth:`Executor.run_work`;
* **the part worker** — the only place :func:`part_extensions` runs;
* **merge and fallback** — results keyed by page id; a frontier node
  that poisoned any part (span-less extraction), or whose result is
  missing from any part, is left out of the page's precomputed
  extensions, so that node alone extracts whole-page during assembly
  (always correct, just not parallel);
* **assembly** — split pages are finished in the parent, in canonical
  order, by the system's ``assemble`` callback;
* **metrics** — the run's :class:`RuntimeMetrics`.

A system supplies a :class:`PageWork`: what to do with a batch of
whole pages, which IE nodes read the raw page (the *frontier*), which
pages may be split, and how to finish a page whose frontier
extensions were precomputed. Serial execution is this same driver
with one worker slot: one batch holding every page in canonical
order, run inline — which is what lets a system hand it a lazy
payload and write each page's output as the batch produces it, and
so keep a streaming, one-pass scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..plan.operators import IENode
from ..text.document import Page
from ..timing import EXTRACT, Timer, Timings
from .executor import Executor, SerialExecutor
from .metrics import BatchMetric, RuntimeMetrics, build_metrics
from .scheduler import PageBatch, PageScheduler
from .shm import build_arena
from .split import (
    PagePart,
    PartPoisoned,
    SplitConfig,
    part_extensions,
    plan_parts,
)

#: One frontier entry: ``(key, IE node, α, β)``. The node must extract
#: directly from the page scan (any operator in between could change
#: the input region); ``key`` is how the system names it in
#: ``assemble``'s precomputed extensions.
FrontierEntry = Tuple[Hashable, IENode, int, int]

#: Extension dicts (absolute offsets) per frontier key.
Extensions = Dict[Hashable, List[Dict[str, object]]]


class PageLookup:
    """What a batch function sees of the snapshot: pages by id.

    Same-address-space backends hold the parent's page objects. The
    process backend rebuilds each page once per worker from the text
    arena, carrying the parent's fingerprint so no worker re-hashes
    page text.
    """

    def __init__(self, pages: Dict[str, Page], handle) -> None:
        self._handle = handle
        if handle.kind == "local":
            self._pages, self._stubs = pages, {}
        else:
            self._pages = {}
            self._stubs = {key: (p.did, p.url, p.fp)
                           for key, p in pages.items()}

    def _get(self, key: str) -> Page:
        page = self._pages.get(key)
        if page is None:
            did, url, fp = self._stubs[key]
            page = self._pages[key] = Page(
                did, url, self._handle.text(key), fp=fp)
        return page

    def current(self, did: str) -> Page:
        """A page of the snapshot being processed."""
        return self._get("c:" + did)

    def previous(self, did: str) -> Page:
        """A previous-snapshot page the system listed in ``prev_pages``."""
        return self._get("q:" + did)


@dataclass
class PageWork:
    """What one system does with a snapshot's pages.

    ``batch_fn(state, lookup, payload, timer)`` processes one batch of
    whole pages and returns ``(per_page, extra)``: ``per_page`` is a
    list of ``(did, value)`` and ``extra`` is anything per-batch the
    system wants back (counters). It must be a module-level function
    and, like ``state`` and the payloads, picklable whenever the run
    has more than one worker slot. ``payload(pages)`` builds the
    payload of one batch from its pages (canonical order).

    ``may_split(page)`` is consulted only for pages large enough to be
    worth splitting; ``assemble(page, extensions, timer)`` finishes one
    split page in the parent and returns its value. ``extensions``
    holds, per frontier key, the concatenated part results — equal to
    the serial whole-page extraction sequence — and omits every key
    that must still be extracted whole-page.
    """

    batch_fn: Callable[[Any, PageLookup, Any, Timer],
                       Tuple[List[Tuple[str, Any]], Any]]
    state: Any
    payload: Callable[[Sequence[Page]], Any]
    frontier: Sequence[FrontierEntry]
    assemble: Callable[[Page, Extensions, Timer], Any]
    may_split: Callable[[Page], bool] = lambda page: True
    #: Previous-snapshot pages the batch function looks up.
    prev_pages: Iterable[Page] = ()


@dataclass
class PageRun:
    """What :func:`run_pages` hands back."""

    #: Each page's value (from its batch, or from ``assemble``).
    by_did: Dict[str, Any]
    #: The ``extra`` of every batch, in batch order.
    extras: List[Any]
    metrics: RuntimeMetrics = field(repr=False)


def _run_item(state, item):
    """Run one work item in a (possibly remote) worker."""
    batch_fn, user_state, frontier, lookup = state
    timings = Timings()
    timer = Timer(timings)
    if item[0] == "part":
        part: PagePart = item[1]
        text = lookup.current(part.did).text
        extensions: Extensions = {}
        for key, node, _alpha, _beta in frontier:
            try:
                with timer.measure(EXTRACT):
                    extensions[key] = part_extensions(node, text, part)
            except PartPoisoned:
                pass  # no entry: the parent extracts this node whole-page
        return ("part", part, extensions, timings.parts)
    per_page, extra = batch_fn(user_state, lookup, item[1], timer)
    return ("pages", per_page, extra, timings.parts)


def run_pages(work: PageWork, pages: Sequence[Page],
              executor: Optional[Executor], scheduler: PageScheduler,
              split: SplitConfig, timer: Timer) -> PageRun:
    """Run ``work`` over ``pages`` (canonical order) on ``executor``.

    Worker-side timing parts are merged into ``timer``; assembly runs
    under ``timer`` directly.
    """
    if executor is None or executor.jobs <= 1:
        executor = SerialExecutor()
    jobs = executor.jobs
    frontier = tuple(work.frontier)
    alpha = max((a for _, _, a, _ in frontier), default=0)
    beta = max((b for _, _, _, b in frontier), default=0)

    parts_by_did: Dict[str, List[PagePart]] = {}
    if frontier and jobs > 1 and split.enabled:
        total_chars = sum(len(p.text) for p in pages)
        for page in pages:
            if (split.should_split(len(page.text), total_chars, jobs)
                    and work.may_split(page)):
                parts = plan_parts(page.did, len(page.text), jobs, split,
                                   alpha, beta)
                if len(parts) > 1:
                    parts_by_did[page.did] = parts

    whole = [p for p in pages if p.did not in parts_by_did]
    if jobs > 1:
        batches = scheduler.plan(whole, jobs)
    else:
        # One slot has nothing to balance: a single in-order batch.
        batches = [PageBatch(0, tuple(whole))] if whole else []
    items: List[tuple] = [("pages", work.payload(b.pages)) for b in batches]
    costs: List[float] = [1 + b.chars for b in batches]
    for did in sorted(parts_by_did):
        for part in parts_by_did[did]:
            items.append(("part", part))
            costs.append(part.hi - part.lo + alpha + 2 * beta)

    keyed = {"c:" + p.did: p for p in pages}
    keyed.update(("q:" + q.did, q) for q in work.prev_pages)
    arena = build_arena({k: p.text for k, p in keyed.items()},
                        executor.name)
    try:
        lookup = PageLookup(keyed, arena.handle)
        wall_start = time.perf_counter()
        done = executor.run_work(
            _run_item, (work.batch_fn, work.state, frontier, lookup),
            items, costs)
        wall_seconds = time.perf_counter() - wall_start
    finally:
        arena.close()

    by_did: Dict[str, Any] = {}
    extras: List[Any] = []
    batch_seconds: List[float] = []
    part_metrics: List[BatchMetric] = []
    part_exts: Dict[Tuple[str, int], Extensions] = {}
    for (seconds, value), cost in zip(done.timed, costs):
        for category, secs in value[-1].items():
            timer.timings.add(category, secs)
        if value[0] == "pages":
            batch_seconds.append(seconds)
            by_did.update(value[1])
            extras.append(value[2])
        else:
            part = value[1]
            part_exts[part.did, part.index] = value[2]
            part_metrics.append(BatchMetric(
                index=part.index, pages=0, chars=int(cost),
                seconds=seconds, kind="part"))

    page_of = {p.did: p for p in pages}
    for did in sorted(parts_by_did):
        results = [part_exts.get((did, part.index), {})
                   for part in parts_by_did[did]]
        # A node poisoned in, or missing from, any part has no entry
        # there and is left out: it extracts whole-page in ``assemble``.
        merged: Extensions = {
            key: [ext for r in results for ext in r[key]]
            for key, _node, _alpha, _beta in frontier
            if all(key in r for r in results)}
        by_did[did] = work.assemble(page_of[did], merged, timer)

    metrics = build_metrics(
        executor.name, jobs, wall_seconds, batches, batch_seconds,
        extra_batches=part_metrics, steals=done.steals,
        split_pages=len(parts_by_did),
        split_parts=sum(len(v) for v in parts_by_did.values()),
        shared_text=arena.shared, slot_busy=done.slot_busy)
    return PageRun(by_did=by_did, extras=extras, metrics=metrics)
