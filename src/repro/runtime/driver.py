"""The one work-item driver: batches of whole pages, arena and merge.

Every system turns a snapshot into per-page results the same way: a
**work item** is a batch of whole pages (the paper's engine handles a
snapshot one page at a time, §5.2), and item results merge by
canonical page id. This module owns everything about that which does
not depend on the system:

* **page transport** — workers look pages up by id; the process
  backend ships text once through the shared-memory arena
  (:mod:`~repro.runtime.shm`), same-address-space backends share the
  parent's :class:`~repro.text.document.Page` objects;
* **batches and costs** — LPT page batches costed ``1 + chars``,
  placed and stolen by :meth:`Executor.run_work`;
* **merge** — each page's value keyed by its page id;
* **metrics** — the run's :class:`RuntimeMetrics`.

A system supplies a :class:`PageWork`: what to do with a batch of
whole pages. Serial execution is this same driver with one worker
slot: one batch holding every page in canonical order, run inline —
which is what lets a system hand it a lazy payload and write each
page's output as the batch produces it, and so keep a streaming,
one-pass scan.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..text.document import Page
from ..timing import Timer, Timings
from .executor import Executor, SerialExecutor
from .metrics import RuntimeMetrics, build_metrics
from .scheduler import PageBatch, PageScheduler
from .shm import build_arena


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
    """

    batch_fn: Callable[[Any, PageLookup, Any, Timer],
                       Tuple[List[Tuple[str, Any]], Any]]
    state: Any
    payload: Callable[[Sequence[Page]], Any]
    #: Previous-snapshot pages the batch function looks up.
    prev_pages: Iterable[Page] = ()


@dataclass
class PageRun:
    """What :func:`run_pages` hands back."""

    #: Each page's value, from its batch.
    by_did: Dict[str, Any]
    #: The ``extra`` of every batch, in batch order.
    extras: List[Any]
    metrics: RuntimeMetrics = field(repr=False)


def _run_item(state, payload):
    """Run one batch in a (possibly remote) worker."""
    batch_fn, user_state, lookup = state
    timings = Timings()
    per_page, extra = batch_fn(user_state, lookup, payload, Timer(timings))
    return per_page, extra, timings.parts


def run_pages(work: PageWork, pages: Sequence[Page],
              executor: Optional[Executor], scheduler: PageScheduler,
              timer: Timer) -> PageRun:
    """Run ``work`` over ``pages`` (canonical order) on ``executor``.

    Worker-side timing parts are merged into ``timer``.
    """
    if executor is None or executor.jobs <= 1:
        executor = SerialExecutor()
    jobs = executor.jobs
    if jobs > 1:
        batches = scheduler.plan(pages, jobs)
    else:
        # One slot has nothing to balance: a single in-order batch.
        batches = [PageBatch(0, tuple(pages))] if pages else []

    keyed = {"c:" + p.did: p for p in pages}
    keyed.update(("q:" + q.did, q) for q in work.prev_pages)
    arena = build_arena({k: p.text for k, p in keyed.items()},
                        executor.name)
    try:
        lookup = PageLookup(keyed, arena.handle)
        wall_start = time.perf_counter()
        done = executor.run_work(
            _run_item, (work.batch_fn, work.state, lookup),
            [work.payload(b.pages) for b in batches],
            [1 + b.chars for b in batches])
        wall_seconds = time.perf_counter() - wall_start
    finally:
        arena.close()

    by_did: Dict[str, Any] = {}
    extras: List[Any] = []
    batch_seconds: List[float] = []
    for seconds, (per_page, extra, parts) in done.timed:
        for category, secs in parts.items():
            timer.timings.add(category, secs)
        batch_seconds.append(seconds)
        by_did.update(per_page)
        extras.append(extra)

    metrics = build_metrics(
        executor.name, jobs, wall_seconds, batches, batch_seconds,
        steals=done.steals, shared_text=arena.shared,
        slot_busy=done.slot_busy)
    return PageRun(by_did=by_did, extras=extras, metrics=metrics)
