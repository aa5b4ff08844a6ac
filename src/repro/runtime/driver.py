"""The one work-item driver: batches of whole pages, and the merge.

Every system turns a snapshot into per-page results the same way: a
**work item** is a batch of whole pages (the paper's engine handles a
snapshot one page at a time, §5.2), and item results merge by
canonical page id. This module owns everything about that which does
not depend on the system:

* **page transport** — batch functions look pages up by id in a
  :class:`PageLookup`; forked workers inherit it, and with it the
  parent's :class:`~repro.text.document.Page` objects;
* **batches and costs** — LPT page batches costed ``1 + chars``
  (:func:`~repro.runtime.scheduler.plan_batches`), submitted
  costliest first by :meth:`Executor.run_work`;
* **merge** — each page's value keyed by its page id;
* **metrics** — the run's :class:`RuntimeMetrics`.

A system supplies a :class:`PageWork`: what to do with a batch of
whole pages. Serial execution is this same driver with one worker:
one batch holding every page in canonical order, run inline — which
is what lets a system hand it a lazy payload and write each page's
output as the batch produces it, and so keep a streaming, one-pass
scan.
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
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..text.document import Page
from ..timing import Timer, Timings
from .executor import Executor, SerialExecutor
from .metrics import RuntimeMetrics, build_metrics
from .scheduler import PageBatch, plan_batches


class PageLookup(NamedTuple):
    """What a batch function sees of the snapshot: pages by id."""

    #: Pages of the snapshot being processed.
    current: Dict[str, Page]
    #: The previous-snapshot pages the system listed in ``prev_pages``.
    previous: Dict[str, Page]


@dataclass
class PageWork:
    """What one system does with a snapshot's pages.

    ``batch_fn(state, lookup, payload, timer)`` processes one batch of
    whole pages and returns ``(per_page, extra)``: ``per_page`` is a
    list of ``(did, value)`` and ``extra`` is anything per-batch the
    system wants back (counters). Payloads and return values must be
    picklable whenever the run has more than one worker, and so must
    ``batch_fn`` and ``state`` on a platform without ``fork``.
    ``payload(pages)`` builds the payload of one batch from its pages
    (canonical order).
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
    """Run one batch in a (possibly forked) worker."""
    batch_fn, user_state, lookup = state
    timings = Timings()
    per_page, extra = batch_fn(user_state, lookup, payload, Timer(timings))
    return per_page, extra, timings.parts


def run_pages(work: PageWork, pages: Sequence[Page],
              executor: Optional[Executor], timer: Timer) -> PageRun:
    """Run ``work`` over ``pages`` (canonical order) on ``executor``.

    Worker-side timing parts are merged into ``timer``.
    """
    if executor is None or executor.jobs <= 1:
        executor = SerialExecutor()
    jobs = executor.jobs
    if jobs > 1:
        batches = plan_batches(pages, jobs)
    else:
        # One worker has nothing to balance: a single in-order batch.
        batches = [PageBatch(0, tuple(pages))] if pages else []

    lookup = PageLookup({p.did: p for p in pages},
                        {q.did: q for q in work.prev_pages})
    wall_start = time.perf_counter()
    timed = executor.run_work(
        _run_item, (work.batch_fn, work.state, lookup),
        [work.payload(b.pages) for b in batches],
        [1 + b.chars for b in batches])
    wall_seconds = time.perf_counter() - wall_start

    by_did: Dict[str, Any] = {}
    extras: List[Any] = []
    batch_seconds: List[float] = []
    for seconds, (per_page, extra, parts) in timed:
        for category, secs in parts.items():
            timer.timings.add(category, secs)
        batch_seconds.append(seconds)
        by_did.update(per_page)
        extras.append(extra)

    metrics = build_metrics(executor.name, jobs, wall_seconds, batches,
                            batch_seconds)
    return PageRun(by_did=by_did, extras=extras, metrics=metrics)
