"""Hierarchical span tracing with Chrome ``trace_event`` export.

One :class:`Tracer` per process (installed with :func:`install`,
removed with :func:`uninstall`). The span hierarchy mirrors the
execution hierarchy — snapshot → page batch → page → IE unit →
matcher call — and every span carries an attribute bag (matcher
chosen, rows copied, CPU seconds, segments found) so a single trace
explains *why* a snapshot was slow, and ``repro obs report`` reads
its per-page, per-unit and per-matcher cost tables from it.

Zero-cost contract: every instrumentation site guards with the
module-level :data:`ENABLED` flag — one attribute load per site when
tracing is off, exactly the :mod:`repro.check.invariants` pattern —
and the hot per-candidate/per-segment loops are never touched at all.
Two site shapes:

* ``with trace.span(...)`` — context-manager spans for the coarse
  levels (snapshot, page).
* ``trace.event(name, start=, dur=)`` — a completed span recorded
  after the fact, for sites that already measure their own duration
  (unit runs, matcher calls, executor batches).

The ring buffer is bounded (default 65536 spans — the oldest spans
fall off, the trace stays a fixed-size tail, and the export counts
them as ``spans_evicted``). ``sample`` keeps every
``1/sample``-th span of each high-volume category (``page``,
``unit``, ``batch``, ``matcher``), counted per category, so each
keeps the same share however their events interleave; structural
categories (``snapshot``, ``serve``) are always kept. Export is the Chrome
``trace_event`` JSON format — load the file at ``chrome://tracing``
or https://ui.perfetto.dev.

A forked process worker records each work item into a fresh,
unsampled tracer and hands its spans back with the item's value; the
parent merges them (:meth:`Tracer.merge`), sampling them on its own
per-category counts, under the worker's pid as thread id, so each
worker is its own track in the exported trace.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

#: Master switch; instrumentation sites guard with
#: ``if trace.ENABLED:`` — one module-attribute load when disabled.
ENABLED = False

#: The installed tracer (None when tracing is off).
TRACER: Optional["Tracer"] = None

#: Categories whose spans are always kept regardless of sampling.
ALWAYS_KEPT = ("snapshot", "serve", "report")

DEFAULT_CAPACITY = 65536


@dataclass
class SpanRecord:
    """One completed span (start/dur are ``perf_counter`` seconds)."""

    name: str
    cat: str
    start: float
    dur: float
    tid: int
    args: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op stand-in used when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def set(self, key: str, value: Any) -> None:
        return None


#: The singleton no-op span: ``with (trace.span(...) if trace.ENABLED
#: else trace.NULL) as sp:`` costs one attribute check when disabled.
NULL = _NullSpan()


class _ActiveSpan:
    """A live span; context manager that records itself on exit."""

    __slots__ = ("tracer", "name", "cat", "args", "start")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.start = 0.0

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to this span."""
        self.args[key] = value

    def __enter__(self) -> "_ActiveSpan":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._record(self.name, self.cat, self.start,
                            time.perf_counter() - self.start, self.args)


class Tracer:
    """Bounded, sampled span recorder for one process."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 sample: float = 1.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not (0.0 < sample <= 1.0):
            raise ValueError("sample must be in (0, 1]")
        self.capacity = capacity
        self.sample = sample
        #: Keep every ``keep_every``-th span of each sampled category.
        self.keep_every = max(1, round(1.0 / sample))
        self.records: Deque[SpanRecord] = deque(maxlen=capacity)
        self.dropped = 0
        #: Kept spans the full ring pushed out (oldest first).
        self.evicted = 0
        #: Spans offered so far, per sampled category.
        self._seen: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._epoch = time.perf_counter()
        self._epoch_wall = time.time()

    # -- span lifecycle ----------------------------------------------------

    def span(self, name: str, cat: str = "repro",
             **attrs: Any) -> _ActiveSpan:
        return _ActiveSpan(self, name, cat, dict(attrs))

    def event(self, name: str, cat: str, start: float, dur: float,
              **attrs: Any) -> None:
        """Record an already-measured span (``perf_counter`` seconds)."""
        self._record(name, cat, start, dur, dict(attrs))

    def _record(self, name: str, cat: str, start: float, dur: float,
                args: Dict[str, Any]) -> None:
        with self._lock:
            self._offer(SpanRecord(
                name=name, cat=cat, start=start, dur=dur,
                tid=threading.get_ident(), args=args))

    def _offer(self, record: SpanRecord) -> None:
        # Caller holds the lock.
        if record.cat not in ALWAYS_KEPT:
            seen = self._seen.get(record.cat, 0) + 1
            self._seen[record.cat] = seen
            if seen % self.keep_every:
                self.dropped += 1
                return
        if len(self.records) == self.capacity:
            self.evicted += 1
        self.records.append(record)

    def merge(self, other: "Tracer", tid: int) -> None:
        """Offer the spans ``other`` kept (a process worker's tracer)
        to this one, re-tagged with thread id ``tid``: they are sampled
        on this tracer's counts, as if recorded here."""
        with self._lock:
            for record in other.records:
                record.tid = tid
                self._offer(record)
            self.dropped += other.dropped
            self.evicted += other.evicted

    def __getstate__(self) -> Dict[str, Any]:
        # A worker's tracer travels back to the parent without its lock.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.records)

    # -- export ------------------------------------------------------------

    def to_events(self) -> List[Dict[str, Any]]:
        """Chrome ``trace_event`` dicts (ts/dur in microseconds)."""
        pid = os.getpid()
        with self._lock:
            records = list(self.records)
        return [
            {
                "name": r.name,
                "cat": r.cat,
                "ph": "X",
                "ts": round((r.start - self._epoch) * 1e6, 3),
                "dur": round(r.dur * 1e6, 3),
                "pid": pid,
                "tid": r.tid,
                "args": r.args,
            }
            for r in sorted(records, key=lambda r: r.start)
        ]

    def export_chrome(self, path: str) -> int:
        """Write the Chrome tracing JSON document; returns span count."""
        events = self.to_events()
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "tool": "repro.obs.trace",
                "sample": self.sample,
                "capacity": self.capacity,
                "spans_dropped_by_sampling": self.dropped,
                "spans_evicted": self.evicted,
                "epoch_unix_seconds": self._epoch_wall,
            },
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
            f.write("\n")
        return len(events)


# -- module-level facade (what instrumentation sites call) ------------------

def install(capacity: int = DEFAULT_CAPACITY,
            sample: float = 1.0) -> Tracer:
    """Install a fresh process tracer and flip :data:`ENABLED` on."""
    global TRACER, ENABLED
    TRACER = Tracer(capacity=capacity, sample=sample)
    ENABLED = True
    return TRACER


def uninstall() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was installed (if any)."""
    global TRACER, ENABLED
    tracer, TRACER = TRACER, None
    ENABLED = False
    return tracer


def span(name: str, cat: str = "repro", **attrs: Any):
    """A context-manager span on the installed tracer (or a no-op)."""
    tracer = TRACER
    if tracer is None:
        return NULL
    return tracer.span(name, cat=cat, **attrs)


def event(name: str, cat: str, start: float, dur: float,
          **attrs: Any) -> None:
    tracer = TRACER
    if tracer is not None:
        tracer.event(name, cat, start, dur, **attrs)

