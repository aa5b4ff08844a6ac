"""In-memory span tracing installed from outside the program.

The traced run replaces a fixed set of public attributes of ``repro`` with
timing wrappers (nothing under ``src/`` is edited). A span is ``(id, parent,
name, start, end, trace_id, thread)``; spans opened on one thread nest, a
root span takes its trace id from its call (one id per snapshot, one per
query) and its children inherit it. Spans stay in memory and are written
out once at the end, as Chrome ``trace_event`` JSON.

A span's self time is its duration minus its direct children's durations;
children of one span run one after another on one thread, so per root the
self times sum to the root's duration exactly.

Process-pool workers are not traced: the wrappers are switched off in a
forked child, so only the parent side of ``Executor.run_work`` shows.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[int, Optional[int], str, float, float, str, int]

TraceId = Callable[[tuple, dict], str]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def _stack(self) -> List[Tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner: object, attr: str, name: str,
             trace_id: Optional[TraceId] = None) -> None:
        """Replace ``owner.attr`` (function or plain method) by a span wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        tracer = self
        spans = self.spans
        ids = self._ids

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            sid = next(ids)
            if stack:
                parent, tid = stack[-1]
            else:
                parent = None
                tid = (trace_id(args, kwargs) if trace_id is not None
                       else f"{name}:{sid}")
            stack.append((sid, tid))
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end, tid,
                              threading.get_ident()))

        wrapper.__name__ = getattr(original, "__name__", attr)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _snapshot_arg(position: int) -> TraceId:
    return lambda args, kwargs: f"snapshot:{args[position].index}"


def _snapshot_path(args: tuple, kwargs: dict) -> str:
    found = re.search(r"snapshot_(\d+)\.dat", str(args[0]))
    return f"snapshot:{int(found.group(1))}" if found else "snapshot:?"


def _wrap_overrides(tracer: Tracer, base: type, attr: str, name: str) -> None:
    """Wrap ``attr`` on ``base`` and on every loaded subclass that overrides it."""
    seen, todo = set(), [base]
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        if attr in cls.__dict__ and not getattr(
                cls.__dict__[attr], "__isabstractmethod__", False):
            tracer.wrap(cls, attr, name)


def install_common(tracer: Tracer) -> None:
    from repro.extractors.base import Extractor

    tracer.wrap(Extractor, "extract", "extractors.extract")


def install_batch(tracer: Tracer) -> None:
    """Wrappers around the batch path: process() down to extract()."""
    import repro.core.delex as delex
    import repro.reuse.engine as engine
    from repro.fastpath.memo import MatchMemo
    from repro.matchers.base import Matcher
    from repro.reuse.files import ReuseFileReader
    from repro.runtime.executor import Executor

    install_common(tracer)
    tracer.wrap(delex.DelexSystem, "process", "core.process",
                _snapshot_arg(1))
    tracer.wrap(delex, "collect_statistics", "optimizer.collect_statistics")
    tracer.wrap(delex, "search_plan", "optimizer.search_plan")
    tracer.wrap(engine.ReuseEngine, "run_snapshot", "reuse.run_snapshot")
    tracer.wrap(engine.PageEvaluator, "run_page", "reuse.run_page")
    tracer.wrap(engine, "derive_reuse", "reuse.derive_reuse")
    tracer.wrap(ReuseFileReader, "read_group", "reuse.read_group")
    tracer.wrap(MatchMemo, "match_many", "fastpath.memo_match_many")
    _wrap_overrides(tracer, Matcher, "match_many", "matchers.match_many")
    _wrap_overrides(tracer, Executor, "run_work", "runtime.run_work")


def install_serve(tracer: Tracer) -> None:
    """Wrappers around the serving path, installed inside the server."""
    import repro.serve.ingest as ingest
    from repro.delta.maintain import DeltaMaintainer
    from repro.serve.server import ServeApp
    from repro.serve.store import TupleStore
    from repro.serve.views import MaterializedView

    install_common(tracer)
    tracer.wrap(ingest, "read_snapshot", "corpus.read_snapshot",
                _snapshot_path)
    tracer.wrap(MaterializedView, "apply_snapshot",
                "serve.views.apply_snapshot", _snapshot_arg(1))
    tracer.wrap(MaterializedView, "diff_snapshot",
                "serve.views.diff_snapshot")
    tracer.wrap(DeltaMaintainer, "apply", "delta.apply")
    tracer.wrap(TupleStore, "apply_delta", "serve.store.apply_delta")
    tracer.wrap(TupleStore, "query", "serve.store.query")
    tracer.wrap(ServeApp, "handle_query", "serve.server.handle_query")


def self_times(spans: List[Span]) -> Dict[str, object]:
    """Per span name: count, total and self seconds; per root name: the
    roots' summed duration beside the self time of everything under them."""
    parent_of = {span[0]: span[1] for span in spans}
    name_of = {span[0]: span[2] for span in spans}
    child_time: Dict[int, float] = {}
    for _sid, parent, _name, start, end, _tid, _thread in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def root_name(sid: int) -> str:
        while parent_of[sid] is not None:
            sid = parent_of[sid]
        return name_of[sid]

    by_name: Dict[str, Dict[str, float]] = {}
    roots: Dict[str, Dict[str, float]] = {}
    for sid, parent, name, start, end, _tid, _thread in spans:
        dur = end - start
        own = dur - child_time.get(sid, 0.0)
        row = by_name.setdefault(name, {"count": 0, "total_s": 0.0,
                                        "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += dur
        row["self_s"] += own
        root = roots.setdefault(root_name(sid), {"count": 0, "total_s": 0.0,
                                                 "self_sum_s": 0.0})
        root["self_sum_s"] += own
        if parent is None:
            root["count"] += 1
            root["total_s"] += dur
    return {"spans": len(spans), "by_name": by_name, "roots": roots}


def chrome_events(spans: List[Span], pid: int) -> List[Dict[str, object]]:
    return [{"name": name, "ph": "X", "pid": pid, "tid": thread,
             "ts": start * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": sid, "parent": parent, "trace_id": tid}}
            for sid, parent, name, start, end, tid, thread in spans]


def write_chrome(path: str, events: List[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
