"""Executor backends: where work items actually run.

An :class:`Executor` runs a module-level worker function over a list
of work items (:meth:`Executor.run_work`, its one entry point) and
returns the results *in submission order*, whatever order the items
completed in.

Three backends:

* :class:`SerialExecutor` — runs batches inline. Zero overhead, the
  reference for the determinism contract.
* :class:`ThreadPoolExecutor` — a thread per job. The GIL serializes
  pure-Python extraction, but threads overlap reuse-file I/O and add
  essentially no startup or serialization cost, so they are the right
  choice for cheap blackboxes.
* :class:`ProcessPoolExecutor` — a process per job. True parallelism
  for CPU-bound blackbox work at the price of forking workers and
  pickling the shared state once per worker plus each batch payload.
  Worker functions must be module-level and all state picklable.

The auto-chooser (:func:`choose_backend`) picks between them using a
blackbox *cost hint* — the task's maximum emulated ``work_factor`` —
because process startup/pickling only amortizes when extraction is
expensive enough to dominate it.
"""

from __future__ import annotations

import concurrent.futures as _futures
import multiprocessing
import os
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..obs import trace as _otrace

BACKEND_NAMES = ("auto", "serial", "thread", "process")

#: Blackbox ``work_factor`` at which the auto-chooser switches from
#: threads to processes. Below this the per-page Python work is so
#: cheap that fork + pickling overhead exceeds the parallel win.
AUTO_PROCESS_WORK_FACTOR = 32

#: Worker function invoked in a process-pool worker. Installed once
#: per worker by the pool initializer so the (potentially large)
#: shared state is pickled once per worker, not once per batch.
_WORKER_FN: Optional[Callable[[Any, Any], Any]] = None
_WORKER_STATE: Any = None


def _install_worker(fn: Callable[[Any, Any], Any], state: Any) -> None:
    global _WORKER_FN, _WORKER_STATE
    _WORKER_FN = fn
    _WORKER_STATE = state


def _run_installed(item: Any) -> Tuple[float, Any]:
    assert _WORKER_FN is not None, "worker pool not initialized"
    start = time.perf_counter()
    value = _WORKER_FN(_WORKER_STATE, item)
    seconds = time.perf_counter() - start
    if _otrace.ENABLED:  # tracer installed in this worker process only
        _otrace.event("batch", cat="batch", start=start, dur=seconds)
    return (seconds, value)


def _timed_call(fn: Callable[[Any, Any], Any], state: Any,
                item: Any) -> Tuple[float, Any]:
    start = time.perf_counter()
    value = fn(state, item)
    seconds = time.perf_counter() - start
    if _otrace.ENABLED:  # one module-attribute check when tracing is off
        _otrace.event("batch", cat="batch", start=start, dur=seconds)
    return (seconds, value)


@dataclass
class WorkResult:
    """What :meth:`Executor.run_work` hands back.

    ``timed`` holds one ``(seconds, value)`` pair per item, in
    *submission order* regardless of the order items actually
    completed in; ``seconds`` is the worker-side wall time of that one
    call. ``steals`` counts items an idle worker slot took from
    another slot's queue; ``slot_busy`` is the per-slot worker-side
    busy seconds (one entry per slot actually used).
    """

    timed: List[Tuple[float, Any]]
    steals: int = 0
    slot_busy: List[float] = field(default_factory=list)


class Executor(ABC):
    """Runs a worker function over work items, order-preserving."""

    #: Backend identifier ("serial", "thread", "process").
    name: str = "serial"
    #: Degree of parallelism the backend aims for.
    jobs: int = 1

    @abstractmethod
    def run_work(self, fn: Callable[[Any, Any], Any], state: Any,
                 items: Sequence[Any],
                 costs: Optional[Sequence[float]] = None) -> WorkResult:
        """Apply ``fn(state, item)`` to every item.

        ``costs`` are monotone per-item cost estimates (characters);
        pooled backends use them for largest-first initial placement
        and work stealing.
        """

    def describe(self) -> str:
        return f"{self.name}(jobs={self.jobs})"


def _steal_run(submit: Callable[[Any], "_futures.Future"],
               items: Sequence[Any], costs: Sequence[float],
               slots: int) -> WorkResult:
    """Shared work-stealing loop for the pooled backends.

    LPT initial placement: items sorted by descending cost are dealt
    greedily onto the currently-lightest slot's deque. Each slot keeps
    one in-flight future; on completion it pops the front of its own
    deque, or — when empty — steals from the *back* of the slot with
    the most remaining estimated cost. Backs are the cheap end under
    LPT placement, so a steal grabs the victim's smallest pending item
    and perturbs its locality least.
    """
    from collections import deque

    n = len(items)
    order = sorted(range(n), key=lambda i: (-costs[i], i))
    queues: List[deque] = [deque() for _ in range(slots)]
    loads = [0.0] * slots
    for i in order:
        slot = min(range(slots), key=lambda s: (loads[s], s))
        queues[slot].append(i)
        loads[slot] += costs[i]
    results: List[Optional[Tuple[float, Any]]] = [None] * n
    slot_busy = [0.0] * slots
    steals = 0
    inflight: dict = {}  # future -> (slot, item index)

    def dispatch(slot: int) -> bool:
        nonlocal steals
        if queues[slot]:
            i = queues[slot].popleft()
        else:
            victim = max((s for s in range(slots) if queues[s]),
                         key=lambda s: (loads[s], -s), default=None)
            if victim is None:
                return False
            i = queues[victim].pop()
            loads[victim] -= costs[i]
            loads[slot] += costs[i]
            steals += 1
        inflight[submit(items[i])] = (slot, i)
        return True

    for slot in range(slots):
        dispatch(slot)
    while inflight:
        done, _ = _futures.wait(list(inflight),
                                return_when=_futures.FIRST_COMPLETED)
        for fut in done:
            slot, i = inflight.pop(fut)
            seconds, value = fut.result()
            results[i] = (seconds, value)
            slot_busy[slot] += seconds
            loads[slot] -= costs[i]
            dispatch(slot)
    return WorkResult(timed=[r for r in results if r is not None],
                      steals=steals, slot_busy=slot_busy)


class SerialExecutor(Executor):
    """Run every batch inline in the calling thread."""

    name = "serial"
    jobs = 1

    def run_work(self, fn: Callable[[Any, Any], Any], state: Any,
                 items: Sequence[Any],
                 costs: Optional[Sequence[float]] = None) -> WorkResult:
        timed = [_timed_call(fn, state, item) for item in items]
        return WorkResult(timed=timed,
                          slot_busy=[sum(s for s, _ in timed)])


class ThreadPoolExecutor(Executor):
    """Run batches on a shared-memory thread pool."""

    name = "thread"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def run_work(self, fn: Callable[[Any, Any], Any], state: Any,
                 items: Sequence[Any],
                 costs: Optional[Sequence[float]] = None) -> WorkResult:
        if not items:
            return WorkResult(timed=[])
        if costs is None:
            costs = [1.0] * len(items)
        workers = min(self.jobs, len(items))
        with _futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return _steal_run(
                lambda item: pool.submit(_timed_call, fn, state, item),
                items, costs, workers)


class ProcessPoolExecutor(Executor):
    """Run batches on an OS-process pool (true CPU parallelism).

    ``fn`` must be a module-level function and ``state``/payloads must
    be picklable. Prefers the ``fork`` start method when the platform
    offers it (cheap worker startup, Linux/macOS); falls back to the
    platform default otherwise.
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def run_work(self, fn: Callable[[Any, Any], Any], state: Any,
                 items: Sequence[Any],
                 costs: Optional[Sequence[float]] = None) -> WorkResult:
        if not items:
            return WorkResult(timed=[])
        if costs is None:
            costs = [1.0] * len(items)
        workers = min(self.jobs, len(items))
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])
        with _futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx,
                initializer=_install_worker,
                initargs=(fn, state)) as pool:
            return _steal_run(
                lambda item: pool.submit(_run_installed, item),
                items, costs, workers)


def choose_backend(jobs: int, cost_hint: float = 0.0,
                   cpu_count: Optional[int] = None) -> str:
    """Pick a backend name from the job count, blackbox cost, and CPUs.

    ``cost_hint`` is the task's heaviest emulated ``work_factor`` (or
    any monotone proxy for per-character extraction cost). Serial when
    nothing to parallelize — including when the machine has a single
    CPU, where a process pool only adds fork+pickle overhead (the
    0.94x regression in BENCH_runtime.json); processes when extraction
    is CPU-heavy enough to amortize fork+pickle; threads for cheap
    blackboxes where only I/O overlap is worth having.
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    if jobs <= 1 or cpu_count <= 1:
        return "serial"
    if cost_hint >= AUTO_PROCESS_WORK_FACTOR:
        return "process"
    return "thread"


def make_executor(backend: str = "auto", jobs: int = 1,
                  cost_hint: float = 0.0,
                  cpu_count: Optional[int] = None) -> Executor:
    """Build an executor; ``backend='auto'`` applies :func:`choose_backend`."""
    if backend not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {backend!r}; choose from "
                         f"{BACKEND_NAMES}")
    if backend == "auto":
        backend = choose_backend(jobs, cost_hint, cpu_count)
    if backend == "serial" or jobs <= 1:
        return SerialExecutor()
    if backend == "thread":
        return ThreadPoolExecutor(jobs)
    return ProcessPoolExecutor(jobs)
