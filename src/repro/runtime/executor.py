"""Executor backends: where work items actually run.

An :class:`Executor` runs a module-level worker function over a list
of work items (:meth:`Executor.run_work`, its one entry point) and
returns one ``(seconds, value)`` pair per item *in submission order*,
whatever order the items completed in; ``seconds`` is the worker-side
wall time of that one call.

Two backends:

* :class:`SerialExecutor` — runs items inline. Zero overhead, the
  reference for the determinism contract.
* :class:`ProcessPoolExecutor` — ``jobs`` forked worker processes.
  ``fn`` and ``state`` are installed once per worker by the pool
  initializer: under ``fork`` a worker inherits them (and every page
  object ``state`` reaches) without a copy; a spawn-only platform
  pickles them once per worker. Items are submitted once, in
  descending-cost order, to the pool's own queue, so an idle worker
  always takes the largest item left (LPT list scheduling). Items and
  values must be picklable.

A process worker that dies (killed, out of memory, ``os._exit``)
breaks the pool. The run does not fail: every item without a result
is run inline in the parent, which under fork already holds ``fn``
and ``state``, so the answer is the serial one, only slower.

When :mod:`repro.obs.trace` or :mod:`repro.obs.profile` is enabled in
the parent, a forked worker inherits the switch. Each item then
records into a fresh worker-side tracer and profiler, returns them
with its value, and the parent merges them into its own, so a process
run traces and profiles its units like a serial one.

The auto-chooser (:func:`choose_backend`) picks between them using a
blackbox *cost hint* — the task's maximum emulated ``work_factor`` —
because process startup only amortizes when extraction is expensive
enough to dominate it.
"""

from __future__ import annotations

import concurrent.futures as _futures
import multiprocessing
import os
import time
from abc import ABC, abstractmethod
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..obs import profile as _oprof
from ..obs import trace as _otrace

BACKEND_NAMES = ("auto", "serial", "process")

#: Blackbox ``work_factor`` at which the auto-chooser switches from
#: serial to processes. Below this the per-page Python work is so
#: cheap that forking workers costs more than the parallel win.
AUTO_PROCESS_WORK_FACTOR = 32

#: ``(worker-side seconds, value)`` of one item.
Timed = Tuple[float, Any]

#: Worker function invoked in a process-pool worker. Installed once
#: per worker by the pool initializer.
_WORKER_FN: Optional[Callable[[Any, Any], Any]] = None
_WORKER_STATE: Any = None


def _install_worker(fn: Callable[[Any, Any], Any], state: Any) -> None:
    global _WORKER_FN, _WORKER_STATE
    _WORKER_FN = fn
    _WORKER_STATE = state


def _timed_call(fn: Callable[[Any, Any], Any], state: Any,
                item: Any) -> Timed:
    start = time.perf_counter()
    value = fn(state, item)
    seconds = time.perf_counter() - start
    if _otrace.ENABLED:  # one module-attribute check when tracing is off
        _otrace.event("batch", cat="batch", start=start, dur=seconds)
    return (seconds, value)


def _run_installed(item: Any) -> Tuple[float, Any, Any]:
    """One item in a pool worker: ``(seconds, value, observed)``.

    ``observed`` is None unless tracing or profiling was on when the
    worker was forked; then it is ``(pid, tracer, profiler)``, fresh
    recorders that saw this item only.
    """
    assert _WORKER_FN is not None, "worker pool not initialized"
    if not (_otrace.ENABLED or _oprof.ENABLED):
        return _timed_call(_WORKER_FN, _WORKER_STATE, item) + (None,)
    tracer = _otrace.TRACER
    if tracer is not None:
        tracer = _otrace.install(tracer.capacity, tracer.sample)
    profiler = _oprof.PROFILER
    if profiler is not None:
        profiler = _oprof.install(profiler.top_k)
    seconds, value = _timed_call(_WORKER_FN, _WORKER_STATE, item)
    return seconds, value, (os.getpid(), tracer, profiler)


def _merge_observed(observed: Any) -> None:
    """Fold one worker item's spans and accounting into the parent's."""
    pid, tracer, profiler = observed
    if tracer is not None and _otrace.TRACER is not None:
        _otrace.TRACER.merge(tracer, tid=pid)
    if profiler is not None and _oprof.PROFILER is not None:
        _oprof.PROFILER.merge(profiler)


class Executor(ABC):
    """Runs a worker function over work items, order-preserving."""

    #: Backend identifier ("serial", "process").
    name: str = "serial"
    #: Degree of parallelism the backend aims for.
    jobs: int = 1

    @abstractmethod
    def run_work(self, fn: Callable[[Any, Any], Any], state: Any,
                 items: Sequence[Any],
                 costs: Optional[Sequence[float]] = None) -> List[Timed]:
        """Apply ``fn(state, item)`` to every item.

        ``costs`` are monotone per-item cost estimates (characters);
        the pool submits the costliest items first.
        """

    def describe(self) -> str:
        return f"{self.name}(jobs={self.jobs})"


class SerialExecutor(Executor):
    """Run every item inline in the calling thread."""

    name = "serial"
    jobs = 1

    def run_work(self, fn: Callable[[Any, Any], Any], state: Any,
                 items: Sequence[Any],
                 costs: Optional[Sequence[float]] = None) -> List[Timed]:
        return [_timed_call(fn, state, item) for item in items]


class ProcessPoolExecutor(Executor):
    """Run items on forked worker processes (true CPU parallelism).

    Prefers the ``fork`` start method when the platform offers it;
    falls back to the platform default otherwise, where ``fn`` must be
    a module-level function and ``state`` picklable.
    """

    name = "process"

    def __init__(self, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs

    def run_work(self, fn: Callable[[Any, Any], Any], state: Any,
                 items: Sequence[Any],
                 costs: Optional[Sequence[float]] = None) -> List[Timed]:
        if not items:
            return []
        if costs is None:
            costs = [1.0] * len(items)
        order = sorted(range(len(items)), key=lambda i: (-costs[i], i))
        results: List[Optional[Timed]] = [None] * len(items)
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else methods[0])
        pool = _futures.ProcessPoolExecutor(
            max_workers=min(self.jobs, len(items)), mp_context=ctx,
            initializer=_install_worker, initargs=(fn, state))
        try:
            submitted = [(i, pool.submit(_run_installed, items[i]))
                         for i in order]
            for i, future in submitted:
                try:
                    seconds, value, observed = future.result()
                except BrokenProcessPool:
                    continue  # a worker died: run it below, inline
                if observed is not None:
                    _merge_observed(observed)
                results[i] = (seconds, value)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
        for i in order:
            if results[i] is None:
                results[i] = _timed_call(fn, state, items[i])
        return results  # type: ignore[return-value]


def choose_backend(jobs: int, cost_hint: float = 0.0,
                   cpu_count: Optional[int] = None) -> str:
    """Pick a backend name from the job count, blackbox cost, and CPUs.

    ``cost_hint`` is the task's heaviest emulated ``work_factor`` (or
    any monotone proxy for per-character extraction cost). Processes
    when extraction is CPU-heavy enough to amortize forking workers;
    serial otherwise — when there is nothing to parallelize, on a
    single CPU (where a pool only adds overhead: the 0.94x regression
    in BENCH_runtime.json), and for cheap blackboxes.
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    if (jobs <= 1 or cpu_count <= 1
            or cost_hint < AUTO_PROCESS_WORK_FACTOR):
        return "serial"
    return "process"


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
    return ProcessPoolExecutor(jobs)
