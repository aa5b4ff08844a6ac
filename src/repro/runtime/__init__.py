"""repro.runtime — parallel page-partitioned execution runtime.

Every system processes a snapshot as a sequence of independent
per-page decisions (match / copy / extract), so a whole page is the
unit of parallel work (the paper's engine handles one page at a time,
§5.2). This package is the "walk the pages" loop of all four systems:

* :mod:`~repro.runtime.driver` — :func:`run_pages`, the one work-item
  driver every system calls: pages by id, LPT batches of whole pages,
  merge-by-page-id and the run's metrics. The modules below are its
  parts;
* :mod:`~repro.runtime.executor` — the :class:`Executor` interface
  with serial and process-pool backends behind one
  :meth:`~Executor.run_work` entry point, and an auto-chooser keyed
  on blackbox cost *and* the machine's CPU count. ``--jobs N`` means
  N forked workers: they inherit the snapshot's pages and take
  batches, costliest first, from the pool's one queue; a worker that
  dies leaves its batches to the parent, which runs them inline;
* :mod:`~repro.runtime.scheduler` — :func:`plan_batches`, which packs
  pages into size-balanced batches largest-first (LPT), so the
  heaviest page can never strand alone at the schedule's tail;
* :mod:`~repro.runtime.metrics` — per-batch wall time, worker
  utilization and pages/sec accounting surfaced through
  :mod:`repro.timing`.

Determinism contract: for any executor backend and job count, a
system must produce (1) identical canonical results and (2)
byte-identical reuse/capture files compared to a serial run. All
merges are keyed by canonical page id (LPT batches interleave the
page order), and each page's value comes back under its page id. For
the reuse engine that value carries the page's capture as group
bytes, which depend only on the page; the engine writes them in
canonical page order, so the next snapshot's recycling is oblivious
to how the previous run was parallelized. Nothing here knows the
reuse-file format.
"""

from .executor import (
    AUTO_PROCESS_WORK_FACTOR,
    BACKEND_NAMES,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    choose_backend,
    make_executor,
)
from .driver import PageLookup, PageRun, PageWork, run_pages
from .metrics import BatchMetric, RuntimeMetrics, build_metrics
from .scheduler import PageBatch, pack_lpt, plan_batches

__all__ = [
    "AUTO_PROCESS_WORK_FACTOR",
    "BACKEND_NAMES",
    "BatchMetric",
    "Executor",
    "PageBatch",
    "PageLookup",
    "PageRun",
    "PageWork",
    "ProcessPoolExecutor",
    "RuntimeMetrics",
    "SerialExecutor",
    "build_metrics",
    "choose_backend",
    "make_executor",
    "pack_lpt",
    "plan_batches",
    "run_pages",
]
