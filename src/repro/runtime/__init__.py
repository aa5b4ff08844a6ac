"""repro.runtime — parallel page-partitioned execution runtime.

Every system processes a snapshot as a sequence of independent
per-page decisions (match / copy / extract); that is exactly the
*split-correctness* property that makes page-level IE embarrassingly
parallel. This package is the "walk the pages" loop of all four
systems:

* :mod:`~repro.runtime.driver` — :func:`run_pages`, the one work-item
  driver every system calls: split planning, page transport, batch
  and part payloads with one cost formula, the part worker,
  merge-by-page-id with the poisoned/incomplete-part fallback,
  split-page assembly and the run's metrics. The modules below are
  its parts;
* :mod:`~repro.runtime.executor` — the :class:`Executor` interface
  with serial, thread-pool, and process-pool backends behind one
  work-stealing :meth:`~Executor.run_work` entry point, and an
  auto-chooser keyed on blackbox cost *and* the machine's CPU count;
* :mod:`~repro.runtime.scheduler` — :class:`PageScheduler`, which
  packs pages into size-balanced batches largest-first (LPT), so the
  heaviest page can never strand alone at the schedule's tail;
* :mod:`~repro.runtime.split` — split-correct sub-page work items:
  pages that dominate a snapshot are cut at (α, β)-safe boundaries
  into :class:`PagePart`\\ s whose merged output is byte-identical to
  a whole-page run;
* :mod:`~repro.runtime.shm` — the shared-memory text arena: process
  workers attach one :mod:`multiprocessing.shared_memory` segment and
  work items carry page ids, not pickled text;
* :mod:`~repro.runtime.metrics` — per-item wall time, worker
  utilization, steal/split counts, and pages/sec accounting surfaced
  through :mod:`repro.timing`.

Determinism contract: for any executor backend and job count, a
system must produce (1) identical canonical results and (2)
byte-identical reuse/capture files compared to a serial run. All
merges are keyed by canonical page id (LPT batches interleave the
page order), split parts concatenate in part order (ownership by
extent start is a stable partition of the serial sequence), and each
page's value comes back under its page id. For the reuse engine that
value carries the page's capture as group bytes, which depend only on
the page; the engine writes them in canonical page order, so the next
snapshot's recycling is oblivious to how the previous run was
parallelized. Nothing here knows the reuse-file format.
"""

from .executor import (
    AUTO_PROCESS_WORK_FACTOR,
    BACKEND_NAMES,
    Executor,
    ProcessPoolExecutor,
    SerialExecutor,
    ThreadPoolExecutor,
    WorkResult,
    choose_backend,
    make_executor,
)
from .driver import PageLookup, PageRun, PageWork, run_pages
from .metrics import BatchMetric, RuntimeMetrics, build_metrics
from .scheduler import PageBatch, PageScheduler, pack_lpt
from .shm import (
    DictArenaHandle,
    SharedArenaHandle,
    TextArena,
    build_arena,
    shm_available,
)
from .split import (
    PagePart,
    PartPoisoned,
    SplitConfig,
    part_extensions,
    plan_parts,
)

__all__ = [
    "AUTO_PROCESS_WORK_FACTOR",
    "BACKEND_NAMES",
    "BatchMetric",
    "DictArenaHandle",
    "Executor",
    "PageBatch",
    "PageLookup",
    "PagePart",
    "PageRun",
    "PageScheduler",
    "PageWork",
    "PartPoisoned",
    "ProcessPoolExecutor",
    "RuntimeMetrics",
    "SerialExecutor",
    "SharedArenaHandle",
    "SplitConfig",
    "TextArena",
    "ThreadPoolExecutor",
    "WorkResult",
    "build_arena",
    "build_metrics",
    "choose_backend",
    "make_executor",
    "pack_lpt",
    "part_extensions",
    "plan_parts",
    "run_pages",
    "shm_available",
]
