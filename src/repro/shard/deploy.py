"""The in-process sharded deployment: N shard workers + one front door.

A :class:`ShardWorker` is a complete single-writer serving stack —
its own :class:`~repro.serve.views.ViewRegistry` (stores in lazy-index
mode), its own bounded :class:`~repro.serve.ingest.IngestQueue`, its
own :class:`~repro.serve.ingest.IngestLoop` thread — maintaining only
the pages the partitioner assigns it. All of PR 5-7's single-shard
machinery (retry, quarantine, per-view isolation, monotonic-clock
lag) is reused verbatim per shard; the sharded tier adds routing
around it, not a new apply path.

:class:`ShardedDeployment` is the front door plus the fan-out:

* ``push`` first takes an **admission token** from a bounded pool
  (``capacity``), then splits the snapshot and enqueues one
  sub-snapshot per shard. Worker queues are sized to ``capacity``
  too, so the inner pushes can never block while holding the token —
  admission is the only gate, and a full pool is the only
  backpressure point (HTTP 429 / blocking producer, exactly like the
  single queue's semantics).
* every shard reports each sub-snapshot's outcome (applied,
  quarantined, or stale-skipped) through its loop's ``on_applied``
  hook; the deployment forwards it to the router's barrier and
  releases the admission token once **all** shards have reported that
  snapshot. A dead or stalled shard therefore holds its snapshots'
  tokens — the front door fills and rejects instead of queues growing
  without bound — and restarting the shard drains, reports, releases,
  and heals.

The deployment also duck-types both halves of the classic single-
shard surface — queue-like (``push``/``depth``/``describe``) and
loop-like (``start``/``stop``/``drain``/``running``) — so the HTTP
app and the spool watcher drive it unchanged.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List, Optional, Sequence

from ..corpus.snapshot import Snapshot
from ..corpus.store import CorpusStore
from ..obs import registry as _oreg
from ..serve.ingest import IngestLoop, IngestQueue
from ..serve.store import Generation
from ..serve.views import ViewConfig, ViewRegistry
from .partition import Partitioner
from .router import ShardRouter


class ShardWorker:
    """One shard: registry + queue + single-writer apply loop."""

    def __init__(self, shard_id: int, workdir: str,
                 configs: Sequence[ViewConfig], check: bool,
                 capacity: int, on_applied) -> None:
        self.shard_id = shard_id
        self.registry = ViewRegistry(workdir)
        for config in configs:
            # Lazy indexes: a shard's apply replaces page row maps
            # only; dedupe+sort happens on the read side, per vector.
            self.registry.register(config, lazy_index=True)
        self.queue = IngestQueue(maxsize=capacity)
        self.loop = IngestLoop(
            self.registry, self.queue, check=check,
            on_applied=on_applied,
            name=f"repro-shard-{shard_id}")

    def describe(self) -> Dict[str, object]:
        return {
            "shard": self.shard_id,
            "queue": self.queue.describe(),
            "loop": self.loop.describe(),
            "views": {name: self.registry.get(name).describe()
                      for name in self.registry.names()},
        }


class ShardedDeployment:
    """N shard workers, one admission-bounded front door, one router."""

    def __init__(self, workdir: str, configs: Sequence[ViewConfig],
                 n_shards: int, check: bool = False,
                 capacity: int = 8,
                 snapshot_store: Optional[CorpusStore] = None) -> None:
        if n_shards < 1:
            raise ValueError(f"need at least one shard, got {n_shards}")
        self.workdir = workdir
        self.partitioner = Partitioner(n_shards)
        self.router = ShardRouter(n_shards)
        self.capacity = max(1, capacity)
        self.snapshot_store = snapshot_store
        self.workers: List[ShardWorker] = [
            ShardWorker(
                shard_id=s,
                workdir=os.path.join(workdir, f"shard_{s:02d}"),
                configs=configs, check=check, capacity=self.capacity,
                on_applied=self._make_on_applied(s))
            for s in range(n_shards)]
        for config in configs:
            schema = self.workers[0].registry.get(
                config.name).store.schema
            self.router.register_view(config.name, schema)
        self._admission = threading.BoundedSemaphore(self.capacity)
        self._pending_lock = threading.Lock()
        #: snapshot index -> sub-snapshot completions still owed.
        self._pending: Dict[int, int] = {}
        self.pushed = 0
        self.rejected = 0
        self._in_flight = 0

    @property
    def n_shards(self) -> int:
        return self.partitioner.n_shards

    # -- the front door (queue-like) ---------------------------------------

    @property
    def depth(self) -> int:
        """Snapshots admitted but not yet reported by every shard."""
        with self._pending_lock:
            return self._in_flight

    def push(self, snapshot: Snapshot, block: bool = False,
             timeout: Optional[float] = None) -> bool:
        """Admit one snapshot and scatter it; ``False`` = backpressure.

        Mirrors :meth:`IngestQueue.push`: the HTTP path fails fast on
        a full admission pool, the spool watcher blocks up to
        ``timeout``. Admission is all-or-nothing — once the token is
        held, every shard's sub-snapshot enqueues without blocking
        (worker queues hold ``capacity`` items, the token pool admits
        at most ``capacity`` snapshots), so a snapshot can never be
        half-delivered to the tier.
        """
        if block:
            acquired = self._admission.acquire(timeout=timeout)
        else:
            acquired = self._admission.acquire(blocking=False)
        if not acquired:
            with self._pending_lock:
                self.rejected += 1
            return False
        with self._pending_lock:
            self._pending[snapshot.index] = (
                self._pending.get(snapshot.index, 0) + self.n_shards)
            self._in_flight += 1
            self.pushed += 1
        for worker, sub in zip(self.workers,
                               self.partitioner.split(snapshot)):
            worker.queue.push(sub, block=True, timeout=5.0)
        if self.snapshot_store is not None:
            try:
                self.snapshot_store.append(snapshot)
            except (ValueError, OSError):
                pass  # persistence is best-effort, serving is the job
        if _oreg.ENABLED:
            _oreg.REGISTRY.set(
                "repro_shard_front_in_flight", float(self.depth),
                help="admitted snapshots awaiting all shards' reports")
        return True

    def describe_queue(self) -> Dict[str, object]:
        with self._pending_lock:
            return {
                "depth": self._in_flight,
                "capacity": self.capacity,
                "pushed": self.pushed,
                "rejected": self.rejected,
                "pending": dict(self._pending),
            }

    # -- shard completion accounting ---------------------------------------

    def _make_on_applied(self, shard_id: int):
        def on_applied(snapshot: Snapshot,
                       outcomes: Dict[str, Optional[Generation]],
                       enqueued_mono: Optional[float],
                       skipped: bool) -> None:
            self.router.record(shard_id, snapshot, outcomes,
                               enqueued_mono, skipped)
            self._mark_done(snapshot.index)
        return on_applied

    def _mark_done(self, index: int) -> None:
        """One shard reported one sub-snapshot; maybe release a token.

        Every admitted snapshot owes exactly ``n_shards`` reports
        (applied, quarantined, and stale-skipped all count — the shard
        is done with it either way); the token returns when the count
        crosses a multiple of ``n_shards``, so a re-pushed index in
        flight twice releases twice.
        """
        release = False
        with self._pending_lock:
            count = self._pending.get(index)
            if count is None:
                return  # direct worker push (tests) — not admitted
            count -= 1
            if count <= 0:
                del self._pending[index]
            else:
                self._pending[index] = count
            if count % self.n_shards == 0:
                self._in_flight = max(0, self._in_flight - 1)
                release = True
        if release:
            try:
                self._admission.release()
            except ValueError:  # pragma: no cover - bounded pool guard
                pass

    # -- lifecycle (loop-like) ---------------------------------------------

    @property
    def running(self) -> bool:
        return all(worker.loop.running for worker in self.workers)

    def start(self) -> None:
        for worker in self.workers:
            worker.loop.start()

    def stop(self, timeout: float = 10.0) -> bool:
        ok = True
        for worker in self.workers:
            ok = worker.loop.stop(timeout=timeout) and ok
        return ok

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until every admitted snapshot is fully reported."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._pending_lock:
                if not self._pending:
                    return True
            time.sleep(0.02)
        return False

    def apply_inline(self, snapshot: Snapshot) -> None:
        """Apply one snapshot synchronously on the caller's thread.

        Bootstrap helper (mirrors calling ``loop.apply_one`` inline on
        the single-shard path): splits, applies each shard's subset
        directly, and reports to the router, without touching the
        admission pool. Only safe when no loops are running. No
        enqueue timestamp — like an inline single-shard apply, the
        bootstrap's published lag is None (reported as 0.0 by
        :func:`repro.serve.ingest.lag_series`), never a fabricated
        duration.
        """
        for worker, sub in zip(self.workers,
                               self.partitioner.split(snapshot)):
            worker.loop.apply_one(sub)

    # -- status ------------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        doc = self.router.healthz()
        doc["shards"] = [
            {
                "shard": worker.shard_id,
                "loop_running": worker.loop.running,
                "queue_depth": worker.queue.depth,
                "quarantined": worker.loop.snapshots_quarantined,
            }
            for worker in self.workers]
        doc["front"] = self.describe_queue()
        doc["ok"] = bool(doc["ok"]) and self.running
        return doc

    def describe(self) -> Dict[str, object]:
        return {
            "n_shards": self.n_shards,
            "running": self.running,
            "front": self.describe_queue(),
            "router": self.router.describe(),
            "shards": [worker.describe() for worker in self.workers],
        }

    def sync_registry(self) -> None:
        """Push point-in-time shard gauges into the metrics registry.

        Hot paths keep plain Python counters; this folds them into the
        process registry at exposition time (the ``repro_shard_*``
        families of docs/observability.md).
        """
        reg = _oreg.REGISTRY
        reg.set("repro_shard_count", float(self.n_shards),
                help="shard workers in this deployment")
        reg.set("repro_shard_front_in_flight", float(self.depth),
                help="admitted snapshots awaiting all shards' reports")
        for worker in self.workers:
            shard = str(worker.shard_id)
            reg.set("repro_shard_queue_depth",
                    float(worker.queue.depth),
                    help="sub-snapshots waiting per shard", shard=shard)
            reg.set("repro_shard_loop_running",
                    1.0 if worker.loop.running else 0.0,
                    help="1 when the shard's apply loop is alive",
                    shard=shard)
            reg.set("repro_shard_applies_total",
                    float(worker.loop.snapshots_applied),
                    help="sub-snapshots applied per shard", shard=shard)
            for name in worker.registry.names():
                generation = worker.registry.get(name).generation
                if generation is not None:
                    reg.set("repro_shard_generation",
                            float(generation.gen_id),
                            help="current generation id per view per "
                                 "shard", view=name, shard=shard)
        for name in self.router.names():
            vector = self.router.vector(name)
            if vector is not None:
                reg.set("repro_shard_vector_index",
                        float(vector.snapshot_index),
                        help="snapshot index of the current consistent "
                             "vector per view", view=name)
                reg.set("repro_shard_vector_id",
                        float(vector.vector_id),
                        help="current vector id per view", view=name)
