"""repro.serve — incremental extraction serving.

The batch pipeline answers "what does the program extract from this
snapshot?"; this package answers the production question the paper's
setting implies: *keep the extracted relations of one or more xlog
programs continuously fresh while snapshots keep arriving, and serve
them to concurrent readers the whole time.*

Four layers, composed bottom-up:

* :mod:`.store` — a generation-versioned tuple store. Each applied
  snapshot becomes an immutable :class:`~repro.serve.store.Generation`
  (per-page rows + prebuilt relation indexes); readers grab the
  current generation reference once and do every read off that frozen
  object, so a query never observes a half-applied snapshot. Writers
  apply *deltas*: only pages the snapshot changed are replaced.
* :mod:`.views` — named materialized views: one registered xlog task
  each, maintained incrementally by the delex engine (per-view reuse
  files, per-page attribution straight from the recycled run) or by
  per-changed-page from-scratch extraction, with an optional
  store-vs-engine consistency guard.
* :mod:`.ingest` — the single-writer apply loop: a bounded queue with
  backpressure fed programmatically or by a spool-directory watcher;
  per-snapshot retry-once-then-quarantine keeps one poisoned snapshot
  from wedging the service.
* :mod:`.server` — a stdlib ``ThreadingHTTPServer`` JSON API
  (``/query``, ``/ingest``, ``/views``, ``/healthz``, ``/metrics``)
  plus the ``python -m repro serve`` wiring.

Scaling past one apply loop lives in :mod:`repro.shard`: the same
store/view/ingest machinery partitioned across N in-process shard
workers behind a scatter-gather router with consistent generation
vectors (``repro serve --shards N``).

Everything is stdlib-only, like the rest of the repo.
"""

from .ingest import (
    IngestLoop,
    IngestQueue,
    SpoolWatcher,
    drop_snapshot,
    lag_series,
)
from .server import ExtractionServer, ServeApp, build_server, serve_in_thread
from .store import Generation, QueryResult, TupleStore, tuple_to_json
from .views import (
    MaterializedView,
    ViewConfig,
    ViewConsistencyError,
    ViewRegistry,
)

__all__ = [
    "Generation",
    "TupleStore",
    "QueryResult",
    "tuple_to_json",
    "ViewConfig",
    "MaterializedView",
    "ViewRegistry",
    "ViewConsistencyError",
    "IngestQueue",
    "IngestLoop",
    "SpoolWatcher",
    "drop_snapshot",
    "lag_series",
    "ServeApp",
    "ExtractionServer",
    "build_server",
    "serve_in_thread",
]
