"""HTTP front end: query/ingest/health/metrics over stdlib threads.

A :class:`ServeApp` bundles the registry, the bounded ingest queue,
the apply loop, and (optionally) a spool watcher; request handling is
plain functions on the app returning ``(status, payload)`` so the
whole API surface is unit-testable without sockets. The HTTP layer is
a ``ThreadingHTTPServer`` — one thread per in-flight request — which
is exactly the concurrency shape the generation-swap store is built
for: any number of reader threads, one writer thread.

Endpoints (all JSON):

* ``GET /query?view=&relation=&offset=&limit=&contains=&f.<var>=`` —
  paginated, filtered read; every response carries the one generation
  id it was served from.
* ``POST /ingest`` — body ``{"index": n, "pages": [{"url", "text"}]}``;
  202 on enqueue, 429 on backpressure.
* ``GET /views`` — registered views, their configs and generations.
* ``GET /healthz`` — 200 ok / 503 degraded (quarantined snapshots or
  a dead ingest loop).
* ``GET /metrics`` — uptime, query counters, ingest lag, and per-view
  per-generation apply timings with the full
  ``Timings``/``RuntimeMetrics``/``FastPathStats`` ``to_dict`` nests.
  With ``?format=prometheus`` the same endpoint serves the process
  metrics registry in the text exposition format
  (``text/plain; version=0.0.4``) for scrape-based monitoring; JSON
  stays the default so existing consumers are unaffected.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..corpus.snapshot import Snapshot
from ..obs import registry as _oreg
from ..obs.util import safe_rate
from ..text.document import Page
from .ingest import IngestLoop, IngestQueue, SpoolWatcher
from .store import EmptyViewError, EncodedRows, UnknownRelationError
from .views import ViewRegistry

#: Content type of the Prometheus text exposition format.
PROM_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Hard cap on one ``/query`` page, whatever ``limit`` asks for.
MAX_LIMIT = 1000

Payload = Tuple[int, Dict[str, object]]


def render_json(payload: Dict[str, object]) -> str:
    """``json.dumps(payload)``, byte for byte, without re-encoding rows.

    A ``/query`` payload ends with its rows as
    :class:`~repro.serve.store.EncodedRows`, which carry each row's
    JSON text; those are spliced after the encoded head instead of
    encoding every field map again.
    """
    keys = list(payload)
    rows = payload.get("tuples")
    if (len(keys) < 2 or keys[-1] != "tuples"
            or not isinstance(rows, EncodedRows)):
        return json.dumps(payload)
    head = json.dumps({key: payload[key] for key in keys[:-1]})
    return f'{head[:-1]}, "tuples": [{", ".join(rows.fragments)}]}}'


class ServeApp:
    """Everything one serving deployment holds, HTTP-free.

    Two shapes, same API surface: classic single-shard (``registry`` +
    ``ingest_queue`` + ``loop``) or sharded (pass a
    :class:`repro.shard.ShardedDeployment` as ``sharded`` — it
    duck-types both the queue and the loop, so ``queue``/``loop`` may
    simply be the deployment itself). In sharded mode ``/query`` is
    answered by the scatter-gather router under a consistent
    generation vector, and ``/healthz``/``/metrics`` gain per-shard
    status.
    """

    def __init__(self, registry: ViewRegistry, ingest_queue,
                 loop, watcher: Optional[SpoolWatcher] = None,
                 sharded=None) -> None:
        self.registry = registry
        self.queue = ingest_queue
        self.loop = loop
        self.watcher = watcher
        #: The sharded deployment, when this app fronts one.
        self.sharded = sharded
        #: Wall-clock start timestamp — display only.
        self.started_at = time.time()
        #: Monotonic start timestamp — uptime is derived from this so
        #: a wall-clock step can never make uptime negative.
        self.started_mono = time.monotonic()
        self._query_lock = threading.Lock()
        self.queries_served = 0
        self.ingest_requests = 0

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        # A serving process always publishes into the metrics registry:
        # /metrics?format=prometheus is part of the serve API surface.
        _oreg.enable()
        self.loop.start()
        if self.watcher is not None:
            self.watcher.start()

    def shutdown(self) -> bool:
        """Stop watcher + loop; ``True`` only if both exited cleanly."""
        ok = True
        if self.watcher is not None:
            ok = self.watcher.stop() and ok
        ok = self.loop.stop() and ok
        return ok

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_mono

    @property
    def queries_per_second(self) -> float:
        """Lifetime query rate; 0.0 at zero uptime (no div-by-zero)."""
        return safe_rate(self.queries_served, self.uptime_seconds)

    # -- request handlers (thread-safe) -----------------------------------

    def handle_root(self) -> Payload:
        return 200, {
            "service": "repro.serve — incremental extraction serving",
            "views": self.registry.names(),
            "endpoints": ["/query", "/ingest", "/views", "/healthz",
                          "/metrics"],
        }

    def handle_query(self, params: Dict[str, str]) -> Payload:
        with self._query_lock:
            self.queries_served += 1
        view_name = params.get("view")
        if view_name is None:
            names = self.registry.names()
            if len(names) != 1:
                return 400, {"error": "query needs ?view= when "
                                      f"{len(names)} views are "
                                      "registered",
                             "views": names}
            view_name = names[0]
        try:
            view = self.registry.get(view_name)
        except KeyError:
            return 404, {"error": f"no view {view_name!r}",
                         "views": self.registry.names()}
        relation = params.get("relation") or (
            view.store.schema[0] if view.store.schema else "")
        try:
            offset = int(params.get("offset", "0"))
            limit = min(MAX_LIMIT, int(params.get("limit", "50")))
        except ValueError:
            return 400, {"error": "offset/limit must be integers"}
        field_filters = {key[2:]: value for key, value in params.items()
                         if key.startswith("f.") and len(key) > 2}
        try:
            if self.sharded is not None:
                # Scatter-gather read under the consistent generation
                # vector; 503 before the first vector (same contract
                # as an empty single-shard view).
                result = self.sharded.router.query(
                    view_name, relation, offset=offset, limit=limit,
                    contains=params.get("contains"),
                    field_filters=field_filters or None)
            else:
                result = view.query(relation, offset=offset, limit=limit,
                                    contains=params.get("contains"),
                                    field_filters=field_filters or None)
        except UnknownRelationError:
            return 404, {"error": f"view {view_name!r} has no relation "
                                  f"{relation!r}",
                         "relations": list(view.store.schema)}
        except EmptyViewError:
            return 503, {"error": f"view {view_name!r} has no "
                                  "generation yet; ingest a snapshot "
                                  "first"}
        return 200, result.to_dict()

    def handle_ingest(self, body: bytes) -> Payload:
        self.ingest_requests += 1
        try:
            doc = json.loads(body.decode("utf-8"))
            index = int(doc["index"])
            pages = [Page.from_url(str(p["url"]), str(p["text"]))
                     for p in doc["pages"]]
            snapshot = Snapshot(index, pages)
        except (ValueError, KeyError, TypeError) as exc:
            return 400, {"error": "bad snapshot document: expected "
                                  '{"index": n, "pages": [{"url", '
                                  '"text"}, ...]} — ' + str(exc)}
        if not self.queue.push(snapshot, block=False):
            return 429, {"error": "ingest queue full — backpressure",
                         "queue": self._queue_status()}
        return 202, {"queued": True, "index": index,
                     "pages": len(snapshot),
                     "queue": self._queue_status()}

    def _queue_status(self) -> Dict[str, object]:
        """The front door's queue stats, whatever shape fronts it."""
        if self.sharded is not None:
            return self.sharded.describe_queue()
        return self.queue.describe()

    def handle_views(self) -> Payload:
        doc: Dict[str, object] = {"views": self.registry.describe()}
        if self.sharded is not None:
            # In sharded mode the registry block is shard 0's slice;
            # the authoritative cross-shard state is the vector.
            doc["vectors"] = {
                name: (vector.describe()
                       if (vector := self.sharded.router.vector(name))
                       is not None else None)
                for name in self.sharded.router.names()}
        return 200, doc

    def handle_healthz(self) -> Payload:
        if self.sharded is not None:
            return self._handle_healthz_sharded()
        views = {
            view.config.name: {
                "healthy": view.healthy,
                "quarantined": len(view.quarantine),
                "generation": (view.generation.gen_id
                               if view.generation is not None else None),
            }
            for view in self.registry.views()
        }
        ok = self.registry.healthy and self.loop.running
        status = "ok" if ok else "degraded"
        reasons = []
        if not self.loop.running:
            reasons.append("ingest loop not running")
        for name, info in views.items():
            if not info["healthy"]:
                reasons.append(f"view {name!r} has "
                               f"{info['quarantined']} quarantined "
                               "snapshot(s)")
        return (200 if ok else 503), {"status": status,
                                      "reasons": reasons,
                                      "views": views}

    def _handle_healthz_sharded(self) -> Payload:
        """Sharded health: per-shard loops + the router's barrier view.

        Degraded (503) when a shard loop is dead, a shard lags the
        barrier, or any view quarantined a sub-snapshot — but queries
        keep serving the last consistent vector throughout, so
        "degraded" never means "torn".
        """
        doc = self.sharded.healthz()
        reasons = []
        for shard in doc["shards"]:
            if not shard["loop_running"]:
                reasons.append(f"shard {shard['shard']} ingest loop "
                               "not running")
        for name, info in doc["views"].items():
            if info["lagging_shards"]:
                reasons.append(
                    f"view {name!r} lagging on shard(s) "
                    f"{info['lagging_shards']} — serving last "
                    "consistent vector")
            if info["quarantined"]:
                reasons.append(f"view {name!r} has "
                               f"{info['quarantined']} quarantined "
                               "sub-snapshot(s)")
        ok = bool(doc["ok"])
        doc["status"] = "ok" if ok else "degraded"
        doc["reasons"] = reasons
        return (200 if ok else 503), doc

    def handle_metrics(self) -> Payload:
        views = {}
        for view in self.registry.views():
            generation = view.generation
            last = view.history[-1] if view.history else None
            views[view.config.name] = {
                "config": view.config.to_dict(),
                "healthy": view.healthy,
                "generation": (generation.describe()
                               if generation is not None else None),
                "quarantined": list(view.quarantine),
                "last_apply": last.to_dict() if last is not None else None,
                "applies": [record.to_dict() for record in view.history],
            }
        doc: Dict[str, object] = {
            "uptime_seconds": self.uptime_seconds,
            "started_at": self.started_at,
            "queries_served": self.queries_served,
            "queries_per_second": self.queries_per_second,
            "ingest_requests": self.ingest_requests,
            "ingest": self.loop.describe(),
            "spool": (self.watcher.describe()
                      if self.watcher is not None else None),
            "views": views,
        }
        if self.sharded is not None:
            # Per-shard loops/queues, the router's barrier state, and
            # per-view publish (vector) history; the "views" block
            # above describes shard 0's slice of each view.
            doc["shard"] = {
                "router": self.sharded.router.describe(),
                "front": self.sharded.describe_queue(),
                "publishes": {
                    name: self.sharded.router.publishes(name)
                    for name in self.sharded.router.names()},
            }
        return 200, doc

    def sync_registry(self) -> None:
        """Refresh point-in-time serve gauges in the metrics registry.

        Called at exposition time so scrape-shaped values (uptime,
        queue depth, per-view health) are current even between
        applies.
        """
        reg = _oreg.REGISTRY
        reg.set("repro_serve_uptime_seconds", self.uptime_seconds,
                help="monotonic seconds since the app started")
        reg.set("repro_serve_queries_per_second", self.queries_per_second,
                help="lifetime query rate")
        reg.set("repro_ingest_queue_depth", float(self.queue.depth),
                help="snapshots waiting in the ingest queue")
        reg.set("repro_ingest_loop_running",
                1.0 if self.loop.running else 0.0,
                help="1 when the single-writer apply loop is alive")
        reg.set("repro_serve_queries_served", float(self.queries_served),
                help="queries answered since start")
        reg.set("repro_serve_ingest_requests", float(self.ingest_requests),
                help="POST /ingest requests since start")
        if self.sharded is not None:
            self.sharded.sync_registry()
            failed = sum(w.loop.applies_failed
                         for w in self.sharded.workers)
        else:
            failed = self.loop.applies_failed
        reg.set("repro_ingest_applies_failed", float(failed),
                help="per-view apply attempts that raised")
        for view in self.registry.views():
            reg.set("repro_view_healthy", 1.0 if view.healthy else 0.0,
                    help="1 when the view has no quarantined snapshots",
                    view=view.config.name)

    def handle_metrics_prom(self) -> Tuple[int, str]:
        """The Prometheus text exposition of the process registry."""
        self.sync_registry()
        return 200, _oreg.REGISTRY.render_prometheus()


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON shim over :class:`ServeApp`."""

    server_version = "repro-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Responses go out in one write (see _send), so nothing is gained by
    # Nagle's coalescing, and on a keep-alive socket it would hold a
    # response back until the client's delayed ACK.
    disable_nagle_algorithm = True

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status: int, body: str,
              content_type: str = "application/json") -> None:
        """Write the status line, headers and body in one ``write``:
        ``end_headers`` would flush the headers on their own, and the
        body would then wait for the client's delayed ACK. An HTTP/0.9
        request gets the bare body, as the stdlib would send it."""
        data = body.encode("utf-8")
        self.log_request(status)
        if self.request_version != "HTTP/0.9":
            reason = (self.responses[status][0]
                      if status in self.responses else "")
            head = (f"{self.protocol_version} {status} {reason}\r\n"
                    f"Server: {self.version_string()}\r\n"
                    f"Date: {self.date_time_string()}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(data)}\r\n\r\n")
            data = head.encode("latin-1") + data
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - stdlib contract
        parsed = urlparse(self.path)
        params = {key: values[-1] for key, values
                  in parse_qs(parsed.query).items()}
        route = parsed.path.rstrip("/") or "/"
        if route == "/":
            status, payload = self.app.handle_root()
        elif route == "/query":
            status, payload = self.app.handle_query(params)
        elif route == "/views":
            status, payload = self.app.handle_views()
        elif route == "/healthz":
            status, payload = self.app.handle_healthz()
        elif route == "/metrics":
            if params.get("format") == "prometheus":
                status, text = self.app.handle_metrics_prom()
                self._send(status, text, PROM_CONTENT_TYPE)
                return
            status, payload = self.app.handle_metrics()
        else:
            status, payload = 404, {"error": f"no route {parsed.path!r}"}
        self._send(status, render_json(payload))

    def do_POST(self) -> None:  # noqa: N802 - stdlib contract
        parsed = urlparse(self.path)
        length = int(self.headers.get("Content-Length") or 0)
        body = self.rfile.read(length) if length else b""
        if parsed.path.rstrip("/") == "/ingest":
            status, payload = self.app.handle_ingest(body)
        else:
            status, payload = 404, {"error": f"no route {parsed.path!r}"}
        self._send(status, json.dumps(payload))


class ExtractionServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the app reference."""

    daemon_threads = True
    verbose = False

    def __init__(self, address, app: ServeApp) -> None:
        super().__init__(address, _Handler)
        self.app = app


def build_server(app: ServeApp, host: str = "127.0.0.1",
                 port: int = 0) -> ExtractionServer:
    """Bind (port 0 = ephemeral) without starting the serve loop."""
    return ExtractionServer((host, port), app)


def serve_in_thread(app: ServeApp, host: str = "127.0.0.1",
                    port: int = 0
                    ) -> Tuple[ExtractionServer, threading.Thread]:
    """Start app + HTTP server on a daemon thread; returns both.

    The test-suite/embedding entry point: the caller talks to
    ``server.server_address`` and later calls ``server.shutdown()``
    then ``app.shutdown()``.
    """
    app.start()
    server = build_server(app, host, port)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-http", daemon=True)
    thread.start()
    return server, thread
