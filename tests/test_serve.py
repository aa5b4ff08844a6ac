"""repro.serve — the incremental serving layer, end to end.

Pins the PR's acceptance properties: serve results identical to batch
NoReuse at every generation (both maintenance modes), no response ever
mixes generations under concurrent reader/writer load, pagination
edges, the quarantine path (a fault-injected apply leaves the previous
generation serving and degrades ``/healthz``), backpressure, the spool
watcher, and the HTTP surface.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
import urllib.parse
import urllib.request

import pytest

from repro.core.runner import canonical_results, make_system
from repro.corpus import dblife_corpus
from repro.corpus.snapshot import Snapshot, write_snapshot
from repro.serve import (
    IngestLoop,
    IngestQueue,
    ServeApp,
    SpoolWatcher,
    TupleStore,
    ViewConfig,
    ViewRegistry,
    drop_snapshot,
    serve_in_thread,
    tuple_to_json,
)
from repro.serve import ingest as ingest_mod
from repro.serve.server import render_json
from repro.serve.store import (EmptyViewError, UnknownRelationError,
                               _tuple_text)
from repro.text.document import Page


@pytest.fixture(scope="module")
def snapshots():
    return list(dblife_corpus(n_pages=10, seed=5,
                              p_unchanged=0.5).snapshots(4))


@pytest.fixture(scope="module")
def reference(snapshots):
    """Batch NoReuse canonical results, per snapshot index."""
    from repro.extractors import make_task

    task = make_task("talk", work_scale=0)
    ref = {}
    with tempfile.TemporaryDirectory() as workdir:
        system = make_system("noreuse", task, workdir)
        for snapshot in snapshots:
            ref[snapshot.index] = canonical_results(
                system.process(snapshot))
    return ref


def _talk_config(**overrides):
    kwargs = dict(name="talk", task="talk", work_scale=0.0)
    kwargs.update(overrides)
    return ViewConfig(**kwargs)


def _snapshot_doc(snapshot):
    return {"index": snapshot.index,
            "pages": [{"url": p.did, "text": p.text}
                      for p in snapshot.pages]}


# ---------------------------------------------------------------------------
# TupleStore


class TestTupleStore:
    def _store(self):
        store = TupleStore("v", ("rel",))
        store.apply_delta(0, {
            "p1": {"rel": [(("x", "a"),), (("x", "b"),)]},
            "p2": {"rel": [(("x", "c"),), (("x", "a"),)]},  # dup "a"
        })
        return store

    def test_empty_view_raises(self):
        store = TupleStore("v", ("rel",))
        with pytest.raises(EmptyViewError):
            store.query("rel")

    def test_unknown_relation_raises(self):
        store = self._store()
        with pytest.raises(UnknownRelationError):
            store.query("nope")

    def test_dedup_and_total(self):
        result = self._store().query("rel", limit=100)
        assert result.total == 3          # "a" appears on both pages
        assert len(result.tuples) == 3

    def test_offset_past_end_is_empty_with_total(self):
        result = self._store().query("rel", offset=50, limit=10)
        assert result.tuples == []
        assert result.total == 3
        assert result.offset == 50

    def test_pagination_concatenates_to_full_list(self):
        store = self._store()
        full = store.query("rel", limit=100).tuples
        paged = (store.query("rel", offset=0, limit=2).tuples
                 + store.query("rel", offset=2, limit=2).tuples)
        assert paged == full
        # Deterministic: same query, same page.
        assert store.query("rel", offset=1, limit=1).tuples == \
            store.query("rel", offset=1, limit=1).tuples

    def test_negative_offset_clamped(self):
        result = self._store().query("rel", offset=-5, limit=2)
        assert result.offset == 0
        assert len(result.tuples) == 2

    def test_contains_and_field_filters(self):
        store = self._store()
        assert store.query("rel", contains="A").total == 1
        assert store.query("rel", field_filters={"x": "b"}).total == 1
        assert store.query("rel", field_filters={"x": "zz"}).total == 0

    def test_delta_shares_unchanged_pages_by_reference(self):
        store = self._store()
        gen1 = store.current()
        store.apply_delta(1, {"p2": {"rel": [(("x", "d"),)]}})
        gen2 = store.current()
        assert gen2.gen_id == gen1.gen_id + 1
        assert gen2.page_rows["p1"] is gen1.page_rows["p1"]
        assert gen2.page_rows["p2"] is not gen1.page_rows["p2"]
        # Old generation untouched — a reader holding it sees old rows.
        assert gen1.relations["rel"] != gen2.relations["rel"]

    def test_deletes_drop_pages(self):
        store = self._store()
        store.apply_delta(1, {}, deletes=["p2", "ghost"])
        gen = store.current()
        assert gen.pages_deleted == 1
        assert set(gen.page_rows) == {"p1"}
        assert gen.relations["rel"] == ((("x", "a"),), (("x", "b"),))

    def test_row_memo_stays_within_twice_the_live_rows(self):
        """Readers encode each row once; over 30 generations that each
        replace half the pages, the memo never holds more than twice
        the relation's live rows."""
        store = TupleStore("v", ("rel",))
        pages = 20
        for gen in range(30):
            fresh = range(pages) if gen == 0 else range(gen % 2, pages, 2)
            store.apply_delta(gen, {
                f"p{p}": {"rel": [(("x", f"g{gen} p{p} r{r}"),
                                   ("y", (r, r + 3, f"é{gen}")))
                                  for r in range(5)]}
                for p in fresh})
            live = store.current().relations["rel"]
            for offset in range(0, len(live), 7):
                result = store.query("rel", offset=offset, limit=7)
                result.to_dict()
                assert len(result.codec) <= 2 * len(live)
            result = store.query("rel", contains=f"G{gen} ", limit=1000)
            assert result.total == len(fresh) * 5
            result.to_dict()
            assert len(result.codec) <= 2 * len(live)
        assert len(result.codec) >= len(live) // 2


# ---------------------------------------------------------------------------
# View maintenance == batch NoReuse, both modes


class TestViewMaintenance:
    @pytest.mark.parametrize("mode", ["delex", "noreuse"])
    def test_every_generation_matches_batch(self, mode, snapshots,
                                            reference, tmp_path):
        registry = ViewRegistry(str(tmp_path))
        view = registry.register(_talk_config(system=mode))
        for snapshot in snapshots:
            record = view.apply_snapshot(snapshot, check=True)
            generation = view.generation
            assert generation.gen_id == record.gen_id
            assert generation.snapshot_index == snapshot.index
            assert generation.canonical() == reference[snapshot.index]
        assert view.healthy
        assert len(view.history) == len(snapshots)

    def test_modes_publish_identical_stores(self, snapshots, tmp_path):
        generations = {}
        for mode in ("delex", "noreuse"):
            registry = ViewRegistry(str(tmp_path / mode))
            view = registry.register(_talk_config(system=mode))
            for snapshot in snapshots:
                view.apply_snapshot(snapshot)
            generations[mode] = view.generation
        assert generations["delex"].relations == \
            generations["noreuse"].relations
        assert generations["delex"].page_rows == \
            generations["noreuse"].page_rows

    def test_snapshot_index_must_advance(self, snapshots, tmp_path):
        registry = ViewRegistry(str(tmp_path))
        view = registry.register(_talk_config())
        view.apply_snapshot(snapshots[1])
        with pytest.raises(ValueError):
            view.apply_snapshot(snapshots[1])
        with pytest.raises(ValueError):
            view.apply_snapshot(snapshots[0])


# ---------------------------------------------------------------------------
# Quarantine: fault-injected applies


class TestQuarantine:
    def test_failed_apply_keeps_previous_generation(self, snapshots,
                                                    reference, tmp_path):
        registry = ViewRegistry(str(tmp_path))
        view = registry.register(_talk_config())
        loop = IngestLoop(registry, IngestQueue())

        assert loop.apply_one(snapshots[0])
        gen1 = view.generation

        view._apply_hook = lambda snapshot: (_ for _ in ()).throw(
            RuntimeError("injected apply fault"))
        assert not loop.apply_one(snapshots[1])
        assert not view.healthy
        assert view.quarantine[0]["snapshot_index"] == snapshots[1].index
        assert "injected apply fault" in view.last_error
        # The store still serves the exact pre-fault generation object.
        assert view.generation is gen1
        assert loop.snapshots_quarantined == 1
        assert loop.applies_failed == 2     # retried once, then gave up

        # Later snapshots flow across the gap and land correctly.
        view._apply_hook = None
        assert loop.apply_one(snapshots[2])
        generation = view.generation
        assert generation.snapshot_index == snapshots[2].index
        assert generation.canonical() == reference[snapshots[2].index]
        # healthz degrades while quarantine is non-empty.
        app = ServeApp(registry, loop.queue, loop)
        status, payload = app.handle_healthz()
        assert status == 503
        assert payload["status"] == "degraded"
        assert any("quarantined" in reason
                   for reason in payload["reasons"])

    def test_transient_fault_heals_on_retry(self, snapshots, tmp_path):
        registry = ViewRegistry(str(tmp_path))
        view = registry.register(_talk_config())
        loop = IngestLoop(registry, IngestQueue())
        calls = {"n": 0}

        def flaky(snapshot):
            calls["n"] += 1
            if calls["n"] == 1:
                raise OSError("transient")

        view._apply_hook = flaky
        assert loop.apply_one(snapshots[0])
        assert view.healthy
        assert not view.quarantine
        assert loop.applies_failed == 1
        assert view.generation.snapshot_index == snapshots[0].index

    def test_stale_snapshot_skipped_not_quarantined(self, snapshots,
                                                    tmp_path):
        registry = ViewRegistry(str(tmp_path))
        view = registry.register(_talk_config())
        loop = IngestLoop(registry, IngestQueue())
        assert loop.apply_one(snapshots[1])
        gen = view.generation
        # Re-pushing an applied (or older) snapshot is a no-op.
        assert loop.apply_one(snapshots[0])
        assert loop.apply_one(snapshots[1])
        assert view.generation is gen
        assert view.healthy
        assert loop.recent[-1]["skipped"] == "stale"


# ---------------------------------------------------------------------------
# Concurrent readers vs the single writer


class TestConcurrency:
    def test_readers_never_observe_mixed_generations(self, snapshots,
                                                     reference,
                                                     tmp_path):
        registry = ViewRegistry(str(tmp_path))
        view = registry.register(_talk_config())
        relations = list(view.store.schema)
        stop = threading.Event()
        errors = []
        generations_seen = set()

        app = ServeApp(registry, IngestQueue(), IngestLoop(registry,
                                                           IngestQueue()))

        def encoded(rows):
            return sorted(json.dumps(tuple_to_json(t)) for t in rows)

        def reader(contains):
            # Readers fill the shared row memo while the writer
            # publishes: every body must still be one generation's.
            params = {"limit": "1000"}
            if contains:
                params["contains"] = contains
            while not stop.is_set():
                for rel in relations:
                    try:
                        result = view.query(rel, limit=1000)
                        status, payload = app.handle_query(
                            dict(params, relation=rel))
                    except EmptyViewError:
                        continue
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        stop.set()
                        return
                    expected = reference[result.snapshot_index][rel]
                    ok = (frozenset(result.tuples) == expected
                          and result.total == len(result.tuples))
                    if status == 200:
                        doc = json.loads(render_json(payload))
                        rows = reference[doc["snapshot_index"]][rel]
                        if contains:
                            rows = [t for t in rows
                                    if contains in _tuple_text(t).lower()]
                        ok = (ok and doc["total"] == doc["count"]
                              and sorted(json.dumps(t)
                                         for t in doc["tuples"])
                              == encoded(rows))
                    if not ok:
                        errors.append(
                            f"generation {result.generation} "
                            f"(snapshot {result.snapshot_index}) "
                            f"relation {rel}: response does not match "
                            "the batch reference for its own snapshot")
                        stop.set()
                        return
                    generations_seen.add(result.generation)

        threads = [threading.Thread(target=reader, args=(contains,))
                   for contains in ("", "", "a")]
        # Switch threads often so readers interleave inside the memo.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        for t in threads:
            t.start()
        try:
            for snapshot in snapshots:
                view.apply_snapshot(snapshot)
                time.sleep(0.03)    # let readers sample this generation
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors[0]
        assert generations_seen, "readers never observed a generation"

    def test_reader_holding_old_generation_is_unaffected(self, snapshots,
                                                         reference,
                                                         tmp_path):
        registry = ViewRegistry(str(tmp_path))
        view = registry.register(_talk_config())
        view.apply_snapshot(snapshots[0])
        held = view.generation
        view.apply_snapshot(snapshots[1])
        # The held reference still answers with snapshot 0's rows.
        assert held.canonical() == reference[snapshots[0].index]
        assert view.generation.canonical() == \
            reference[snapshots[1].index]


# ---------------------------------------------------------------------------
# HTTP surface


def _build_app(workdir, queue_size=8, check=False):
    registry = ViewRegistry(os.path.join(workdir, "views"))
    registry.register(_talk_config())
    ingest_queue = IngestQueue(maxsize=queue_size)
    loop = IngestLoop(registry, ingest_queue, check=check)
    return ServeApp(registry, ingest_queue, loop)


def _get(base, path):
    with urllib.request.urlopen(base + path) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _post(base, path, doc):
    req = urllib.request.Request(
        base + path, data=json.dumps(doc).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req) as resp:
        return resp.status, json.loads(resp.read().decode("utf-8"))


def _rows(app, params):
    """The raw rows ``handle_query`` serves for ``params``."""
    kwargs = dict(offset=int(params.get("offset", 0)),
                  limit=int(params.get("limit", 50)),
                  contains=params.get("contains"),
                  field_filters={k[2:]: v for k, v in params.items()
                                 if k.startswith("f.")} or None)
    relation = app.registry.get("talk").store.schema[0]
    if app.sharded is not None:
        return app.sharded.router.query("talk", relation, **kwargs).tuples
    return app.registry.get("talk").query(relation, **kwargs).tuples


class TestHTTP:
    def test_end_to_end(self, snapshots, reference, tmp_path):
        app = _build_app(str(tmp_path), check=True)
        server, _thread = serve_in_thread(app)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            # Before any ingest: query is 503, healthz is 200.
            with pytest.raises(urllib.error.HTTPError) as exc:
                _get(base, "/query")
            assert exc.value.code == 503

            for snapshot in snapshots:
                status, payload = _post(base, "/ingest",
                                        _snapshot_doc(snapshot))
                assert status == 202 and payload["queued"]
            assert app.loop.drain(timeout=120)

            status, root = _get(base, "/")
            assert status == 200 and root["views"] == ["talk"]

            view = app.registry.get("talk")
            last = snapshots[-1].index
            for rel in view.store.schema:
                status, doc = _get(base,
                                   f"/query?relation={rel}&limit=1000")
                assert status == 200
                assert doc["view"] == "talk"
                assert doc["snapshot_index"] == last
                assert doc["total"] == len(reference[last][rel])
                assert doc["count"] == doc["total"]
                # Every tuple is a JSON field map (spans expanded).
                for tup in doc["tuples"]:
                    assert isinstance(tup, dict) and tup

            status, health = _get(base, "/healthz")
            assert status == 200 and health["status"] == "ok"

            status, views = _get(base, "/views")
            assert status == 200
            assert views["views"]["talk"]["healthy"]

            status, metrics = _get(base, "/metrics")
            assert status == 200
            talk = metrics["views"]["talk"]
            assert len(talk["applies"]) == len(snapshots)
            assert talk["last_apply"]["lag_seconds"] is not None
            assert metrics["ingest"]["snapshots_applied"] == \
                len(snapshots)
            assert metrics["queries_served"] >= 1
            assert "timings" in talk["last_apply"]
        finally:
            server.shutdown()
            server.server_close()
            app.shutdown()

    @pytest.mark.parametrize("shards", [1, 2])
    def test_bodies_equal_the_payload_dumped(self, snapshots, tmp_path,
                                             shards):
        """A ``/query`` body splices each row's memoized JSON text; it
        must equal ``json.dumps`` of the payload ``handle_query``
        returns, and the rendering of the rows encoded afresh, byte
        for byte, over every request shape, from one store or through
        the 2-shard router."""
        extra = [Page.from_url(f"intl{i}", f"Seminar by Ada Lovelace. "
                                           f"Topics: Schrödinger {word}.\n")
                 for i, word in enumerate(("ÉQUATIONS", "数据库", "naïve"))]
        snapshot = Snapshot(0, list(snapshots[0].pages) + extra)
        if shards == 1:
            app = _build_app(str(tmp_path))
            app.loop.apply_one(snapshot)
        else:
            from repro.shard import ShardedDeployment

            deployment = ShardedDeployment(
                str(tmp_path / "shards"), [_talk_config()], n_shards=2)
            app = ServeApp(deployment.workers[0].registry, deployment,
                           deployment, sharded=deployment)
        server, _thread = serve_in_thread(app)
        host, port = server.server_address[:2]
        try:
            if shards == 2:
                assert app.queue.push(snapshot, block=True, timeout=10)
                assert app.loop.drain(timeout=60)
            total = app.handle_query({})[1]["total"]
            assert total > 10
            grid = [{}, {"offset": "3", "limit": "4"},
                    {"offset": str(total - 2), "limit": "50"},
                    {"offset": str(total + 5), "limit": "5"},
                    {"limit": "0"}, {"contains": "ada"},
                    {"contains": "équations", "limit": "1000"},
                    {"contains": "数据", "limit": "1000"},
                    {"contains": "no such text"},
                    {"f.speaker": "Ada Lovelace", "limit": "1000"},
                    {"f.speaker": "Ada Lovelace", "contains": "naÏve"},
                    {"f.topics": "nothing"}]
            for params in grid:
                query = urllib.parse.urlencode(params)
                with urllib.request.urlopen(
                        f"http://{host}:{port}/query?{query}") as resp:
                    body = resp.read()
                status, payload = app.handle_query(params)
                assert status == 200
                assert body == json.dumps(payload).encode("ascii"), params
                fresh = dict(payload)
                fresh["tuples"] = [tuple_to_json(t) for t in _rows(
                    app, params)]
                assert body == json.dumps(fresh).encode("ascii"), params
            doc = json.loads(body)
            hits = {"équations": 1, "数据": 1, "no such text": 0}
            for needle, count in hits.items():
                assert app.handle_query(
                    {"contains": needle})[1]["total"] == count
        finally:
            server.shutdown()
            server.server_close()
            app.shutdown()
        assert doc["count"] == 0

    def test_one_write_per_response(self, tmp_path, monkeypatch):
        # Headers and body leave in one write, with Nagle off: a body
        # written on its own waits for the client's delayed ACK.
        from repro.serve.server import _Handler

        writes = []

        class CountingWriter:
            def __init__(self, inner):
                self._inner = inner

            def write(self, data):
                writes.append(bytes(data))
                return self._inner.write(data)

            def __getattr__(self, name):
                return getattr(self._inner, name)

        setup = _Handler.setup

        def counting_setup(handler):
            setup(handler)
            handler.wfile = CountingWriter(handler.wfile)

        monkeypatch.setattr(_Handler, "setup", counting_setup)
        assert _Handler.disable_nagle_algorithm
        app = _build_app(str(tmp_path))
        server, _thread = serve_in_thread(app)
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            for path, content_type in (
                    ("/healthz", "application/json"),
                    ("/metrics?format=prometheus", "text/plain")):
                del writes[:]
                with urllib.request.urlopen(base + path) as resp:
                    body = resp.read()
                    assert resp.headers["Content-Type"].startswith(
                        content_type)
                assert len(writes) == 1, (path, writes)
                assert writes[0].startswith(b"HTTP/1.1 200")
                assert writes[0].endswith(b"\r\n\r\n" + body)
        finally:
            server.shutdown()
            server.server_close()
            app.shutdown()

    def test_http09_request_gets_bare_body(self, tmp_path):
        # A versionless request line is HTTP/0.9: no status line, no
        # headers, just the body, then the server closes the socket.
        # (The stdlib still reads a header block, so end it.)
        import socket

        app = _build_app(str(tmp_path))
        server, _thread = serve_in_thread(app)
        host, port = server.server_address[:2]
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b"GET /healthz\r\n\r\n")
                data = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    data += chunk
            assert not data.startswith(b"HTTP/")
            assert "status" in json.loads(data)
        finally:
            server.shutdown()
            server.server_close()
            app.shutdown()

    def test_error_routes(self, tmp_path):
        app = _build_app(str(tmp_path))
        assert app.handle_query({"view": "nope"})[0] == 404
        assert app.handle_query({"view": "talk",
                                 "offset": "abc"})[0] == 400
        assert app.handle_ingest(b"not json")[0] == 400
        assert app.handle_ingest(b'{"index": 0}')[0] == 400

    def test_backpressure_returns_429(self, snapshots, tmp_path):
        # Loop never started: the queue fills and /ingest fails fast.
        app = _build_app(str(tmp_path), queue_size=1)
        body = json.dumps(_snapshot_doc(snapshots[0])).encode()
        assert app.handle_ingest(body)[0] == 202
        status, payload = app.handle_ingest(body)
        assert status == 429
        assert payload["queue"]["rejected"] == 1


# ---------------------------------------------------------------------------
# Spool watcher


class TestSpoolWatcher:
    def test_picks_up_files_in_index_order(self, snapshots, tmp_path):
        spool = str(tmp_path / "spool")
        ingest_queue = IngestQueue(maxsize=8)
        watcher = SpoolWatcher(spool, ingest_queue)
        # Drop out of order; the sweep pushes in index order anyway.
        write_snapshot(snapshots[1],
                       os.path.join(spool, "snapshot_0001.dat"))
        write_snapshot(snapshots[0],
                       os.path.join(spool, "snapshot_0000.dat"))
        assert watcher.scan_once() == 2
        first = ingest_queue.pop(timeout=1)
        second = ingest_queue.pop(timeout=1)
        assert first.snapshot.index == snapshots[0].index
        assert second.snapshot.index == snapshots[1].index
        done = os.listdir(os.path.join(spool, "done"))
        assert sorted(done) == ["snapshot_0000.dat",
                                "snapshot_0001.dat"]
        # A second sweep finds nothing new.
        assert watcher.scan_once() == 0
        assert watcher.files_ingested == 2
        assert watcher.last_index == 1

    def test_ignores_garbage_files(self, snapshots, tmp_path):
        spool = str(tmp_path / "spool")
        ingest_queue = IngestQueue(maxsize=8)
        watcher = SpoolWatcher(spool, ingest_queue)
        with open(os.path.join(spool, "snapshot_0000.dat"), "w") as f:
            f.write("torn write")
        with open(os.path.join(spool, "notes.txt"), "w") as f:
            f.write("not a snapshot")
        assert watcher.scan_once() == 0
        assert ingest_queue.depth == 0


    def test_wakes_on_the_drop_not_the_poll(self, snapshots, tmp_path):
        spool = str(tmp_path / "spool")
        os.makedirs(spool)
        probe = ingest_mod._open_inotify(spool)
        if probe is None:
            pytest.skip("no inotify on this platform")
        os.close(probe)
        ingest_queue = IngestQueue(maxsize=8)
        watcher = SpoolWatcher(spool, ingest_queue, poll_seconds=5)
        watcher.start()
        try:
            time.sleep(0.05)        # the first sweep has found nothing
            for snapshot in snapshots[:2]:
                drop_snapshot(spool, snapshot)
                dropped = time.monotonic()
                item = ingest_queue.pop(timeout=2)
                assert item is not None
                assert item.snapshot.index == snapshot.index
                assert item.enqueued_mono - dropped < 0.2
        finally:
            assert watcher.stop()

    def test_polls_where_inotify_is_unavailable(self, snapshots, tmp_path,
                                                monkeypatch):
        monkeypatch.setattr(ingest_mod, "_open_inotify", lambda path: None)
        spool = str(tmp_path / "spool")
        ingest_queue = IngestQueue(maxsize=8)
        watcher = SpoolWatcher(spool, ingest_queue, poll_seconds=0.05)
        watcher.start()
        try:
            assert watcher._wake is None
            drop_snapshot(spool, snapshots[0])
            item = ingest_queue.pop(timeout=5)
            assert item is not None
            assert item.snapshot.index == snapshots[0].index
        finally:
            assert watcher.stop()
        assert watcher.files_ingested == 1

    def test_stop_is_prompt_and_releases_everything(self, tmp_path):
        """``stop()`` wakes the watcher through its self-pipe, not the
        30 s poll, and closes the pipe and the inotify fd; after
        ``ServeApp.shutdown()`` no thread or fd of the app is left."""

        def fds():
            return set(os.listdir("/proc/self/fd"))

        linux = os.path.isdir("/proc/self/fd")
        threads_before = set(threading.enumerate())
        fds_before = fds() if linux else set()
        registry = ViewRegistry(str(tmp_path / "views"))
        registry.register(_talk_config())
        ingest_queue = IngestQueue()
        watcher = SpoolWatcher(str(tmp_path / "spool"), ingest_queue,
                               poll_seconds=30)
        app = ServeApp(registry, ingest_queue,
                       IngestLoop(registry, ingest_queue), watcher=watcher)
        app.start()
        time.sleep(0.1)             # the watcher is in its wait
        held = watcher._wake
        start = time.monotonic()
        assert app.shutdown()
        assert time.monotonic() - start < 1.0
        assert watcher._wake is None and not watcher.running
        for fd in held or ():
            with pytest.raises(OSError):
                os.fstat(fd)
        assert set(threading.enumerate()) == threads_before
        if linux:
            assert fds() == fds_before


# ---------------------------------------------------------------------------
# CLI


class TestCLI:
    def test_serve_demo_smoke(self, tmp_path, capsys):
        from repro.cli import main

        status_path = str(tmp_path / "status.json")
        rc = main([
            "serve", "--demo", "--tasks", "talk", "--port", "0",
            "--work-scale", "0", "--demo-pages", "8",
            "--demo-snapshots", "2", "--check", "on",
            "--max-seconds", "0.2", "--status-json", status_path,
            "--workdir", str(tmp_path / "work"),
        ])
        assert rc == 0
        with open(status_path, encoding="utf-8") as f:
            status = json.load(f)
        assert status["healthz"]["status"] == "ok"
        talk = status["metrics"]["views"]["talk"]
        assert len(talk["applies"]) == 2
        assert talk["generation"]["tuples"] >= 0
        out = capsys.readouterr().out
        assert "serving 1 view(s)" in out

    def test_run_metrics_json(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "metrics.json")
        rc = main(["run", "--task", "talk",
                   "--systems", "noreuse,delex", "--work-scale", "0",
                   "--metrics-json", path])
        assert rc == 0
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["task"] == "talk"
        assert set(doc["systems"]) == {"noreuse", "delex"}
        for system in doc["systems"].values():
            assert system["total_seconds"] > 0
            assert len(system["snapshots"]) == doc["n_snapshots"]
            for snap in system["snapshots"]:
                assert "timings" in snap
                assert snap["timings"]["total"] >= 0
