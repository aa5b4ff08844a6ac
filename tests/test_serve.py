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
import tempfile
import threading
import time
import urllib.request

import pytest

from repro.core.runner import canonical_results, make_system
from repro.corpus import dblife_corpus
from repro.corpus.snapshot import write_snapshot
from repro.serve import (
    IngestLoop,
    IngestQueue,
    ServeApp,
    SpoolWatcher,
    TupleStore,
    ViewConfig,
    ViewRegistry,
    serve_in_thread,
)
from repro.serve.store import EmptyViewError, UnknownRelationError


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

        def reader():
            while not stop.is_set():
                for rel in relations:
                    try:
                        result = view.query(rel, limit=1000)
                    except EmptyViewError:
                        continue
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        stop.set()
                        return
                    expected = reference[result.snapshot_index][rel]
                    if frozenset(result.tuples) != expected or \
                            result.total != len(result.tuples):
                        errors.append(
                            f"generation {result.generation} "
                            f"(snapshot {result.snapshot_index}) "
                            f"relation {rel}: response does not match "
                            "the batch reference for its own snapshot")
                        stop.set()
                        return
                    generations_seen.add(result.generation)

        threads = [threading.Thread(target=reader) for _ in range(3)]
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
