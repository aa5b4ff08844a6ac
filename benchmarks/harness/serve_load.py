"""The serving workload: the bench process is the load, the server a subprocess.

One writer thread drops snapshots into the spool on a fixed schedule (open
loop: freshness is timed from each drop's *due* time and the generator's
lateness is reported) and probes ``/query?limit=1`` back to back until the
snapshot is visible. One reader thread runs a closed loop of four 50-row page
queries to one ``contains`` scan on a single keep-alive ``http.client``
connection. The reader does not reconnect per request, pad or pipeline: a
slow response is the server's behaviour and is reported as such.

Audits (every freshness probe, every 20th reader response — rows and
pagination order against the oracle index for the response's
``snapshot_index``) run after the window, outside every timed region.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qs, quote, urlparse

from batch import direct_setup_layers
from common import (HARNESS_DIR, make_workdir, mean, median, percentile,
                    ratio, remove_workdir, summarize)
from oracle import Oracle, expected_response
from trace import chrome_events, self_times
from workloads import DROP_INTERVAL_S, Workload, corpus_digest, generate

#: Boots and ingest windows per end-to-end run.
WINDOWS = 3
FRESHNESS_TIMEOUT_S = 30.0
BOOT_TIMEOUT_S = 120.0
AUDIT_EVERY = 20
PAGE_LIMIT = 50
SCAN_LIMIT = 1000
#: Decade prefixes of the years in the fact lines: each keeps ~40 % of the
#: relation, so every scan filters the whole index and returns a large body.
SCAN_TOKENS = ("199", "200")
#: Reuse snapshots applied in-process for the direct per-layer numbers.
DIRECT_SNAPSHOTS = 5
PROBE_PATH = "/query?limit=1"


class Server:
    """Handle on one ``serve_proc.py`` subprocess."""

    def __init__(self, spec: Workload, run_dir: str, bootstrap: str,
                 traced: bool) -> None:
        self.spool = os.path.join(run_dir, "spool")
        self.workdir = os.path.join(run_dir, "server")
        self.spans_path = os.path.join(run_dir, "spans.json") if traced else None
        os.makedirs(self.workdir)
        command = [sys.executable, os.path.join(HARNESS_DIR, "serve_proc.py"),
                   "--workdir", self.workdir, "--spool", self.spool,
                   "--bootstrap", bootstrap, "--task", spec.task,
                   "--work-scale", str(spec.work_scale)]
        if self.spans_path:
            command += ["--spans-out", self.spans_path]
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise RuntimeError("server exited before listening "
                               f"(code {self.proc.returncode})")
        self.port = json.loads(line)["port"]
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while not self._healthy():
            if time.monotonic() > deadline:
                self.close()
                raise RuntimeError("server did not become healthy")
            time.sleep(0.01)

    def _healthy(self) -> bool:
        conn = self.connect()
        try:
            return _get(conn, "/healthz")[0] == 200
        except OSError:
            return False
        finally:
            conn.close()

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=FRESHNESS_TIMEOUT_S + 5)

    def close(self) -> Dict[str, object]:
        """SIGTERM, wait, and return what the server printed on the way out."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        doc: Dict[str, object] = {"returncode": self.proc.returncode}
        with self.proc.stdout:
            lines = self.proc.stdout.read().splitlines()
        for line in lines:
            doc.update(json.loads(line))
        if self.spans_path and os.path.exists(self.spans_path):
            with open(self.spans_path, encoding="utf-8") as f:
                doc["trace"] = json.load(f)
        return doc


def _get(conn: http.client.HTTPConnection, path: str
         ) -> Tuple[int, bytes, float]:
    """One request; the clock stops when the whole body has arrived."""
    conn.request("GET", path)
    response = conn.getresponse()
    body = response.read()
    return response.status, body, time.perf_counter()


@dataclass
class Setup:
    seconds: float
    generate_s: float
    snapshots: list
    server: Server
    run_dir: str

    def close(self) -> Dict[str, object]:
        try:
            return self.server.close()
        finally:
            remove_workdir(self.run_dir)


def set_up(spec: Workload, seed: int, traced: bool = False) -> Setup:
    """Corpus, snapshot 0 on disk, server boot until ``/healthz`` is 200."""
    from repro.corpus.snapshot import write_snapshot

    run_dir = make_workdir(spec.name)
    start = time.perf_counter()
    snapshots = generate(spec, seed)
    generate_s = time.perf_counter() - start
    bootstrap = os.path.join(run_dir, "snapshot_0000.dat")
    write_snapshot(snapshots[0], bootstrap)
    try:
        server = Server(spec, run_dir, bootstrap, traced)
    except BaseException:
        remove_workdir(run_dir)
        raise
    return Setup(time.perf_counter() - start, generate_s, snapshots, server,
                 run_dir)


@dataclass
class Tally:
    """One load thread's operation counts (each thread owns its own)."""

    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    #: (path, body) of the 200 responses kept for the audit
    audits: List[Tuple[str, bytes]] = field(default_factory=list)


@dataclass
class Load:
    """Everything the two load threads observed in one ingest window."""

    probes: Tally = field(default_factory=Tally)
    reads: Tally = field(default_factory=Tally)
    fresh_s: List[float] = field(default_factory=list)
    late_s: List[float] = field(default_factory=list)
    #: every probe response's duration: the resolution of ``fresh_s``
    probe_ms: List[float] = field(default_factory=list)
    #: (due, visible) per drop: the "readers during an apply" intervals
    busy: List[Tuple[float, float]] = field(default_factory=list)
    #: reader samples: (kind, start, end)
    samples: List[Tuple[str, float, float]] = field(default_factory=list)
    window_s: float = 0.0


def _writer(setup: Setup, load: Load, t0: float) -> None:
    from repro.serve import drop_snapshot

    tally = load.probes
    conn = setup.server.connect()
    for k, snapshot in enumerate(setup.snapshots[1:]):
        due = t0 + k * DROP_INTERVAL_S
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        load.late_s.append(max(0.0, time.perf_counter() - due))
        drop_snapshot(setup.server.spool, snapshot)
        while True:
            tally.attempted += 1
            sent = time.perf_counter()
            try:
                status, body, now = _get(conn, PROBE_PATH)
            except (OSError, http.client.HTTPException) as exc:
                tally.errors.append(f"probe {snapshot.index}: {exc!r}")
                conn.close()
                time.sleep(0.05)
                conn = setup.server.connect()
                now, status = time.perf_counter(), 0
            if status == 200:
                load.probe_ms.append((now - sent) * 1000.0)
                if json.loads(body)["snapshot_index"] >= snapshot.index:
                    load.fresh_s.append(now - due)
                    load.busy.append((due, now))
                    tally.audits.append((PROBE_PATH, body))
                    break
            elif status:
                tally.errors.append(f"probe {snapshot.index}: HTTP {status}")
            if now - due > FRESHNESS_TIMEOUT_S:
                tally.errors.append(f"snapshot {snapshot.index} not visible after "
                           f"{FRESHNESS_TIMEOUT_S} s")
                break
    conn.close()


def _reader(setup: Setup, queries: List[Tuple[str, str]], load: Load,
            stop: threading.Event) -> None:
    tally = load.reads
    conn = setup.server.connect()
    sent = 0
    while not stop.is_set():
        kind, path = queries[sent % len(queries)]
        tally.attempted += 1
        start = time.perf_counter()
        try:
            status, body, end = _get(conn, path)
        except (OSError, http.client.HTTPException) as exc:
            # Reconnect only after a failure, never per request.
            tally.errors.append(f"reader: {exc!r}")
            conn.close()
            time.sleep(0.05)
            conn = setup.server.connect()
            continue
        load.samples.append((kind, start, end))
        if status != 200:
            tally.errors.append(f"reader: HTTP {status} on {path}")
        elif sent % AUDIT_EVERY == 0:
            tally.audits.append((path, body))
        sent += 1
    conn.close()


def _query_list(seed: int, total: int) -> List[Tuple[str, str]]:
    """The seeded closed-loop mix: four page queries, then one scan."""
    rng = random.Random(seed)
    queries = []
    for i in range(1000):
        if i % 5 == 4:
            token = quote(rng.choice(SCAN_TOKENS))
            queries.append(("scan", f"/query?contains={token}"
                                    f"&limit={SCAN_LIMIT}"))
        else:
            offset = rng.randrange(max(1, total - PAGE_LIMIT))
            queries.append(("page", f"/query?offset={offset}"
                                    f"&limit={PAGE_LIMIT}"))
    return queries


def run_load(setup: Setup, seed: int) -> Tuple[Load, dict, dict]:
    """The ingest window. Returns the load and ``/metrics`` before and after."""
    conn = setup.server.connect()
    before = json.loads(_get(conn, "/metrics")[1])
    total = json.loads(_get(conn, "/query?limit=1")[1])["total"]
    load = Load()
    stop = threading.Event()
    t0 = time.perf_counter() + 0.05
    with ThreadPoolExecutor(max_workers=2) as pool:
        reader = pool.submit(_reader, setup, _query_list(seed, total), load,
                             stop)
        writer = pool.submit(_writer, setup, load, t0)
        try:
            writer.result()
        finally:
            load.window_s = time.perf_counter() - t0
            stop.set()
        reader.result()
    after = json.loads(_get(conn, "/metrics")[1])
    conn.close()
    return load, before, after


def audit(kept: List[Tuple[str, bytes]], snapshots: list, oracle: Oracle
          ) -> List[str]:
    """Kept responses whose rows or order differ from the oracle's."""
    by_index = {s.index: s for s in snapshots}
    mismatches = []
    for path, body in kept:
        doc = json.loads(body)
        params = {k: v[-1] for k, v in parse_qs(urlparse(path).query).items()}
        index = oracle.relation_index(by_index[doc["snapshot_index"]],
                                      doc["relation"])
        want = expected_response(index, int(params.get("offset", 0)),
                                 int(params["limit"]), params.get("contains"))
        if any(doc[key] != want[key] for key in want):
            mismatches.append(f"audit mismatch on {path} at snapshot "
                              f"{doc['snapshot_index']}")
    return mismatches


def _queue_depth_max(applies: List[dict]) -> int:
    """Deepest the ingest queue got, rebuilt from the apply records.

    A snapshot was enqueued at ``applied_at - lag`` and left the queue at
    ``applied_at - seconds``; the depth at one snapshot's enqueue instant
    counts it plus every earlier one not yet popped.
    """
    spans = [(a["applied_at"] - a["lag_seconds"],
              a["applied_at"] - a["seconds"])
             for a in applies if a.get("lag_seconds") is not None]
    return max((sum(1 for enq, pop in spans if enq <= at < pop) or 1
                for at, _ in spans), default=0)


@dataclass
class Window:
    """One booted server taken through the ingest window and shut down."""

    load: Load
    applies: List[dict]        # /metrics apply records of the dropped snapshots
    queries_served: int        # the server's own count over the window
    attempted: int
    errors: List[str]          # one per failed operation
    exit_doc: Dict[str, object]
    apply_wall_s: float        # the program's own sum of apply seconds

    def reader_ms(self, kind: str) -> List[float]:
        return [(end - start) * 1000.0
                for k, start, end in self.load.samples if k == kind]


def _user_view(windows: List[Window], pages: int
               ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """What a serving client sees, every sample of the given windows pooled:
    the metrics, and the sample count and quartiles beside each median."""
    fresh = [f for w in windows for f in w.load.fresh_s]
    page_ms = [ms for w in windows for ms in w.reader_ms("page")]
    scan_ms = [ms for w in windows for ms in w.reader_ms("scan")]
    lag_s = [a["lag_seconds"] for w in windows for a in w.applies]
    metrics = {
        "snapshot_s_p50": median(fresh),
        "pages_per_s": ratio(pages * len(windows), sum(fresh)),
        "serve.query_ms_p50": median(page_ms),
        "serve.query_ms_p95": percentile(page_ms, 0.95) if page_ms else 0.0,
        "serve.scan_ms_p50": median(scan_ms),
        "serve.ingest.lag_s_p50": median(lag_s),
    }
    samples = {
        "snapshot_s_p50": summarize(fresh),
        "serve.query_ms": summarize(page_ms),
        "serve.scan_ms": summarize(scan_ms),
        "serve.ingest.lag_s": summarize(lag_s),
        "late_s": summarize([x for w in windows for x in w.load.late_s]),
        "probe_step_ms": summarize(
            [ms for w in windows for ms in w.load.probe_ms]),
        "audited_responses": sum(len(w.load.probes.audits)
                                 + len(w.load.reads.audits) for w in windows),
        "window_s": [w.load.window_s for w in windows],
    }
    return metrics, samples


def _layer_metrics(window: Window) -> Dict[str, float]:
    """The per-layer numbers one window itself yields (no direct calls)."""
    load, applies = window.load, window.applies
    deltas = [a["delta"] for a in applies if a.get("delta")]
    busy_ms, quiet_ms = [], []
    for kind, start, end in load.samples:
        if kind != "page":
            continue
        inside = any(start < b_end and end > b_start
                     for b_start, b_end in load.busy)
        (busy_ms if inside else quiet_ms).append((end - start) * 1000.0)

    def decisions(name: str) -> float:
        return mean([d["decisions"].get(name, 0) for d in deltas])

    return {
        "serve.query_busy_ms_p50": median(busy_ms),
        "serve.query_quiet_ms_p50": median(quiet_ms),
        "serve.server.qps": ratio(window.queries_served, load.window_s),
        "serve.ingest.queue_depth_max": float(_queue_depth_max(applies)),
        "serve.ingest.late_s_max": max(load.late_s, default=0.0),
        "serve.views.apply_s_p50": median([a["seconds"] for a in applies]),
        "serve.views.engine_s_p50": median(
            [a["engine_seconds"] for a in applies]),
        "delta.fallback_ratio": mean([d["fallback_ratio"] for d in deltas]),
        "delta.decisions.delta": decisions("delta"),
        "delta.decisions.fallback": decisions("fallback"),
        "delta.decisions.unchanged": decisions("unchanged"),
        "delta.weight": mean([d["delta_weight"] for d in deltas]),
    }


def _one_window(setup: Setup, seed: int, oracle: Oracle) -> Window:
    try:
        load, before, after = run_load(setup, seed)
    finally:
        exit_doc = setup.close()
    errors = load.probes.errors + load.reads.errors
    errors += audit(load.probes.audits + load.reads.audits,
                    setup.snapshots, oracle)
    if exit_doc["returncode"] != 0:
        errors.append(f"server exit code {exit_doc['returncode']}")
    view = next(iter(after["views"].values()))
    return Window(
        load,
        [a for a in view["applies"] if a.get("lag_seconds") is not None],
        after["queries_served"] - before["queries_served"],
        load.probes.attempted + load.reads.attempted, errors, exit_doc,
        sum(a["seconds"] for a in view["applies"]))


def run_end_to_end(spec: Workload, seed: int) -> Dict[str, object]:
    """Untraced: ``WINDOWS`` x (boot + ingest window) on one corpus, audited.

    ``setup_s`` is the median boot; every other number pools the samples of
    all windows. Freshness has the resolution of the probe: the probe loop
    starts at the drop and each ``/query?limit=1`` takes ~44 ms on the
    reference box, so a drop's freshness is a whole number of probe responses
    and the median over all drops moves in steps of about that size.
    ``serve.ingest.lag_s_p50`` (the server's own enqueue-to-applied seconds
    for the same drops) has no step and is reported beside it.
    """
    oracle = Oracle(spec.task)
    windows: List[Window] = []
    setups: List[float] = []
    for _ in range(WINDOWS):
        setup = set_up(spec, seed)
        setups.append(setup.seconds)
        windows.append(_one_window(setup, seed, oracle))
    metrics, samples = _user_view(
        windows, sum(len(s) for s in setup.snapshots[1:]))
    errors = [e for w in windows for e in w.errors]
    return {
        "attempted": sum(w.attempted for w in windows),
        "failed": len(errors),
        "errors": errors[:10],
        "corpus_digest": corpus_digest(setup.snapshots),
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": max(w.exit_doc.get("peak_rss_kb", 0)
                               for w in windows) / 1024.0,
            **metrics,
        },
        "samples": {"windows": WINDOWS, "setup_s": summarize(setups),
                    **samples},
    }


def _direct_layers(spec: Workload, snapshots: list, workdir: str
                   ) -> Dict[str, float]:
    """Call the serving layers ourselves on the head of the same series.

    The delta path's pieces are timed one by one on a maintainer and store of
    our own (``diff_snapshot``, ``DeltaMaintainer.apply``, ``apply_delta``);
    the same snapshots also go through ``apply_snapshot`` in the two other
    maintenance modes, which is the evidence for or against keeping three
    apply paths. The diff is mode-independent, so the no-reuse view supplies it.
    """
    from repro.delta.maintain import DeltaMaintainer
    from repro.serve import (IngestLoop, IngestQueue, ServeApp, ViewConfig,
                             ViewRegistry)
    from repro.serve.store import TupleStore

    head = snapshots[:1 + DIRECT_SNAPSHOTS]
    registries = {}
    apply_s: Dict[str, List[float]] = {}
    for mode in ("delex", "noreuse"):
        registries[mode] = ViewRegistry(os.path.join(workdir, mode))
        registries[mode].register(ViewConfig(
            name=spec.task, task=spec.task, system=mode,
            work_scale=spec.work_scale))
        apply_s[mode] = []
    view = registries["noreuse"].get(spec.task)
    maintainer = DeltaMaintainer(view.plan)
    store = TupleStore("direct", view.store.schema)
    diff_ms, delta_s, store_ms = [], [], []
    for snapshot in head:
        steady = snapshot is not head[0]
        t0 = time.perf_counter()
        diff = view.diff_snapshot(snapshot)
        t1 = time.perf_counter()
        result = maintainer.apply(snapshot, diff)
        t2 = time.perf_counter()
        store.apply_delta(snapshot.index, result.upserts,
                          deletes=result.deletes, relations=result.relations)
        t3 = time.perf_counter()
        if steady:
            diff_ms.append((t1 - t0) * 1000.0)
            delta_s.append(t2 - t1)
            store_ms.append((t3 - t2) * 1000.0)
        for mode, registry in registries.items():
            start = time.perf_counter()
            registry.get(spec.task).apply_snapshot(snapshot)
            if steady:
                apply_s[mode].append(time.perf_counter() - start)

    queue = IngestQueue()
    app = ServeApp(registries["noreuse"], queue,
                   IngestLoop(registries["noreuse"], queue))
    params = {"offset": "100", "limit": str(PAGE_LIMIT)}
    handle_us, dumps_us = [], []
    for _ in range(200):
        t0 = time.perf_counter()
        _status, payload = app.handle_query(params)
        t1 = time.perf_counter()
        json.dumps(payload)
        t2 = time.perf_counter()
        handle_us.append((t1 - t0) * 1e6)
        dumps_us.append((t2 - t1) * 1e6)

    return {
        **direct_setup_layers(view.task, head[-1], workdir),
        "serve.views.diff_ms": median(diff_ms),
        "delta.apply_s_p50": median(delta_s),
        "serve.store.apply_delta_ms": median(store_ms),
        "serve.views.apply_s_p50.delex": median(apply_s["delex"]),
        "serve.views.apply_s_p50.noreuse": median(apply_s["noreuse"]),
        "serve.server.handle_query_us": median(handle_us),
        "serve.server.serialize_us": median(dumps_us),
    }


def run_layers(spec: Workload, seed: int,
               trace_events: Optional[list] = None) -> Dict[str, object]:
    """Untraced window, traced window, then the direct in-process calls."""
    oracle = Oracle(spec.task)
    setup = set_up(spec, seed)
    generate_s, snapshots = setup.generate_s, setup.snapshots
    plain = _one_window(setup, seed, oracle)
    traced = _one_window(set_up(spec, seed, traced=True), seed, oracle)
    metrics, samples = _user_view([plain], sum(len(s) for s in snapshots[1:]))
    metrics.update(_layer_metrics(plain))
    samples["snapshot_s_p50_untraced"] = metrics.pop("snapshot_s_p50")
    metrics["obs.trace_overhead_frac"] = ratio(
        median(traced.load.fresh_s), samples["snapshot_s_p50_untraced"]) - 1.0
    server_trace = traced.exit_doc.get("trace", {"pid": 0, "spans": []})
    spans = [tuple(span) for span in server_trace["spans"]]
    trace = self_times(spans)
    trace["root"] = "serve.views.apply_snapshot"
    trace["traced_wall_s"] = traced.apply_wall_s
    if trace_events is not None:
        trace_events.extend(chrome_events(spans, server_trace["pid"]))

    workdir = make_workdir(spec.name + "_direct")
    try:
        direct = _direct_layers(spec, snapshots, workdir)
    finally:
        remove_workdir(workdir)
    samples["direct_snapshots"] = DIRECT_SNAPSHOTS
    metrics.update(direct)
    metrics["corpus.generate_s"] = generate_s
    metrics["serve.server.socket_ms"] = (
        metrics["serve.query_ms_p50"]
        - (metrics["serve.server.handle_query_us"]
           + metrics["serve.server.serialize_us"]) / 1000.0)
    errors = plain.errors + traced.errors
    return {"attempted": plain.attempted + traced.attempted,
            "failed": len(errors), "errors": errors[:10],
            "corpus_digest": corpus_digest(snapshots), "metrics": metrics,
            "samples": samples, "trace": trace}
