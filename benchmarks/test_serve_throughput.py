"""Serving-layer throughput (extension).

The serving layer's promise is that queries stay fast and *consistent
while snapshots are being applied*: readers take one generation
reference and never block on the writer. Two campaigns:

* **single loop** — hammer one materialized view with concurrent
  reader threads while the ingest loop applies a snapshot stream;
  record qps, per-snapshot apply time and ingest lag, and audit every
  observed response against the batch NoReuse reference.
* **shard scaling** — the same churn series through the sharded tier
  at shards ∈ {1, 2, 4} (1 = the classic single-loop path), same
  reader load; record per-arm qps, max/mean ingest lag (enqueue →
  consistent-vector publish) and max/mean read lag (push of snapshot
  k → the first audited response at an index ≥ k, the freshness a
  reader sees), audit every observed response byte-identically
  (content *and* pagination order) against the batch reference, and
  assert the structural claim: max ingest lag at 4 shards strictly
  below the 1-shard baseline. The win is
  architectural, not parallelism (one CPU, one GIL): shard stores run
  lazy, so the relation-index dedupe+sort leaves the apply path and
  amortizes on the read side, per vector. A saturation run pins the
  front door's behavior past capacity: admission rejects (429-shaped
  backpressure), lag stays bounded, consistency holds.

Emits machine-readable ``BENCH_serve.json`` at the repo root (the
``serve-smoke`` CI job uploads it). Scale knobs:

* ``REPRO_BENCH_SERVE_PAGES``     (default 16)
* ``REPRO_BENCH_SERVE_SNAPSHOTS`` (default 4)
* ``REPRO_BENCH_SERVE_WORK``      (default 1.0)
* ``REPRO_BENCH_SERVE_READERS``   (default 4)
* ``REPRO_BENCH_SHARD_PAGES``     (default 512)
* ``REPRO_BENCH_SHARD_SNAPSHOTS`` (default 6)
* ``REPRO_BENCH_SHARD_UNCHANGED`` (default 0.9)
* ``REPRO_BENCH_SHARD_READERS``   (default 4)
"""

import json
import os
import tempfile
import threading
import time

from conftest import save_table

from repro.core.runner import canonical_results, make_system
from repro.corpus import dblife_corpus
from repro.extractors import make_task
from repro.serve import (
    IngestLoop,
    IngestQueue,
    ViewConfig,
    ViewRegistry,
    lag_series,
)
from repro.serve.store import _sort_key
from repro.shard import ShardedDeployment

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_serve.json")

TASK = "talk"            # DBLife task
PAGES = int(os.environ.get("REPRO_BENCH_SERVE_PAGES", "16"))
N_SNAPSHOTS = int(os.environ.get("REPRO_BENCH_SERVE_SNAPSHOTS", "4"))
WORK_SCALE = float(os.environ.get("REPRO_BENCH_SERVE_WORK", "1.0"))
READERS = int(os.environ.get("REPRO_BENCH_SERVE_READERS", "4"))
SEED = 201

# Shard-scaling arm: the paper's low-churn serving regime — enough
# pages that index maintenance (not extraction) dominates the apply,
# which is exactly the work the sharded tier moves off the writer.
SHARD_PAGES = int(os.environ.get("REPRO_BENCH_SHARD_PAGES", "512"))
SHARD_SNAPSHOTS = int(
    os.environ.get("REPRO_BENCH_SHARD_SNAPSHOTS", "6"))
SHARD_UNCHANGED = float(
    os.environ.get("REPRO_BENCH_SHARD_UNCHANGED", "0.9"))
SHARD_READERS = int(os.environ.get("REPRO_BENCH_SHARD_READERS", "4"))
SHARD_COUNTS = (1, 2, 4)
SHARD_SEED = 202


def _load_bench() -> dict:
    if os.path.exists(BENCH_JSON):
        with open(BENCH_JSON, "r", encoding="utf-8") as f:
            return json.load(f)
    return {}


def _save_bench(update: dict) -> None:
    data = _load_bench()
    data.update(update)
    with open(BENCH_JSON, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")


def test_query_throughput_during_ingest():
    snapshots = list(dblife_corpus(n_pages=PAGES, seed=SEED,
                                   p_unchanged=0.6)
                     .snapshots(N_SNAPSHOTS))

    with tempfile.TemporaryDirectory() as workdir:
        registry = ViewRegistry(os.path.join(workdir, "views"))
        view = registry.register(ViewConfig(
            name=TASK, task=TASK, work_scale=WORK_SCALE))
        ingest_queue = IngestQueue(maxsize=max(4, N_SNAPSHOTS))
        loop = IngestLoop(registry, ingest_queue)
        relations = list(view.store.schema)

        # Bootstrap generation 1 inline so readers have data from t=0.
        assert loop.apply_one(snapshots[0])

        stop = threading.Event()
        counts = [0] * READERS
        observed = [set() for _ in range(READERS)]   # (index, rel, rows)
        errors = []

        def reader(slot: int) -> None:
            i = 0
            while not stop.is_set():
                rel = relations[i % len(relations)]
                i += 1
                try:
                    result = view.query(rel, limit=1_000_000)
                except Exception as exc:  # noqa: BLE001
                    errors.append(repr(exc))
                    stop.set()
                    return
                if result.total != len(result.tuples):
                    errors.append("truncated full read")
                    stop.set()
                    return
                observed[slot].add((result.snapshot_index, rel,
                                    frozenset(result.tuples)))
                counts[slot] += 1

        threads = [threading.Thread(target=reader, args=(slot,))
                   for slot in range(READERS)]
        for t in threads:
            t.start()

        loop.start()
        ingest_started = time.perf_counter()
        queries_before = sum(counts)
        for snapshot in snapshots[1:]:
            assert ingest_queue.push(snapshot, block=True, timeout=10)
        assert loop.drain(timeout=600)
        ingest_window = time.perf_counter() - ingest_started
        queries_during = sum(counts) - queries_before
        stop.set()
        for t in threads:
            t.join(timeout=10)
        loop.stop()

        assert not errors, errors[0]
        assert loop.snapshots_applied == N_SNAPSHOTS
        assert loop.snapshots_quarantined == 0

        # Consistency audit: every response any reader observed equals
        # the batch NoReuse reference for its own snapshot index.
        task = make_task(TASK, work_scale=WORK_SCALE)
        reference = {}
        with tempfile.TemporaryDirectory() as refdir:
            system = make_system("noreuse", task, refdir)
            for snapshot in snapshots:
                reference[snapshot.index] = canonical_results(
                    system.process(snapshot))
        audited = 0
        for slot_observed in observed:
            for index, rel, rows in slot_observed:
                assert rows == reference[index][rel], (
                    f"snapshot {index} relation {rel}: served response "
                    "diverged from the batch reference")
                audited += 1
        assert view.generation.canonical() == \
            reference[snapshots[-1].index]

        per_snapshot = [
            {
                "snapshot_index": record.snapshot_index,
                "apply_seconds": record.seconds,
                "engine_seconds": record.engine_seconds,
                "lag_seconds": record.lag_seconds,
                "pages_changed": record.pages_changed,
                "pages_unchanged": record.pages_unchanged,
                "tuples_total": record.tuples_total,
            }
            for record in view.history
        ]
        # The bootstrap snapshot is applied inline (no enqueue) — its
        # lag is *zero*, not undefined; report it that way so the lag
        # series starts at 0.0 and no verdict logic ever meets a None.
        if per_snapshot and per_snapshot[0]["lag_seconds"] is None:
            per_snapshot[0]["lag_seconds"] = 0.0

    qps = queries_during / ingest_window if ingest_window else 0.0
    lags = lag_series(per_snapshot)
    assert queries_during > 0, "readers starved during ingest"
    assert qps > 0
    assert lags and all(lag >= 0 for lag in lags), \
        "ingest lag not recorded"
    assert None not in lags

    _save_bench({
        "task": TASK,
        "pages": PAGES,
        "snapshots": N_SNAPSHOTS,
        "work_scale": WORK_SCALE,
        "readers": READERS,
        "ingest_window_seconds": ingest_window,
        "queries_during_ingest": queries_during,
        "qps_during_ingest": qps,
        "responses_audited": audited,
        "max_lag_seconds": max(lags),
        "mean_lag_seconds": sum(lags) / len(lags),
        "per_snapshot": per_snapshot,
        "verdict": "ok",
    })

    lines = [
        f"Serve throughput — task={TASK} pages={PAGES} "
        f"snapshots={N_SNAPSHOTS} readers={READERS} "
        f"work_scale={WORK_SCALE}",
        f"  qps during ingest : {qps:>10.1f}  "
        f"({queries_during} queries / {ingest_window:.3f}s)",
        f"  responses audited : {audited:>10d}  (all matched batch "
        "NoReuse for their generation)",
        "  snapshot   apply(s)     lag(s)   changed  unchanged   tuples",
    ]
    for r in per_snapshot:
        lines.append(
            f"  {r['snapshot_index']:>8}  {r['apply_seconds']:>9.3f} "
            f"{r['lag_seconds']:>10.3f}  {r['pages_changed']:>8}  "
            f"{r['pages_unchanged']:>9}  {r['tuples_total']:>7}")
    save_table("serve_throughput.txt", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Shard-count scaling


def _shard_config():
    return ViewConfig(name=TASK, task=TASK, system="noreuse",
                      work_scale=0.0)


def _ordered_reference(snapshots):
    """Per snapshot index, per relation: the canonical sorted tuple
    order every serving path must paginate in."""
    task = make_task(TASK, work_scale=0)
    ordered = {}
    with tempfile.TemporaryDirectory() as refdir:
        system = make_system("noreuse", task, refdir)
        for snapshot in snapshots:
            results = canonical_results(system.process(snapshot))
            ordered[snapshot.index] = {
                rel: tuple(sorted(rows, key=_sort_key))
                for rel, rows in results.items()}
    return ordered


def _run_readers(relations, query, ordered, n_readers, run):
    """Start reader threads auditing slices against the reference.

    ``query(rel, offset, limit)`` is the serving path under test;
    every observed page must be byte-identical — content and order —
    to the reference slice for the response's own snapshot index.
    Returns (stop_event, threads, counts, errors, audited, seen);
    ``seen`` maps each snapshot index to the ``perf_counter`` time of
    its first audited response.
    """
    stop = threading.Event()
    counts = [0] * n_readers
    errors = []
    audited = [0] * n_readers
    seen = {}

    def reader(slot: int) -> None:
        i = 0
        while not stop.is_set():
            rel = relations[i % len(relations)]
            offset = (i * 7) % 50
            i += 1
            try:
                result = query(rel, offset, 25)
            except LookupError:
                continue        # no generation/vector yet
            except Exception as exc:  # noqa: BLE001
                errors.append(repr(exc))
                stop.set()
                return
            want = ordered[result.snapshot_index][rel]
            if (tuple(result.tuples) != want[offset:offset + 25]
                    or result.total != len(want)):
                errors.append(
                    f"snapshot {result.snapshot_index} {rel} "
                    f"@{offset}: response is not byte-identical to "
                    "the batch reference slice")
                stop.set()
                return
            if result.snapshot_index not in seen:
                seen.setdefault(result.snapshot_index,
                                time.perf_counter())
            audited[slot] += 1
            counts[slot] += 1

    threads = [threading.Thread(target=reader, args=(slot,),
                                name=f"bench-reader-{run}-{slot}")
               for slot in range(n_readers)]
    for t in threads:
        t.start()
    return stop, threads, counts, errors, audited, seen


def _finish_readers(stop, threads):
    stop.set()
    for t in threads:
        t.join(timeout=10)


def _await_index(seen, index, errors, timeout=30.0):
    """Keep the readers running until one audits a response at ``index``."""
    deadline = time.perf_counter() + timeout
    while (index not in seen and not errors
           and time.perf_counter() < deadline):
        time.sleep(0.001)


def _read_lag_fields(pushed, seen):
    """Per pushed snapshot k: push of k to the first audited response
    at an index >= k (a newer vector answers for k as well)."""
    lags = []
    for index, at in sorted(pushed.items()):
        firsts = [t for i, t in seen.items() if i >= index]
        assert firsts, f"no reader ever saw snapshot {index} or later"
        lags.append(max(0.0, min(firsts) - at))
    return {
        "max_read_lag_seconds": max(lags),
        "mean_read_lag_seconds": sum(lags) / len(lags),
        "read_lag_series": lags,
    }


def _arm_classic(snapshots, ordered, workdir):
    """shards=1 baseline: the classic eager-store single apply loop."""
    registry = ViewRegistry(os.path.join(workdir, "views"))
    view = registry.register(_shard_config())
    relations = list(view.store.schema)
    queue = IngestQueue(maxsize=max(4, len(snapshots)))
    loop = IngestLoop(registry, queue)
    assert loop.apply_one(snapshots[0])

    stop, threads, counts, errors, audited, seen = _run_readers(
        relations, lambda rel, off, lim: view.query(
            rel, offset=off, limit=lim),
        ordered, SHARD_READERS, "classic")
    loop.start()
    started = time.perf_counter()
    pushed = {}
    for snapshot in snapshots[1:]:
        pushed[snapshot.index] = time.perf_counter()
        assert queue.push(snapshot, block=True, timeout=30)
    assert loop.drain(timeout=600)
    window = time.perf_counter() - started
    queries = sum(counts)
    _await_index(seen, snapshots[-1].index, errors)
    _finish_readers(stop, threads)
    assert loop.stop()
    assert not errors, errors[0]
    assert loop.snapshots_quarantined == 0

    records = [{"snapshot_index": r.snapshot_index,
                "lag_seconds": r.lag_seconds,
                "apply_seconds": r.seconds}
               for r in view.history]
    lags = lag_series(records)
    return {
        "shards": 1,
        "window_seconds": window,
        "queries": queries,
        "qps": queries / window if window else 0.0,
        "responses_audited": sum(audited),
        "max_lag_seconds": max(lags),
        "mean_lag_seconds": sum(lags) / len(lags),
        "lag_series": lags,
        **_read_lag_fields(pushed, seen),
    }


def _arm_sharded(snapshots, ordered, workdir, n_shards):
    """Sharded tier: lazy shard stores + consistent vector reads."""
    dep = ShardedDeployment(
        workdir, [_shard_config()], n_shards=n_shards,
        capacity=max(4, len(snapshots)))
    relations = list(dep.workers[0].registry.get(TASK).store.schema)
    dep.apply_inline(snapshots[0])

    stop, threads, counts, errors, audited, seen = _run_readers(
        relations, lambda rel, off, lim: dep.router.query(
            TASK, rel, offset=off, limit=lim),
        ordered, SHARD_READERS, f"shards{n_shards}")
    dep.start()
    started = time.perf_counter()
    pushed = {}
    for snapshot in snapshots[1:]:
        pushed[snapshot.index] = time.perf_counter()
        assert dep.push(snapshot, block=True, timeout=30)
    assert dep.drain(timeout=600)
    window = time.perf_counter() - started
    queries = sum(counts)
    _await_index(seen, snapshots[-1].index, errors)
    _finish_readers(stop, threads)
    healthy = dep.healthz()["ok"]
    assert dep.stop()
    assert not errors, errors[0]
    assert healthy

    publishes = dep.router.publishes(TASK)
    assert len(publishes) == len(snapshots)
    lags = lag_series(publishes)
    return {
        "shards": n_shards,
        "window_seconds": window,
        "queries": queries,
        "qps": queries / window if window else 0.0,
        "responses_audited": sum(audited),
        "max_lag_seconds": max(lags),
        "mean_lag_seconds": sum(lags) / len(lags),
        "lag_series": lags,
        **_read_lag_fields(pushed, seen),
    }


def test_shard_count_scaling():
    """qps + max ingest lag vs shards ∈ {1, 2, 4}, same churn series.

    The acceptance claim: max lag at 4 shards strictly below the
    1-shard baseline — on one CPU, so the margin comes from the lazy
    index moving dedupe+sort off the apply path, not from threads.
    """
    snapshots = list(dblife_corpus(n_pages=SHARD_PAGES, seed=SHARD_SEED,
                                   p_unchanged=SHARD_UNCHANGED)
                     .snapshots(SHARD_SNAPSHOTS))
    ordered = _ordered_reference(snapshots)

    arms = []
    for n_shards in SHARD_COUNTS:
        with tempfile.TemporaryDirectory() as workdir:
            if n_shards == 1:
                arms.append(_arm_classic(snapshots, ordered, workdir))
            else:
                arms.append(_arm_sharded(snapshots, ordered, workdir,
                                         n_shards))

    by_shards = {arm["shards"]: arm for arm in arms}
    baseline = by_shards[1]["max_lag_seconds"]
    four = by_shards[4]["max_lag_seconds"]
    for arm in arms:
        assert arm["responses_audited"] > 0, \
            f"readers starved at shards={arm['shards']}"
        assert all(lag >= 0.0 for lag in arm["lag_series"])
    assert four < baseline, (
        f"max ingest lag at 4 shards ({four:.4f}s) must be strictly "
        f"below the 1-shard baseline ({baseline:.4f}s)")

    _save_bench({
        "shard_scaling": {
            "task": TASK,
            "pages": SHARD_PAGES,
            "snapshots": SHARD_SNAPSHOTS,
            "p_unchanged": SHARD_UNCHANGED,
            "readers": SHARD_READERS,
            "system": "noreuse",
            "work_scale": 0.0,
            "arms": arms,
            "max_lag_speedup_4_vs_1": (baseline / four
                                       if four > 0 else None),
            "verdict": "ok",
        },
    })

    lines = [
        f"Shard scaling — task={TASK} pages={SHARD_PAGES} "
        f"snapshots={SHARD_SNAPSHOTS} p_unchanged={SHARD_UNCHANGED} "
        f"readers={SHARD_READERS}",
        "  shards        qps   max lag(s)  mean lag(s)  max read lag(s)"
        "  mean read lag(s)    audited",
    ]
    for arm in arms:
        lines.append(
            f"  {arm['shards']:>6}  {arm['qps']:>9.1f}  "
            f"{arm['max_lag_seconds']:>11.4f}  "
            f"{arm['mean_lag_seconds']:>11.4f}  "
            f"{arm['max_read_lag_seconds']:>15.4f}  "
            f"{arm['mean_read_lag_seconds']:>16.4f}  "
            f"{arm['responses_audited']:>9}")
    lines.append(
        f"  max-lag speedup 4 vs 1: {baseline / four:.2f}x "
        "(strictly-below acceptance)")
    save_table("shard_scaling.txt", "\n".join(lines) + "\n")


def test_front_door_saturation():
    """Past-capacity arrival: admission rejects, lag stays bounded.

    Push far more snapshots than the admission pool holds without
    blocking. The front door must reject the overflow (the HTTP 429
    path), never queue it, and everything admitted must publish a
    consistent vector — saturation degrades *throughput*, not
    consistency, and queue depth (hence lag) is bounded by capacity.
    """
    capacity = 2
    snapshots = list(dblife_corpus(n_pages=64, seed=SHARD_SEED + 1,
                                   p_unchanged=0.5)
                     .snapshots(10))
    ordered = _ordered_reference(snapshots)
    with tempfile.TemporaryDirectory() as workdir:
        dep = ShardedDeployment(workdir, [_shard_config()],
                                n_shards=2, capacity=capacity)
        relations = list(dep.workers[0].registry.get(TASK).store.schema)
        dep.apply_inline(snapshots[0])
        dep.start()
        accepted, rejected = [snapshots[0].index], 0
        for snapshot in snapshots[1:]:
            if dep.push(snapshot, block=False):
                accepted.append(snapshot.index)
            else:
                rejected += 1
            assert dep.depth <= capacity
        assert dep.drain(timeout=600)
        vector = dep.router.vector(TASK)
        healthy = dep.healthz()["ok"]
        result = dep.router.query(TASK, relations[0], limit=100000)
        assert dep.stop()

    assert rejected > 0, \
        "saturation never hit backpressure — capacity not enforced"
    # The barrier published exactly the admitted snapshots, in order,
    # and the final state is byte-identical to the reference for the
    # last accepted snapshot.
    assert vector.snapshot_index == accepted[-1]
    assert healthy
    assert tuple(result.tuples) == \
        ordered[accepted[-1]][relations[0]][:100000]

    _save_bench({
        "saturation": {
            "capacity": capacity,
            "offered": len(snapshots),
            "accepted": len(accepted),
            "rejected": rejected,
            "final_snapshot_index": accepted[-1],
            "verdict": "ok",
        },
    })
