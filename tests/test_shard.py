"""The sharded serving tier's concurrency/chaos test campaign.

Four fronts, matching the guarantees repro.shard claims:

* **partition stability** — a page's shard depends only on its did;
  a leave-and-return page lands on the same shard (resurrection pin);
* **scatter-gather parity** — for random page sets, shard counts, and
  delta series, the merged cross-shard answer is byte-identical to a
  single ``TupleStore`` (same relation indexes, same pagination
  order), including under mid-apply concurrent readers;
* **generation-vector consistency** — N shards + M reader threads
  during churn-heavy ingest: no response ever mixes per-snapshot
  generations across shards (every response equals the batch
  reference *for its own snapshot index*);
* **chaos** — killing/stalling one shard's loop degrades the router
  gracefully (healthz names the lagging shard, reads serve the last
  consistent vector, the front door backpressures) and the tier heals
  on restart; a quarantined sub-snapshot freezes the vector at the
  last consistent index and heals at the next clean apply.
"""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.runner import canonical_results, make_system
from repro.corpus import dblife_corpus
from repro.corpus.snapshot import Snapshot
from repro.serve import ViewConfig, ViewRegistry, lag_series
from repro.serve.server import ServeApp
from repro.serve.store import (EmptyViewError, TupleStore, _sort_key,
                               build_relation_index)
from repro.shard import Partitioner, ShardVector, ShardedDeployment, shard_of
from repro.text.document import Page

N_PAGES = 24


@pytest.fixture(scope="module")
def snapshots():
    """A churn-heavy series (half the pages change every snapshot)."""
    return list(dblife_corpus(n_pages=N_PAGES, seed=5,
                              p_unchanged=0.5).snapshots(5))


@pytest.fixture(scope="module")
def reference(snapshots):
    """Batch NoReuse canonical results, per snapshot index."""
    import tempfile

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
    kwargs = dict(name="talk", task="talk", work_scale=0.0,
                  system="noreuse")
    kwargs.update(overrides)
    return ViewConfig(**kwargs)


def _deployment(workdir, n_shards, **kwargs):
    kwargs.setdefault("check", True)
    return ShardedDeployment(str(workdir), [_talk_config()],
                             n_shards=n_shards, **kwargs)


def _ordered(reference_rel):
    """The single store's pagination order for a reference relation."""
    return tuple(sorted(reference_rel, key=_sort_key))


# ---------------------------------------------------------------------------
# Partition stability


class TestPartitioner:
    def test_assignment_depends_only_on_did(self):
        p = Partitioner(4)
        for did in ("a", "page-7", "http://x/y", "ü"):
            assert p.shard_of(did) == shard_of(did, 4)
            assert p.shard_of(did) == Partitioner(4).shard_of(did)

    def test_pinned_assignments(self):
        # Frozen expected values: the partition function is part of
        # the tier's on-disk/state compatibility surface — a hash or
        # modulus change would silently migrate every page's reuse
        # state, so any change here must be deliberate.
        assert shard_of("page-0", 4) == 2
        assert shard_of("page-1", 4) == 1
        assert shard_of("page-2", 2) == 0
        import hashlib
        want = int.from_bytes(
            hashlib.blake2b(b"page-0", digest_size=8).digest(),
            "big") % 4
        assert shard_of("page-0", 4) == want

    def test_split_preserves_order_and_covers(self, snapshots):
        p = Partitioner(3)
        subs = p.split(snapshots[0])
        assert len(subs) == 3
        seen = []
        for shard_id, sub in enumerate(subs):
            assert sub.index == snapshots[0].index
            for page in sub.pages:
                assert p.shard_of(page.did) == shard_id
            seen.extend(sub.pages)
        assert sorted(pg.did for pg in seen) == \
            sorted(pg.did for pg in snapshots[0].pages)
        # Within a shard, the parent snapshot's page order holds.
        order = {pg.did: i for i, pg in enumerate(snapshots[0].pages)}
        for sub in subs:
            positions = [order[pg.did] for pg in sub.pages]
            assert positions == sorted(positions)

    def test_every_shard_sees_every_index(self):
        # An empty subset is still a sub-snapshot: the barrier needs
        # every shard to report every snapshot index.
        snap = Snapshot(7, [Page.from_url("only", "one page")])
        subs = Partitioner(5).split(snap)
        assert [s.index for s in subs] == [7] * 5
        assert sum(len(s) for s in subs) == 1

    def test_resurrection_lands_on_same_shard(self):
        # Leave-and-return must not migrate shards: the returning
        # page's tombstone (and its retract-then-add) lives on the
        # shard that deleted it.
        p = Partitioner(4)
        page = Page.from_url("comeback", "text v1")
        home = p.shard_of(page.did)
        series = [
            Snapshot(0, [page, Page.from_url("other", "x")]),
            Snapshot(1, [Page.from_url("other", "x")]),
            Snapshot(2, [Page.from_url("comeback", "text v2"),
                         Page.from_url("other", "x")]),
        ]
        for snap in series:
            subs = p.split(snap)
            for shard_id, sub in enumerate(subs):
                if any(pg.did == "comeback" for pg in sub.pages):
                    assert shard_id == home


# ---------------------------------------------------------------------------
# Scatter-gather parity (property-based)


_VALUE = st.text(alphabet="abc", min_size=1, max_size=3)
_ROW = st.builds(lambda x, y: (("x", x), ("y", y)), _VALUE, _VALUE)
_STATE = st.dictionaries(
    keys=st.sampled_from([f"p{i}" for i in range(10)]),
    values=st.lists(_ROW, max_size=4),
    max_size=10)


class TestScatterGatherParity:
    @settings(max_examples=60, deadline=None)
    @given(n_shards=st.integers(1, 5),
           series=st.lists(_STATE, min_size=1, max_size=4))
    def test_merged_vector_matches_single_store(self, n_shards, series):
        """Random delta series (upserts + deletes), random shard
        counts: the vector's merged relation index is byte-identical
        to the single eager store — content *and* order."""
        p = Partitioner(n_shards)
        single = TupleStore("v", ("rel",))
        shards = [TupleStore("v", ("rel",), lazy_index=True)
                  for _ in range(n_shards)]
        prev_dids = set()
        for index, state in enumerate(series):
            upserts = {did: {"rel": rows}
                       for did, rows in state.items()}
            deletes = sorted(prev_dids - set(state))
            single.apply_delta(index, upserts, deletes=deletes)
            for shard_id, store in enumerate(shards):
                store.apply_delta(
                    index,
                    {did: rels for did, rels in upserts.items()
                     if p.shard_of(did) == shard_id},
                    deletes=[d for d in deletes
                             if p.shard_of(d) == shard_id])
            prev_dids = set(state)
        vector = ShardVector(
            "v", vector_id=1, snapshot_index=len(series) - 1,
            generations=[s.current() for s in shards],
            published_mono=0.0, lag_seconds=None)
        want = single.current().relations["rel"]
        got = vector.relation("rel")
        assert got == want
        # Same canonical order as a from-scratch global rebuild too.
        merged_pages = {}
        for store in shards:
            merged_pages.update(store.current().page_rows)
        assert got == build_relation_index(merged_pages, "rel")
        # Pagination slices agree at every offset.
        for offset in range(0, len(want) + 1, 3):
            assert got[offset:offset + 2] == want[offset:offset + 2]

    def test_parity_under_mid_apply_readers(self, snapshots, reference,
                                            tmp_path):
        """Readers racing the shard apply loops must always see a page
        (offset/limit slice) of exactly the single store's answer for
        the response's own snapshot index."""
        dep = _deployment(tmp_path, n_shards=3)
        relations = list(dep.workers[0].registry.get("talk").store.schema)
        ordered = {idx: {rel: _ordered(reference[idx][rel])
                         for rel in relations}
                   for idx in reference}
        stop = threading.Event()
        errors = []
        sampled = set()

        def reader(offset, limit):
            while not stop.is_set():
                for rel in relations:
                    try:
                        full = dep.router.query("talk", rel, limit=10000)
                        page = dep.router.query("talk", rel,
                                                offset=offset,
                                                limit=limit)
                    except EmptyViewError:
                        continue
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        stop.set()
                        return
                    want = ordered[full.snapshot_index][rel]
                    if tuple(full.tuples) != want:
                        errors.append(
                            f"snapshot {full.snapshot_index} {rel}: "
                            "full read is not the single-store answer")
                        stop.set()
                        return
                    want_slice = ordered[page.snapshot_index][rel][
                        offset:offset + limit]
                    if tuple(page.tuples) != want_slice:
                        errors.append(
                            f"snapshot {page.snapshot_index} {rel}: "
                            f"slice @{offset}+{limit} diverges")
                        stop.set()
                        return
                    sampled.add(full.snapshot_index)

        threads = [threading.Thread(target=reader, args=(off, 3))
                   for off in (0, 2)]
        dep.start()
        for t in threads:
            t.start()
        try:
            for snapshot in snapshots:
                assert dep.push(snapshot, block=True, timeout=10.0)
                time.sleep(0.03)
            assert dep.drain(timeout=60.0)
            time.sleep(0.05)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5)
            dep.stop()
        assert not errors, errors[0]
        assert sampled, "readers never observed a vector"


# ---------------------------------------------------------------------------
# Generation-vector consistency under churn (the acceptance stress)


class TestVectorConsistencyStress:
    def test_no_response_mixes_snapshots_across_shards(
            self, snapshots, reference, tmp_path):
        """≥4 readers, ≥2 shards, full churn series, check=on: every
        response must equal the batch reference for its own snapshot
        index — a response mixing shard A at snapshot k with shard B
        at k-1 cannot satisfy that for any index."""
        n_readers, n_shards = 4, 2
        dep = _deployment(tmp_path, n_shards=n_shards, check=True)
        relations = list(dep.workers[0].registry.get("talk").store.schema)
        stop = threading.Event()
        errors = []
        indexes_seen = set()

        def reader():
            while not stop.is_set():
                for rel in relations:
                    try:
                        result = dep.router.query("talk", rel,
                                                  limit=100000)
                    except EmptyViewError:
                        continue
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        stop.set()
                        return
                    expected = reference[result.snapshot_index][rel]
                    if (frozenset(result.tuples) != expected
                            or result.total != len(result.tuples)):
                        errors.append(
                            f"vector {result.generation} (snapshot "
                            f"{result.snapshot_index}) relation "
                            f"{rel}: response does not match the "
                            "batch reference for its own snapshot — "
                            "a torn cross-shard read")
                        stop.set()
                        return
                    indexes_seen.add(result.snapshot_index)

        threads = [threading.Thread(target=reader)
                   for _ in range(n_readers)]
        dep.start()
        for t in threads:
            t.start()
        try:
            for snapshot in snapshots:
                assert dep.push(snapshot, block=True, timeout=10.0)
                time.sleep(0.03)    # let readers sample this vector
            assert dep.drain(timeout=60.0)
            time.sleep(0.05)
            healthy_at_end = dep.healthz()["ok"]
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=5)
            dep.stop()
        assert not errors, errors[0]
        assert indexes_seen, "readers never observed a vector"
        # Every published vector's shards agreed on the barrier index
        # and the tier ended healthy (checked while loops were alive).
        publishes = dep.router.publishes("talk")
        assert [p["snapshot_index"] for p in publishes] == \
            sorted({p["snapshot_index"] for p in publishes})
        assert healthy_at_end

    def test_resurrection_through_the_tier(self, tmp_path):
        """A page that leaves and returns is a retract-then-add on its
        home shard; the final vector equals the single-store answer."""
        pages = [Page.from_url(f"p{i}", f"Prof. Ada Lovelace gave a "
                                        f"talk number {i}.")
                 for i in range(6)]
        gone = pages[2]
        series = [
            Snapshot(0, list(pages)),
            Snapshot(1, [p for p in pages if p.did != gone.did]),
            Snapshot(2, list(pages)),   # same text returns
        ]
        dep = _deployment(tmp_path / "shards", n_shards=3)
        dep.start()
        try:
            for snap in series:
                assert dep.push(snap, block=True, timeout=10.0)
            assert dep.drain(timeout=60.0)
        finally:
            dep.stop()
        single = ViewRegistry(str(tmp_path / "single")).register(
            _talk_config())
        for snap in series:
            single.apply_snapshot(snap)
        vector = dep.router.vector("talk")
        assert vector.snapshot_index == 2
        for rel in single.store.schema:
            assert vector.relation(rel) == \
                single.store.current().relations[rel]
        # The home shard recorded the delete and the return.
        home = dep.partitioner.shard_of(gone.did)
        view = dep.workers[home].registry.get("talk")
        deletes = [r.pages_deleted for r in view.history]
        assert sum(deletes) >= 1
        assert gone.did in view.generation.page_rows


# ---------------------------------------------------------------------------
# Chaos: dead shard, quarantined sub-snapshot, heal


class TestChaos:
    def test_dead_shard_degrades_then_heals(self, snapshots, reference,
                                            tmp_path):
        dep = _deployment(tmp_path, n_shards=2, capacity=2)
        relations = list(dep.workers[0].registry.get("talk").store.schema)
        dep.start()
        try:
            for snapshot in snapshots[:2]:
                assert dep.push(snapshot, block=True, timeout=10.0)
            assert dep.drain(timeout=60.0)
            vector = dep.router.vector("talk")
            assert vector.snapshot_index == snapshots[1].index

            # Kill shard 1's apply loop mid-series.
            assert dep.workers[1].loop.stop()
            assert dep.push(snapshots[2], block=True, timeout=10.0)
            time.sleep(0.3)     # shard 0 applies; shard 1 never will

            # Degraded, lagging shard named, but reads still serve the
            # last consistent vector — never a torn mix.
            hz = dep.healthz()
            assert not hz["ok"]
            assert 1 in hz["views"]["talk"]["lagging_shards"]
            stuck = dep.router.query("talk", relations[0], limit=100000)
            assert stuck.snapshot_index == snapshots[1].index
            assert frozenset(stuck.tuples) == \
                reference[snapshots[1].index][relations[0]]

            # The dead shard holds admission tokens: the front door
            # backpressures instead of queueing without bound.
            admitted = 0
            while dep.push(snapshots[3], block=False):
                admitted += 1
                if admitted > 10:
                    pytest.fail("front door never backpressured")
            assert dep.depth >= 1

            # Restart the shard: it drains, reports, heals.
            dep.workers[1].loop.start()
            assert dep.drain(timeout=60.0)
            healed = dep.router.vector("talk")
            assert healed.snapshot_index >= snapshots[2].index
            assert dep.healthz()["ok"]
            final = dep.router.query("talk", relations[0], limit=100000)
            assert frozenset(final.tuples) == \
                reference[final.snapshot_index][relations[0]]
        finally:
            dep.stop()

    def test_quarantined_subsnapshot_freezes_vector_then_heals(
            self, snapshots, reference, tmp_path):
        """One shard quarantines snapshot k (apply fault, reusing the
        serve quarantine machinery): the barrier never fires for k,
        the view serves the k-1 vector, and the first index every
        shard applies cleanly heals it automatically."""
        dep = _deployment(tmp_path, n_shards=2, check=False)
        relations = list(dep.workers[0].registry.get("talk").store.schema)
        poisoned_index = snapshots[1].index
        view1 = dep.workers[1].registry.get("talk")

        def fault(snapshot):
            if snapshot.index == poisoned_index:
                raise RuntimeError("injected shard-1 apply fault")

        view1._apply_hook = fault
        dep.start()
        try:
            for snapshot in snapshots[:3]:
                assert dep.push(snapshot, block=True, timeout=10.0)
            assert dep.drain(timeout=60.0)

            # Snapshot 1 never published (shard 1 quarantined it);
            # snapshot 2 applied everywhere and healed the vector.
            published = [p["snapshot_index"]
                         for p in dep.router.publishes("talk")]
            assert poisoned_index not in published
            assert snapshots[2].index in published
            hz = dep.healthz()
            assert not hz["ok"]     # quarantine stays visible
            assert hz["views"]["talk"]["quarantined"] == 1
            result = dep.router.query("talk", relations[0],
                                      limit=100000)
            assert result.snapshot_index == snapshots[2].index
            assert frozenset(result.tuples) == \
                reference[snapshots[2].index][relations[0]]
        finally:
            dep.stop()

    def test_empty_tier_returns_503_shape(self, tmp_path):
        dep = _deployment(tmp_path, n_shards=2)
        app = ServeApp(dep.workers[0].registry, dep, dep, sharded=dep)
        status, payload = app.handle_query({"view": "talk"})
        assert status == 503
        assert "no generation" in payload["error"]


# ---------------------------------------------------------------------------
# Lag reporting (the BENCH_serve bootstrap fix)


class TestLagSeries:
    def test_bootstrap_none_reports_zero(self):
        records = [
            {"snapshot_index": 0, "lag_seconds": None},
            {"snapshot_index": 1, "lag_seconds": 0.7},
            {"snapshot_index": 2, "lag_seconds": 1.4},
        ]
        assert lag_series(records) == [0.0, 0.7, 1.4]

    def test_non_bootstrap_none_is_skipped_not_invented(self):
        records = [
            {"snapshot_index": 0, "lag_seconds": 0.1},
            {"snapshot_index": 1, "lag_seconds": None},
            {"snapshot_index": 2, "lag_seconds": 0.3},
        ]
        assert lag_series(records) == [0.1, 0.3]

    def test_verdict_math_never_sees_none(self):
        # The regression BENCH_serve.json hit: max()/sum() over a lag
        # series that starts with a bootstrap None.
        records = [{"lag_seconds": None}, {"lag_seconds": 2.0}]
        lags = lag_series(records)
        assert max(lags) == 2.0
        assert all(isinstance(v, float) for v in lags)

    def test_empty_series(self):
        assert lag_series([]) == []
