"""Regression tests for the telemetry-path bugs this PR fixes.

Each test here fails on the pre-PR code:

* lag/apply durations came from ``time.time()`` — a wall-clock step
  backwards produced negative lags;
* ``Timings.others`` could go negative under parallel backends (and
  the clamped-away overlap was invisible);
* a snapshot file torn between page records parsed *successfully*
  with fewer pages (the spool race), and ``stop()`` silently
  swallowed a failed thread join;
* derived rates (pages/sec, utilization, memo hit-rate, qps) divided
  by zero on empty/instant runs.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.corpus import dblife_corpus
from repro.corpus.snapshot import (
    read_snapshot,
    snapshot_from_texts,
    write_snapshot,
)
from repro.serve import (
    IngestLoop,
    IngestQueue,
    SpoolWatcher,
    ViewConfig,
    ViewRegistry,
    drop_snapshot,
)
from repro.timing import EXTRACT, MATCH, Timings


@pytest.fixture()
def snapshots():
    return list(dblife_corpus(n_pages=6, seed=2,
                              p_unchanged=0.5).snapshots(3))


def _talk_registry(tmp_path):
    registry = ViewRegistry(str(tmp_path / "views"))
    registry.register(ViewConfig(name="talk", task="talk",
                                 work_scale=0.0))
    return registry


# ---------------------------------------------------------------------------
# Satellite 1: durations must come from the monotonic clock


class TestMonotonicClock:
    def test_lag_survives_wall_clock_jumping_backwards(
            self, tmp_path, snapshots, monkeypatch):
        """An NTP-style backwards step between enqueue and apply used
        to make ``lag_seconds`` negative (it was ``applied_at -
        enqueued_at``, both wall-clock)."""
        registry = _talk_registry(tmp_path)
        queue = IngestQueue()
        loop = IngestLoop(registry, queue)

        # Wall clock runs *backwards* one hour per call; the monotonic
        # clock is untouched.
        ticks = iter(range(0, 10_000))
        base = time.time()
        monkeypatch.setattr(
            time, "time", lambda: base - 3600.0 * next(ticks))

        for snapshot in snapshots:
            assert queue.push(snapshot)
            item = queue.pop()
            assert loop.apply_one(item.snapshot,
                                  enqueued_at=item.enqueued_at,
                                  enqueued_mono=item.enqueued_mono)

        view = registry.get("talk")
        assert len(view.history) == len(snapshots)
        for record in view.history:
            assert record.lag_seconds is not None
            assert record.lag_seconds >= 0.0
            assert record.applied_mono > 0.0
        for entry in loop.recent:
            assert entry["apply_seconds"] >= 0.0
            assert entry["lag_seconds"] is None or (
                entry["lag_seconds"] >= 0.0)

    def test_queue_item_carries_both_clocks(self, snapshots):
        queue = IngestQueue()
        queue.push(snapshots[0])
        item = queue.pop()
        assert item.enqueued_mono <= time.monotonic()
        assert item.enqueued_at  # wall timestamp kept for display

    def test_wall_only_caller_gets_no_lag_not_a_wrong_one(
            self, tmp_path, snapshots):
        registry = _talk_registry(tmp_path)
        loop = IngestLoop(registry, IngestQueue())
        loop.apply_one(snapshots[0], enqueued_at=time.time())
        record = registry.get("talk").history[-1]
        assert record.lag_seconds is None


# ---------------------------------------------------------------------------
# Satellite 2: Others clamp + explicit overlap counter


class TestOthersClamp:
    def test_overlapping_worker_timings_never_go_negative(self):
        """Fabricated parallel shape: two workers each report 0.8s of
        extraction inside a 1.0s wall total. The old ``others``
        arithmetic yielded -0.6."""
        t = Timings(total=1.0)
        t.add(EXTRACT, 0.8)
        t.add(EXTRACT, 0.8)
        assert t.others == 0.0
        assert t.overlap_seconds == pytest.approx(0.6)
        row = t.as_row()
        assert row["others"] == 0.0
        assert all(v >= 0.0 for v in row.values())

    def test_overlap_in_to_dict(self):
        t = Timings(total=1.0)
        t.add(MATCH, 0.9)
        t.add(EXTRACT, 0.9)
        doc = t.to_dict()
        assert doc["overlap_seconds"] == pytest.approx(0.8)
        assert doc["others"] == 0.0

    def test_serial_shape_unchanged(self):
        t = Timings(total=1.0)
        t.add(MATCH, 0.3)
        assert t.others == pytest.approx(0.7)
        assert t.overlap_seconds == 0.0

    def test_no_total_measured(self):
        t = Timings()
        t.add(MATCH, 0.5)
        assert t.others == 0.0
        assert t.overlap_seconds == 0.0  # meaningless without a wall


# ---------------------------------------------------------------------------
# Satellite 3a: the spool race — truncated files must not parse


class TestSpoolTruncation:
    def _snapshot(self, index=1):
        return snapshot_from_texts(index, {
            "u1": "alpha " * 50, "u2": "beta " * 50, "u3": "gamma " * 50})

    def test_truncated_between_records_raises(self, tmp_path):
        """The dangerous torn write: the file ends cleanly on a record
        boundary, so pre-PR it parsed fine — with one page missing."""
        path = str(tmp_path / "snapshot_0001.dat")
        write_snapshot(self._snapshot(), path)
        with open(path, "rb") as f:
            lines = f.read().split(b"\n")
        # Keep header + first two full page records (2 lines each).
        torn = b"\n".join(lines[:5]) + b"\n"
        with open(path, "wb") as f:
            f.write(torn)
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)

    def test_truncated_mid_body_raises(self, tmp_path):
        path = str(tmp_path / "snapshot_0001.dat")
        write_snapshot(self._snapshot(), path)
        size = os.path.getsize(path)
        with open(path, "rb+") as f:
            f.truncate(size - 40)  # chop into the last page body
        with pytest.raises(ValueError, match="truncated"):
            read_snapshot(path)

    def test_watcher_defers_torn_file_then_ingests_completed(
            self, tmp_path):
        spool = str(tmp_path / "spool")
        queue = IngestQueue()
        watcher = SpoolWatcher(spool, queue)
        snapshot = self._snapshot()
        path = os.path.join(spool, "snapshot_0001.dat")
        write_snapshot(snapshot, path)
        with open(path, "rb") as f:
            full = f.read()
        with open(path, "wb") as f:  # torn on a record boundary
            f.write(b"\n".join(full.split(b"\n")[:5]) + b"\n")
        assert watcher.scan_once() == 0
        assert watcher.files_deferred == 1
        assert os.path.exists(path)  # left in place for the retry
        with open(path, "wb") as f:  # producer finishes the write
            f.write(full)
        assert watcher.scan_once() == 1
        assert queue.pop().snapshot.index == snapshot.index

    def test_torn_file_holds_back_later_indexes(self, tmp_path):
        """A torn snapshot 2 between whole drops of 1 and 3: the sweep
        must stop at 2. Pushing 3 first raised ``last_index`` past 2,
        and the completed file was then never ingested."""
        spool = str(tmp_path / "spool")
        queue = IngestQueue()
        watcher = SpoolWatcher(spool, queue)
        drop_snapshot(spool, self._snapshot(index=1))
        path = os.path.join(spool, "snapshot_0002.dat")
        write_snapshot(self._snapshot(index=2), path)
        with open(path, "rb") as f:
            full = f.read()
        with open(path, "wb") as f:  # a direct write, half done
            f.write(full[:len(full) // 2])
        drop_snapshot(spool, self._snapshot(index=3))
        assert watcher.scan_once() == 1
        assert watcher.files_deferred == 1
        assert watcher.last_index == 1
        with open(path, "wb") as f:  # producer finishes the write
            f.write(full)
        assert watcher.scan_once() == 2
        assert [queue.pop().snapshot.index for _ in range(3)] == [1, 2, 3]
        assert sorted(os.listdir(spool)) == ["done"]

    def test_inflight_tmp_and_part_files_invisible(self, tmp_path):
        spool = str(tmp_path / "spool")
        watcher = SpoolWatcher(spool, IngestQueue())
        for name in ("snapshot_0001.dat.tmp", "snapshot_0002.dat.part",
                     "snapshot_0003.part"):
            with open(os.path.join(spool, name), "wb") as f:
                f.write(b"garbage in flight")
        assert watcher.scan_once() == 0
        assert watcher.files_deferred == 0  # never even candidates

    def test_drop_snapshot_is_atomic_and_readable(self, tmp_path):
        spool = str(tmp_path / "spool")
        snapshot = self._snapshot(index=7)
        path = drop_snapshot(spool, snapshot)
        assert os.path.basename(path) == "snapshot_0007.dat"
        assert not os.path.exists(path + ".tmp")
        loaded = read_snapshot(path)
        assert loaded.index == 7 and len(loaded) == len(snapshot)
        queue = IngestQueue()
        watcher = SpoolWatcher(spool, queue)
        assert watcher.scan_once() == 1


# ---------------------------------------------------------------------------
# Satellite 3b: stop() must report a failed shutdown


class TestStopReturnsBool:
    def test_clean_stop_returns_true(self, tmp_path):
        loop = IngestLoop(_talk_registry(tmp_path), IngestQueue())
        loop.start()
        assert loop.stop() is True
        assert loop.stop_failures == 0
        assert not loop.running

    def test_wedged_apply_surfaces_as_false(self, tmp_path, snapshots):
        """Pre-PR: ``stop()`` returned None and dropped the thread
        handle even when the join timed out — a wedged apply looked
        exactly like a clean shutdown."""
        registry = _talk_registry(tmp_path)
        queue = IngestQueue()
        loop = IngestLoop(registry, queue)
        release = threading.Event()
        entered = threading.Event()

        def blocking_hook(_snapshot):
            entered.set()
            release.wait(timeout=30.0)

        registry.get("talk")._apply_hook = blocking_hook
        loop.start()
        queue.push(snapshots[0])
        assert entered.wait(timeout=30.0)
        assert loop.stop(timeout=0.2) is False
        assert loop.stop_failures == 1
        assert loop.running  # the truth, not a dropped handle
        release.set()
        assert loop.stop(timeout=30.0) is True
        assert not loop.running

    def test_watcher_stop_returns_true(self, tmp_path):
        watcher = SpoolWatcher(str(tmp_path / "spool"), IngestQueue(),
                               poll_seconds=0.01)
        watcher.start()
        assert watcher.stop() is True
        assert watcher.stop_failures == 0

    def test_stop_before_start_is_true(self, tmp_path):
        loop = IngestLoop(_talk_registry(tmp_path), IngestQueue())
        assert loop.stop() is True


# ---------------------------------------------------------------------------
# Satellite 4: every derived rate guards its denominator


class TestRateGuards:
    @pytest.mark.parametrize("wall,jobs,expect_pps", [
        (0.0, 0, 0.0),    # instant run, no workers
        (0.0, 4, 0.0),    # instant run (the classic ZeroDivisionError)
        (2.0, 0, 1.5),    # wall fine, jobs degenerate -> util only
        (-1.0, 2, 0.0),   # nonsense negative clock
    ])
    def test_runtime_metrics_degenerate(self, wall, jobs, expect_pps):
        from repro.runtime.metrics import BatchMetric, RuntimeMetrics

        m = RuntimeMetrics(backend="process", jobs=jobs,
                           wall_seconds=wall,
                           batches=[BatchMetric(0, 3, 30, 0.5)])
        assert m.pages_per_second == expect_pps
        assert m.worker_utilization == 0.0
        doc = m.to_dict()  # must serialize without nan/inf
        import math
        assert math.isfinite(doc["pages_per_second"])
        assert math.isfinite(doc["worker_utilization"])

    def test_runtime_metrics_utilization_capped(self):
        from repro.runtime.metrics import BatchMetric, RuntimeMetrics

        m = RuntimeMetrics(backend="process", jobs=1, wall_seconds=1.0,
                           batches=[BatchMetric(0, 3, 30, 5.0)])
        assert m.worker_utilization == 1.0

    def test_fastpath_stats_empty(self):
        from repro.fastpath.stats import FastPathStats

        stats = FastPathStats()
        assert stats.combined_hit_rate == 0.0
        assert stats.unchanged_fraction == 0.0

    def test_serve_qps_at_zero_uptime(self, tmp_path, monkeypatch):
        from repro.serve import ServeApp

        registry = _talk_registry(tmp_path)
        queue = IngestQueue()
        app = ServeApp(registry, queue, IngestLoop(registry, queue))
        monkeypatch.setattr(time, "monotonic",
                            lambda: app.started_mono)  # frozen clock
        assert app.uptime_seconds == 0.0
        assert app.queries_per_second == 0.0  # not ZeroDivisionError

    def test_histogram_mean_empty(self):
        from repro.obs.registry import Histogram

        assert Histogram((1.0,)).mean == 0.0
