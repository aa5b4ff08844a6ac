"""The snapshot ingest loop: bounded queue, single writer, quarantine.

Arriving snapshots enter a bounded :class:`IngestQueue` — from the
HTTP ``/ingest`` endpoint, from a :class:`SpoolWatcher` scanning a
drop directory, or programmatically — and a single
:class:`IngestLoop` thread drains it in order, applying each snapshot
to every registered view. One writer thread is the whole concurrency
story on the write side: generation sequences stay linear per view
and the store needs no writer coordination.

Failure containment is per *(view, snapshot)*: an apply that raises is
retried once (transient faults — a torn reuse file, an OS hiccup —
heal on retry because the delta apply is all-or-nothing), and a second
failure quarantines the snapshot on that view: the view keeps serving
its previous generation, ``/healthz`` degrades, and later snapshots
keep flowing (they diff against the last *applied* snapshot, so a
poisoned snapshot cannot wedge the stream). Other views are untouched
— a fault in one program's maintenance never stalls another's.

Backpressure: ``push`` on a full queue either blocks (spool watcher)
or returns ``False`` immediately (HTTP returns 429), so a slow apply
loop surfaces as explicit producer-side pressure instead of unbounded
memory growth.
"""

from __future__ import annotations

import os
import queue
import select
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import (Callable, Deque, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from ..corpus.snapshot import Snapshot, read_snapshot, write_snapshot
from ..corpus.store import CorpusStore, _SNAPSHOT_RE
from ..obs import registry as _oreg
from .views import ViewRegistry

#: How many recent per-snapshot lag records the loop keeps for
#: ``/metrics``.
LAG_HISTORY = 64

#: inotify(7) events that land a file in a spool: a rename onto its
#: name (``IN_MOVED_TO``, the :func:`drop_snapshot` protocol) and a
#: direct write closed (``IN_CLOSE_WRITE``).
_IN_LANDED = 0x00000080 | 0x00000008

#: ``on_applied`` callback: ``(snapshot, view_generations,
#: enqueued_mono, skipped)`` where ``view_generations`` maps each
#: view's name to the generation it published for this snapshot (None
#: when that view quarantined it) and ``skipped`` marks the stale
#: idempotent-skip path (empty outcome map). The sharded serving tier
#: hangs its generation-vector barrier off this hook.
AppliedCallback = Callable[
    [Snapshot, Mapping[str, Optional[object]], Optional[float], bool],
    None]


def lag_series(records: Sequence[Mapping[str, object]]
               ) -> List[float]:
    """Ingest lag values for a run of per-snapshot records.

    The first record of a serving session is the bootstrap snapshot —
    applied inline before any producer enqueued it, so it has no
    enqueue timestamp and its recorded lag is ``None``. For reporting
    that must read as "zero lag", not as an undefined series start:
    verdict logic comparing or summing lags used to trip on the
    ``None``. Non-bootstrap records with ``None`` lag (wall-clock-only
    producers) are skipped rather than invented.
    """
    lags: List[float] = []
    for position, record in enumerate(records):
        lag = record.get("lag_seconds")
        if lag is None:
            if position == 0:
                lags.append(0.0)
            continue
        lags.append(float(lag))
    return lags


@dataclass(frozen=True)
class _QueueItem:
    snapshot: Snapshot
    #: Wall-clock enqueue timestamp — display/reporting only.
    enqueued_at: float
    #: Monotonic enqueue timestamp — the only clock durations (queue
    #: lag, apply seconds) are ever derived from. ``time.time()`` can
    #: step backwards under NTP slew or a manual clock reset, which
    #: used to yield negative lag values here.
    enqueued_mono: float


class IngestQueue:
    """Bounded handoff between snapshot producers and the apply loop."""

    def __init__(self, maxsize: int = 8) -> None:
        self._queue: "queue.Queue[_QueueItem]" = queue.Queue(
            maxsize=max(1, maxsize))
        self.capacity = max(1, maxsize)
        self.pushed = 0
        self.rejected = 0
        self._lock = threading.Lock()

    @property
    def depth(self) -> int:
        return self._queue.qsize()

    def push(self, snapshot: Snapshot, block: bool = False,
             timeout: Optional[float] = None) -> bool:
        """Enqueue a snapshot; ``False`` means backpressure hit.

        ``block=False`` (the HTTP path) fails fast on a full queue;
        ``block=True`` (the spool watcher) waits up to ``timeout``.
        """
        item = _QueueItem(snapshot=snapshot, enqueued_at=time.time(),
                          enqueued_mono=time.monotonic())
        try:
            self._queue.put(item, block=block, timeout=timeout)
        except queue.Full:
            with self._lock:
                self.rejected += 1
            return False
        with self._lock:
            self.pushed += 1
        return True

    def pop(self, timeout: float = 0.2) -> Optional[_QueueItem]:
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def describe(self) -> Dict[str, object]:
        return {
            "depth": self.depth,
            "capacity": self.capacity,
            "pushed": self.pushed,
            "rejected": self.rejected,
        }


class IngestLoop:
    """Single-writer apply loop over all registered views."""

    def __init__(self, registry: ViewRegistry, ingest_queue: IngestQueue,
                 check: bool = False,
                 snapshot_store: Optional[CorpusStore] = None,
                 on_applied: Optional[AppliedCallback] = None,
                 name: str = "repro-serve-ingest") -> None:
        self.registry = registry
        self.queue = ingest_queue
        self.check = check
        #: Optional shared snapshot store: every snapshot that was
        #: applied to at least one view is persisted, so a restarted
        #: server can re-bootstrap from the same corpus.
        self.snapshot_store = snapshot_store
        #: Post-apply hook (see :data:`AppliedCallback`). Exceptions
        #: are contained (counted in ``callback_errors``) so a broken
        #: observer can never kill the apply thread.
        self.on_applied = on_applied
        self.name = name
        self.snapshots_applied = 0
        self.applies_failed = 0
        self.snapshots_quarantined = 0
        self.stop_failures = 0
        self.callback_errors = 0
        self.last_applied_index: Optional[int] = None
        self.last_apply_at: Optional[float] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self.recent: Deque[Dict[str, object]] = deque(maxlen=LAG_HISTORY)

    # -- lifecycle --------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(target=self._run,
                                        name=self.name,
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the apply loop; ``True`` when the thread actually exited.

        The old signature returned ``None`` and silently dropped the
        thread handle even when ``join`` timed out — a wedged apply
        (e.g. a blocked apply hook) looked like a clean shutdown. Now a
        failed join keeps the handle, counts a ``stop_failures``, warns
        through the metrics registry, and returns ``False`` so callers
        can escalate.
        """
        self._stop.set()
        if self._thread is None:
            return True
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            self.stop_failures += 1
            if _oreg.ENABLED:
                _oreg.REGISTRY.inc(
                    "repro_serve_stop_failures_total",
                    help="stop() calls whose worker thread failed to "
                         "exit within the timeout", component="ingest")
            return False
        self._thread = None
        return True

    def drain(self, timeout: float = 60.0) -> bool:
        """Block until the queue is empty and the last item applied."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.queue.depth == 0 and not self._busy:
                return True
            time.sleep(0.02)
        return False

    # -- the loop ---------------------------------------------------------

    _busy = False

    def _run(self) -> None:
        while not self._stop.is_set():
            item = self.queue.pop(timeout=0.2)
            if item is None:
                continue
            self._busy = True
            try:
                self.apply_one(item.snapshot,
                               enqueued_at=item.enqueued_at,
                               enqueued_mono=item.enqueued_mono)
            finally:
                self._busy = False

    def apply_one(self, snapshot: Snapshot,
                  enqueued_at: Optional[float] = None,
                  enqueued_mono: Optional[float] = None) -> bool:
        """Apply one snapshot to every view (also callable inline).

        Returns True when every view applied it cleanly; False when at
        least one view quarantined it. Per-view failures never
        propagate — serving continues on the previous generation.

        ``enqueued_at`` (wall) is for display; ``enqueued_mono``
        (monotonic) is what lag is computed from. Callers that only
        pass a wall timestamp get no lag rather than a wrong one.
        """
        if (self.last_applied_index is not None
                and snapshot.index <= self.last_applied_index):
            # Idempotency guard: a re-pushed or stale snapshot is
            # dropped instead of quarantining every view on the
            # monotonicity check.
            self.recent.append({
                "snapshot_index": snapshot.index,
                "ok": True,
                "skipped": "stale",
                "apply_seconds": 0.0,
                "lag_seconds": None,
            })
            self._notify_applied(snapshot, {}, enqueued_mono, True)
            return True
        # Durations from the monotonic clock only; time.time() is kept
        # strictly for the displayed last_apply_at timestamp. (An NTP
        # step between start and end used to make apply_seconds — and
        # lag — negative.)
        start_mono = time.monotonic()
        all_ok = True
        lags: List[float] = []
        outcomes: Dict[str, Optional[object]] = {}
        for view in self.registry.views():
            ok = self._apply_with_retry(view, snapshot, enqueued_mono)
            all_ok = all_ok and ok
            generation = view.generation
            outcomes[view.config.name] = (
                generation if ok and generation is not None
                and generation.snapshot_index == snapshot.index else None)
            if ok and view.history:
                lag = view.history[-1].lag_seconds
                if lag is not None:
                    lags.append(lag)
        if all_ok:
            self.snapshots_applied += 1
            self.last_applied_index = snapshot.index
        else:
            self.snapshots_quarantined += 1
        self.last_apply_at = time.time()
        apply_seconds = time.monotonic() - start_mono
        lag_seconds = max(lags) if lags else None
        self.recent.append({
            "snapshot_index": snapshot.index,
            "ok": all_ok,
            "apply_seconds": apply_seconds,
            "lag_seconds": lag_seconds,
        })
        if _oreg.ENABLED:
            kind = "applied" if all_ok else "quarantined"
            _oreg.REGISTRY.inc(
                "repro_ingest_snapshots_total",
                help="snapshots through the ingest loop by outcome",
                outcome=kind)
            _oreg.REGISTRY.observe(
                "repro_ingest_apply_seconds", apply_seconds,
                help="wall seconds to apply one snapshot to all views")
            if lag_seconds is not None:
                _oreg.REGISTRY.observe(
                    "repro_ingest_lag_seconds", lag_seconds,
                    help="enqueue-to-applied lag (monotonic clock)")
            _oreg.REGISTRY.set(
                "repro_ingest_queue_depth", float(self.queue.depth),
                help="snapshots waiting in the ingest queue")
        if all_ok and self.snapshot_store is not None:
            try:
                self.snapshot_store.append(snapshot)
            except (ValueError, OSError):
                pass  # persistence is best-effort, serving is the job
        self._notify_applied(snapshot, outcomes, enqueued_mono, False)
        return all_ok

    def _notify_applied(self, snapshot: Snapshot,
                        outcomes: Mapping[str, Optional[object]],
                        enqueued_mono: Optional[float],
                        skipped: bool) -> None:
        if self.on_applied is None:
            return
        try:
            self.on_applied(snapshot, outcomes, enqueued_mono, skipped)
        except Exception:  # noqa: BLE001 - observer isolation
            self.callback_errors += 1

    def _apply_with_retry(self, view, snapshot: Snapshot,
                          enqueued_mono: Optional[float]) -> bool:
        for attempt in (1, 2):
            try:
                record = view.apply_snapshot(snapshot, check=self.check)
                if enqueued_mono is not None:
                    # Monotonic difference: non-negative by
                    # construction, immune to wall-clock steps.
                    record.lag_seconds = max(
                        0.0, record.applied_mono - enqueued_mono)
                return True
            except Exception as exc:  # noqa: BLE001 - quarantine boundary
                view.last_error = f"{type(exc).__name__}: {exc}"
                self.applies_failed += 1
                if attempt == 2:
                    view.quarantine.append({
                        "snapshot_index": snapshot.index,
                        "error": view.last_error,
                        "at": time.time(),
                    })
        return False

    def describe(self) -> Dict[str, object]:
        return {
            "running": self.running,
            "check": self.check,
            "queue": self.queue.describe(),
            "snapshots_applied": self.snapshots_applied,
            "snapshots_quarantined": self.snapshots_quarantined,
            "applies_failed": self.applies_failed,
            "stop_failures": self.stop_failures,
            "callback_errors": self.callback_errors,
            "last_applied_index": self.last_applied_index,
            "last_apply_at": self.last_apply_at,
            "recent": list(self.recent),
        }


def _open_inotify(path: str) -> Optional[int]:
    """A non-blocking inotify fd watching ``path`` for landed files.

    None where there is no inotify (not Linux, no libc symbol, or the
    kernel refuses an instance or a watch); the caller then polls.
    """
    if not sys.platform.startswith("linux"):
        return None
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        init, add_watch = libc.inotify_init1, libc.inotify_add_watch
    except (OSError, AttributeError):
        return None
    init.argtypes, init.restype = (ctypes.c_int,), ctypes.c_int
    add_watch.argtypes = (ctypes.c_int, ctypes.c_char_p, ctypes.c_uint32)
    add_watch.restype = ctypes.c_int
    fd = init(os.O_NONBLOCK | os.O_CLOEXEC)
    if fd < 0:
        return None
    if add_watch(fd, os.fsencode(path), _IN_LANDED) < 0:
        os.close(fd)
        return None
    return fd


def drop_snapshot(spool_dir: str, snapshot: Snapshot) -> str:
    """Atomically drop a snapshot into a spool directory.

    The spool write protocol: serialize to ``snapshot_NNNN.dat.tmp``
    in the *same* directory, then ``os.replace`` onto the final name.
    The rename is atomic on POSIX, so a watcher can never observe a
    half-written ``snapshot_NNNN.dat`` — it either sees the whole file
    or no file. ``*.tmp``/``*.part`` names never match the snapshot
    pattern, so in-flight files from producers that follow the
    protocol are invisible to :meth:`SpoolWatcher.scan_once`.

    Returns the final path. Producers that cannot use this helper must
    follow the same write-then-rename discipline; the watcher also
    validates each file's header page count on read, so even a torn
    direct write is skipped (and retried next sweep) instead of being
    ingested short.
    """
    os.makedirs(spool_dir, exist_ok=True)
    final = os.path.join(spool_dir, f"snapshot_{snapshot.index:04d}.dat")
    tmp = final + ".tmp"
    write_snapshot(snapshot, tmp)
    os.replace(tmp, final)
    return final


class SpoolWatcher:
    """Feeds the queue from ``snapshot_NNNN.dat`` files in a directory.

    The deployment-friendly producer: a crawler (or ``repro corpus``)
    drops snapshot files into the spool; the watcher picks them up in
    index order, pushes them with *blocking* backpressure, and moves
    each consumed file to ``<spool>/done/`` so a restart never
    re-ingests. Files newer than the last pushed index are the only
    candidates: a file whose index is at or below it (dropped after a
    later index was pushed) is never ingested and stays in the spool.
    A candidate that fails to parse ends the sweep, so every later
    index waits for it.

    On Linux the watcher sleeps on an inotify watch of the spool and
    sweeps as soon as a file is renamed (or written) into it, so a drop
    reaches the queue without waiting on a timer. ``poll_seconds`` is
    only how long it sleeps without an event, which also covers any
    event the kernel drops; a self-pipe wakes it for :meth:`stop`.
    Where inotify is unavailable it sweeps every ``poll_seconds``.

    The watcher only needs ``push(snapshot, block=, timeout=)`` from
    its queue, so it feeds a plain :class:`IngestQueue` or the sharded
    front door (:class:`repro.shard.ShardedDeployment`) unchanged —
    snapshot-shard routing happens behind that push.

    Producers should write through :func:`drop_snapshot` (tmp file +
    ``os.replace``); ``*.tmp``/``*.part`` names are ignored by the
    scan. As defense in depth against producers that write the final
    name directly, every candidate file's header page count is
    validated by :func:`~repro.corpus.snapshot.read_snapshot`, so a
    torn file parses as an error rather than as a silently truncated
    snapshot, and is retried next sweep.
    """

    def __init__(self, spool_dir: str, ingest_queue: IngestQueue,
                 poll_seconds: float = 0.5) -> None:
        self.spool_dir = spool_dir
        self.queue = ingest_queue
        self.poll_seconds = poll_seconds
        self.done_dir = os.path.join(spool_dir, "done")
        os.makedirs(self.spool_dir, exist_ok=True)
        os.makedirs(self.done_dir, exist_ok=True)
        self.files_ingested = 0
        #: Candidate files that failed to parse (torn/truncated) and
        #: were left for the next sweep.
        self.files_deferred = 0
        self.stop_failures = 0
        self.last_index: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: While running on inotify: ``(inotify fd, pipe read end, pipe
        #: write end)``; None when polling or stopped.
        self._wake: Optional[Tuple[int, int, int]] = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        if self.running:
            return
        self._stop.clear()
        inotify_fd = _open_inotify(self.spool_dir)
        if inotify_fd is not None:
            try:
                self._wake = (inotify_fd, *os.pipe())
            except OSError:
                os.close(inotify_fd)
                raise
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve-spool",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> bool:
        """Stop the watcher; ``True`` when the thread actually exited.

        Mirrors :meth:`IngestLoop.stop`: a join that times out no
        longer masquerades as a clean shutdown. The inotify fd and the
        self-pipe are closed once the thread has exited.
        """
        self._stop.set()
        if self._thread is None:
            return True
        if self._wake is not None:
            os.write(self._wake[2], b"\0")
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            self.stop_failures += 1
            if _oreg.ENABLED:
                _oreg.REGISTRY.inc(
                    "repro_serve_stop_failures_total",
                    help="stop() calls whose worker thread failed to "
                         "exit within the timeout", component="spool")
            return False
        self._thread = None
        if self._wake is not None:
            for fd in self._wake:
                os.close(fd)
            self._wake = None
        return True

    def scan_once(self) -> int:
        """One sweep: push every ready spool file, oldest index first.

        In-flight ``*.tmp``/``*.part`` files don't match the snapshot
        pattern and are never candidates; a candidate that fails to
        parse (torn write by a protocol-violating producer) is not
        consumed and ends the sweep: pushing a later index first would
        raise ``last_index`` past it and strand it in the spool.
        """
        entries = []
        for name in os.listdir(self.spool_dir):
            m = _SNAPSHOT_RE.match(name)
            if m:
                entries.append((int(m.group(1)), name))
        pushed = 0
        for index, name in sorted(entries):
            if self.last_index is not None and index <= self.last_index:
                continue
            path = os.path.join(self.spool_dir, name)
            try:
                snapshot = read_snapshot(path)
            except (OSError, ValueError, KeyError):
                self.files_deferred += 1
                break  # partially written; it and all later wait
            while not self.queue.push(snapshot, block=True, timeout=0.5):
                if self._stop.is_set():
                    return pushed
            os.replace(path, os.path.join(self.done_dir, name))
            self.last_index = index
            self.files_ingested += 1
            pushed += 1
        return pushed

    def _run(self) -> None:
        # The watch exists before the first sweep, so a file landing
        # during any sweep leaves an event that ends the next wait.
        while not self._stop.is_set():
            self.scan_once()
            if self._wake is None:
                self._stop.wait(self.poll_seconds)
                continue
            inotify_fd, wake_fd, _ = self._wake
            ready = select.select([inotify_fd, wake_fd], [], [],
                                  self.poll_seconds)[0]
            if inotify_fd in ready:
                try:
                    while os.read(inotify_fd, 65536):
                        pass
                except BlockingIOError:
                    pass  # drained: the sweep reads the directory

    def describe(self) -> Dict[str, object]:
        return {
            "spool_dir": self.spool_dir,
            "running": self.running,
            "files_ingested": self.files_ingested,
            "files_deferred": self.files_deferred,
            "stop_failures": self.stop_failures,
            "last_index": self.last_index,
        }
