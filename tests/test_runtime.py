"""The execution runtime: scheduler, executors, capture merge, parity.

The runtime's contract is that backend and worker count are pure
performance knobs: for any executor, every system must produce the
same canonical results AND byte-identical reuse files as a serial run.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.corpus import dblife_corpus, wikipedia_corpus
from repro.core.runner import (
    canonical_results,
    make_system,
    resolve_executor,
    task_cost_hint,
    verify_serial_parallel,
)
from repro.extractors import make_task
from repro.reuse.files import (
    CaptureWriter,
    PageCapture,
    PageRecorder,
    encode_fields,
)
from repro.runtime import driver as driver_module
from repro.runtime import (
    AUTO_PROCESS_WORK_FACTOR,
    PageBatch,
    PageScheduler,
    PageWork,
    ProcessPoolExecutor,
    RuntimeMetrics,
    SerialExecutor,
    ThreadPoolExecutor,
    build_arena,
    build_metrics,
    choose_backend,
    make_executor,
    pack_lpt,
    run_pages,
    shm_available,
)
from repro.text.document import Page
from repro.text.span import Span
from repro.timing import Timer, Timings


def _pages(sizes):
    return [Page.from_url(f"http://site/{i:03d}", "x" * size)
            for i, size in enumerate(sizes)]


# ---------------------------------------------------------------------------
# PageScheduler


class TestPageScheduler:
    def test_empty_input(self):
        assert PageScheduler().plan([], 4) == []

    def test_every_page_exactly_once(self):
        pages = _pages([10, 0, 500, 30, 30, 900, 1, 1, 1, 250])
        batches = PageScheduler().plan(pages, 3)
        flat = [p for b in batches for p in b]
        assert sorted(p.did for p in flat) == sorted(p.did for p in pages)
        assert [b.index for b in batches] == list(range(len(batches)))
        assert all(len(b) > 0 for b in batches)

    def test_largest_page_never_lands_last(self):
        # LPT places the heaviest page first, so it can never end up
        # alone at the tail of an otherwise-full schedule (the old
        # contiguous splitter could, serializing the whole run on it).
        pages = _pages([5000, 4000, 3000, 2000, 1000, 1000])
        batches = PageScheduler(batches_per_job=1).plan(pages, 2)
        total = sum(len(p.text) for p in pages)
        assert len(batches) == 2
        # The 5000-char page is in the first batch...
        assert any(len(p.text) == 5000 for p in batches[0])
        # ...and the makespan beats the contiguous split's 9000.
        assert max(b.chars for b in batches) <= total // 2

    def test_pack_lpt_covers_and_balances(self):
        bins = pack_lpt([5000, 4000, 3000, 2000, 1000, 1000], 2)
        assert sorted(i for b in bins for i in b) == list(range(6))
        loads = [sum([5000, 4000, 3000, 2000, 1000, 1000][i]
                     for i in b) for b in bins]
        assert max(loads) == 8000

    def test_batch_count_capped_by_pages(self):
        pages = _pages([5, 5, 5])
        batches = PageScheduler().plan(pages, 8)
        assert len(batches) == 3  # never more batches than pages

    def test_single_job_oversubscribes_mildly(self):
        pages = _pages([10] * 40)
        batches = PageScheduler(batches_per_job=4).plan(pages, 1)
        assert len(batches) == 4

    def test_size_balance_on_uniform_pages(self):
        pages = _pages([100] * 64)
        batches = PageScheduler(batches_per_job=1).plan(pages, 4)
        sizes = [b.chars for b in batches]
        assert len(batches) == 4
        assert max(sizes) <= 2 * min(sizes)

    def test_size_balance_with_skew(self):
        # One giant page must not drag its neighbours into one batch.
        pages = _pages([10, 10, 10_000, 10, 10, 10, 10, 10])
        batches = PageScheduler(batches_per_job=1).plan(pages, 4)
        giant = [b for b in batches if any(len(p.text) == 10_000
                                           for p in b)]
        assert len(giant) == 1
        assert len(giant[0]) <= 3

    def test_all_empty_pages_still_partition(self):
        pages = _pages([0] * 9)
        batches = PageScheduler(batches_per_job=1).plan(pages, 3)
        flat = [p for b in batches for p in b]
        assert sorted(p.did for p in flat) == sorted(p.did for p in pages)
        assert len(batches) == 3

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            PageScheduler(batches_per_job=0)
        with pytest.raises(ValueError):
            PageScheduler().plan(_pages([1]), 0)


# ---------------------------------------------------------------------------
# Executor backends


def _square_worker(state, item):
    return state * item * item


class TestExecutors:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ThreadPoolExecutor(jobs=3),
        ProcessPoolExecutor(jobs=3),
    ], ids=["serial", "thread", "process"])
    def test_run_work_order_and_values(self, executor):
        timed = executor.run_work(_square_worker, 2, list(range(10))).timed
        assert [v for _, v in timed] == [2 * i * i for i in range(10)]
        assert all(s >= 0.0 for s, _ in timed)

    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ThreadPoolExecutor(jobs=2),
        ProcessPoolExecutor(jobs=2),
    ], ids=["serial", "thread", "process"])
    def test_empty_items(self, executor):
        assert executor.run_work(_square_worker, 1, []).timed == []

    def test_describe(self):
        assert SerialExecutor().describe() == "serial(jobs=1)"
        assert ThreadPoolExecutor(jobs=4).describe() == "thread(jobs=4)"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ThreadPoolExecutor(jobs=0)
        with pytest.raises(ValueError):
            ProcessPoolExecutor(jobs=0)


class TestAutoChooser:
    def test_serial_when_single_job(self):
        assert choose_backend(1, cost_hint=1000) == "serial"
        assert isinstance(make_executor("auto", jobs=1), SerialExecutor)

    def test_threads_for_cheap_blackboxes(self):
        assert choose_backend(4, cost_hint=0, cpu_count=4) == "thread"
        ex = make_executor("auto", jobs=4, cost_hint=0, cpu_count=4)
        assert isinstance(ex, ThreadPoolExecutor)

    def test_processes_for_expensive_blackboxes(self):
        hint = AUTO_PROCESS_WORK_FACTOR
        assert choose_backend(4, cost_hint=hint, cpu_count=4) == "process"
        ex = make_executor("auto", jobs=4, cost_hint=hint, cpu_count=4)
        assert isinstance(ex, ProcessPoolExecutor)

    def test_serial_on_single_core_machine(self):
        # Regression: the chooser used to pick the process backend on
        # a 1-CPU machine, where fork + pickle overhead made "parallel"
        # runs strictly slower than serial.
        hint = AUTO_PROCESS_WORK_FACTOR
        assert choose_backend(4, cost_hint=hint, cpu_count=1) == "serial"
        assert choose_backend(4, cost_hint=0, cpu_count=1) == "serial"
        ex = make_executor("auto", jobs=4, cost_hint=hint, cpu_count=1)
        assert isinstance(ex, SerialExecutor)

    def test_serial_on_single_core_by_default(self, monkeypatch):
        # Same regression via the default os.cpu_count() probe.
        import repro.runtime.executor as executor_module
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: 1)
        assert choose_backend(4, cost_hint=64) == "serial"
        monkeypatch.setattr(executor_module.os, "cpu_count", lambda: None)
        assert choose_backend(4, cost_hint=64) == "serial"

    def test_explicit_backend_wins(self):
        ex = make_executor("process", jobs=2, cost_hint=0, cpu_count=1)
        assert isinstance(ex, ProcessPoolExecutor)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_executor("gpu", jobs=2)

    def test_task_cost_hint_feeds_chooser(self):
        heavy = make_task("chair", work_scale=1.0)
        light = make_task("chair", work_scale=0)
        assert task_cost_hint(heavy) > task_cost_hint(light) == 0.0
        assert resolve_executor(light, jobs=1) is None
        assert isinstance(resolve_executor(light, jobs=2, cpu_count=4),
                          ThreadPoolExecutor)


# ---------------------------------------------------------------------------
# Work-stealing run_work


def _sleepy_worker(state, item):
    kind, value = item
    if kind == "slow":
        time.sleep(0.2)
    return state * value


class TestRunWork:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ThreadPoolExecutor(jobs=3),
        ProcessPoolExecutor(jobs=3),
    ], ids=["serial", "thread", "process"])
    def test_values_in_submission_order(self, executor):
        items = [("fast", i) for i in range(10)]
        result = executor.run_work(_sleepy_worker, 3, items,
                                   costs=[float(i + 1) for i in range(10)])
        assert [v for _, v in result.timed] == [3 * i for i in range(10)]
        assert all(s >= 0.0 for s, _ in result.timed)
        assert result.steals >= 0
        assert all(b >= 0.0 for b in result.slot_busy)

    def test_idle_worker_steals_from_stuck_one(self):
        # Declared costs put a slow item and two fast ones on slot 0;
        # slot 1 drains its own queue in microseconds and must steal
        # slot 0's remaining items while the slow one blocks it.
        items = [("slow", 0), ("fast", 1), ("fast", 2), ("fast", 3),
                 ("fast", 4), ("fast", 5)]
        costs = [5.0, 5.0, 1.0, 1.0, 1.0, 1.0]
        executor = ThreadPoolExecutor(jobs=2)
        result = executor.run_work(_sleepy_worker, 1, items, costs=costs)
        assert [v for _, v in result.timed] == [0, 1, 2, 3, 4, 5]
        assert result.steals >= 1
        assert len(result.slot_busy) == 2

    def test_empty_items(self):
        result = ThreadPoolExecutor(jobs=2).run_work(
            _sleepy_worker, 1, [], costs=[])
        assert result.timed == []
        assert result.steals == 0


# ---------------------------------------------------------------------------
# Shared-memory text arena


class TestTextArena:
    TEXTS = {"c:d01": "alpha beta", "c:d02": "", "q:d01": "καλημέρα κόσμε"}

    def test_local_arena_for_threads(self):
        arena = build_arena(dict(self.TEXTS), "thread")
        try:
            assert not arena.shared and arena.handle.kind == "local"
            for key, text in self.TEXTS.items():
                assert arena.handle.text(key) == text
        finally:
            arena.close()

    def test_shared_arena_roundtrips_through_pickle(self):
        from repro.runtime import shm_available

        if not shm_available():
            pytest.skip("no shared memory on this platform")
        arena = build_arena(dict(self.TEXTS), "process")
        try:
            assert arena.shared
            handle = pickle.loads(pickle.dumps(arena.handle))
            for key, text in self.TEXTS.items():
                assert handle.text(key) == text
                assert arena.handle.text(key) == text  # parent side too
        finally:
            arena.close()

    def test_empty_arena(self):
        arena = build_arena({}, "process")
        try:
            with pytest.raises(KeyError):
                arena.handle.text("missing")
        finally:
            arena.close()


# ---------------------------------------------------------------------------
# Page captures and the byte-identical merge


def _record(script):
    """Record a fixed page/record sequence, one recorder per page."""
    captures = {}
    for did, per_unit in script:
        recorder = PageRecorder()
        for uid, inputs in per_unit.items():
            for (s, e, c, outs) in inputs:
                tid = recorder.input(uid, s, e, c)
                for fields in outs:
                    recorder.output(uid, tid, fields)
        captures[did] = recorder.groups()
    return captures


def _capture_script():
    f1 = encode_fields({"x": Span("d01", 2, 5)})
    f2 = encode_fields({"x": Span("d01", 7, 9), "n": 3})
    return [
        ("d01", {"u1": [(0, 10, "", [f1, f2]), (10, 30, "k", [])],
                 "u2": [(0, 30, "", [f1])]}),
        ("d02", {"u1": [], "u2": [(5, 9, "", [f2])]}),
        ("d03", {"u1": [(1, 4, "", [f1])], "u2": []}),
    ]


def _write_files(directory, mode):
    writer = CaptureWriter(directory, ["u1", "u2"])
    script = _capture_script()
    if mode == "direct":
        # Serial: each page's groups are written as soon as it is done.
        for did, groups in _record(script).items():
            writer.write_page(did, groups, PageCapture(did))
    else:
        # Two "workers" record pages out of order; their group bytes
        # cross a pickle and the parent writes them in canonical order.
        returned = {**pickle.loads(pickle.dumps(_record(script[2:]))),
                    **pickle.loads(pickle.dumps(_record(script[:2])))}
        for did in sorted(returned):
            writer.write_page(did, returned[did], PageCapture(did))
    writer.close()
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in sorted(os.listdir(directory))}


class TestCaptureMerge:
    def test_replay_is_byte_identical_to_direct(self, tmp_path):
        direct = _write_files(str(tmp_path / "direct"), "direct")
        merged = _write_files(str(tmp_path / "buffered"), "buffered")
        assert direct == merged
        assert any(direct.values())  # files actually contain records

    def test_local_tids_are_per_page(self):
        first, second = PageRecorder(), PageRecorder()
        assert first.input("u1", 0, 1) == 0
        assert first.input("u1", 1, 2) == 1
        assert first.input("u2", 1, 2) == 0  # and per unit
        assert second.input("u1", 0, 1) == 0
        first.output("u1", 1, ())
        first.output("u1", 1, ())
        assert first.groups()["u1"][1] == (b'{"t":0,"i":1,"f":[]}\n'
                                           b'{"t":1,"i":1,"f":[]}\n')

    def test_empty_pages_allocate_no_buffers(self):
        # A unit that records nothing on a page allocates nothing; the
        # page table gives it no entry there (see the golden-bytes
        # test).
        assert PageRecorder().groups() == {}
        recorder = PageRecorder()
        recorder.input("u2", 0, 1)
        assert list(recorder.groups()) == ["u2"]


# ---------------------------------------------------------------------------
# Runtime metrics


class TestMetrics:
    def test_build_and_aggregate(self):
        pages = _pages([100, 100, 100, 100])
        batches = PageScheduler(batches_per_job=1).plan(pages, 2)
        metrics = build_metrics("thread", 2, wall_seconds=1.0,
                                batches=batches, batch_seconds=[0.6, 0.8])
        assert isinstance(metrics, RuntimeMetrics)
        assert metrics.pages == 4
        assert metrics.busy_seconds == pytest.approx(1.4)
        assert metrics.pages_per_second == pytest.approx(4.0)
        assert 0.0 < metrics.worker_utilization <= 1.0
        assert "thread" in metrics.describe()

    def test_length_mismatch_rejected(self):
        pages = _pages([10, 10])
        batches = PageScheduler(batches_per_job=1).plan(pages, 2)
        with pytest.raises(ValueError):
            build_metrics("serial", 1, 0.5, batches, [0.1])

    def test_systems_attach_metrics(self, tmp_path):
        task = make_task("play", work_scale=0)
        snaps = list(wikipedia_corpus(n_pages=8, seed=3).snapshots(2))
        system = make_system("noreuse", task, str(tmp_path), jobs=2,
                             backend="thread")
        result = system.process(snaps[0])
        runtime = result.timings.runtime
        assert runtime is not None
        assert runtime.backend == "thread" and runtime.jobs == 2
        assert runtime.pages == len(snaps[0])


# ---------------------------------------------------------------------------
# Serial <-> parallel parity (Theorem 1, runtime edition)


def _tree_digests(directory):
    out = {}
    for root, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            with open(path, "rb") as f:
                out[rel] = hashlib.sha256(f.read()).hexdigest()
    return out


def _run_system(name, task, snaps, workdir, executor=None):
    system = make_system(name, task, workdir, executor=executor)
    outputs = []
    prev = None
    for snap in snaps:
        outputs.append(canonical_results(system.process(snap, prev)))
        prev = snap
    return outputs


def _assert_thread_jobs2_parity(system_name, task, snaps, tmp_path):
    serial_dir = str(tmp_path / "serial")
    parallel_dir = str(tmp_path / "parallel")
    serial = _run_system(system_name, task, snaps, serial_dir)
    parallel = _run_system(system_name, task, snaps, parallel_dir,
                           executor=ThreadPoolExecutor(jobs=2))
    assert serial == parallel
    assert _tree_digests(serial_dir) == _tree_digests(parallel_dir)


class TestSerialParallelParity:
    @pytest.mark.parametrize("system_name",
                             ["noreuse", "shortcut", "cyclex", "delex"])
    def test_thread_jobs2_results_and_files(self, system_name, tmp_path,
                                            dblife_snapshots):
        _assert_thread_jobs2_parity(system_name,
                                    make_task("chair", work_scale=0),
                                    dblife_snapshots, tmp_path)

    @pytest.mark.parametrize("system_name",
                             ["noreuse", "shortcut", "cyclex", "delex"])
    def test_talk_thread_jobs2_results_and_files(self, system_name,
                                                 tmp_path):
        snaps = list(dblife_corpus(n_pages=8, seed=3).snapshots(2))
        _assert_thread_jobs2_parity(system_name,
                                    make_task("talk", work_scale=0),
                                    snaps, tmp_path)

    def test_delex_process_jobs4_property(self, tmp_path):
        """Serial and 4-process Delex agree snapshot by snapshot on a
        3-snapshot evolving corpus — results and reuse-file bytes."""
        task = make_task("play", work_scale=0)
        snaps = list(wikipedia_corpus(n_pages=12, seed=11).snapshots(3))
        serial_dir = str(tmp_path / "serial")
        parallel_dir = str(tmp_path / "parallel")
        serial = _run_system("delex", task, snaps, serial_dir)
        parallel = _run_system("delex", task, snaps, parallel_dir,
                               executor=ProcessPoolExecutor(jobs=4))
        for i, (s, p) in enumerate(zip(serial, parallel)):
            assert s == p, f"snapshot {i} diverged"
        assert _tree_digests(serial_dir) == _tree_digests(parallel_dir)

    def test_verify_serial_parallel_helper(self, dblife_snapshots):
        task = make_task("chair", work_scale=0)
        problems = verify_serial_parallel(task, dblife_snapshots[:3],
                                          systems=("noreuse", "delex"),
                                          jobs=2)
        assert problems == []

    def test_scheduler_batch_shapes_do_not_change_results(self, tmp_path):
        """Pathological batching (1 page per batch) is still exact."""
        task = make_task("play", work_scale=0)
        snaps = list(wikipedia_corpus(n_pages=6, seed=5).snapshots(2))
        a = _run_system("delex", task, snaps, str(tmp_path / "a"))
        b_sys = make_system("delex", task, str(tmp_path / "b"),
                            executor=ThreadPoolExecutor(jobs=2))
        b_sys.scheduler = PageScheduler(batches_per_job=64)
        outputs = []
        prev = None
        for snap in snaps:
            outputs.append(canonical_results(b_sys.process(snap, prev)))
            prev = snap
        assert a == outputs


# ---------------------------------------------------------------------------
# Faults: a process worker that dies mid-batch


def _dies_on_page(victim, lookup, dids, timer):
    for did in dids:
        if did == victim:
            os._exit(3)
    return [(did, len(lookup.current(did).text)) for did in dids], None


@pytest.mark.skipif(not shm_available() or not hasattr(signal, "SIGALRM"),
                    reason="no shared memory or no SIGALRM")
def test_dead_process_worker_breaks_the_run_and_frees_the_arena(
        monkeypatch):
    """The current contract, pinned: a worker that dies mid-batch makes
    ``run_pages`` raise promptly, and the parent still unlinks the
    shared-memory text arena. Falling back to a correct answer is not
    done yet."""
    arenas = []

    def recording_build_arena(texts, backend_name):
        arenas.append(build_arena(texts, backend_name))
        return arenas[-1]

    monkeypatch.setattr(driver_module, "build_arena", recording_build_arena)
    pages = _pages([40, 50, 60, 70])
    work = PageWork(batch_fn=_dies_on_page, state=pages[2].did,
                    payload=lambda batch: tuple(p.did for p in batch))

    def hung(signum, frame):
        raise TimeoutError("run_pages hung after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(BrokenProcessPool):
            run_pages(work, pages, ProcessPoolExecutor(jobs=2),
                      PageScheduler(), Timer(Timings()))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(arenas) == 1 and arenas[0].shared
    assert not os.path.exists(
        os.path.join("/dev/shm", arenas[0].handle.name))


def test_page_batch_helpers():
    pages = _pages([3, 4])
    batch = PageBatch(index=0, pages=tuple(pages))
    assert len(batch) == 2
    assert list(batch) == pages
    assert batch.chars == 7


# ---------------------------------------------------------------------------
# Layering


def _imported_modules(path, package):
    """Absolute names of every module ``path`` (in ``package``) imports."""
    import ast

    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package.split(".")
            if node.level:
                base = base[:len(base) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module
                                          else []))
            else:
                module = node.module
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_runtime_never_imports_reuse():
    # The runtime walks pages for every system; the reuse-file format
    # stays in repro.reuse.
    import repro.runtime

    directory = os.path.dirname(repro.runtime.__file__)
    names = sorted(n for n in os.listdir(directory) if n.endswith(".py"))
    assert "driver.py" in names
    for name in names:
        for module in _imported_modules(os.path.join(directory, name),
                                        "repro.runtime"):
            assert not (module == "repro.reuse"
                        or module.startswith("repro.reuse.")), \
                f"runtime/{name} imports {module}"
