"""The execution runtime: batches, executors, capture merge, parity.

The runtime's contract is that backend and worker count are pure
performance knobs: for any executor, every system must produce the
same canonical results AND byte-identical reuse files as a serial run.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import signal
import threading
import time

import pytest

from repro.core import noreuse as noreuse_module
from repro.corpus import dblife_corpus, wikipedia_corpus
from repro.core.runner import (
    canonical_results,
    make_system,
    resolve_executor,
    task_cost_hint,
    verify_serial_parallel,
)
from repro.extractors import make_task
from repro.obs import profile as oprof
from repro.obs import trace as otrace
from repro.reuse import engine as engine_module
from repro.reuse.files import (
    CaptureWriter,
    PageCapture,
    PageRecorder,
    encode_fields,
)
from repro.runtime import (
    AUTO_PROCESS_WORK_FACTOR,
    PageBatch,
    ProcessPoolExecutor,
    RuntimeMetrics,
    SerialExecutor,
    build_metrics,
    choose_backend,
    make_executor,
    pack_lpt,
    plan_batches,
)
from repro.runtime.scheduler import DEFAULT_BATCHES_PER_JOB
from repro.text.document import Page
from repro.text.span import Span


def _pages(sizes):
    return [Page.from_url(f"http://site/{i:03d}", "x" * size)
            for i, size in enumerate(sizes)]


# ---------------------------------------------------------------------------
# Page batches


class TestPageScheduler:
    def test_empty_input(self):
        assert plan_batches([], 4) == []

    def test_every_page_exactly_once(self):
        pages = _pages([10, 0, 500, 30, 30, 900, 1, 1, 1, 250])
        batches = plan_batches(pages, 3)
        flat = [p for b in batches for p in b]
        assert sorted(p.did for p in flat) == sorted(p.did for p in pages)
        assert [b.index for b in batches] == list(range(len(batches)))
        assert all(len(b) > 0 for b in batches)

    def test_largest_page_never_lands_last(self):
        # LPT places the heaviest page first, so it can never end up
        # alone at the tail of an otherwise-full schedule (a contiguous
        # splitter could, serializing the whole run on it). Here the
        # balanced choice is the 5000-char page alone, and LPT finds it.
        pages = _pages([5000, 4000, 3000, 2000, 1000, 1000])
        batches = plan_batches(pages, 1)
        assert len(batches) == DEFAULT_BATCHES_PER_JOB
        (giant,) = [b for b in batches if any(len(p.text) == 5000
                                              for p in b)]
        assert len(giant) == 1 and giant.index == 0
        assert max(b.chars for b in batches) == 5000

    def test_pack_lpt_covers_and_balances(self):
        bins = pack_lpt([5000, 4000, 3000, 2000, 1000, 1000], 2)
        assert sorted(i for b in bins for i in b) == list(range(6))
        loads = [sum([5000, 4000, 3000, 2000, 1000, 1000][i]
                     for i in b) for b in bins]
        assert max(loads) == 8000

    def test_batch_count_capped_by_pages(self):
        pages = _pages([5, 5, 5])
        batches = plan_batches(pages, 8)
        assert len(batches) == 3  # never more batches than pages

    def test_single_job_oversubscribes_mildly(self):
        pages = _pages([10] * 40)
        batches = plan_batches(pages, 1)
        assert len(batches) == DEFAULT_BATCHES_PER_JOB

    def test_size_balance_on_uniform_pages(self):
        pages = _pages([100] * 64)
        batches = plan_batches(pages, 1)
        sizes = [b.chars for b in batches]
        assert len(batches) == DEFAULT_BATCHES_PER_JOB
        assert max(sizes) <= 2 * min(sizes)

    def test_size_balance_with_skew(self):
        # One giant page must not drag its neighbours into one batch.
        pages = _pages([10, 10, 10_000, 10, 10, 10, 10, 10])
        batches = plan_batches(pages, 1)
        giant = [b for b in batches if any(len(p.text) == 10_000
                                           for p in b)]
        assert len(giant) == 1
        assert len(giant[0]) <= 3

    def test_all_empty_pages_still_partition(self):
        pages = _pages([0] * 9)
        batches = plan_batches(pages, 1)
        flat = [p for b in batches for p in b]
        assert sorted(p.did for p in flat) == sorted(p.did for p in pages)
        assert len(batches) == DEFAULT_BATCHES_PER_JOB

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            pack_lpt([1.0], 0)
        with pytest.raises(ValueError):
            plan_batches(_pages([1]), 0)


# ---------------------------------------------------------------------------
# Executor backends


def _square_worker(state, item):
    return state * item * item


class TestExecutors:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ProcessPoolExecutor(jobs=3),
    ], ids=["serial", "process"])
    def test_run_work_order_and_values(self, executor):
        timed = executor.run_work(_square_worker, 2, list(range(10)))
        assert [v for _, v in timed] == [2 * i * i for i in range(10)]
        assert all(s >= 0.0 for s, _ in timed)

    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ProcessPoolExecutor(jobs=2),
    ], ids=["serial", "process"])
    def test_empty_items(self, executor):
        assert executor.run_work(_square_worker, 1, []) == []

    def test_describe(self):
        assert SerialExecutor().describe() == "serial(jobs=1)"
        assert ProcessPoolExecutor(jobs=4).describe() == "process(jobs=4)"

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ProcessPoolExecutor(jobs=0)


class TestAutoChooser:
    def test_serial_when_single_job(self):
        assert choose_backend(1, cost_hint=1000) == "serial"
        assert isinstance(make_executor("auto", jobs=1), SerialExecutor)

    def test_serial_for_cheap_blackboxes(self):
        # Forking workers costs more than cheap blackboxes win back.
        assert choose_backend(4, cost_hint=0, cpu_count=4) == "serial"
        ex = make_executor("auto", jobs=4, cost_hint=0, cpu_count=4)
        assert isinstance(ex, SerialExecutor)

    def test_processes_for_expensive_blackboxes(self):
        hint = AUTO_PROCESS_WORK_FACTOR
        assert choose_backend(4, cost_hint=hint, cpu_count=4) == "process"
        ex = make_executor("auto", jobs=4, cost_hint=hint, cpu_count=4)
        assert isinstance(ex, ProcessPoolExecutor)

    def test_serial_on_single_core_machine(self):
        # Regression: the chooser used to pick the process backend on
        # a 1-CPU machine, where forking workers made "parallel" runs
        # strictly slower than serial.
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
        with pytest.raises(ValueError):
            make_executor("thread", jobs=2)

    def test_task_cost_hint_feeds_chooser(self):
        heavy = make_task("chair", work_scale=1.0)
        light = make_task("chair", work_scale=0)
        assert task_cost_hint(heavy) > task_cost_hint(light) == 0.0
        assert resolve_executor(light, jobs=1) is None
        assert isinstance(resolve_executor(light, jobs=2, cpu_count=4),
                          SerialExecutor)
        assert isinstance(resolve_executor(heavy, jobs=2, cpu_count=4),
                          ProcessPoolExecutor)


# ---------------------------------------------------------------------------
# run_work: one pool queue, costliest first


def _sleepy_worker(state, item):
    kind, value = item
    if kind == "slow":
        time.sleep(0.2)
    return state * value


def _clock_worker(state, item):
    return time.perf_counter()


class TestRunWork:
    @pytest.mark.parametrize("executor", [
        SerialExecutor(),
        ProcessPoolExecutor(jobs=3),
    ], ids=["serial", "process"])
    def test_values_in_submission_order(self, executor):
        items = [("fast", i) for i in range(10)]
        timed = executor.run_work(_sleepy_worker, 3, items,
                                  costs=[float(i + 1) for i in range(10)])
        assert [v for _, v in timed] == [3 * i for i in range(10)]
        assert all(s >= 0.0 for s, _ in timed)

    def test_one_worker_runs_costliest_first(self):
        # The pool queue is filled in descending-cost order, so a lone
        # worker takes the items from the costliest to the cheapest.
        costs = [2.0, 9.0, 1.0, 5.0, 7.0]
        started = ProcessPoolExecutor(jobs=1).run_work(
            _clock_worker, None, list(range(5)), costs=costs)
        by_start = sorted(range(5), key=lambda i: started[i][1])
        assert by_start == sorted(range(5), key=lambda i: -costs[i])

    def test_empty_items(self):
        assert ProcessPoolExecutor(jobs=2).run_work(
            _sleepy_worker, 1, [], costs=[]) == []


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


def _two_batches(pages):
    return [PageBatch(k, tuple(pages[i] for i in group))
            for k, group in enumerate(
                pack_lpt([len(p.text) for p in pages], 2))]


class TestMetrics:
    def test_build_and_aggregate(self):
        batches = _two_batches(_pages([100, 100, 100, 100]))
        metrics = build_metrics("process", 2, wall_seconds=1.0,
                                batches=batches, batch_seconds=[0.6, 0.8])
        assert isinstance(metrics, RuntimeMetrics)
        assert metrics.pages == 4
        assert metrics.busy_seconds == pytest.approx(1.4)
        assert metrics.pages_per_second == pytest.approx(4.0)
        assert 0.0 < metrics.worker_utilization <= 1.0
        assert metrics.steals == metrics.split_parts == 0
        assert "process" in metrics.describe()

    def test_length_mismatch_rejected(self):
        batches = _two_batches(_pages([10, 10]))
        with pytest.raises(ValueError):
            build_metrics("serial", 1, 0.5, batches, [0.1])

    def test_systems_attach_metrics(self, tmp_path):
        task = make_task("play", work_scale=0)
        snaps = list(wikipedia_corpus(n_pages=8, seed=3).snapshots(2))
        system = make_system("noreuse", task, str(tmp_path), jobs=2,
                             backend="process")
        result = system.process(snaps[0])
        runtime = result.timings.runtime
        assert runtime is not None
        assert runtime.backend == "process" and runtime.jobs == 2
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


def _assert_process_parity(system_name, task, snaps, tmp_path, jobs=2):
    serial_dir = str(tmp_path / "serial")
    parallel_dir = str(tmp_path / "parallel")
    serial = _run_system(system_name, task, snaps, serial_dir)
    parallel = _run_system(system_name, task, snaps, parallel_dir,
                           executor=ProcessPoolExecutor(jobs=jobs))
    assert serial == parallel
    assert _tree_digests(serial_dir) == _tree_digests(parallel_dir)


SYSTEMS = ["noreuse", "shortcut", "cyclex", "delex"]


class TestSerialParallelParity:
    @pytest.mark.parametrize("system_name", SYSTEMS)
    def test_process_jobs2_results_and_files(self, system_name, tmp_path,
                                             dblife_snapshots):
        _assert_process_parity(system_name,
                               make_task("chair", work_scale=0),
                               dblife_snapshots, tmp_path)

    @pytest.mark.parametrize("system_name", SYSTEMS)
    def test_talk_process_jobs2_results_and_files(self, system_name,
                                                  tmp_path):
        snaps = list(dblife_corpus(n_pages=8, seed=3).snapshots(2))
        _assert_process_parity(system_name,
                               make_task("talk", work_scale=0),
                               snaps, tmp_path)

    @pytest.mark.parametrize("task_name", ["chair", "play"])
    @pytest.mark.parametrize("system_name", SYSTEMS)
    def test_process_jobs4_results_and_files(self, system_name, task_name,
                                             tmp_path, dblife_snapshots,
                                             wikipedia_snapshots):
        snaps = (dblife_snapshots if task_name == "chair"
                 else wikipedia_snapshots)
        _assert_process_parity(system_name,
                               make_task(task_name, work_scale=0),
                               snaps[:3], tmp_path, jobs=4)

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
        """Batch shapes follow the worker count; down to one page per
        batch (6 pages, 8 and 16 batches wanted) every shape is exact."""
        task = make_task("play", work_scale=0)
        snaps = list(wikipedia_corpus(n_pages=6, seed=5).snapshots(2))
        serial = _run_system("delex", task, snaps, str(tmp_path / "s"))
        for jobs in (2, 4):
            assert serial == _run_system(
                "delex", task, snaps, str(tmp_path / f"p{jobs}"),
                executor=ProcessPoolExecutor(jobs=jobs)), jobs


# ---------------------------------------------------------------------------
# Process workers: death and observability

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker-side patches reach workers only through fork")


def _dies_in_a_worker(batch_fn, victim, marker):
    """``batch_fn``, except that a forked worker handed ``victim``'s
    batch leaves ``marker`` behind and exits at once; the parent runs
    it as usual."""
    parent = os.getpid()

    def batch(state, lookup, items, timer):
        items = tuple(items)
        dids = {item if isinstance(item, str) else item[0]
                for item in items}
        if victim in dids and os.getpid() != parent:
            open(marker, "w").close()
            os._exit(1)
        return batch_fn(state, lookup, items, timer)
    return batch


@needs_fork
@pytest.mark.parametrize("system_name", ["noreuse", "delex"])
def test_dead_process_worker_falls_back_to_the_serial_answer(
        system_name, tmp_path, monkeypatch, dblife_snapshots):
    """A worker that dies mid-batch costs time, never the answer: the
    parent runs every batch left without a result inline, so results
    and capture trees equal a serial run's, and no worker is left."""
    task = make_task("chair", work_scale=0)
    snaps = dblife_snapshots[:3]
    serial_dir = str(tmp_path / "serial")
    serial = _run_system(system_name, task, snaps, serial_dir)

    marker = str(tmp_path / "worker-died")
    victim = snaps[0].canonical_pages()[0].did
    monkeypatch.setattr(noreuse_module, "_scratch_batch", _dies_in_a_worker(
        noreuse_module._scratch_batch, victim, marker))
    monkeypatch.setattr(engine_module, "_engine_batch", _dies_in_a_worker(
        engine_module._engine_batch, victim, marker))

    def hung(signum, frame):
        raise TimeoutError("the run hung after a worker died")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        parallel_dir = str(tmp_path / "parallel")
        parallel = _run_system(system_name, task, snaps, parallel_dir,
                               executor=ProcessPoolExecutor(jobs=2))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert os.path.exists(marker), "no worker was killed"
    assert serial == parallel
    assert _tree_digests(serial_dir) == _tree_digests(parallel_dir)
    assert multiprocessing.active_children() == []


@needs_fork
def test_process_run_traces_and_profiles_worker_units(tmp_path):
    """Units run in the workers of a process run; their spans and
    per-unit accounting come back to the parent's tracer and
    profiler."""
    task = make_task("play", work_scale=0)
    snaps = list(wikipedia_corpus(n_pages=8, seed=3).snapshots(2))
    tracer = otrace.install()
    profiler = oprof.install()
    try:
        _run_system("delex", task, snaps, str(tmp_path),
                    executor=ProcessPoolExecutor(jobs=2))
    finally:
        otrace.uninstall()
        oprof.uninstall()
    units = [r for r in tracer.records if r.cat == "unit"]
    assert units
    assert {"batch", "page", "snapshot"} <= {r.cat for r in tracer.records}
    # Worker spans sit on their worker's track, not the parent's.
    assert threading.get_ident() not in {r.tid for r in units}
    doc = profiler.to_dict()
    assert doc["units"]
    assert doc["pages_seen"] > 0


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
