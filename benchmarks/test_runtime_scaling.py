"""Execution-runtime scaling (extension).

Page-level IE is embarrassingly parallel, so fanning page batches out
over workers should cut wall time close to linearly while — by the
runtime's determinism contract — changing nothing about the results
or the reuse-file bytes. This benchmark measures pages/sec for the
serial backend vs an auto-chosen 4-worker run (the heavy emulated
blackboxes select the process pool) for No-reuse and Delex on a
synthetic DBLife corpus, and emits a machine-readable
``BENCH_runtime.json`` at the repo root — including the runtime's own
worker-utilization telemetry for the parallel run.

On a 1-CPU machine there is no parallel speedup to have; the auto
chooser detects that and falls back to the serial backend, so the
"parallel" configuration must stay within noise of the serial one
(verdict ``serial_fallback_ok``, floor 0.9x). That floor is the
regression guard for the old behavior, where the chooser picked the
process pool on a 1-CPU box and paid ~6% fork+pickle overhead for
nothing. With more than one CPU but fewer than 4, the chooser still
picks the process pool; its 4 workers share the cores, so No-reuse
must beat serial (> 1.0x) rather than meet the 1.5x floor.
"""

import hashlib
import json
import os
import tempfile

from conftest import save_table

from repro.core.runner import (
    canonical_results,
    make_system,
    resolve_executor,
)
from repro.corpus import dblife_corpus
from repro.extractors import make_task

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_runtime.json")

TASK = "chair"           # DBLife task with the heaviest blackboxes
PAGES = int(os.environ.get("REPRO_BENCH_RUNTIME_PAGES", "24"))
N_SNAPSHOTS = 3
WORK_SCALE = float(os.environ.get("REPRO_BENCH_RUNTIME_WORK", "1.0"))
JOBS = 4

NOREUSE_MIN_SPEEDUP = 1.5
SERIAL_FALLBACK_MIN_SPEEDUP = 0.9


def _tree_digest(directory):
    """One digest over every file the run left behind, order-stable."""
    acc = hashlib.sha256()
    for root, _, names in sorted(os.walk(directory)):
        for name in sorted(names):
            path = os.path.join(root, name)
            acc.update(os.path.relpath(path, directory).encode())
            with open(path, "rb") as f:
                acc.update(f.read())
    return acc.hexdigest()


def _measure(task, snapshots, system_name, jobs, workdir):
    """Total seconds, pages/sec, runtime telemetry, and results."""
    executor = resolve_executor(task, jobs=jobs)
    system = make_system(system_name, task, workdir, executor=executor)
    seconds = 0.0
    pages = 0
    outputs = []
    runtime_doc = None
    prev = None
    for snapshot in snapshots:
        result = system.process(snapshot, prev)
        seconds += result.timings.total
        pages += result.pages
        outputs.append(canonical_results(result))
        runtime = result.timings.runtime
        if runtime is not None and runtime_doc is None:
            runtime_doc = runtime.to_dict()
        prev = snapshot
    backend = executor.name if executor is not None else "serial"
    row = {
        "backend": backend,
        "jobs": jobs,
        "seconds": seconds,
        "pages": pages,
        "pages_per_second": pages / seconds if seconds > 0 else 0.0,
    }
    if runtime_doc is not None:
        row["runtime"] = {key: runtime_doc.get(key) for key in
                          ("backend", "jobs", "worker_utilization")}
    return row, outputs, _tree_digest(workdir)


def run_runtime_scaling():
    task = make_task(TASK, work_scale=WORK_SCALE)
    snapshots = list(dblife_corpus(n_pages=PAGES, seed=71,
                                   p_unchanged=0.7).snapshots(N_SNAPSHOTS))
    data = {
        "task": TASK,
        "pages": PAGES,
        "snapshots": N_SNAPSHOTS,
        "work_scale": WORK_SCALE,
        "jobs": JOBS,
        "cpu_count": os.cpu_count(),
        "systems": {},
    }
    with tempfile.TemporaryDirectory() as tmp_root:
        for name in ("noreuse", "delex"):
            serial, serial_out, serial_digest = _measure(
                task, snapshots, name, 1,
                os.path.join(tmp_root, f"{name}_serial"))
            parallel, parallel_out, parallel_digest = _measure(
                task, snapshots, name, JOBS,
                os.path.join(tmp_root, f"{name}_par"))
            for i, (s, p) in enumerate(zip(serial_out, parallel_out)):
                assert s == p, \
                    f"{name}: parallel run changed snapshot {i} results"
            assert serial_digest == parallel_digest, \
                f"{name}: parallel run changed the reuse-file bytes"
            data["systems"][name] = {
                "serial": serial,
                "parallel": parallel,
                "byte_identical": True,
                "speedup": (serial["seconds"] / parallel["seconds"]
                            if parallel["seconds"] > 0 else 0.0),
            }
    return data


def _render(data):
    lines = [f"Runtime scaling ('{data['task']}', {data['pages']} pages, "
             f"{data['snapshots']} snapshots, jobs={data['jobs']}, "
             f"cpus={data['cpu_count']})",
             f"{'system':<9}{'serial p/s':>12}{'jobs4 p/s':>12}"
             f"{'speedup':>9}{'backend':>9}{'util':>7}"]
    for name, row in data["systems"].items():
        runtime = row["parallel"].get("runtime") or {}
        lines.append(
            f"{name:<9}{row['serial']['pages_per_second']:>12.1f}"
            f"{row['parallel']['pages_per_second']:>12.1f}"
            f"{row['speedup']:>9.2f}{row['parallel']['backend']:>9}"
            f"{runtime.get('worker_utilization', 0):>7.0%}")
    return "\n".join(lines) + "\n"


def _verdicts(data):
    """Per-system speedup verdicts, honest about the hardware.

    ``ok``: the parallel run used the process backend and the system
    met its speedup floor — No-reuse at least 1.5x with one CPU per
    worker, more than 1.0x with fewer CPUs than workers.
    ``serial_fallback_ok``: one CPU, so the auto chooser resolved to
    the serial backend and the run stayed within noise of serial
    (>= 0.9x — the regression guard for the chooser picking a losing
    process pool on one CPU). ``fail``: either floor missed.
    """
    cpus = data["cpu_count"] or 1
    verdicts = {}
    for name, row in data["systems"].items():
        if cpus == 1:
            fell_back = row["parallel"]["backend"] == "serial"
            within_noise = row["speedup"] >= SERIAL_FALLBACK_MIN_SPEEDUP
            verdicts[name] = ("serial_fallback_ok"
                              if fell_back and within_noise else "fail")
            continue
        if row["parallel"]["backend"] != "process":
            passed = False
        elif name == "noreuse":
            passed = row["speedup"] >= (NOREUSE_MIN_SPEEDUP
                                        if cpus >= data["jobs"] else 1.0)
        else:
            passed = row["speedup"] > 0.0
        verdicts[name] = "ok" if passed else "fail"
    return verdicts


def test_runtime_scaling(benchmark):
    data = benchmark.pedantic(run_runtime_scaling, rounds=1, iterations=1)
    data["verdicts"] = _verdicts(data)
    with open(BENCH_JSON, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    save_table("runtime_scaling.txt", _render(data))

    assert "fail" not in data["verdicts"].values(), data["verdicts"]
    if (os.cpu_count() or 1) == 1:
        # No speedup can exist; the auto chooser must have fallen back
        # to serial and stayed within noise of it.
        assert set(data["verdicts"].values()) == {"serial_fallback_ok"}
        return
    if (os.cpu_count() or 1) < JOBS:
        # Fewer cores than workers: the verdicts above hold the only
        # floor (No-reuse beats serial on the process backend).
        return
    noreuse = data["systems"]["noreuse"]
    assert noreuse["parallel"]["backend"] == "process"
    # From-scratch extraction is embarrassingly parallel: 4 workers
    # must buy at least 1.5x on the dominant extraction cost.
    assert noreuse["speedup"] >= NOREUSE_MIN_SPEEDUP, \
        f"noreuse speedup {noreuse['speedup']:.2f} < {NOREUSE_MIN_SPEEDUP}"
    # Delex parallelizes too (weaker bound: its per-snapshot work is
    # mostly reuse bookkeeping, which is cheaper than extraction).
    assert data["systems"]["delex"]["speedup"] > 0.0
