"""Self-test of the benchmark harness. Run explicitly (not part of tier-1):

    python3 -m pytest benchmarks/harness/test_harness.py -q

All four workloads at ``--scale 0.02`` with a shortened window, in well under
a minute: every named metric present and finite, no failed operation, same
seed => same corpus digest and same count metrics (plan-dependent ones when
the optimizer chose the same plans), the server subprocess
reaped and its directories removed, a corrupted oracle row surfacing as a
failure, and the driver's command-line contract.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (ROOT, WORK_ROOT, ensure_repro_importable,  # noqa: E402
                    make_workdir, remove_workdir)

ensure_repro_importable()

import run as harness  # noqa: E402
from compare import differing_counts  # noqa: E402
from metrics import END_TO_END, GATED, PER_LAYER, benchmark_doc  # noqa: E402
from oracle import Oracle  # noqa: E402
from workloads import WORKLOADS, sized  # noqa: E402

SCALE, SECONDS, SEED = 0.02, 1.0, 3


def small(name: str):
    return sized(WORKLOADS[name], SCALE, SECONDS)


@pytest.fixture(scope="module")
def runs():
    """Each workload once in full, and its layer half a second time."""
    return {name: (harness.run_workload(small(name), SEED, None),
                   harness.run_workload(small(name), SEED, 1))
            for name in WORKLOADS}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_named_metric_present_and_finite(runs, name):
    full, _again = runs[name]
    assert full["failed"] == 0 and full["fail_frac"] == 0
    assert full["attempted"] > 0
    e2e = full["end_to_end"]["metrics"]
    for metric in END_TO_END:
        assert math.isfinite(e2e[metric.name]) and e2e[metric.name] > 0, \
            metric.name
    for gated in GATED:
        if name in gated.workloads:
            assert math.isfinite(e2e[gated.name]) and e2e[gated.name] > 0, \
                gated.name
    layers = full["layers"]["metrics"]
    for metric in PER_LAYER:
        if name in metric.applies and (
                metric.applies != ("wiki_highchurn_jobs2",)
                or small(name).jobs_used() > 1):
            assert math.isfinite(layers[metric.name]), metric.name
    assert set(layers) <= {m.name for m in PER_LAYER}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_trace_self_times_account_for_the_root(runs, name):
    trace = runs[name][0]["layers"]["trace"]
    root = trace["roots"][trace["root"]]
    assert root["count"] > 0
    assert root["self_sum_s"] == pytest.approx(root["total_s"], rel=1e-6)
    assert root["self_sum_s"] == pytest.approx(trace["traced_wall_s"], rel=0.10)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_inputs_and_counts(runs, name):
    differing, compared = differing_counts([{"runs": list(runs[name])}])
    assert differing == []
    assert "counts" in compared and "no layers half" not in compared


def test_counts_are_not_called_identical_without_a_layers_half(runs):
    run = {"end_to_end": runs["serve_http"][0]["end_to_end"]}
    differing, compared = differing_counts([{"runs": [run, run]}])
    assert differing == [] and "no layers half" in compared


def test_inputs_shared_between_serial_and_parallel(runs):
    assert (runs["wiki_highchurn"][0]["layers"]["corpus_digest"]
            == runs["wiki_highchurn_jobs2"][0]["layers"]["corpus_digest"])


def test_server_reaped_and_directories_removed(runs):
    assert not os.path.exists(WORK_ROOT)
    harness.stop_resource_tracker()
    with pytest.raises(ChildProcessError):  # no child left, running or zombie
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", ["wiki_highchurn", "serve_http"])
def test_corrupted_oracle_row_is_a_failure(name, monkeypatch):
    spec = small(name)
    reference = Oracle.results

    def corrupted(self, snapshot):
        """The last snapshot's reference gains a row no extraction produces."""
        results = reference(self, snapshot)
        if snapshot.index != spec.reuse_snapshots:
            return results
        return {rel: list(rows) + [(("corrupt", "row"),)]
                for rel, rows in results.items()}

    monkeypatch.setattr(Oracle, "results", corrupted)
    run = harness.run_workload(spec, SEED, 0)
    assert run["failed"] > 0 and run["fail_frac"] > 0
    assert not os.path.exists(WORK_ROOT)


def test_benchmark_json_is_the_registry():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        assert json.load(f) == benchmark_doc()


def _cli(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/harness/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,names", [
    ("0", [m.name for m in END_TO_END]),
    ("1", [m.name for m in PER_LAYER])])
def test_driver_contract(trace, names):
    done = _cli(ROOT, "--workload", "dblife_lowchurn", "--seed", "5",
                "--scale", str(SCALE), "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert list(line["metrics"]) == names
    for value in line["metrics"].values():
        assert set(value) == {"value", "unit"}
        assert math.isfinite(value["value"])


def test_refuses_to_run_without_the_program():
    bare = make_workdir("bare_checkout")
    try:
        shutil.copytree(HERE, os.path.join(bare, "benchmarks", "harness"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        done = _cli(bare, "--workload", "dblife_lowchurn", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    finally:
        remove_workdir(bare)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
