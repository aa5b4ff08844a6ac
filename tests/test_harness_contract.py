"""The names the benchmark harness reaches into must keep resolving.

``benchmarks/harness/trace.py`` wraps program entry points by name for
its traced runs, and ``benchmarks/harness/batch.py::_accounting`` reads
``FastPathStats`` counters by name. A refactor that deletes or renames
one of them would otherwise only fail the harness's ``--trace 1`` runs;
here it fails the tier-1 suite.
"""

from __future__ import annotations

import ast
import importlib.util
import os

from repro.fastpath.memo import MatchMemo
from repro.fastpath.stats import FastPathStats

HARNESS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "harness")


def _load_trace_module():
    spec = importlib.util.spec_from_file_location(
        "harness_trace_contract", os.path.join(HARNESS, "trace.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fast_sum_names():
    """The counter names ``_accounting`` passes to ``fast_sum``."""
    with open(os.path.join(HARNESS, "batch.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    accounting = next(node for node in ast.walk(tree)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_accounting")
    return {call.args[0].value for call in ast.walk(accounting)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == "fast_sum"
            and isinstance(call.args[0], ast.Constant)}


def test_tracer_installs_and_uninstalls_both_halves():
    trace = _load_trace_module()
    original = MatchMemo.__dict__["match_many"]
    tracer = trace.Tracer()
    try:
        trace.install_batch(tracer)
        assert MatchMemo.__dict__["match_many"] is not original
        trace.install_serve(tracer)
    finally:
        tracer.uninstall()
    assert MatchMemo.__dict__["match_many"] is original


def test_every_fastpath_counter_the_harness_reads_resolves():
    names = _fast_sum_names()
    # The parse found the reads (a reshaped _accounting must not make
    # this test vacuous).
    assert {"memo_hits", "memo_misses", "region_short_circuits",
            "pages_paired"} <= names
    stats = FastPathStats()
    for name in sorted(names):
        value = getattr(stats, name)
        assert isinstance(value, (int, float)), name
