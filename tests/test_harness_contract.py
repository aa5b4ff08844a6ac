"""The names the benchmark harness reaches into must keep resolving.

``benchmarks/harness/trace.py`` wraps program entry points by name for
its traced runs, ``benchmarks/harness/batch.py::_accounting`` reads
``FastPathStats`` counters by name, every harness module imports names
from ``repro``, and ``serve_proc.py``/``serve_load.py`` call the
serving API with keyword arguments. A refactor that deletes or renames
one of them would otherwise only fail the harness's runs; here it
fails the tier-1 suite.
"""

from __future__ import annotations

import ast
import glob
import importlib
import importlib.util
import inspect
import os

from repro.core.runner import make_system
from repro.delta.maintain import DeltaMaintainer
from repro.fastpath.memo import MatchMemo
from repro.fastpath.stats import FastPathStats
from repro.serve import (IngestLoop, IngestQueue, ServeApp, SpoolWatcher,
                         ViewConfig, ViewRegistry, build_server)
from repro.serve.store import TupleStore
from repro.serve.views import MAINTENANCE_SYSTEMS

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


def _parse(name):
    with open(os.path.join(HARNESS, name), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def test_every_repro_import_in_the_harness_resolves():
    seen = 0
    for path in sorted(glob.glob(os.path.join(HARNESS, "*.py"))):
        for node in ast.walk(_parse(os.path.basename(path))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "repro":
                        importlib.import_module(alias.name)
                        seen += 1
            elif (isinstance(node, ast.ImportFrom) and node.module
                  and node.module.split(".")[0] == "repro"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    # A name is an attribute or a submodule.
                    if not hasattr(module, alias.name):
                        importlib.import_module(
                            f"{node.module}.{alias.name}")
                    seen += 1
    assert seen >= 20, seen


#: Callee name at a harness call site -> (callable, takes self). A
#: method is matched by its attribute name (``store.apply_delta(...)``).
_SERVING_CALLS = {
    "make_system": (make_system, False),
    "ViewConfig": (ViewConfig, False),
    "ViewRegistry": (ViewRegistry, False),
    "register": (ViewRegistry.register, True),
    "IngestQueue": (IngestQueue, False),
    "IngestLoop": (IngestLoop, False),
    "apply_one": (IngestLoop.apply_one, True),
    "SpoolWatcher": (SpoolWatcher, False),
    "ServeApp": (ServeApp, False),
    "handle_query": (ServeApp.handle_query, True),
    "build_server": (build_server, False),
    "TupleStore": (TupleStore, False),
    "apply_delta": (TupleStore.apply_delta, True),
    "DeltaMaintainer": (DeltaMaintainer, False),
}


def _callee(call):
    if isinstance(call.func, ast.Name):
        return call.func.id
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    return None


def test_serving_calls_bind_to_their_signatures():
    """Each keyword the serving half passes names a real parameter,
    and the positional count fits."""
    found = {}
    for name in ("serve_proc.py", "serve_load.py", "batch.py"):
        for call in ast.walk(_parse(name)):
            if not isinstance(call, ast.Call):
                continue
            callee = _callee(call)
            if callee not in _SERVING_CALLS:
                continue
            target, is_method = _SERVING_CALLS[callee]
            assert not any(isinstance(a, ast.Starred) for a in call.args)
            keywords = [kw.arg for kw in call.keywords]
            assert None not in keywords, f"{name}: **kwargs to {callee}"
            sig = inspect.signature(target)
            for kw in keywords:
                assert kw in sig.parameters, (
                    f"{name}:{call.lineno}: {callee}() has no "
                    f"parameter {kw!r}")
            positional = [None] * (len(call.args) + is_method)
            sig.bind_partial(*positional, **dict.fromkeys(keywords))
            found.setdefault(callee, set()).update(keywords)
    # The parse found the calls (a reshaped harness must not make this
    # test vacuous).
    assert {"make_system", "ViewConfig", "register", "IngestLoop",
            "ServeApp", "SpoolWatcher", "apply_delta"} <= set(found)
    assert "relations" in found["apply_delta"]
    assert "poll_seconds" in found["SpoolWatcher"]
    assert "system" in found["ViewConfig"]


def test_the_maintenance_modes_the_harness_runs_exist():
    assert {"delta", "delex", "noreuse"} <= set(MAINTENANCE_SYSTEMS)
