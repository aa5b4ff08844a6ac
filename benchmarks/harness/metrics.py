"""The metric registry: every name the benchmark prints, with its unit.

``BENCHMARK.json`` is this table in the driver's schema (``test_harness``
checks that they agree). The driver's schema has no room for which workloads
a metric applies to or which end-to-end metric a layer should move, so those
live here and in README.md.

End-to-end metrics are reported by every workload. ``snapshot_s_p50`` is the
median seconds from "a new snapshot is handed to the system" to "its result
is available to the user": the wall time of ``system.process`` for the batch
workloads, spool-drop due time to the first ``/query`` response at that
snapshot index, over every drop of every window, for ``serve_http``.

On ``serve_http`` that number has the resolution of its probe. The probe loop
starts at the drop and one ``/query?limit=1`` takes ~44 ms on the reference
box (``samples.probe_step_ms`` in the result file), so each drop's freshness
is a whole number of probe responses and the median moves in steps of about
that size: an apply speed-up smaller than one step is invisible in it or shows
as a jump of one step. ``serve.ingest.lag_s_p50`` — the server's own
enqueue-to-applied seconds for the same drops, from ``/metrics`` — has no
step; the end-to-end half reports it beside ``snapshot_s_p50`` and
``compare.py`` gates it, so that such a change can still be resolved.

The driver gates an end-to-end metric on every workload and refuses one whose
run-to-run spread exceeds its bound, so three kinds of user-visible number
are listed as per-layer metrics in ``BENCHMARK.json`` but measured in the
untraced end-to-end half of a run and gated by ``compare.py`` (``GATED``):
the reader-side latencies and the ingest lag, which exist on ``serve_http``
only, and ``pages_per_s`` (pages over the *sum* of seconds, so slow outliers
show where the median hides them), whose spread over ten seeds on
``wiki_highchurn`` is 11-21 % because a few all-DN plans per series dominate
the sum.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

BATCH = ("dblife_lowchurn", "wiki_highchurn", "wiki_highchurn_jobs2")
SERVE = ("serve_http",)
ALL = BATCH + SERVE


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float


class Layer(NamedTuple):
    name: str
    unit: str
    better: str
    applies: Tuple[str, ...]


#: Timing bounds are the widest the driver allows: identical pure-Python
#: loops on the reference box vary by +-25 % in bursts and by 5-10 % between
#: whole runs, and which plan the optimizer picks varies with the corpus.
END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("snapshot_s_p50", "s", "lower", 0.25),
    EndToEnd("peak_rss_mb", "mb", "lower", 0.10),
]


class Gated(NamedTuple):
    """A per-layer metric of ``BENCHMARK.json`` that the end-to-end half of a
    run also reports and ``compare.py`` holds to a bound all the same."""

    name: str
    bound: float
    workloads: Tuple[str, ...]


GATED: List[Gated] = [
    Gated("pages_per_s", 0.10, ALL),
    Gated("serve.query_ms_p50", 0.10, SERVE),
    Gated("serve.query_ms_p95", 0.20, SERVE),
    Gated("serve.scan_ms_p50", 0.10, SERVE),
    Gated("serve.ingest.lag_s_p50", 0.25, SERVE),
]

PARALLEL = ("wiki_highchurn_jobs2",)

PER_LAYER: List[Layer] = [
    Layer("pages_per_s", "1/s", "higher", ALL),
    Layer("matchers.busy_s", "s", "lower", BATCH),
    Layer("matchers.calls", "count", "lower", BATCH),
    Layer("matchers.ud.match_ms_p50", "ms", "lower", BATCH),
    Layer("matchers.st.match_ms_p50", "ms", "lower", BATCH),
    Layer("matchers.ud.matched_frac", "frac", "higher", BATCH),
    Layer("matchers.st.matched_frac", "frac", "higher", BATCH),
    Layer("extractors.busy_s", "s", "lower", BATCH),
    Layer("extractors.extracted_chars_frac", "frac", "lower", BATCH),
    Layer("extractors.scratch_s_per_mb", "s/mb", "lower", BATCH),
    Layer("reuse.copy_s", "s", "lower", BATCH),
    Layer("reuse.io_s", "s", "lower", BATCH),
    Layer("reuse.copied_tuples", "count", "higher", BATCH),
    Layer("reuse.capture_bytes_per_page_byte", "bytes/byte", "lower", BATCH),
    Layer("reuse.blocks_io", "count", "lower", BATCH),
    Layer("fastpath.short_circuit_frac", "frac", "higher", BATCH),
    Layer("fastpath.memo_hit_rate", "frac", "higher", BATCH),
    Layer("fastpath.combined_hit_rate", "frac", "higher", BATCH),
    Layer("fastpath.cache_evictions", "count", "lower", BATCH),
    Layer("fastpath.automata_reused_frac", "frac", "higher", BATCH),
    Layer("fastpath.reader_index_seeks", "count", "lower", BATCH),
    Layer("optimizer.busy_s", "s", "lower", BATCH),
    Layer("optimizer.first_reuse_snapshot_s", "s", "lower", BATCH),
    Layer("optimizer.plan_changes", "count", "lower", BATCH),
    Layer("optimizer.collect_ms", "ms", "lower", BATCH),
    Layer("optimizer.search_ms", "ms", "lower", BATCH),
    Layer("core.others_s", "s", "lower", BATCH),
    Layer("core.overlap_s", "s", "lower", BATCH),
    Layer("runtime.worker_utilization", "frac", "higher", PARALLEL),
    Layer("runtime.steals", "count", "lower", PARALLEL),
    Layer("runtime.split_parts", "count", "lower", PARALLEL),
    Layer("runtime.dispatch_s", "s", "lower", PARALLEL),
    Layer("runtime.speedup_vs_serial", "x", "higher", PARALLEL),
    Layer("plan.compile_ms", "ms", "lower", ALL),
    Layer("corpus.generate_s", "s", "lower", ALL),
    Layer("corpus.write_snapshot_ms", "ms", "lower", ALL),
    Layer("corpus.read_snapshot_ms", "ms", "lower", ALL),
    Layer("serve.ingest.lag_s_p50", "s", "lower", SERVE),
    Layer("serve.ingest.queue_depth_max", "count", "lower", SERVE),
    Layer("serve.ingest.late_s_max", "s", "lower", SERVE),
    Layer("serve.views.apply_s_p50", "s", "lower", SERVE),
    Layer("serve.views.engine_s_p50", "s", "lower", SERVE),
    Layer("serve.views.diff_ms", "ms", "lower", SERVE),
    Layer("serve.store.apply_delta_ms", "ms", "lower", SERVE),
    Layer("delta.apply_s_p50", "s", "lower", SERVE),
    Layer("delta.fallback_ratio", "frac", "lower", SERVE),
    Layer("delta.decisions.delta", "count", "higher", SERVE),
    Layer("delta.decisions.fallback", "count", "lower", SERVE),
    Layer("delta.decisions.unchanged", "count", "higher", SERVE),
    Layer("delta.weight", "count", "lower", SERVE),
    Layer("serve.views.apply_s_p50.delex", "s", "lower", SERVE),
    Layer("serve.views.apply_s_p50.noreuse", "s", "lower", SERVE),
    Layer("serve.server.handle_query_us", "us", "lower", SERVE),
    Layer("serve.server.serialize_us", "us", "lower", SERVE),
    Layer("serve.server.socket_ms", "ms", "lower", SERVE),
    Layer("serve.query_busy_ms_p50", "ms", "lower", SERVE),
    Layer("serve.query_quiet_ms_p50", "ms", "lower", SERVE),
    Layer("serve.server.qps", "1/s", "higher", SERVE),
    Layer("serve.query_ms_p50", "ms", "lower", SERVE),
    Layer("serve.query_ms_p95", "ms", "lower", SERVE),
    Layer("serve.scan_ms_p50", "ms", "lower", SERVE),
    Layer("obs.trace_overhead_frac", "frac", "lower", ALL),
]

#: Which end-to-end metric each layer should move, where, and the workload
#: on which the prediction is no change.
LAYER_MAP: List[Dict[str, object]] = [
    {"layer": "matchers", "moves": "snapshot_s_p50",
     "on": ["wiki_highchurn", "wiki_highchurn_jobs2"],
     "no_change_on": ["dblife_lowchurn"]},
    {"layer": "extractors", "moves": "snapshot_s_p50, setup_s",
     "on": ["wiki_highchurn", "wiki_highchurn_jobs2", "setup_s everywhere"],
     "no_change_on": ["dblife_lowchurn (snapshot_s_p50)"]},
    {"layer": "reuse", "moves": "snapshot_s_p50",
     "on": ["dblife_lowchurn"], "no_change_on": ["serve_http"]},
    {"layer": "fastpath", "moves": "snapshot_s_p50, peak_rss_mb",
     "on": ["dblife_lowchurn (short circuit)",
            "wiki_highchurn (memo, cache, automata)"],
     "no_change_on": ["serve_http"]},
    {"layer": "optimizer", "moves": "snapshot_s_p50",
     "on": ["dblife_lowchurn", "wiki_highchurn"],
     "no_change_on": ["serve_http"]},
    {"layer": "core", "moves": "snapshot_s_p50",
     "on": ["dblife_lowchurn"], "no_change_on": ["serve_http"]},
    {"layer": "runtime", "moves": "snapshot_s_p50, setup_s",
     "on": ["wiki_highchurn_jobs2"],
     "no_change_on": ["wiki_highchurn", "dblife_lowchurn"]},
    {"layer": "plan, corpus", "moves": "setup_s; read_snapshot_ms also "
     "snapshot_s_p50 on serve_http",
     "on": list(ALL), "no_change_on": ["snapshot_s_p50 on batch"]},
    {"layer": "serve.ingest, serve.views, serve.store, delta",
     "moves": "snapshot_s_p50", "on": ["serve_http"],
     "no_change_on": list(BATCH)},
    {"layer": "serve.server",
     "moves": "serve.query_ms_p50, serve.query_ms_p95, serve.scan_ms_p50",
     "on": ["serve_http"], "no_change_on": list(BATCH)},
]

UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
UNITS.update({m.name: m.unit for m in PER_LAYER})


def benchmark_doc() -> Dict[str, object]:
    """``BENCHMARK.json``: this registry in the driver's schema."""
    from workloads import RUN_SECONDS, WORKLOADS

    return {
        "command": ["python3", "benchmarks/harness/run.py"],
        "paths": ["benchmarks/harness"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [m._asdict() for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    import json

    print(json.dumps(benchmark_doc(), indent=2))
