"""repro.obs — registry, tracer, profiler, report, and the zero-cost
contract.

Pins the PR's acceptance properties: the Prometheus exposition is
well-formed (no duplicate samples, no nan, counters non-negative),
the trace export is a loadable Chrome ``trace_event`` document, the
profiler's slow-page heap keeps exactly the K slowest, and — the big
one — extraction output is byte-identical with every obs layer on or
off.
"""

from __future__ import annotations

import json
import math
import os
import pickle
import re
import tempfile

import pytest

from repro import obs
from repro.obs import profile as oprof
from repro.obs import registry as oreg
from repro.obs import report as oreport
from repro.obs import trace as otrace
from repro.obs.registry import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.util import finite_or_zero, safe_rate
from repro.timing import EXTRACT, MATCH, Timings


@pytest.fixture(autouse=True)
def _obs_clean():
    """Every test starts and ends with every obs layer off and empty."""
    obs.disable_all()
    oreg.REGISTRY.reset()
    yield
    obs.disable_all()
    oreg.REGISTRY.reset()


# ---------------------------------------------------------------------------
# util: the shared rate guard


class TestSafeRate:
    @pytest.mark.parametrize("num,den,expected", [
        (10.0, 2.0, 5.0),
        (0.0, 0.0, 0.0),          # the classic pages/sec at elapsed==0
        (5.0, 0.0, 0.0),
        (5.0, -1.0, 0.0),         # negative denominators are nonsense
        (0.0, 5.0, 0.0),
        (float("nan"), 2.0, 0.0),
        (2.0, float("nan"), 0.0),
        (float("inf"), 2.0, 0.0),
        (2.0, float("inf"), 0.0),
    ])
    def test_edges(self, num, den, expected):
        value = safe_rate(num, den)
        assert value == expected
        assert math.isfinite(value)

    def test_finite_or_zero(self):
        assert finite_or_zero(1.5) == 1.5
        assert finite_or_zero(float("nan")) == 0.0
        assert finite_or_zero(float("inf")) == 0.0


# ---------------------------------------------------------------------------
# registry primitives


class TestPrimitives:
    def test_counter_rejects_bad_samples(self):
        c = Counter()
        assert c.inc(2.0) and c.value == 2.0
        assert not c.inc(-1.0)
        assert not c.inc(float("nan"))
        assert not c.inc(float("inf"))
        assert c.value == 2.0  # untouched by rejected samples

    def test_gauge(self):
        g = Gauge()
        assert g.set(-3.5) and g.value == -3.5  # gauges may go negative
        assert not g.set(float("nan"))
        assert g.value == -3.5

    def test_histogram_buckets(self):
        h = Histogram((0.1, 1.0))
        for v in (0.05, 0.5, 2.0, 0.09):
            assert h.observe(v)
        assert not h.observe(float("nan"))
        assert h.bucket_counts == [2, 1, 1]  # <=0.1, <=1.0, +Inf
        assert h.count == 4
        assert h.mean == pytest.approx((0.05 + 0.5 + 2.0 + 0.09) / 4)

    def test_histogram_mean_empty(self):
        assert Histogram((1.0,)).mean == 0.0


class TestRegistry:
    def test_labels_and_idempotent_registration(self):
        reg = MetricsRegistry()
        fam = reg.counter("x_total", "help", labels=("system",))
        fam.labels(system="a").inc(1)
        fam2 = reg.counter("x_total", "help", labels=("system",))
        assert fam2 is fam

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="re-registered"):
            reg.gauge("x_total")

    def test_label_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total", labels=("a",))
        with pytest.raises(ValueError, match="re-registered"):
            reg.counter("x_total", labels=("b",))

    def test_bad_names_raise(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labels=("bad-label",))

    def test_dropped_samples_counted(self):
        reg = MetricsRegistry()
        reg.inc("x_total", -5.0)
        reg.observe("y_seconds", float("nan"))
        dropped = reg.counter("repro_obs_dropped_samples_total")
        assert dropped.child().value == 2.0

    def test_to_dict_shapes(self):
        reg = MetricsRegistry()
        reg.inc("x_total", 2.0, system="a")
        reg.observe("y_seconds", 0.5)
        doc = reg.to_dict()
        assert doc["x_total"]["kind"] == "counter"
        assert doc["x_total"]["samples"][0]["labels"] == {"system": "a"}
        assert doc["y_seconds"]["samples"][0]["count"] == 1


# ---------------------------------------------------------------------------
# Prometheus exposition validity (the mini-parser the CI job also runs)


def parse_prometheus(text):
    """Tiny exposition parser: returns (types, samples) and asserts
    line-level well-formedness."""
    types = {}
    samples = []
    line_re = re.compile(
        r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ", 3)
            assert name not in types, f"duplicate TYPE for {name}"
            types[name] = kind
            continue
        m = line_re.match(line)
        assert m, f"malformed sample line: {line!r}"
        name, labels, value = m.group(1), m.group(2) or "", m.group(3)
        assert value != "nan" and value != "NaN", line
        samples.append((name, labels, float(value)
                        if value != "+Inf" else math.inf))
    return types, samples


def test_exposition_is_well_formed():
    reg = MetricsRegistry()
    reg.inc("repro_x_total", 3.0, system="a")
    reg.inc("repro_x_total", 1.5, system='b"quoted\nname')
    reg.set("repro_g", -2.0)
    reg.observe("repro_h_seconds", 0.3, buckets=(0.1, 1.0))
    text = reg.render_prometheus()
    types, samples = parse_prometheus(text)
    assert types["repro_x_total"] == "counter"
    assert types["repro_h_seconds"] == "histogram"
    # No duplicate samples (same name+labels twice).
    keys = [(n, l) for n, l, _ in samples]
    assert len(keys) == len(set(keys))
    # Counters are non-negative.
    for name, _, value in samples:
        if types.get(name) == "counter" or name.endswith("_total"):
            assert value >= 0
    # Histogram buckets are cumulative and _count matches +Inf bucket.
    buckets = [(l, v) for n, l, v in samples
               if n == "repro_h_seconds_bucket"]
    values = [v for _, v in buckets]
    assert values == sorted(values)
    count = [v for n, _, v in samples if n == "repro_h_seconds_count"]
    assert count == [values[-1]]
    # Escaping survived: the label value round-trips without a raw
    # newline breaking the line discipline.
    assert '\\"quoted\\nname' in text


def test_exposition_empty_registry():
    assert MetricsRegistry().render_prometheus() == ""


# ---------------------------------------------------------------------------
# publish points


def _fabricated_timings(total=2.0, match=0.5, extract=1.0):
    t = Timings(total=total)
    t.add(MATCH, match)
    t.add(EXTRACT, extract)
    return t


class TestPublish:
    def test_publish_timings_decomposition(self):
        oreg.publish_timings("delex", _fabricated_timings())
        text = oreg.REGISTRY.render_prometheus()
        types, samples = parse_prometheus(text)
        by_key = {(n, l): v for n, l, v in samples}
        assert by_key[("repro_timing_seconds_total",
                       '{system="delex",category="match"}')] == 0.5
        assert by_key[("repro_timing_seconds_total",
                       '{system="delex",category="extraction"}')] == 1.0
        # 2.0 total - 1.5 attributed = 0.5 others, overlap 0.
        assert by_key[("repro_timing_seconds_total",
                       '{system="delex",category="others"}')] == 0.5
        assert by_key[("repro_timing_overlap_seconds_total",
                       '{system="delex"}')] == 0.0
        assert by_key[("repro_snapshot_seconds_count",
                       '{system="delex"}')] == 1

    def test_publish_timings_overlap(self):
        # Parallel shape: workers' attributed seconds exceed the wall.
        t = _fabricated_timings(total=1.0, match=0.9, extract=0.8)
        oreg.publish_timings("delex", t)
        _, samples = parse_prometheus(oreg.REGISTRY.render_prometheus())
        by_key = {(n, l): v for n, l, v in samples}
        assert by_key[("repro_timing_seconds_total",
                       '{system="delex",category="others"}')] == 0.0
        assert by_key[("repro_timing_overlap_seconds_total",
                       '{system="delex"}')] == pytest.approx(0.7)

    def test_publish_fastpath_and_runtime_attached(self):
        from repro.fastpath.stats import FastPathStats
        from repro.runtime.metrics import BatchMetric, RuntimeMetrics

        t = _fabricated_timings()
        t.fastpath = FastPathStats(region_short_circuits=3, memo_misses=1)
        t.runtime = RuntimeMetrics(
            backend="process", jobs=2, wall_seconds=2.0,
            batches=[BatchMetric(index=0, pages=10, chars=100,
                                 seconds=3.0)])
        oreg.publish_timings("delex", t)
        doc = oreg.REGISTRY.to_dict()
        assert "repro_fastpath_events_total" in doc
        assert "repro_runtime_pages_per_second" in doc
        hit_rate = doc["repro_fastpath_combined_hit_rate"]["samples"][0]
        assert hit_rate["value"] == pytest.approx(0.75)


# ---------------------------------------------------------------------------
# tracer


class TestTracer:
    def test_span_nesting_and_annotate(self):
        tracer = otrace.install()
        with otrace.span("snap", cat="snapshot", index=3):
            with otrace.span("pg", cat="page", did="p1"):
                otrace.annotate("memo_hits")
                otrace.annotate("memo_hits")
                otrace.annotate("copied", 5)
        otrace.uninstall()
        records = {r.name: r for r in tracer.records}
        assert records["pg"].args == {"did": "p1", "memo_hits": 2,
                                      "copied": 5}
        assert records["snap"].args["index"] == 3
        assert records["pg"].dur >= 0

    def test_event_records_given_duration(self):
        tracer = otrace.install()
        otrace.event("unit", cat="unit", start=10.0, dur=0.25, uid="u1")
        assert tracer.records[0].dur == 0.25
        assert tracer.records[0].args["uid"] == "u1"

    def test_annotate_without_active_span_is_noop(self):
        otrace.install()
        otrace.annotate("orphan")  # must not raise

    def test_disabled_facade_is_noop(self):
        assert otrace.span("x") is otrace.NULL
        with otrace.NULL as sp:
            sp.set("k", 1)
        otrace.event("x", cat="c", start=0, dur=0)
        otrace.annotate("k")

    def test_sampling_keeps_structural_categories(self):
        tracer = otrace.install(sample=0.25)
        for i in range(40):
            tracer.event(f"pg{i}", cat="page", start=i, dur=0.1)
        for i in range(3):
            with tracer.span("snap", cat="snapshot"):
                pass
        cats = [r.cat for r in tracer.records]
        assert cats.count("snapshot") == 3      # always kept
        assert 0 < cats.count("page") < 40      # sampled
        assert tracer.dropped > 0

    def test_ring_buffer_bounds_memory(self):
        tracer = otrace.install(capacity=16)
        for i in range(100):
            tracer.event(f"e{i}", cat="page", start=i, dur=0.1)
        assert len(tracer) == 16
        # The tail survives, the head fell off.
        assert tracer.records[-1].name == "e99"

    def test_export_chrome_document(self, tmp_path):
        tracer = otrace.install()
        with tracer.span("snap", cat="snapshot", pages=2):
            tracer.event("unit", cat="unit", start=1.0, dur=0.5)
        path = str(tmp_path / "trace.json")
        n = tracer.export_chrome(path)
        assert n == 2
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        assert len(events) == 2
        for e in events:
            assert e["ph"] == "X"
            assert e["dur"] >= 0
            assert isinstance(e["pid"], int)
        # Events are start-sorted.
        assert [e["ts"] for e in events] == sorted(
            e["ts"] for e in events)

    def test_merge_a_pickled_worker_tracer(self):
        # What a process worker hands back: its kept spans cross a
        # pickle and land in the parent's ring under the worker's id.
        parent = otrace.Tracer()
        parent.event("snapshot", "snapshot", start=0.0, dur=1.0)
        worker = otrace.Tracer(sample=0.5)
        for i in range(4):
            worker.event("unit", "unit", start=0.1 * i, dur=0.05, uid="u")
        parent.merge(pickle.loads(pickle.dumps(worker)), tid=4242)
        units = [r for r in parent.records if r.cat == "unit"]
        assert len(units) == 2 and {r.tid for r in units} == {4242}
        assert parent.dropped == 2
        with otrace.Tracer().span("x"):  # the lock and stack came back
            pass

    def test_install_validation(self):
        with pytest.raises(ValueError):
            otrace.Tracer(capacity=0)
        with pytest.raises(ValueError):
            otrace.Tracer(sample=0.0)
        with pytest.raises(ValueError):
            otrace.Tracer(sample=1.5)


# ---------------------------------------------------------------------------
# profiler


class TestProfiler:
    def test_accounting(self):
        profiler = oprof.install()
        oprof.record_unit("u1", 0.2, 0.1)
        oprof.record_unit("u1", 0.3, 0.2)
        oprof.record_matcher("UD", 0.05, 0.05)
        doc = profiler.to_dict()
        assert doc["units"]["u1"]["calls"] == 2
        assert doc["units"]["u1"]["wall_seconds"] == pytest.approx(0.5)
        assert doc["units"]["u1"]["mean_wall_seconds"] == (
            pytest.approx(0.25))
        assert doc["matchers"]["UD"]["calls"] == 1

    def test_slow_page_heap_keeps_k_slowest(self):
        profiler = oprof.Profiler(top_k=3)
        for i, seconds in enumerate([0.5, 0.1, 0.9, 0.2, 0.7, 0.05]):
            profiler.record_page(f"p{i}", seconds)
        slow = profiler.slow_pages()
        assert [p["did"] for p in slow] == ["p2", "p4", "p0"]
        assert [p["seconds"] for p in slow] == [0.9, 0.7, 0.5]
        assert profiler.pages_seen == 6

    def test_merge_a_pickled_worker_profiler(self):
        parent = oprof.Profiler(top_k=2)
        parent.record_unit("u1", 0.2, 0.1)
        parent.record_page("p0", 0.5)
        worker = oprof.Profiler(top_k=2)
        worker.record_unit("u1", 0.3, 0.2)
        worker.record_unit("u2", 0.1, 0.1)
        worker.record_matcher("UD", 0.05, 0.05)
        for did, seconds in (("p1", 0.9), ("p2", 0.1)):
            worker.record_page(did, seconds)
        parent.merge(pickle.loads(pickle.dumps(worker)))
        doc = parent.to_dict()
        assert doc["units"]["u1"]["calls"] == 2
        assert doc["units"]["u1"]["wall_seconds"] == pytest.approx(0.5)
        assert doc["units"]["u2"]["calls"] == 1
        assert doc["matchers"]["UD"]["calls"] == 1
        assert [p["did"] for p in doc["slow_pages"]] == ["p1", "p0"]
        assert doc["pages_seen"] == 3

    def test_negative_samples_clamped(self):
        profiler = oprof.install()
        oprof.record_unit("u", -1.0, -1.0)
        assert profiler.to_dict()["units"]["u"]["wall_seconds"] == 0.0

    def test_disabled_facade_is_noop(self):
        oprof.record_unit("u", 1.0, 1.0)
        oprof.record_page("p", 1.0)
        oprof.record_matcher("UD", 1.0, 1.0)


# ---------------------------------------------------------------------------
# report rendering


def _metrics_doc():
    return {
        "task": "play", "n_snapshots": 2, "n_pages": 5,
        "systems": {
            "delex": {
                "mean_decomposition": {
                    "match": 0.1, "extraction": 0.2, "copy": 0.0,
                    "opt": 0.0, "io": 0.0, "others": 0.05,
                    "total": 0.35},
                "snapshots": [
                    {"timings": {"overlap_seconds": 0.02}},
                    {"timings": {"overlap_seconds": 0.03}},
                ],
            },
        },
        "obs": {"profile": {
            "pages_seen": 4,
            "slow_pages": [{"did": "p9", "seconds": 0.4}],
            "units": {"u1": {"calls": 2, "wall_seconds": 0.3,
                             "cpu_seconds": 0.2,
                             "mean_wall_seconds": 0.15}},
            "matchers": {"UD": {"calls": 1, "wall_seconds": 0.1,
                                "cpu_seconds": 0.1}},
        }},
    }


class TestReport:
    def test_metrics_report(self):
        text = oreport.render_report(_metrics_doc())
        assert "delex" in text
        assert "0.050" in text          # overlap column sums snapshots
        assert "slowest pages" in text
        assert "u1" in text and "UD" in text

    def test_metrics_report_shows_the_reuse_funnel(self):
        doc = _metrics_doc()
        funnel = {"input_chars": 200, "replayed_chars": 120,
                  "skipped_chars": 30, "copy_zone_chars": 20,
                  "extracted_chars": 30}
        doc["systems"]["delex"]["snapshots"][0]["units"] = {
            "u1": {**funnel, "input_chars": 999}}      # bootstrap: skipped
        doc["systems"]["delex"]["snapshots"][1]["units"] = {"u1": funnel}
        text = oreport.render_report(doc)
        assert "reuse funnel — delex" in text
        row = next(line for line in text.splitlines()
                   if line.startswith("u1 ") and "200" in line)
        assert row.split()[1:] == ["200", "0.600", "0.150", "0.100",
                                   "0.150"]
        assert "reuse funnel" not in oreport.render_report(_metrics_doc())

    def test_trace_report(self):
        doc = {"traceEvents": [
            {"ph": "X", "cat": "page", "name": "pg", "dur": 2e6,
             "args": {"did": "p1", "paired": True}},
            {"ph": "X", "cat": "unit", "name": "u", "dur": 1e6,
             "args": {"uid": "u1"}},
        ]}
        text = oreport.render_report(doc)
        assert "p1" in text and "2.000" in text
        assert "u1" in text

    def test_unknown_shape_raises(self):
        with pytest.raises(ValueError, match="unrecognized"):
            oreport.render_report({"nope": 1})

    def test_document_kind(self):
        assert oreport.document_kind({"traceEvents": []}) == "trace"
        assert oreport.document_kind({"systems": {}}) == "metrics"
        assert oreport.document_kind({}) == "unknown"


# ---------------------------------------------------------------------------
# the byte-identical contract, end to end


def _run_once(task, snapshots, workdir):
    from repro.core.runner import run_series

    reports = run_series(task, snapshots, systems=("noreuse", "delex"),
                         workdir=workdir)
    return {
        name: [(snap.mentions, snap.results)
               for snap in report.snapshots]
        for name, report in reports.items()
    }


def test_results_identical_with_obs_on():
    from repro.corpus import dblife_corpus
    from repro.extractors import make_task

    snapshots = list(dblife_corpus(n_pages=8, seed=3,
                                   p_unchanged=0.5).snapshots(3))
    task = make_task("talk", work_scale=0)
    with tempfile.TemporaryDirectory() as w1, \
            tempfile.TemporaryDirectory() as w2:
        baseline = _run_once(task, snapshots, w1)
        otrace.install(sample=0.5)
        oprof.install(top_k=3)
        oreg.enable()
        try:
            observed = _run_once(task, snapshots, w2)
        finally:
            obs.disable_all()
    assert observed == baseline
    # And the layers actually saw traffic (the run wasn't silently
    # un-instrumented).
    assert "repro_timing_seconds_total" in oreg.REGISTRY.to_dict()


def test_instrumented_trace_carries_hierarchy():
    from repro.core.runner import run_series
    from repro.corpus import dblife_corpus
    from repro.extractors import make_task

    snapshots = list(dblife_corpus(n_pages=6, seed=1,
                                   p_unchanged=0.5).snapshots(2))
    task = make_task("talk", work_scale=0)
    tracer = otrace.install()
    try:
        with tempfile.TemporaryDirectory() as workdir:
            run_series(task, snapshots, systems=("delex",),
                       workdir=workdir)
    finally:
        obs.disable_all()
    cats = {r.cat for r in tracer.records}
    assert {"snapshot", "page", "unit"} <= cats
    snap_spans = [r for r in tracer.records if r.cat == "snapshot"]
    assert all("pages" in r.args for r in snap_spans)


@pytest.mark.parametrize("front,producer_path", [("UD", "match"),
                                                  ("WS", "match")])
def test_unit_events_say_which_path_ran(tmp_path, front, producer_path):
    """On an unchanged snapshot whose pages are not recycled each unit
    event names the path its rows took. In the reference engine (fast
    paths off) the producer matches, and so do the RU units above it,
    against what the producer recorded; with them on every unit
    replays (see the next test)."""
    from repro.extractors import make_task
    from repro.plan import compile_program, find_units
    from repro.reuse.engine import PlanAssignment

    task = make_task("chair", work_scale=0)
    units = find_units(compile_program(task.program, task.registry))
    assignment = PlanAssignment(
        {u.uid: (front if u.uid == "extractServiceSec" else "RU")
         for u in units})
    paths = _unit_paths(tmp_path, assignment, "off")
    assert paths["extractServiceSec"] == {producer_path}
    assert paths["extractChairSent"] == {"match"}
    assert paths["extractChairFact"] == {"match"}
    assert "scratch" not in set().union(*paths.values())


def _unit_paths(tmp_path, assignment, fastpath):
    """The paths each chair unit's rows took on an unchanged snapshot
    whose pages are not recycled, per the unit trace events."""
    from repro.core.runner import make_system
    from repro.corpus.evolve import ChangeModel, EvolvingCorpus
    from repro.corpus.generators import DBLifeGenerator
    from repro.extractors import make_task

    frozen = ChangeModel(p_unchanged=1.0, p_removed=0.0, p_added=0.0)
    snaps = list(EvolvingCorpus(DBLifeGenerator(), 6, frozen,
                                seed=2).snapshots(2))
    task = make_task("chair", work_scale=0)
    system = make_system("delex", task, str(tmp_path),
                         fixed_assignment=assignment, fastpath=fastpath)
    system.process(snaps[0])
    # Without the previous rows no page is recycled whole, so every
    # unit runs and reports its path.
    system.last_page_rows = None
    tracer = otrace.install()
    try:
        system.process(snaps[1], snaps[0])
    finally:
        obs.disable_all()
    paths = {}
    for r in tracer.records:
        if r.cat == "unit" and r.args["rows_in"]:
            paths.setdefault(r.args["uid"], set()).update(
                r.args["path"].split("+"))
    return paths


@pytest.mark.parametrize("front", ["DN", "UD", "RU"])
def test_unit_events_name_the_replay_path(tmp_path, front):
    """With the fast paths on, every region of an unchanged page has
    text its unit recorded, so every unit replays under any matcher."""
    from repro.extractors import make_task
    from repro.plan import compile_program, find_units
    from repro.reuse.engine import PlanAssignment

    task = make_task("chair", work_scale=0)
    units = find_units(compile_program(task.program, task.registry))
    assignment = PlanAssignment.uniform(units, front)
    paths = _unit_paths(tmp_path, assignment, "on")
    assert set(paths) == {u.uid for u in units}
    assert all(p == {"replay"} for p in paths.values()), paths


def test_profiler_sees_units_and_matchers():
    from repro.core.runner import run_series
    from repro.corpus import dblife_corpus
    from repro.extractors import make_task

    snapshots = list(dblife_corpus(n_pages=6, seed=1,
                                   p_unchanged=0.5).snapshots(2))
    task = make_task("talk", work_scale=0)
    profiler = oprof.install(top_k=5)
    try:
        with tempfile.TemporaryDirectory() as workdir:
            run_series(task, snapshots, systems=("delex",),
                       workdir=workdir)
    finally:
        obs.disable_all()
    doc = profiler.to_dict()
    assert doc["units"]                 # every unit accounted
    assert doc["pages_seen"] > 0
    assert doc["slow_pages"]


# ---------------------------------------------------------------------------
# CLI surface


class TestCli:
    def test_run_writes_obs_artifacts(self, tmp_path, capsys):
        from repro.cli import main

        metrics = str(tmp_path / "m.json")
        trace = str(tmp_path / "t.json")
        rc = main(["run", "--task", "talk", "--work-scale", "0",
                   "--systems", "noreuse,delex",
                   "--metrics-json", metrics, "--trace-out", trace,
                   "--profile", "on"])
        assert rc == 0
        # Obs layers were torn down after the run.
        assert not oreg.ENABLED and not otrace.ENABLED
        assert not oprof.ENABLED
        with open(metrics, encoding="utf-8") as f:
            doc = json.load(f)
        assert "registry" in doc["obs"] and "profile" in doc["obs"]
        assert "repro_timing_seconds_total" in doc["obs"]["registry"]
        with open(trace, encoding="utf-8") as f:
            tdoc = json.load(f)
        assert tdoc["traceEvents"]

    def test_obs_report_cli(self, tmp_path, capsys):
        from repro.cli import main

        metrics = str(tmp_path / "m.json")
        with open(metrics, "w", encoding="utf-8") as f:
            json.dump(_metrics_doc(), f)
        rc = main(["obs", "report", "--metrics-json", metrics])
        out = capsys.readouterr().out
        assert rc == 0
        assert "runtime decomposition" in out

    def test_obs_report_rejects_garbage(self, tmp_path, capsys):
        from repro.cli import main

        bad = str(tmp_path / "bad.json")
        with open(bad, "w", encoding="utf-8") as f:
            json.dump({"shrug": 1}, f)
        assert main(["obs", "report", "--metrics-json", bad]) == 2
        assert main(["obs", "report", "--metrics-json",
                     str(tmp_path / "missing.json")]) == 2
        assert main(["obs", "report"]) == 2
