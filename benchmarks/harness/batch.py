"""The batch workloads: one xlog program re-run on each new snapshot.

Everything is measured from outside: the harness times ``make_system`` and
``system.process`` and reads the accounting ``process`` already returns
(``SnapshotRunResult.timings``/``.unit_stats``, ``Timings.fastpath``/
``.runtime``). Snapshot 0 (from-scratch extraction with capture) belongs to
set-up, snapshot 1 carries the optimizer's one-time calibration probes and is
reported on its own, and every series statistic is over snapshots 2..N.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import (dir_bytes, make_workdir, mean, median, peak_rss_mb, ratio,
                    remove_workdir, summarize, timed_ms)
from oracle import Oracle
from trace import Tracer, chrome_events, install_batch, self_times
from workloads import CORPORA, Workload, corpus_digest, generate

#: Direct matcher calls are capped so the traced run stays inside its budget.
MAX_MATCH_PAIRS = 150

#: Reuse snapshots of the serial reference behind ``runtime.speedup_vs_serial``.
SPEEDUP_SNAPSHOTS = 10


@dataclass
class Setup:
    seconds: float
    generate_s: float
    snapshots: list
    system: object
    task: object
    workdir: str
    result0: object

    def close(self) -> None:
        remove_workdir(self.workdir)


@dataclass
class Series:
    walls: List[float]          # one per reuse snapshot, snapshot 1 first
    results: List[object]       # SnapshotRunResult per reuse snapshot
    plans: List[Dict[str, str]]

    @property
    def steady_walls(self) -> List[float]:
        return self.walls[1:]

    @property
    def steady_results(self) -> List[object]:
        return self.results[1:]


def set_up(spec: Workload, seed: int, jobs: Optional[int] = None,
           part: int = 0) -> Setup:
    """Corpus, task, plan, system and snapshot 0 — the ``setup_s`` region."""
    from repro.core.runner import make_system
    from repro.extractors import make_task

    workdir = make_workdir(spec.name)
    jobs = spec.jobs_used() if jobs is None else jobs
    start = time.perf_counter()
    snapshots = generate(spec, seed, part)
    generate_s = time.perf_counter() - start
    task = make_task(spec.task, work_scale=spec.work_scale)
    system = make_system("delex", task, workdir, jobs=jobs,
                         backend=spec.backend if jobs > 1 else "serial")
    result0 = system.process(snapshots[0], None)
    seconds = time.perf_counter() - start
    return Setup(seconds, generate_s, snapshots, system, task, workdir,
                 result0)


def run_series(setup: Setup, limit: Optional[int] = None) -> Series:
    """Process the reuse snapshots in order, timing each call."""
    snapshots = setup.snapshots if limit is None \
        else setup.snapshots[:1 + limit]
    series = Series([], [], [])
    for prev, snapshot in zip(snapshots, snapshots[1:]):
        start = time.perf_counter()
        result = setup.system.process(snapshot, prev)
        series.walls.append(time.perf_counter() - start)
        series.results.append(result)
        series.plans.append(setup.system.describe_plan())
    return series


def check_series(setup: Setup, series: Series, oracle: Oracle
                 ) -> Tuple[int, int]:
    """Every snapshot's relations against the oracle: (attempted, failed)."""
    from repro.core.runner import canonical_results

    produced = [setup.result0] + series.results
    failed = sum(
        canonical_results(result) != oracle.canonical(snapshot)
        for snapshot, result in zip(setup.snapshots, produced))
    return len(produced), failed


def run_end_to_end(spec: Workload, seed: int) -> Dict[str, object]:
    """Untraced: (set-up + series) on each of the seed's corpora, each
    snapshot checked by the oracle. ``setup_s`` is the median set-up; the
    series statistics pool the steady snapshots of all corpora.

    ``peak_rss_mb`` is read once, after the first corpus's series and before
    any oracle exists in this process: the oracle's own system and the
    reference results it keeps are a third of the high-water mark afterwards
    and are not the system under test.
    """
    setups: List[float] = []
    walls: List[float] = []
    digests: List[str] = []
    attempted = failed = pages = 0
    rss_mb = 0.0
    for part in range(CORPORA):
        setup = set_up(spec, seed, part=part)
        try:
            setups.append(setup.seconds)
            series = run_series(setup)
            if part == 0:
                rss_mb = peak_rss_mb(children=spec.jobs_used() > 1)
            walls.extend(series.steady_walls)
            pages += sum(r.pages for r in series.steady_results)
            a, f = check_series(setup, series, Oracle(spec.task))
            attempted, failed = attempted + a, failed + f
            digests.append(corpus_digest(setup.snapshots))
        finally:
            setup.close()
    return {
        "attempted": attempted,
        "failed": failed,
        "corpus_digest": digests[0],
        "corpus_digests": digests,
        "metrics": {
            "setup_s": median(setups),
            "snapshot_s_p50": median(walls),
            "peak_rss_mb": rss_mb,
            "pages_per_s": ratio(pages, sum(walls)),
        },
        "samples": {
            "corpora": CORPORA,
            "setup_s": summarize(setups),
            "snapshot_s_p50": summarize(walls),
            "pages_per_s": {"n": len(walls), "pages": pages},
            "peak_rss_mb": {
                "read": "after corpus 0's set-up and series, before any "
                        "oracle work",
                "includes": "the system and its caches, the interpreter and "
                            "harness, all snapshots of corpus 0 and the "
                            "result of each",
                "children": spec.jobs_used() > 1},
        },
    }


def _accounting(setup: Setup, series: Series) -> Dict[str, float]:
    """Per-layer numbers read off what ``process`` returned."""
    steady = series.steady_results
    timings = [r.timings for r in steady]
    units = [u for r in steady for u in r.unit_stats.values()]
    fast = [t.fastpath for t in timings if t.fastpath is not None]
    n = max(1, len(steady))

    def fast_sum(attr: str) -> float:
        return float(sum(getattr(f, attr) for f in fast))

    memo_lookups = fast_sum("memo_hits") + fast_sum("memo_misses")
    answered = (fast_sum("memo_hits") + fast_sum("cache_hits")
                + fast_sum("region_short_circuits"))
    automata = fast_sum("automata_reused") + fast_sum("automata_built")
    zero = setup.result0
    out = {
        "matchers.busy_s": mean([t.get("match") for t in timings]),
        "matchers.calls": sum(u.matcher_calls for u in units) / n,
        "extractors.busy_s": mean([t.get("extract") for t in timings]),
        "extractors.extracted_chars_frac": ratio(
            sum(u.extracted_chars for u in units),
            sum(u.input_chars for u in units)),
        "extractors.scratch_s_per_mb": ratio(
            zero.timings.get("extract"),
            setup.snapshots[0].total_bytes() / 1e6),
        "reuse.copy_s": mean([t.get("copy") for t in timings]),
        "reuse.io_s": mean([t.get("io") for t in timings]),
        "reuse.copied_tuples": sum(u.copied_tuples for u in units) / n,
        "reuse.blocks_io": sum(u.i_blocks + u.o_blocks for u in units) / n,
        "fastpath.short_circuit_frac": ratio(
            fast_sum("pages_short_circuited"), fast_sum("pages_paired")),
        "fastpath.memo_hit_rate": ratio(fast_sum("memo_hits"), memo_lookups),
        "fastpath.combined_hit_rate": ratio(
            answered, answered + fast_sum("memo_misses")),
        "fastpath.cache_evictions": fast_sum("cache_evictions") / n,
        "fastpath.automata_reused_frac": ratio(
            fast_sum("automata_reused"), automata),
        "fastpath.reader_index_seeks": fast_sum("reader_index_seeks") / n,
        "optimizer.busy_s": mean([t.get("opt") for t in timings]),
        "optimizer.first_reuse_snapshot_s": series.walls[0],
        "optimizer.plan_changes": float(sum(
            a != b for a, b in zip(series.plans, series.plans[1:]))),
        "core.others_s": mean([t.others for t in timings]),
        "core.overlap_s": mean([t.overlap_seconds for t in timings]),
    }
    runtimes = [t.runtime for t in timings if t.runtime is not None]
    if runtimes:
        out.update({
            "runtime.worker_utilization": mean(
                [r.worker_utilization for r in runtimes]),
            "runtime.steals": mean([r.steals for r in runtimes]),
            "runtime.split_parts": mean([r.split_parts for r in runtimes]),
            "runtime.dispatch_s": mean(
                [r.wall_seconds - r.busy_seconds / max(1, r.jobs)
                 for r in runtimes]),
        })
    return out


def _covered(segments: list, length: int) -> float:
    """Share of the p page covered by at least one matched segment."""
    covered, reach = 0, 0
    for start, end in sorted((s.p_start, s.p_start + s.length)
                             for s in segments):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return ratio(covered, length)


def _direct_matchers(snapshots: list) -> Dict[str, object]:
    """``Matcher.match`` on whole changed page pairs of the series."""
    from repro.matchers.registry import make_matcher

    pairs = [(page, old)
             for prev, snapshot in zip(snapshots[1:], snapshots[2:])
             for page in snapshot.pages
             for old in [prev.get(page.url)]
             if old is not None and old.text != page.text]
    step = max(1, len(pairs) // MAX_MATCH_PAIRS)
    pairs = pairs[::step][:MAX_MATCH_PAIRS]
    out: Dict[str, object] = {"matchers.direct_pairs": len(pairs)}
    for key, name in (("ud", "UD"), ("st", "ST")):
        matcher = make_matcher(name)
        times, fracs = [], []
        for page, old in pairs:
            start = time.perf_counter()
            segments = matcher.match(page.text, page.whole,
                                     old.text, old.whole)
            times.append((time.perf_counter() - start) * 1000.0)
            fracs.append(_covered(segments, len(page.text)))
        out[f"matchers.{key}.match_ms_p50"] = median(times)
        out[f"matchers.{key}.matched_frac"] = mean(fracs)
    return out


def _direct_optimizer(setup: Setup, series: Series) -> Dict[str, float]:
    """``collect_statistics`` and ``search_plan`` on the last snapshot."""
    from repro.optimizer.search import search_plan
    from repro.optimizer.stats import collect_statistics

    system = setup.system
    captures = sorted(name for name in os.listdir(system.workdir)
                      if name.startswith("snap_"))
    rates: Dict[str, float] = {}

    def collect() -> object:
        return collect_statistics(
            system.plan, system.units, setup.snapshots[-1],
            setup.snapshots[-1 - system.k_snapshots:-1],
            sample_size=system.sample_size, k_snapshots=system.k_snapshots,
            max_match_pairs=min(system.sample_size, 3),
            prev_capture_dir=os.path.join(system.workdir, captures[-2]),
            prev_unit_stats=series.results[-2].unit_stats,
            known_extract_rates=rates)

    stats = collect()  # fills the extract rates the system keeps warm
    return {
        "optimizer.collect_ms": timed_ms(collect, 3),
        "optimizer.search_ms": timed_ms(
            lambda: search_plan(system.units, stats, system.chains), 5),
    }


def direct_setup_layers(task, snapshot, workdir: str) -> Dict[str, float]:
    """``compile_program`` and snapshot file I/O, called directly."""
    from repro.corpus.snapshot import read_snapshot, write_snapshot
    from repro.plan.compile import compile_program

    path = os.path.join(workdir, "direct_snapshot.dat")
    return {
        "plan.compile_ms": timed_ms(
            lambda: compile_program(task.program, task.registry), 5),
        "corpus.write_snapshot_ms": timed_ms(
            lambda: write_snapshot(snapshot, path), 3),
        "corpus.read_snapshot_ms": timed_ms(
            lambda: read_snapshot(path), 3),
    }


def _capture_ratio(setup: Setup) -> float:
    """Reuse-file bytes on disk per corpus byte, for the last snapshot."""
    workdir = setup.system.workdir
    capture = sorted(name for name in os.listdir(workdir)
                     if name.startswith("snap_"))[-1]
    return ratio(dir_bytes(os.path.join(workdir, capture)),
                 setup.snapshots[-1].total_bytes())


def run_layers(spec: Workload, seed: int,
               trace_events: Optional[list] = None) -> Dict[str, object]:
    """Untraced series for the accounting, traced series for the spans."""
    oracle = Oracle(spec.task)
    metrics: Dict[str, float] = {}
    samples: Dict[str, object] = {}
    attempted = failed = 0

    setup = set_up(spec, seed)
    try:
        series = run_series(setup)
        digest = corpus_digest(setup.snapshots)
        a, f = check_series(setup, series, oracle)
        attempted, failed = attempted + a, failed + f
        metrics.update(_accounting(setup, series))
        direct = _direct_matchers(setup.snapshots)
        samples["matchers.direct_pairs"] = direct.pop("matchers.direct_pairs")
        metrics.update(direct)
        metrics.update(_direct_optimizer(setup, series))
        metrics.update(direct_setup_layers(
            setup.task, setup.snapshots[-1], setup.workdir))
        metrics["corpus.generate_s"] = setup.generate_s
        metrics["reuse.capture_bytes_per_page_byte"] = _capture_ratio(setup)
        untraced_p50 = median(series.steady_walls)
        metrics["pages_per_s"] = ratio(
            sum(r.pages for r in series.steady_results),
            sum(series.steady_walls))
        untraced_walls = series.walls
        samples["snapshot_s"] = summarize(series.steady_walls)
        # The optimizer's choice depends on measured seconds, so two runs on
        # one seed can differ here, and then so do the plan-dependent counts.
        samples["optimizer.plan_sequence"] = [
            ",".join(f"{uid}={m}" for uid, m in sorted(plan.items()))
            for plan in series.plans]
    finally:
        setup.close()

    tracer = Tracer()
    setup = set_up(spec, seed)
    try:
        install_batch(tracer)
        try:
            traced = run_series(setup)
        finally:
            tracer.uninstall()
        a, f = check_series(setup, traced, oracle)
        attempted, failed = attempted + a, failed + f
    finally:
        setup.close()
    metrics["obs.trace_overhead_frac"] = \
        ratio(median(traced.steady_walls), untraced_p50) - 1.0
    trace = self_times(tracer.spans)
    trace["root"] = "core.process"
    trace["traced_wall_s"] = sum(traced.walls)
    if trace_events is not None:
        trace_events.extend(chrome_events(tracer.spans, os.getpid()))

    if spec.jobs_used() > 1:
        k = min(SPEEDUP_SNAPSHOTS, spec.reuse_snapshots)
        setup = set_up(spec, seed, jobs=1)
        try:
            serial = run_series(setup, limit=k)
        finally:
            setup.close()
        metrics["runtime.speedup_vs_serial"] = ratio(
            median(serial.steady_walls), median(untraced_walls[1:k]))
        samples["runtime.speedup_vs_serial"] = {
            "base": "serial snapshot_s_p50 over snapshots 2.."
                    f"{k} / process-backend p50 over the same snapshots",
            "n": k - 1}

    return {"attempted": attempted, "failed": failed,
            "corpus_digest": digest, "metrics": metrics,
            "samples": samples, "trace": trace}
