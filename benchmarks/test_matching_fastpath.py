"""Snapshot-delta fast-path benchmark (extension).

Low-churn corpora are the fast paths' home turf: with ~95% of pages
unchanged between snapshots, identity short circuits skip the matcher
on most page pairs and the content-keyed match store and the
automaton cache absorb most of the rest. This benchmark runs Delex with a pinned matcher assignment
over a low-churn DBLife series twice — fast paths on and off — and
compares the *matcher* wall time (the ``match`` category of the
Figure 11 decomposition) plus the fast-path hit counters. Each series
is repeated ``REPS`` times with GC paused and the minimum match time
kept, the standard defence against scheduler noise at millisecond
scale. It emits a machine-readable ``BENCH_fastpath.json`` at the
repo root and asserts the headline claims: per-matcher match-time
speedup floors (``MIN_MATCH_SPEEDUP``) and a combined hit rate of the
content-keyed layers (match store + equal-region short circuit) of at
least ``MIN_COMBINED_HIT_RATE`` — at identical results.

Intentionally free of the pytest-benchmark fixture so it runs under a
plain ``pytest``/``hypothesis`` install (the CI smoke job).
"""

import gc
import json
import os

from conftest import save_table

from repro.core.runner import canonical_results, make_system
from repro.corpus import dblife_corpus
from repro.extractors import make_task
from repro.matchers.base import ST_NAME, UD_NAME
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_fastpath.json")

TASK = "chair"
PAGES = int(os.environ.get("REPRO_BENCH_FASTPATH_PAGES", "40"))
N_SNAPSHOTS = int(os.environ.get("REPRO_BENCH_FASTPATH_SNAPSHOTS", "8"))
P_UNCHANGED = 0.95       # low churn: ~95% of pages identical (DBLife-like)
WORK_SCALE = float(os.environ.get("REPRO_BENCH_FASTPATH_WORK", "0.2"))
REPS = int(os.environ.get("REPRO_BENCH_FASTPATH_REPS", "3"))
#: On-vs-off matcher wall-time floor per matcher. ST rides the store
#: and the automaton cache; UD's diff is already near-linear on
#: low-churn pages, so its floor is lower.
MIN_MATCH_SPEEDUP = {ST_NAME: 10.0, UD_NAME: 4.0}
#: Content-keyed layers (match store + equal-region short circuit)
#: must absorb at least this share of match_many work.
MIN_COMBINED_HIT_RATE = 0.30


def _run(task, snapshots, assignment, fastpath, workdir):
    """One Delex series; returns matcher seconds, counters, results."""
    system = make_system("delex", task, workdir, fastpath=fastpath,
                         fixed_assignment=assignment)
    match_seconds = 0.0
    total_seconds = 0.0
    outputs = []
    fp_rows = []
    prev = None
    gc.collect()
    gc.disable()
    try:
        for i, snapshot in enumerate(snapshots):
            result = system.process(snapshot, prev)
            if i > 0:  # skip the bootstrap: no matching happens there
                match_seconds += result.timings.get("match")
                total_seconds += result.timings.total
                if result.timings.fastpath is not None:
                    fp_rows.append(result.timings.fastpath.to_dict())
            outputs.append(canonical_results(result))
            prev = snapshot
    finally:
        gc.enable()
    counters = {}
    for row in fp_rows:
        for key, value in row.items():
            if key.endswith("_rate") or key.endswith("_fraction"):
                continue
            counters[key] = counters.get(key, 0) + value
    paired = counters.get("pages_paired", 0)
    memo_calls = (counters.get("memo_hits", 0)
                  + counters.get("memo_misses", 0))
    counters["unchanged_fraction"] = (
        counters.get("pages_short_circuited", 0) / paired if paired else 0.0)
    counters["memo_hit_rate"] = (
        counters.get("memo_hits", 0) / memo_calls if memo_calls else 0.0)
    hits = (counters.get("memo_hits", 0)
            + counters.get("region_short_circuits", 0))
    lookups = hits + counters.get("memo_misses", 0)
    counters["combined_hit_rate"] = hits / lookups if lookups else 0.0
    return {
        "match_seconds": match_seconds,
        "total_seconds": total_seconds,
        "fastpath": counters,
    }, outputs


def _run_best(task, snapshots, assignment, fastpath, workdir):
    """Min-of-``REPS`` series: keeps the repetition with the least
    matcher wall time (counters and outputs are deterministic across
    repetitions, only the clock is noisy)."""
    best = None
    best_out = None
    for rep in range(REPS):
        res, outputs = _run(task, snapshots, assignment, fastpath,
                            os.path.join(workdir, f"rep{rep}"))
        if best is None or res["match_seconds"] < best["match_seconds"]:
            best = res
            best_out = outputs
    return best, best_out


def run_matching_fastpath(tmp_root):
    task = make_task(TASK, work_scale=WORK_SCALE)
    snapshots = list(dblife_corpus(
        n_pages=PAGES, seed=81,
        p_unchanged=P_UNCHANGED).snapshots(N_SNAPSHOTS))
    plan = compile_program(task.program, task.registry)
    units = find_units(plan)
    data = {
        "task": TASK,
        "pages": PAGES,
        "snapshots": N_SNAPSHOTS,
        "p_unchanged": P_UNCHANGED,
        "work_scale": WORK_SCALE,
        "reps": REPS,
        "min_match_speedup": dict(MIN_MATCH_SPEEDUP),
        "min_combined_hit_rate": MIN_COMBINED_HIT_RATE,
        "cpu_count": os.cpu_count(),
        "matchers": {},
    }
    for matcher in (ST_NAME, UD_NAME):
        assignment = PlanAssignment.uniform(units, matcher)
        slow, slow_out = _run_best(
            task, snapshots, assignment, "off",
            os.path.join(tmp_root, f"{matcher}_off"))
        fast, fast_out = _run_best(
            task, snapshots, assignment, "on",
            os.path.join(tmp_root, f"{matcher}_on"))
        assert fast_out == slow_out, \
            f"{matcher}: fast paths changed the results"
        on_match = fast["match_seconds"]
        off_match = slow["match_seconds"]
        data["matchers"][matcher] = {
            "match_seconds_off": off_match,
            "match_seconds_on": on_match,
            "match_speedup": (off_match / on_match if on_match > 0
                              else float("inf")),
            "total_seconds_off": slow["total_seconds"],
            "total_seconds_on": fast["total_seconds"],
            "fastpath": fast["fastpath"],
        }
    return data


def _render(data):
    lines = [f"Matching fast paths ('{data['task']}', {data['pages']} "
             f"pages, {data['snapshots']} snapshots, "
             f"p_unchanged={data['p_unchanged']}, "
             f"best of {data['reps']})",
             f"{'matcher':<9}{'match off':>11}{'match on':>11}"
             f"{'speedup':>9}{'unchanged':>11}{'hit rate':>10}"]
    for name, row in data["matchers"].items():
        fp = row["fastpath"]
        speedup = row["match_speedup"]
        speedup_txt = ("inf" if speedup == float("inf")
                       else f"{speedup:.1f}x")
        lines.append(
            f"{name:<9}{row['match_seconds_off']:>10.3f}s"
            f"{row['match_seconds_on']:>10.3f}s{speedup_txt:>9}"
            f"{fp['unchanged_fraction']:>11.2f}"
            f"{fp['combined_hit_rate']:>10.2f}")
    return "\n".join(lines) + "\n"


def test_matching_fastpath(tmp_path):
    data = run_matching_fastpath(str(tmp_path))
    with open(BENCH_JSON, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    save_table("matching_fastpath.txt", _render(data))

    for name, floor in MIN_MATCH_SPEEDUP.items():
        row = data["matchers"][name]
        fp = row["fastpath"]
        # The corpus really is low-churn and the identity path fired.
        assert fp["unchanged_fraction"] >= 0.5, fp
        assert fp["pages_short_circuited"] > 0
        # Headline: matcher wall time cut by the per-matcher floor.
        assert row["match_speedup"] >= floor, \
            (f"{name} match speedup {row['match_speedup']:.2f} < {floor}")
        # The content-keyed layers, not just the identity short
        # circuit, carry the speedup.
        assert fp["combined_hit_rate"] >= MIN_COMBINED_HIT_RATE, \
            (f"{name} combined hit rate {fp['combined_hit_rate']:.2f} "
             f"< {MIN_COMBINED_HIT_RATE}")
