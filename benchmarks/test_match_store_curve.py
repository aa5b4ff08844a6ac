"""Match-store hit-rate curve (extension).

A Delex series is run fast-paths-on at several churn levels and the
combined content-keyed hit rate (memo + cross-snapshot match store +
equal-region short circuit) is recorded per level: the curve should
rise toward low churn, where the store carries almost all match work.

Emits ``BENCH_matchcore.json`` at the repo root (consumed by the CI
smoke job next to ``BENCH_fastpath.json``).

Intentionally free of the pytest-benchmark fixture so it runs under a
plain ``pytest``/``hypothesis`` install (the CI smoke job).
"""

import json
import os

from conftest import save_table

from repro.core.runner import make_system
from repro.corpus import dblife_corpus
from repro.extractors import make_task
from repro.matchers.base import ST_NAME
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_matchcore.json")

#: Churn levels for the cache hit-rate curve (fraction of pages left
#: unchanged between snapshots), low churn last.
CHURN_LEVELS = (0.5, 0.7, 0.9, 0.95)
CURVE_PAGES = int(os.environ.get("REPRO_BENCH_CURVE_PAGES", "24"))
CURVE_SNAPSHOTS = int(os.environ.get("REPRO_BENCH_CURVE_SNAPSHOTS", "5"))


def _hit_curve(tmp_root):
    """Combined content-keyed hit rate of a fast-paths-on ST series,
    one point per churn level."""
    task = make_task("chair", work_scale=0.2)
    plan = compile_program(task.program, task.registry)
    assignment = PlanAssignment.uniform(find_units(plan), ST_NAME)
    curve = []
    for p_unchanged in CHURN_LEVELS:
        snapshots = list(dblife_corpus(
            n_pages=CURVE_PAGES, seed=83,
            p_unchanged=p_unchanged).snapshots(CURVE_SNAPSHOTS))
        system = make_system(
            "delex", task, os.path.join(tmp_root, f"churn{p_unchanged}"),
            fastpath="on", fixed_assignment=assignment)
        hits = 0
        lookups = 0
        match_seconds = 0.0
        prev = None
        for i, snapshot in enumerate(snapshots):
            result = system.process(snapshot, prev)
            if i > 0 and result.timings.fastpath is not None:
                fp = result.timings.fastpath.to_dict()
                match_seconds += result.timings.get("match")
                got = (fp.get("memo_hits", 0)
                       + fp.get("region_short_circuits", 0))
                hits += got
                lookups += got + fp.get("memo_misses", 0)
            prev = snapshot
        curve.append({
            "p_unchanged": p_unchanged,
            "combined_hit_rate": hits / lookups if lookups else 0.0,
            "match_seconds": match_seconds,
        })
    return curve


def run_match_store_curve(tmp_root):
    return {
        "hit_curve": _hit_curve(tmp_root),
        "curve_pages": CURVE_PAGES,
        "curve_snapshots": CURVE_SNAPSHOTS,
        "cpu_count": os.cpu_count(),
    }


def _render(data):
    lines = [f"Content-keyed hit rate vs churn ('chair', "
             f"{data['curve_pages']} pages, "
             f"{data['curve_snapshots']} snapshots)",
             f"{'p_unchanged':>12}{'hit rate':>10}{'match s':>9}"]
    for point in data["hit_curve"]:
        lines.append(f"{point['p_unchanged']:>12.2f}"
                     f"{point['combined_hit_rate']:>10.2f}"
                     f"{point['match_seconds']:>9.3f}")
    return "\n".join(lines) + "\n"


def test_match_store_curve(tmp_path):
    data = run_match_store_curve(str(tmp_path))
    with open(BENCH_JSON, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    save_table("match_store_curve.txt", _render(data))

    curve = data["hit_curve"]
    # The cache layers must carry more of the work as churn falls;
    # at DBLife-like churn they must clear the headline floor.
    assert curve[-1]["combined_hit_rate"] >= curve[0]["combined_hit_rate"]
    assert curve[-1]["combined_hit_rate"] >= 0.30, curve[-1]
