"""Figure 12: effectiveness of the Delex optimizer.

The "play" task has 4 IE units x 4 matchers = 256 plans. We execute
every plan on the same snapshot transition, rank them by measured
runtime, and locate the plan the optimizer selected. Paper-reported
shape: the selected plan ranks in the top handful of 256 and runs
within a whisker of the true best plan, while the worst plan is far
slower — so optimization matters.

Scaled down (few pages, reduced work factors) because it really does
execute 256 full plans.

The figure is run twice: on the default engine, and on the paper's
engine (fast paths off), where a unit's cost depends only on its
matcher. On the default engine every unit first replays the text it
recorded on the previous page, whatever its matcher, so the plans
differ only on the regions that replay nothing.
"""

import os

import pytest

from conftest import corpus_snapshots, save_table

from repro.core.delex import DelexSystem
from repro.extractors import make_task
from repro.optimizer.enumerate import canonical_plans
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment, ReuseEngine


def run_fig12(tmp_root, fastpath="on"):
    task = make_task("play", work_scale=0.25)
    snaps = corpus_snapshots("play", "wikipedia", n_snapshots=3, pages=14)
    plan = compile_program(task.program, task.registry)
    units = find_units(plan)
    plans = canonical_plans(units)
    assert len(plans) == 256

    # Ask the real optimizer which plan it would pick.
    delex = DelexSystem(task, os.path.join(tmp_root, "delex"),
                        sample_size=6, fastpath=fastpath)
    delex.process(snaps[0])
    delex.process(snaps[1], snaps[0])
    delex.process(snaps[2], snaps[1])
    selected = delex.last_assignment

    # Price every plan with the cost model (same statistics the
    # optimizer saw) so model ranks can be correlated with reality.
    from repro.optimizer.cost import plan_cost
    from repro.optimizer.stats import collect_statistics

    bootstrap = ReuseEngine(plan, units, PlanAssignment.all_dn(units),
                            fastpath=fastpath)
    cap = os.path.join(tmp_root, "stats_cap")
    bootstrap.run_snapshot(snaps[1], None, None, cap)
    stats = collect_statistics(plan, units, snaps[2], snaps[:2],
                               sample_size=6, prev_capture_dir=cap,
                               fastpath=fastpath == "on")
    model_costs = {}

    # Execute every plan on the snapshot 1 -> 2 transition.
    timings = []
    for i, assignment in enumerate(plans):
        engine = ReuseEngine(plan, units, assignment, fastpath=fastpath)
        d0 = os.path.join(tmp_root, f"p{i}", "0")
        d1 = os.path.join(tmp_root, f"p{i}", "1")
        engine.run_snapshot(snaps[1], snaps[0], None, d0)
        result = engine.run_snapshot(snaps[2], snaps[1], d0, d1)
        timings.append((result.timings.total, assignment))
        key = tuple(sorted(assignment.matchers.items()))
        model_costs[key] = plan_cost(units, assignment, stats)
    timings.sort(key=lambda pair: pair[0])

    from scipy.stats import spearmanr
    measured = [t for t, _ in timings]
    estimated = [model_costs[tuple(sorted(a.matchers.items()))]
                 for _, a in timings]
    correlation = float(spearmanr(measured, estimated).statistic)
    ranks = {tuple(sorted(a.matchers.items())): rank + 1
             for rank, (_, a) in enumerate(timings)}
    selected_rank = ranks[tuple(sorted(selected.matchers.items()))]
    best_time = timings[0][0]
    worst_time = timings[-1][0]
    selected_time = [t for t, a in timings
                     if a.matchers == selected.matchers][0]
    return {
        "selected_rank": selected_rank,
        "best": best_time,
        "selected": selected_time,
        "worst": worst_time,
        "selected_plan": selected.describe(),
        "best_plan": timings[0][1].describe(),
        "model_rank_correlation": correlation,
    }


def check_fig12(benchmark, tmp_path, fastpath, table_name, engine):
    data = benchmark.pedantic(run_fig12, args=(str(tmp_path), fastpath),
                              rounds=1, iterations=1)
    table = (
        f"Figure 12 — optimizer effectiveness ('play', 256 plans, "
        f"{engine})\n"
        f"selected plan rank: {data['selected_rank']} / 256\n"
        f"best plan    : {data['best']:.3f}s  ({data['best_plan']})\n"
        f"selected plan: {data['selected']:.3f}s  "
        f"({data['selected_plan']})\n"
        f"worst plan   : {data['worst']:.3f}s\n"
        f"cost-model vs measured rank correlation (Spearman): "
        f"{data['model_rank_correlation']:.2f}\n")
    save_table(table_name, table)

    # Paper: selected plan consistently ranks around 3rd-5th of 256.
    assert data["selected_rank"] <= 32
    # The cost model orders plans like reality (extension analysis).
    assert data["model_rank_correlation"] > 0.5
    # The selected plan is within 2x of the best measured plan...
    assert data["selected"] <= 2.0 * data["best"]
    # ...and optimization matters: the worst plan is much slower.
    assert data["worst"] > 2.0 * data["best"]


def test_fig12_optimizer_effectiveness(benchmark, tmp_path):
    check_fig12(benchmark, tmp_path, "on", "fig12_optimizer.txt",
                "default engine")


def test_fig12_optimizer_effectiveness_paper_engine(benchmark, tmp_path):
    check_fig12(benchmark, tmp_path, "off", "fig12_optimizer_paper.txt",
                "the paper's engine, fast paths off")
