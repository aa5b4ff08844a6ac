"""Figure 10: runtime of No-reuse / Shortcut / Cyclex / Delex.

One panel per IE task, each running all four systems over consecutive
snapshots of the task's corpus. Paper-reported shape:

* No-reuse is far slower than everything else on both corpora;
* Shortcut is close to No-reuse on the fast-changing Wikipedia-like
  corpus but far better on the DBLife-like one;
* Cyclex is comparable to or better than Shortcut;
* Delex matches Cyclex on the single-blackbox ``talk`` and beats it
  substantially (paper: 50–71 %) on every multi-blackbox task.
"""

from statistics import median

import pytest

from conftest import delex_vs, format_runtime_table, save_table

from repro.extractors import RULE_TASKS

DBLIFE_TASKS = ("talk", "chair", "advise")
WIKI_TASKS = ("blockbuster", "play", "award")


@pytest.mark.parametrize("task_name", RULE_TASKS)
def test_fig10_panel(benchmark, fig10_cache, task_name):
    reports = benchmark.pedantic(fig10_cache.reports, args=(task_name,),
                                 rounds=1, iterations=1)
    table = format_runtime_table(
        f"Figure 10 — {task_name}: per-snapshot runtime (s)", reports)
    cut_cyclex = delex_vs(reports, "cyclex", skip=2)
    cut_noreuse = delex_vs(reports, "noreuse", skip=2)
    table += (f"Delex steady-state cut vs Cyclex: {cut_cyclex:.0%}   "
              f"vs No-reuse: {cut_noreuse:.0%}\n")
    # Shortcut and No-reuse are nearly tied on the fast-changing
    # corpus, so they are compared on the median of pooled repetitions.
    totals = fig10_cache.totals(task_name, ("noreuse", "shortcut"))
    noreuse_med = median(totals["noreuse"])
    shortcut_med = median(totals["shortcut"])
    table += "".join(
        f"{name} totals over {len(runs)} repetitions: "
        + " ".join(f"{t:.3f}" for t in runs)
        + f" (median {median(runs):.3f})\n"
        for name, runs in totals.items())
    save_table(f"fig10_{task_name}.txt", table)

    noreuse = reports["noreuse"].total_seconds()
    cyclex = reports["cyclex"].total_seconds()
    delex = reports["delex"].total_seconds()

    # Reuse always beats from-scratch; Shortcut is at worst within
    # noise of it (on the fast-changing corpus the two are nearly tied
    # — the paper's "only marginally better").
    assert delex < noreuse
    assert shortcut_med < 1.15 * noreuse_med, totals
    if task_name == "talk":
        # Single blackbox: Delex ~ Cyclex (within noise).
        assert delex < cyclex * 1.3
    else:
        # Multi-blackbox: Delex clearly beats Cyclex in steady state
        # (paper: 50-71 % cut).
        assert cut_cyclex > 0.3
    if task_name in WIKI_TASKS:
        # Fast-changing corpus: Shortcut only marginally beats
        # No-reuse, while Delex wins big.
        assert shortcut_med > 0.5 * noreuse_med, totals
        assert cut_noreuse > 0.4


def test_fig10_summary(benchmark, fig10_cache):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Figure 10 — summary (total seconds over reuse snapshots)",
             f"{'task':<13}{'noreuse':>9}{'shortcut':>9}{'cyclex':>9}"
             f"{'delex':>9}{'cut':>7}"]
    for task_name in RULE_TASKS:
        reports = fig10_cache.reports(task_name)
        lines.append(
            f"{task_name:<13}"
            f"{reports['noreuse'].total_seconds():>9.2f}"
            f"{reports['shortcut'].total_seconds():>9.2f}"
            f"{reports['cyclex'].total_seconds():>9.2f}"
            f"{reports['delex'].total_seconds():>9.2f}"
            f"{delex_vs(reports, 'cyclex', skip=2):>7.0%}")
    save_table("fig10_summary.txt", "\n".join(lines) + "\n")
