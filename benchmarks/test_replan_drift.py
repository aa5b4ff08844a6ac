"""Count-triggered re-planning vs a static plan under corpus drift.

The §6 optimizer picks a plan from statistics sampled on one snapshot
transition. When the corpus's evolution process *shifts regime*
mid-series, that plan can be arbitrarily stale: a plan chosen during a
site-thrash period (every page regenerated per crawl — no line survives,
so from-scratch extraction is the honest optimum) keeps paying full
extraction cost long after the corpus has calmed down and matcher-based
reuse would win by an order of magnitude.

Two planners over the same drifting series (``chair`` task):

* ``static``  — the plan Delex chose at snapshot 1, pinned as
  ``fixed_assignment`` for the whole series (what a one-shot optimizer
  deployment does). A pinned plan samples nothing, so its total is
  charged the trigger's snapshot-1 Opt seconds: the one sample that
  chose the plan;
* ``trigger`` — the default :class:`~repro.core.delex.DelexSystem`: it
  keeps its plan until the last run's page counts drift from those of
  the run the plan was chosen on (:class:`~repro.core.delex.PageMix`,
  :func:`~repro.core.delex.drift_bound`), then samples and searches
  again.

A stationary control series (the same calm process, no boundary) checks
that the trigger samples only once, on snapshot 1, when nothing drifts
and stays within 1.5x of static. The drifting series is also run beside a
from-scratch ``noreuse`` reference with runtime invariant checks on:
by Theorem 1 a re-plan may change cost only, never output.

Writes ``benchmarks/results/replan_drift.txt``. Scale knobs:

* ``REPRO_BENCH_REPLAN_PAGES``     (default 16)
* ``REPRO_BENCH_REPLAN_SNAPSHOTS`` (default 12)
* ``REPRO_BENCH_REPLAN_WORK``      (default 2.0)
"""

import os

from conftest import save_table

from repro.check.invariants import checking
from repro.core.runner import run_series
from repro.corpus.drift import DriftingCorpus, Regime, RegimeSchedule
from repro.corpus.evolve import ChangeModel
from repro.corpus.generators import DBLifeGenerator
from repro.extractors import make_task
from repro.reuse.engine import PlanAssignment

TASK = "chair"           # 3-blackbox chain, DBLife corpus
PAGES = int(os.environ.get("REPRO_BENCH_REPLAN_PAGES", "16"))
N_SNAPSHOTS = int(os.environ.get("REPRO_BENCH_REPLAN_SNAPSHOTS", "12"))
WORK_SCALE = float(os.environ.get("REPRO_BENCH_REPLAN_WORK", "2.0"))
SEED = 7
SHIFT_AT = 4             # first snapshot produced under the calm regime

#: The post-boundary evolution process: light in-place edits, no page
#: churn — the regime where matcher plans recycle almost everything.
CALM = ChangeModel(p_unchanged=0.3, p_removed=0.0, p_added=0.0,
                   mean_edits=2.0)

PLANNERS = ("static", "trigger")


def drifting_series():
    """Site-thrash chaos (every page regenerated under its URL each
    snapshot) for ``SHIFT_AT`` steps, then the calm regime.

    During the thrash phase every page *has* a previous version but no
    line of it survives, so the sampled match rates are ~0 while match
    overhead is real: the honest optimum is from-scratch extraction
    (all-DN). After the boundary the same plan wastes an order of
    magnitude.
    """
    regimes = [Regime(at=i, redesign_fraction=1.0, note="thrash")
               for i in range(1, SHIFT_AT)]
    regimes.append(Regime(at=SHIFT_AT, change_model=CALM, note="calm"))
    corpus = DriftingCorpus(DBLifeGenerator(), PAGES, CALM,
                            RegimeSchedule.of(*regimes), seed=SEED)
    return list(corpus.snapshots(N_SNAPSHOTS))


def stationary_series():
    corpus = DriftingCorpus(DBLifeGenerator(), PAGES, CALM,
                            RegimeSchedule(), seed=SEED)
    return list(corpus.snapshots(N_SNAPSHOTS))


def run_planner(task, snapshots, fixed=None):
    """Delex over the series, with ``fixed`` pinned as its plan when
    given; per snapshot its seconds, plan and whether it re-planned."""
    kwargs = {"delex": {"fixed_assignment": PlanAssignment(fixed)}
              if fixed is not None else {}}
    delex = run_series(task, snapshots, systems=("delex",),
                       system_kwargs=kwargs)["delex"]
    per_snapshot = [{
        "index": snap.snapshot_index,
        "seconds": snap.seconds,
        "assignment": (snap.optimizer or {}).get("assignment"),
        "replanned": bool((snap.optimizer or {}).get("replanned")),
        "opt_seconds": snap.timings.as_row()["opt"],
    } for snap in delex.snapshots]
    plans = [cell["assignment"] for cell in per_snapshot[1:]]
    return {
        "per_snapshot": per_snapshot,
        "replans": [cell["index"] for cell in per_snapshot
                    if cell["replanned"]],
        "switches": sum(1 for a, b in zip(plans, plans[1:]) if a != b),
        "initial_assignment": plans[0],
        "final_assignment": plans[-1],
        "total_seconds": delex.total_seconds(),
    }


def run_both(task, snapshots):
    trigger = run_planner(task, snapshots)
    static = run_planner(task, snapshots,
                         fixed=trigger["initial_assignment"])
    static["plan_seconds"] = trigger["per_snapshot"][1]["opt_seconds"]
    static["total_seconds"] += static["plan_seconds"]
    return {"static": static, "trigger": trigger}


def assert_matches_reference(task, snapshots):
    with checking(True):
        reports = run_series(task, snapshots, systems=("delex", "noreuse"))
    for snap, ref in zip(reports["delex"].snapshots,
                         reports["noreuse"].snapshots):
        assert snap.results == ref.results, (
            f"snapshot {snap.snapshot_index}: delex output diverged "
            "from the from-scratch reference")


def format_table(label, runs):
    width = 10
    lines = [f"--- series={label} ---",
             "snapshot" + "".join(f"{name:>{width}}" for name in PLANNERS)]
    for i in range(N_SNAPSHOTS):
        row = f"{i:>8}"
        for name in PLANNERS:
            cell = runs[name]["per_snapshot"][i]
            mark = "*" if i > 1 and cell["replanned"] else " "
            row += f"{cell['seconds']:>{width - 1}.3f}{mark}"
        lines.append(row)
    row = "   total"
    for name in PLANNERS:
        row += f"{runs[name]['total_seconds']:>{width - 1}.3f} "
    lines.append(row)
    lines.append(f"static total includes the snapshot-1 sample that "
                 f"chose its plan: {runs['static']['plan_seconds']:.3f} s")
    lines.append(f"trigger: switches={runs['trigger']['switches']} "
                 f"initial={runs['trigger']['initial_assignment']} "
                 f"final={runs['trigger']['final_assignment']}")
    lines.append("(* = re-planned after snapshot 1; totals skip the "
                 "bootstrap)")
    return "\n".join(lines)


def test_count_trigger_beats_static_under_drift():
    task = make_task(TASK, work_scale=WORK_SCALE)
    drifting = drifting_series()
    drift = run_both(task, drifting)
    stationary = run_both(task, stationary_series())

    save_table("replan_drift.txt",
               "Count-triggered re-planning vs a static plan under "
               "corpus drift\n"
               f"task={TASK} pages={PAGES} snapshots={N_SNAPSHOTS} "
               f"work_scale={WORK_SCALE} seed={SEED} shift_at={SHIFT_AT}\n"
               "\n" + format_table("drifting", drift) + "\n\n"
               + format_table("stationary", stationary) + "\n")

    # On the drifting series the trigger re-plans within two snapshots
    # of the boundary, adopts a different plan and beats the static
    # initial plan end to end, sampling included.
    trigger = drift["trigger"]
    assert any(SHIFT_AT < index <= SHIFT_AT + 2
               for index in trigger["replans"]), trigger["replans"]
    assert trigger["final_assignment"] != trigger["initial_assignment"], (
        trigger)
    assert trigger["total_seconds"] < drift["static"]["total_seconds"], {
        "trigger": trigger["total_seconds"],
        "static": drift["static"]["total_seconds"]}
    assert_matches_reference(task, drifting)

    # On the stationary control the trigger samples once, on snapshot
    # 1, so the plan never changes, and the total stays within noise of
    # static.
    assert stationary["trigger"]["replans"] == [1], stationary["trigger"]
    assert stationary["trigger"]["switches"] == 0, stationary["trigger"]
    assert (stationary["trigger"]["total_seconds"]
            < 1.5 * stationary["static"]["total_seconds"]), {
        "trigger": stationary["trigger"]["total_seconds"],
        "static": stationary["static"]["total_seconds"]}
