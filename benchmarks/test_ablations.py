"""Ablations of Delex's design decisions (called out in DESIGN.md).

A1 — reuse level: IE *units* (blackbox + absorbed σ/π, Section 4)
     versus bare blackboxes. Units store post-selection tuples, so the
     capture files are smaller and copying cheaper, at identical final
     results. Showcased on "blockbuster", whose absorbed σ filters
     most gross facts out of the capture.

A2 — the RU matcher (Section 5.4): plans that recycle one expensive
     matcher's work across units versus paying DN (re-extraction) or a
     fresh expensive matcher at every unit. Run on the default engine
     and on the paper's engine (fast paths off): on the default one
     every unit first replays the text it recorded on the previous
     page, whatever its matcher.
"""

import os

import pytest

from conftest import corpus_snapshots, save_table

from repro.extractors import make_task
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment, ReuseEngine


def run_two_snapshots(plan, units, assignment, snaps, tmp, tag,
                      fastpath="on"):
    engine = ReuseEngine(plan, units, assignment, fastpath=fastpath)
    d0 = os.path.join(tmp, tag, "0")
    d1 = os.path.join(tmp, tag, "1")
    engine.run_snapshot(snaps[0], None, None, d0)
    result = engine.run_snapshot(snaps[1], snaps[0], d0, d1)
    o_blocks = sum(s.o_blocks for s in result.unit_stats.values())
    o_tuples = sum(s.output_tuples for s in result.unit_stats.values())
    return result, o_blocks, o_tuples


def test_ablation_unit_vs_blackbox_capture(benchmark, tmp_path):
    task = make_task("blockbuster", work_scale=0.5)
    snaps = corpus_snapshots("blockbuster", "wikipedia",
                             n_snapshots=2, pages=40)
    plan = compile_program(task.program, task.registry)

    def run_both():
        out = {}
        for label, absorb in (("unit-level", True),
                              ("blackbox-level", False)):
            units = find_units(plan, absorb=absorb)
            assignment = PlanAssignment.uniform(units, "UD")
            result, blocks, tuples = run_two_snapshots(
                plan, units, assignment, snaps, str(tmp_path), label)
            out[label] = {"seconds": result.timings.total,
                          "o_blocks": blocks, "o_tuples": tuples,
                          "results": {r: frozenset(v) for r, v in
                                      result.results.items()}}
        return out

    data = benchmark.pedantic(run_both, rounds=1, iterations=1)
    unit = data["unit-level"]
    bbox = data["blackbox-level"]
    lines = ["Ablation A1 — reuse at IE-unit vs blackbox level "
             "(blockbuster)",
             f"{'level':<16}{'seconds':>9}{'O tuples':>10}{'O blocks':>10}"]
    for label, row in data.items():
        lines.append(f"{label:<16}{row['seconds']:>9.3f}"
                     f"{row['o_tuples']:>10}{row['o_blocks']:>10}")
    save_table("ablation_unit_level.txt", "\n".join(lines) + "\n")

    # Same final results either way (correctness is not the trade-off).
    assert unit["results"] == bbox["results"]
    # Absorbed σ/π means strictly fewer captured tuples (Section 4's
    # argument for unit-level reuse).
    assert unit["o_tuples"] < bbox["o_tuples"]


def check_ablation_ru_matcher(benchmark, tmp_path, fastpath, table_name,
                              engine):
    task = make_task("play", work_scale=0.5)
    snaps = corpus_snapshots("play", "wikipedia", n_snapshots=2, pages=40)
    plan = compile_program(task.program, task.registry)
    units = find_units(plan)
    bottom = units[0].uid
    uppers = [u.uid for u in units[1:]]

    plans = {
        "ST + RU above": PlanAssignment(
            {bottom: "ST", **{u: "RU" for u in uppers}}),
        "ST + DN above": PlanAssignment(
            {bottom: "ST", **{u: "DN" for u in uppers}}),
        "ST everywhere": PlanAssignment(
            {u.uid: "ST" for u in units}),
    }

    def run_all():
        out = {}
        for label, assignment in plans.items():
            result, _, _ = run_two_snapshots(
                plan, units, assignment, snaps, str(tmp_path),
                label.replace(" ", "_"), fastpath)
            row = result.timings.as_row()
            out[label] = {"seconds": result.timings.total,
                          "match": row["match"],
                          "extraction": row["extraction"]}
        return out

    data = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [f"Ablation A2 — sharing matching work via RU (play, "
             f"{engine})",
             f"{'plan':<16}{'seconds':>9}{'match':>8}{'extract':>9}"]
    for label, row in data.items():
        lines.append(f"{label:<16}{row['seconds']:>9.3f}"
                     f"{row['match']:>8.3f}{row['extraction']:>9.3f}")
    save_table(table_name, "\n".join(lines) + "\n")

    ru = data["ST + RU above"]
    dn = data["ST + DN above"]
    st = data["ST everywhere"]
    # RU recycles the bottom matcher's work: cheaper extraction than
    # DN-above at almost no extra matching cost.
    assert ru["extraction"] < dn["extraction"]
    assert ru["seconds"] < dn["seconds"]
    # ...and far cheaper matching than running ST at every unit.
    assert ru["match"] < st["match"]


def test_ablation_ru_matcher(benchmark, tmp_path):
    check_ablation_ru_matcher(benchmark, tmp_path, "on", "ablation_ru.txt",
                              "default engine")


def test_ablation_ru_matcher_paper_engine(benchmark, tmp_path):
    check_ablation_ru_matcher(benchmark, tmp_path, "off",
                              "ablation_ru_paper.txt",
                              "the paper's engine, fast paths off")


def test_ablation_matching_scope(benchmark, tmp_path):
    """A3 — extended matching scope (paper future work (a)).

    On a corpus where pages are regularly *renamed* (site
    reorganizations), the paper's same-URL scope loses those pages'
    history; the fingerprint scope recovers it. Measured as Delex
    runtime with each scope on a rename-heavy corpus.
    """
    from repro.corpus.evolve import ChangeModel, EvolvingCorpus
    from repro.corpus.generators import WikipediaGenerator
    from repro.core.delex import DelexSystem
    from repro.reuse.scope import FingerprintScope, SameUrlScope

    task_scale = 0.5
    model = ChangeModel(p_unchanged=0.5, p_removed=0.0, p_added=0.0,
                        p_renamed=0.35, mean_edits=2.0)
    corpus = EvolvingCorpus(WikipediaGenerator(), 30, model, seed=31)
    snaps = list(corpus.snapshots(4))

    def run_scope(scope, tag):
        task = make_task("play", work_scale=task_scale)
        system = DelexSystem(task, str(tmp_path / tag), sample_size=5,
                             scope=scope)
        prev = None
        seconds = 0.0
        results = None
        for i, snap in enumerate(snaps):
            result = system.process(snap, prev)
            if i:
                seconds += result.timings.total
            results = {r: frozenset(v) for r, v in result.results.items()}
            prev = snap
        return seconds, results

    def run_both():
        url_secs, url_results = run_scope(SameUrlScope(), "url")
        fp_secs, fp_results = run_scope(FingerprintScope(), "fp")
        return {"same-url": (url_secs, url_results),
                "fingerprint": (fp_secs, fp_results)}

    data = benchmark.pedantic(run_both, rounds=1, iterations=1)
    url_secs, url_results = data["same-url"]
    fp_secs, fp_results = data["fingerprint"]
    lines = ["Ablation A3 — matching scope on a rename-heavy corpus "
             "(play, 35 % renames/snapshot)",
             f"{'scope':<14}{'seconds':>9}",
             f"{'same-url':<14}{url_secs:>9.3f}",
             f"{'fingerprint':<14}{fp_secs:>9.3f}"]
    save_table("ablation_scope.txt", "\n".join(lines) + "\n")

    # Identical extraction results either way...
    assert url_results == fp_results
    # ...but the fingerprint scope recovers renamed pages' reuse.
    assert fp_secs < url_secs
