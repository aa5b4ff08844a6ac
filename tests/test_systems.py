"""System-level tests: baselines, Delex façade, runner, agreement."""

import os

import pytest

from repro.corpus import dblife_corpus, wikipedia_corpus
from repro.corpus.drift import drift_profile
from repro.corpus.evolve import ChangeModel, EvolvingCorpus
from repro.corpus.generators import DBLifeGenerator
from repro.corpus.snapshot import snapshot_from_texts
from repro.core.cyclex import CyclexSystem
from repro.core.delex import DelexSystem
from repro.core.noreuse import NoReuseSystem
from repro.core.runner import (
    SYSTEM_NAMES,
    canonical_results,
    make_system,
    run_series,
    verify_agreement,
)
from repro.core.shortcut import ShortcutSystem
from repro.extractors import make_task
from repro.matchers.base import MATCHER_NAMES
from repro.plan import compile_program
from repro.reuse.engine import PlanAssignment


@pytest.fixture(scope="module")
def chair_fast():
    return make_task("chair", work_scale=0)


@pytest.fixture(scope="module")
def dblife_snaps():
    return list(dblife_corpus(n_pages=14, seed=5,
                              p_unchanged=0.6).snapshots(3))


class TestNoReuse:
    def test_results_stable_across_calls(self, chair_fast, dblife_snaps):
        plan = compile_program(chair_fast.program, chair_fast.registry)
        system = NoReuseSystem(plan)
        a = canonical_results(system.process(dblife_snaps[0]))
        b = canonical_results(system.process(dblife_snaps[0]))
        assert a == b

    def test_extraction_dominates_decomposition(self, dblife_snaps):
        task = make_task("chair", work_scale=0.2)
        plan = compile_program(task.program, task.registry)
        result = NoReuseSystem(plan).process(dblife_snaps[0])
        row = result.timings.as_row()
        assert row["extraction"] > 0
        assert row["match"] == 0 and row["copy"] == 0


class TestShortcut:
    def test_identical_pages_copied(self, chair_fast, tmp_path):
        from repro.corpus.evolve import ChangeModel, EvolvingCorpus
        from repro.corpus.generators import DBLifeGenerator
        frozen = ChangeModel(p_unchanged=1.0, p_removed=0.0, p_added=0.0)
        corpus = EvolvingCorpus(DBLifeGenerator(), 10, frozen, seed=5)
        snaps = list(corpus.snapshots(2))
        plan = compile_program(chair_fast.program, chair_fast.registry)
        system = ShortcutSystem(plan, str(tmp_path), chair_fast.program_alpha,
                                chair_fast.program_beta)
        r0 = system.process(snaps[0])
        r1 = system.process(snaps[1], snaps[0])
        assert canonical_results(r0) == canonical_results(r1)
        assert r1.timings.get("extract") == 0.0

    def test_changed_pages_reextracted_correctly(self, chair_fast,
                                                 dblife_snaps, tmp_path):
        plan = compile_program(chair_fast.program, chair_fast.registry)
        system = ShortcutSystem(plan, str(tmp_path), chair_fast.program_alpha,
                                chair_fast.program_beta)
        prev = None
        for snap in dblife_snaps:
            result = system.process(snap, prev)
            expected = NoReuseSystem(plan).process(snap)
            assert canonical_results(result) == canonical_results(expected)
            prev = snap


class TestCyclex:
    def test_agrees_with_noreuse(self, chair_fast, dblife_snaps, tmp_path):
        plan = compile_program(chair_fast.program, chair_fast.registry)
        system = CyclexSystem(plan, str(tmp_path),
                              chair_fast.program_alpha,
                              chair_fast.program_beta)
        prev = None
        for snap in dblife_snaps:
            result = system.process(snap, prev)
            expected = NoReuseSystem(plan).process(snap)
            assert canonical_results(result) == canonical_results(expected)
            prev = snap

    def test_small_alpha_program_reuses_partially(self, tmp_path):
        task = make_task("talk", work_scale=0)
        snaps = list(dblife_corpus(n_pages=12, seed=8,
                                   p_unchanged=0.3).snapshots(2))
        plan = compile_program(task.program, task.registry)
        system = CyclexSystem(plan, str(tmp_path), task.program_alpha,
                              task.program_beta)
        system.process(snaps[0])
        result = system.process(snaps[1], snaps[0])
        assert set(system.describe_plan()) == {"program"}
        assert system.describe_plan()["program"] in MATCHER_NAMES
        expected = NoReuseSystem(plan).process(snaps[1])
        assert canonical_results(result) == canonical_results(expected)

    @pytest.mark.parametrize("fastpath,changed_only",
                             [("on", True), ("off", False)])
    def test_plan_samples_changed_pairs_only(self, chair_fast, tmp_path,
                                             fastpath, changed_only):
        """With the fast paths on, the engine recycles an identical page
        under any matcher, DN too, so the one unit's plan is priced on
        changed pairs only; with them off identical pages run the
        matcher and are sampled as well."""
        from repro.fastpath.fingerprint import pages_identical

        snaps = list(dblife_corpus(n_pages=50, seed=5,
                                   p_unchanged=0.9).snapshots(2))
        changed = [p for p in snaps[1].pages
                   if snaps[0].get(p.url) is not None
                   and not pages_identical(p, snaps[0].get(p.url))]
        plan = compile_program(chair_fast.program, chair_fast.registry)
        system = CyclexSystem(plan, str(tmp_path), chair_fast.program_alpha,
                              chair_fast.program_beta, fastpath=fastpath)
        system.process(snaps[0])
        result = system.process(snaps[1], snaps[0])
        assert system.replanned and system.last_stats_index == 1
        assert 0 < len(changed) < system.sample_size
        assert system.last_stats.sample_pages == (
            len(changed) if changed_only else system.sample_size)
        expected = NoReuseSystem(plan).process(snaps[1])
        assert canonical_results(result) == canonical_results(expected)


class TestDelex:
    def test_plan_selected_after_bootstrap(self, tmp_path):
        task = make_task("play", work_scale=0.05)
        snaps = list(wikipedia_corpus(n_pages=10, seed=6).snapshots(3))
        system = DelexSystem(task, str(tmp_path), sample_size=4)
        system.process(snaps[0])
        assert system.last_search is None  # bootstrap: no optimization
        system.process(snaps[1], snaps[0])
        assert system.last_search is not None
        assert set(system.describe_plan()) == {u.uid for u in system.units}

    def test_fixed_assignment_respected(self, tmp_path):
        task = make_task("play", work_scale=0)
        snaps = list(wikipedia_corpus(n_pages=8, seed=6).snapshots(2))
        units = DelexSystem(task, str(tmp_path / "probe")).units
        fixed = PlanAssignment.uniform(units, "UD")
        system = DelexSystem(task, str(tmp_path / "run"),
                             fixed_assignment=fixed)
        system.process(snaps[0])
        system.process(snaps[1], snaps[0])
        assert set(system.describe_plan().values()) == {"UD"}

    def test_old_capture_garbage_collected(self, tmp_path):
        task = make_task("play", work_scale=0)
        snaps = list(wikipedia_corpus(n_pages=6, seed=6).snapshots(5))
        system = DelexSystem(task, str(tmp_path), sample_size=3,
                             capture_history=2)
        prev = None
        for snap in snaps:
            system.process(snap, prev)
            prev = snap
        tables = [d for d in os.listdir(tmp_path) if d.startswith("snap_")
                  and os.path.exists(tmp_path / d / "pages.table")]
        assert len(tables) <= 3

    def test_rejects_wrong_prev_snapshot(self, tmp_path):
        task = make_task("play", work_scale=0)
        snaps = list(wikipedia_corpus(n_pages=6, seed=6).snapshots(3))
        system = DelexSystem(task, str(tmp_path))
        system.process(snaps[0])
        with pytest.raises(ValueError):
            system.process(snaps[2], snaps[2])

    @staticmethod
    def _plan_series(task, snaps, workdir, system_name="delex",
                     fastpath=None):
        """Run Delex (or unpinned Cyclex, which Delex's optimizer plans
        too) over ``snaps``; per snapshot, the index the plan's
        statistics were sampled on and whether it re-planned, checking
        every result against from-scratch No-reuse."""
        if system_name == "cyclex":
            system = CyclexSystem(
                compile_program(task.program, task.registry), workdir,
                task.program_alpha, task.program_beta)
        else:
            system = DelexSystem(task, workdir, sample_size=4,
                                 fastpath=fastpath)
        reference = NoReuseSystem(
            compile_program(task.program, task.registry))
        sampled, replanned = [], []
        for snap in snaps:
            result = system.process(snap)
            assert (canonical_results(result)
                    == canonical_results(reference.process(snap)))
            sampled.append(system.last_stats_index)
            replanned.append(system.replanned)
        return system, sampled, replanned

    def _assert_plans_once(self, task, workdir, system_name="delex"):
        snaps = list(drift_profile("stationary", n_pages=24,
                                   seed=0).snapshots(10))
        _, sampled, replanned = self._plan_series(task, snaps, workdir,
                                                  system_name)
        assert sampled == [None] + [1] * 9
        assert replanned == [False, True] + [False] * 8

    def _assert_replans_after_shift(self, task, workdir, profile,
                                    system_name="delex"):
        """The shift lands on snapshot 5; its run's page mix is what the
        trigger reads when it plans snapshot 6."""
        snaps = list(drift_profile(profile, n_pages=24, seed=0,
                                   shift_at=5).snapshots(8))
        _, sampled, replanned = self._plan_series(task, snaps, workdir,
                                                  system_name)
        assert sampled[:7] == [None, 1, 1, 1, 1, 1, 6]
        assert replanned[:7] == [False, True, False, False, False, False,
                                 True]

    def test_stationary_series_plans_once(self, chair_fast, tmp_path):
        self._assert_plans_once(chair_fast, str(tmp_path))

    def test_cyclex_stationary_series_plans_once(self, chair_fast,
                                                 tmp_path):
        self._assert_plans_once(chair_fast, str(tmp_path), "cyclex")

    @pytest.mark.parametrize("profile",
                             ["churn_burst", "redesign", "vocab_drift"])
    def test_regime_shift_replans_on_the_next_snapshot(self, chair_fast,
                                                       tmp_path, profile):
        self._assert_replans_after_shift(chair_fast, str(tmp_path),
                                         profile)

    @pytest.mark.parametrize("profile",
                             ["churn_burst", "redesign", "vocab_drift"])
    def test_cyclex_regime_shift_replans_on_the_next_snapshot(
            self, chair_fast, tmp_path, profile):
        self._assert_replans_after_shift(chair_fast, str(tmp_path),
                                         profile, "cyclex")

    def test_paper_engine_replans_after_shift(self, chair_fast, tmp_path):
        """With the fast paths off no page is recycled, so the trigger
        reads byte-identical pairs, which the page loop counts whatever
        the setting; counting recycled pages it never re-planned."""
        snaps = list(drift_profile("churn_burst", n_pages=24, seed=0,
                                   shift_at=5).snapshots(8))
        _, sampled, replanned = self._plan_series(
            chair_fast, snaps, str(tmp_path), fastpath="off")
        assert [i for i, r in enumerate(replanned) if r] == [1, 6]
        assert sampled == [None, 1, 1, 1, 1, 1, 6, 6]

    def test_default_engine_trigger_reads_what_it_recycles(self,
                                                           chair_fast,
                                                           tmp_path):
        """On the default engine every identical pair is recycled, so
        the trigger reads the counts it read before identical pairs were
        counted apart, and a seeded series plans as it did."""
        snaps = list(drift_profile("churn_burst", n_pages=24, seed=0,
                                   shift_at=5).snapshots(8))
        system = DelexSystem(chair_fast, str(tmp_path), sample_size=4)
        sequence = []
        for snap in snaps:
            fastpath = system.process(snap).timings.fastpath
            assert fastpath.pages_identical == fastpath.pages_recycled
            sequence.append((system.last_stats_index, system.replanned,
                             system.describe_plan()))
        all_dn = {"extractChairFact": "DN", "extractChairSent": "DN",
                  "extractServiceSec": "DN"}
        assert sequence == [(None, False, all_dn), (1, True, all_dn),
                            (1, False, all_dn), (1, False, all_dn),
                            (1, False, all_dn), (1, False, all_dn),
                            (6, True, all_dn), (6, False, all_dn)]

    def test_drift_bound_widens_only_for_few_pages(self):
        """The re-plan bound is max(REPLAN_DRIFT, z·SE): from 160 pages
        up it is REPLAN_DRIFT whatever the fraction; at 16 pages a
        fraction near 0.3 may move by more before it counts as drift."""
        from repro.core.delex import REPLAN_DRIFT, PageMix, drift_bound

        for fraction in (0.0, 0.1, 0.3, 0.5, 1.0):
            assert drift_bound(fraction, 160) == REPLAN_DRIFT
            assert drift_bound(fraction, 600) == REPLAN_DRIFT
        assert drift_bound(0.3, 16) > REPLAN_DRIFT
        assert drift_bound(0.0, 16) == drift_bound(1.0, 16) == REPLAN_DRIFT
        calm = PageMix(1.0, 0.3, 16)
        assert not PageMix(1.0, 0.5625, 16).drifted_from(calm)
        assert PageMix(1.0, 0.7, 16).drifted_from(calm)
        assert PageMix(0.75, 0.3, 16).drifted_from(calm)

    def test_first_reuse_snapshot_after_resume_plans_afresh(
            self, chair_fast, tmp_path):
        snaps = list(drift_profile("stationary", n_pages=24,
                                   seed=0).snapshots(5))
        first, sampled, _ = self._plan_series(chair_fast, snaps[:4],
                                              str(tmp_path))
        assert sampled[-1] == 1
        system = DelexSystem(chair_fast, str(tmp_path), sample_size=4)
        system.resume(snaps[2:4], first._prev_dir, first._snapshot_serial)
        result = system.process(snaps[4])
        assert system.replanned and system.last_stats_index == 4
        reference = NoReuseSystem(system.plan)
        assert (canonical_results(result)
                == canonical_results(reference.process(snaps[4])))

    def test_replans_ignore_the_clock_after_calibration(self, chair_fast,
                                                        tmp_path,
                                                        monkeypatch):
        """Matcher and extractor speeds are calibrated once: a re-plan
        prices counts with that calibration, so a clock that runs 100x
        slower after snapshot 1 changes no later plan."""
        from types import SimpleNamespace

        from repro.optimizer import stats as stats_mod

        snaps = list(drift_profile("churn_burst", n_pages=24, seed=0,
                                   shift_at=3).snapshots(7))

        def plans(slow_after: int, workdir: str):
            # A deterministic clock: every read advances one tick, long
            # enough that extraction is worth avoiding.
            clock = {"now": 0.0, "tick": 1e-3}

            def perf_counter() -> float:
                clock["now"] += clock["tick"]
                return clock["now"]

            monkeypatch.setattr(stats_mod, "time",
                                SimpleNamespace(perf_counter=perf_counter))
            system = DelexSystem(chair_fast, workdir, sample_size=4)
            out = []
            for snap in snaps:
                if snap.index > slow_after:
                    clock["tick"] = 1e-1
                system.process(snap)
                out.append((system.last_stats_index,
                            system.describe_plan()))
            return out

        steady = plans(len(snaps), str(tmp_path / "steady"))
        slowed = plans(1, str(tmp_path / "slowed"))
        assert {index for index, _ in steady[2:]} - {1}  # it re-planned
        assert slowed == steady


class TestRunner:
    def test_make_system_names(self, chair_fast, tmp_path):
        for name in SYSTEM_NAMES:
            assert make_system(name, chair_fast, str(tmp_path / name))
        with pytest.raises(ValueError):
            make_system("bogus", chair_fast, str(tmp_path))

    def test_run_series_and_agreement(self, chair_fast, dblife_snaps,
                                      tmp_path):
        reports = run_series(chair_fast, dblife_snaps,
                             systems=("noreuse", "delex"),
                             workdir=str(tmp_path))
        assert verify_agreement(reports) == []
        report = reports["delex"]
        assert len(report.snapshots) == len(dblife_snaps)
        assert len(report.seconds_series()) == len(dblife_snaps) - 1
        assert report.total_seconds() >= 0

    def test_verify_agreement_detects_mismatch(self, chair_fast,
                                               dblife_snaps, tmp_path):
        reports = run_series(chair_fast, dblife_snaps,
                             systems=("noreuse", "shortcut"),
                             workdir=str(tmp_path))
        # Sabotage one snapshot's results.
        broken = reports["shortcut"].snapshots[1]
        broken.results = {rel: frozenset()
                          for rel in broken.results}
        problems = verify_agreement(reports)
        assert problems

    def test_missing_reference(self, chair_fast, dblife_snaps, tmp_path):
        reports = run_series(chair_fast, dblife_snaps,
                             systems=("shortcut",), workdir=str(tmp_path))
        assert verify_agreement(reports)

    def test_mean_decomposition_keys(self, chair_fast, dblife_snaps,
                                     tmp_path):
        reports = run_series(chair_fast, dblife_snaps,
                             systems=("noreuse",), workdir=str(tmp_path))
        decomp = reports["noreuse"].mean_decomposition()
        assert set(decomp) == {"match", "extraction", "copy", "opt",
                               "io", "others", "total"}


@pytest.mark.parametrize("task_name", ["talk", "chair", "blockbuster"])
def test_all_four_systems_agree(task_name, tmp_path):
    task = make_task(task_name, work_scale=0)
    corpus = (dblife_corpus(n_pages=10, seed=13, p_unchanged=0.5)
              if task.corpus == "dblife"
              else wikipedia_corpus(n_pages=10, seed=13))
    snaps = list(corpus.snapshots(3))
    reports = run_series(task, snaps, workdir=str(tmp_path))
    assert verify_agreement(reports) == []


# -- Shortcut and Cyclex as one-unit Delex plans ----------------------------


def _series(system, snaps):
    out, prev = [], None
    for snap in snaps:
        out.append(system.process(snap, prev))
        prev = snap
    return out


#: The two baselines with a deterministic matcher.
_BASELINES = {"shortcut": {}, "cyclex": {"fixed_matcher": "UD"}}


class TestProgramUnitBaselines:
    def test_large_edited_infobox_page_keeps_its_rows(self, tmp_path):
        """Every infobox head exports the page-scan span ``d``, so a
        row's extent is the whole page. An edit at the end of a page
        wider than the declared program α used to drop every row."""
        task = make_task("infobox", work_scale=0)
        plan = compile_program(task.program, task.registry)
        noreuse = NoReuseSystem(plan)
        snap = next(iter(wikipedia_corpus(n_pages=10, seed=107)
                         .snapshots(1)))
        page = max(snap.canonical_pages(),
                   key=lambda p: noreuse.process(snapshot_from_texts(
                       0, {"u": p.text})).total_mentions())
        filler = "Filler line of padding text.\n"
        old = (page.text + filler * 400)[:9584]
        last = old.rindex("\nFiller") + 1
        new = old[:last] + "X" + old[last + 1:]
        s0 = snapshot_from_texts(0, {"u": old})
        s1 = snapshot_from_texts(1, {"u": new})
        want = canonical_results(noreuse.process(s1))
        assert sum(len(rows) for rows in want.values()) == 5
        for matcher in ("UD", "ST"):
            system = CyclexSystem(plan, str(tmp_path / matcher),
                                  task.program_alpha, task.program_beta,
                                  fixed_matcher=matcher)
            got = _series(system, [s0, s1])[1]
            assert canonical_results(got) == want, matcher

    @pytest.mark.parametrize("name", ["shortcut", "cyclex", "delex"])
    def test_old_capture_garbage_collected(self, name, chair_fast,
                                           tmp_path):
        snaps = list(dblife_corpus(n_pages=6, seed=6).snapshots(6))
        system = make_system(name, chair_fast, str(tmp_path))
        _series(system, snaps)
        tables = [d for d in os.listdir(system.workdir)
                  if d.startswith("snap_") and os.path.exists(
                      os.path.join(system.workdir, d, "pages.table"))]
        assert len(tables) <= system.capture_history + 1

    @pytest.mark.parametrize("name", sorted(_BASELINES))
    def test_identical_snapshot_short_circuits_every_page(self, name,
                                                          chair_fast,
                                                          tmp_path):
        frozen = ChangeModel(p_unchanged=1.0, p_removed=0.0, p_added=0.0)
        snaps = list(EvolvingCorpus(DBLifeGenerator(), 8, frozen,
                                    seed=2).snapshots(2))
        system = make_system(name, chair_fast, str(tmp_path),
                             **_BASELINES[name])
        results = _series(system, snaps)
        fp = results[1].timings.fastpath
        assert fp.pages_paired == len(snaps[1]) > 0
        assert fp.pages_short_circuited == fp.pages_paired
        assert (canonical_results(results[1])
                == canonical_results(results[0]))

    @pytest.mark.parametrize("name", sorted(_BASELINES))
    def test_unit_stats_has_the_program_unit(self, name, chair_fast,
                                             dblife_snaps, tmp_path):
        system = make_system(name, chair_fast, str(tmp_path),
                             **_BASELINES[name])
        for snap, result in zip(dblife_snaps,
                                _series(system, dblife_snaps)):
            # A recycled page books nothing in the unit's stats.
            fp = result.timings.fastpath
            assert set(result.unit_stats) == {"program"}
            assert (result.unit_stats["program"].input_tuples
                    + fp.pages_recycled) == len(snap)
