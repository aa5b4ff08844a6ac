"""Cost model, statistics collection, Algorithm 1, enumeration."""

from types import SimpleNamespace

import pytest

from repro.corpus import wikipedia_corpus
from repro.corpus.snapshot import snapshot_from_texts
from repro.extractors import make_task
from repro.matchers.base import DN_NAME, RU_NAME, ST_NAME, UD_NAME
from repro.optimizer.cost import (
    from_scratch_cost,
    plan_cost,
    rank_plans,
    resolve_ru_donor,
    unit_cost,
)
from repro.optimizer.enumerate import (
    canonical_plans,
    count_assignments,
    enumerate_assignments,
)
from repro.optimizer.params import CostWeights, Statistics, UnitEstimates
from repro.optimizer.search import search_plan
from repro.optimizer.stats import collect_statistics, estimate_f
from repro.plan import compile_program, find_units, partition_chains
from repro.reuse.engine import PlanAssignment, ReuseEngine


def synthetic_stats(units, extract_rate=1e-5, g_st=0.1, g_ud=0.3,
                    st_rate=2e-6, ud_rate=5e-7, f=0.9, m=100):
    """Hand-built statistics with controllable trade-offs."""
    estimates = {}
    for u in units:
        est = UnitEstimates(a=2.0, a_prev=2.0, l=300.0,
                            extract_rate=extract_rate,
                            b_blocks=2.0, c_blocks=2.0)
        est.s = {ST_NAME: 2.0, UD_NAME: 2.0, RU_NAME: 2.0}
        est.g = {ST_NAME: g_st, UD_NAME: g_ud}
        est.h = {ST_NAME: 2.0, UD_NAME: 1.0}
        est.g_ru = {ST_NAME: g_st * 1.1, UD_NAME: g_ud * 1.1}
        est.h_ru = {ST_NAME: 2.0, UD_NAME: 1.0}
        estimates[u.uid] = est
    weights = CostWeights(match_rate={ST_NAME: st_rate, UD_NAME: ud_rate,
                                      RU_NAME: 1e-9})
    return Statistics(f=f, m=m, d_blocks=50.0, units=estimates,
                      weights=weights)


@pytest.fixture(scope="module")
def play_setup():
    task = make_task("play", work_scale=0)
    plan = compile_program(task.program, task.registry)
    units = find_units(plan)
    chains = partition_chains(units)
    return plan, units, chains


class TestUnitCost:
    def test_dn_cost_is_pure_extraction_plus_io(self, play_setup):
        _, units, _ = play_setup
        stats = synthetic_stats(units)
        unit = units[0]
        cost = unit_cost(unit, DN_NAME, stats, None)
        est = stats.units[unit.uid]
        expected_extract = (est.extract_rate * est.a * stats.m * est.l)
        assert cost == pytest.approx(
            expected_extract + stats.weights.io_per_block * est.b_blocks,
            rel=0.01)

    def test_matching_reduces_extraction_term(self, play_setup):
        _, units, _ = play_setup
        stats = synthetic_stats(units, extract_rate=1e-3)
        unit = units[0]
        assert unit_cost(unit, ST_NAME, stats, None) < \
            unit_cost(unit, DN_NAME, stats, None)

    def test_expensive_matcher_can_lose(self, play_setup):
        _, units, _ = play_setup
        # Extraction is nearly free; matching is expensive.
        stats = synthetic_stats(units, extract_rate=1e-9, st_rate=1e-3)
        unit = units[0]
        assert unit_cost(unit, DN_NAME, stats, None) < \
            unit_cost(unit, ST_NAME, stats, None)

    def test_replayed_chars_cost_nothing_under_any_matcher(self, play_setup):
        _, units, _ = play_setup
        unit = units[0]
        stats = synthetic_stats(units)
        costs = {m: unit_cost(unit, m, stats, None)
                 for m in (DN_NAME, ST_NAME, UD_NAME)}
        stats.units[unit.uid].r = 1.0
        replayed = {m: unit_cost(unit, m, stats, None)
                    for m in (DN_NAME, ST_NAME, UD_NAME)}
        est = stats.units[unit.uid]
        # Only the unpaired pages are still extracted, and no matcher
        # or copy work is priced.
        assert replayed[DN_NAME] == pytest.approx(
            est.extract_rate * est.a * stats.m * (1 - stats.f) * est.l
            + stats.weights.io_per_block * est.b_blocks)
        assert all(replayed[m] < costs[m] for m in costs)
        assert replayed[DN_NAME] <= min(replayed.values())

    def test_split_unit_runs_no_matcher(self, play_setup):
        _, units, _ = play_setup
        unit = units[0]
        stats = synthetic_stats(units, extract_rate=1e-3, st_rate=1e-3)
        est = stats.units[unit.uid]
        est.split, est.r = True, 0.5
        dn = unit_cost(unit, DN_NAME, stats, None)
        # Whatever the matcher: the unreplayed half is extracted
        # (g = 1), and only the matchers' fixed I/O terms differ.
        for matcher in (ST_NAME, UD_NAME, RU_NAME):
            extra = unit_cost(unit, matcher, stats, None) - dn
            assert 0 < extra < 1e-2 * dn
        paired = est.a * stats.m * stats.f * est.l * 0.5
        assert dn == pytest.approx(
            est.extract_rate * (est.a * stats.m * (1 - stats.f) * est.l
                                + paired)
            + stats.weights.io_per_block * est.b_blocks)

    def test_ru_without_donor_prices_like_dn_extraction(self, play_setup):
        _, units, _ = play_setup
        stats = synthetic_stats(units)
        unit = units[0]
        ru = unit_cost(unit, RU_NAME, stats, None)
        dn = unit_cost(unit, DN_NAME, stats, None)
        assert ru >= dn * 0.99  # same extraction term, plus O-file read

    def test_f_zero_means_full_extraction(self, play_setup):
        _, units, _ = play_setup
        stats = synthetic_stats(units, f=0.0)
        unit = units[0]
        assert unit_cost(unit, ST_NAME, stats, None) >= \
            stats.units[unit.uid].extract_rate * 2.0 * stats.m * 300.0


class TestDonorResolution:
    def test_nearest_earlier_st_unit(self, play_setup):
        _, units, _ = play_setup
        assignment = PlanAssignment({
            units[0].uid: ST_NAME, units[1].uid: RU_NAME,
            units[2].uid: UD_NAME, units[3].uid: RU_NAME})
        donor = resolve_ru_donor(units[3], units, assignment)
        assert donor is units[2]

    def test_no_earlier_donor(self, play_setup):
        _, units, _ = play_setup
        assignment = PlanAssignment({u.uid: RU_NAME for u in units})
        assert resolve_ru_donor(units[0], units, assignment) is None


class TestPlanCost:
    def test_sums_units(self, play_setup):
        _, units, _ = play_setup
        stats = synthetic_stats(units)
        assignment = PlanAssignment.all_dn(units)
        total = plan_cost(units, assignment, stats)
        parts = sum(unit_cost(u, DN_NAME, stats, None) for u in units)
        assert total == pytest.approx(parts)

    def test_from_scratch_equals_all_dn(self, play_setup):
        _, units, _ = play_setup
        stats = synthetic_stats(units)
        assert from_scratch_cost(units, stats) == pytest.approx(
            plan_cost(units, PlanAssignment.all_dn(units), stats))

    def test_rank_plans_sorted(self, play_setup):
        _, units, _ = play_setup
        stats = synthetic_stats(units)
        plans = [PlanAssignment.all_dn(units),
                 PlanAssignment.uniform(units, ST_NAME)]
        ranked = rank_plans(units, plans, stats)
        assert ranked[0].cost <= ranked[1].cost


class TestSearch:
    def test_expensive_extraction_prefers_matching(self, play_setup):
        _, units, chains = play_setup
        stats = synthetic_stats(units, extract_rate=1e-3)
        result = search_plan(units, stats, chains)
        used = set(result.assignment.matchers.values())
        assert used & {ST_NAME, UD_NAME}, "should pick a real matcher"

    def test_cheap_extraction_prefers_dn(self, play_setup):
        _, units, chains = play_setup
        stats = synthetic_stats(units, extract_rate=1e-9,
                                st_rate=1e-3, ud_rate=1e-3)
        result = search_plan(units, stats, chains)
        assert set(result.assignment.matchers.values()) == {DN_NAME}

    def test_at_most_one_expensive_matcher_per_chain(self, play_setup):
        _, units, chains = play_setup
        stats = synthetic_stats(units, extract_rate=1e-3)
        result = search_plan(units, stats, chains)
        for chain in chains:
            expensive = [u for u in chain.units
                         if result.assignment.matchers[u.uid]
                         in (ST_NAME, UD_NAME)]
            assert len(expensive) <= 1

    def test_cross_chain_ru_considered(self, play_setup):
        _, units, chains = play_setup
        # Make matching very expensive but extraction dominate: the
        # second chain should recycle the first chain's matcher via RU.
        stats = synthetic_stats(units, extract_rate=5e-4, st_rate=5e-5,
                                ud_rate=5e-5)
        result = search_plan(units, stats, chains)
        matchers = result.assignment.matchers
        expensive_total = [uid for uid, m in matchers.items()
                           if m in (ST_NAME, UD_NAME)]
        assert len(expensive_total) <= 2
        assert result.estimated_cost > 0

    def test_assignment_covers_all_units(self, play_setup):
        _, units, chains = play_setup
        stats = synthetic_stats(units)
        result = search_plan(units, stats, chains)
        assert set(result.assignment.matchers) == {u.uid for u in units}


class TestEnumeration:
    def test_play_has_256_plans(self, play_setup):
        _, units, _ = play_setup
        assert count_assignments(units) == 256
        assert len(canonical_plans(units)) == 256

    def test_enumeration_unique(self, play_setup):
        _, units, _ = play_setup
        seen = {tuple(sorted(a.matchers.items()))
                for a in enumerate_assignments(units)}
        assert len(seen) == 256

    def test_too_large_space_rejected(self, play_setup):
        _, units, _ = play_setup
        with pytest.raises(ValueError):
            canonical_plans(units * 3)


class TestEstimateF:
    def _deltas(self, *fractions):
        return [SimpleNamespace(fraction_with_previous=f)
                for f in fractions]

    def test_averages_the_window(self):
        assert estimate_f(self._deltas(0.2, 0.4, 0.9)) == pytest.approx(0.5)

    def test_empty_window(self):
        assert estimate_f([]) == 0.0


class TestStatisticsCollection:
    def test_collects_sane_estimates(self, tmp_path):
        task = make_task("play", work_scale=0)
        plan = compile_program(task.program, task.registry)
        units = find_units(plan)
        snaps = list(wikipedia_corpus(n_pages=10, seed=3).snapshots(3))
        # Capture snapshot 1 so recorded regions exist.
        engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        cap0 = str(tmp_path / "0")
        engine.run_snapshot(snaps[1], None, None, cap0)
        stats = collect_statistics(plan, units, snaps[2], snaps[:2],
                                   sample_size=5, k_snapshots=2,
                                   prev_capture_dir=cap0)
        assert 0.5 <= stats.f <= 1.0
        assert stats.m == len(snaps[2])
        for u in units:
            est = stats.units[u.uid]
            assert est.a > 0
            assert est.l > 0
            assert 0.0 <= est.g.get("ST", 1.0) <= 1.0
            assert 0.0 <= est.g_ru.get("ST", 1.0) <= 1.0

    def test_replay_share_and_splits(self, tmp_path):
        """With the fast paths on, each unit's ``r`` is the share of its
        sampled input chars that replay, a split-declared unit is priced
        without a matcher and gets no matcher probe; off, ``r`` is 0
        and every unit is probed, as in the paper."""
        task = make_task("play", work_scale=0)
        plan = compile_program(task.program, task.registry)
        units = find_units(plan)
        snaps = list(wikipedia_corpus(n_pages=10, seed=3).snapshots(3))
        engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        cap0 = str(tmp_path / "0")
        engine.run_snapshot(snaps[1], None, None, cap0)
        on, off = (collect_statistics(plan, units, snaps[2], snaps[:2],
                                      sample_size=5, k_snapshots=2,
                                      prev_capture_dir=cap0,
                                      fastpath=fastpath)
                   for fastpath in (True, False))
        for u in units:
            split = u.extractor.splitter is not None
            assert on.units[u.uid].split == split
            assert 0.0 < on.units[u.uid].r <= 1.0
            if split or on.units[u.uid].r == 1.0:
                # Nothing probed: the defaults (g = 1) price it.
                assert on.units[u.uid].g == {}
            assert off.units[u.uid].r == 0.0
            assert not off.units[u.uid].split
            assert set(off.units[u.uid].g) == {ST_NAME, UD_NAME}


    def test_unselected_splits_are_priced_as_nothing(self, tmp_path):
        """A page whose only edit is in its Biography section: the
        changed split is one ``extractFilmSec``'s key does not select,
        so the engine extracts none of that unit's input, and the
        statistics price all of it at 0 (``r`` is 1)."""
        task = make_task("play", work_scale=0)
        plan = compile_program(task.program, task.registry)
        units = find_units(plan)
        text = ("Intro line.\n== Biography ==\nBorn in 1970.\n"
                "== Filmography ==\nAna Lee starred as Kim in Red Sky "
                "(1999).\n== Awards ==\nNone yet.\n")
        edited = text.replace("Born in 1970.", "Born in 1971 in Rome.")
        url = "http://wikipedia.example.org/page/00001"
        snaps = [snapshot_from_texts(0, {url: text}),
                 snapshot_from_texts(1, {url: edited})]
        engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        engine.run_snapshot(snaps[0], None, None, str(tmp_path / "0"))
        run = engine.run_snapshot(snaps[1], snaps[0], str(tmp_path / "0"),
                                  str(tmp_path / "1"))
        film = run.unit_stats["extractFilmSec"]
        assert film.extracted_chars == 0
        assert film.skipped_chars == len(edited) - len(
            edited[edited.index("== Filmography"):edited.index("== Aw")])
        stats = collect_statistics(plan, units, snaps[1], snaps[:1],
                                   sample_size=5, k_snapshots=1,
                                   prev_capture_dir=str(tmp_path / "0"))
        est = stats.units["extractFilmSec"]
        assert est.split and est.r == 1.0

    def test_fast_paths_off_choose_the_papers_plan(self, tmp_path,
                                                   monkeypatch):
        """With the fast paths off the collector probes and prices as
        the paper's engine always did. On this series
        ``extractGrossFact`` has one sampled region and no probe of it
        counts, so its selectivities read 0 and ST is chosen for it;
        the fast paths' default of g = 1 for an unprobed unit would
        choose DN."""
        from repro.core.delex import DelexSystem
        from repro.optimizer import stats as stats_mod

        clock = {"now": 0.0}

        def perf_counter() -> float:
            clock["now"] += 1e-3
            return clock["now"]

        monkeypatch.setattr(stats_mod, "time",
                            SimpleNamespace(perf_counter=perf_counter))
        task = make_task("blockbuster", work_scale=0.25)
        snaps = list(wikipedia_corpus(n_pages=16, seed=4,
                                      p_unchanged=0.3).snapshots(2))
        system = DelexSystem(task, str(tmp_path), sample_size=4,
                             fastpath="off")
        system.process(snaps[0])
        system.process(snaps[1], snaps[0])
        gross = system.last_stats.units["extractGrossFact"]
        assert gross.g == {ST_NAME: 0.0, UD_NAME: 0.0}
        assert system.describe_plan() == {"extractBoxOfficeSec": DN_NAME,
                                          "extractGrossFact": ST_NAME}

    def test_sampled_group_read_equals_whole_file_read(self, tmp_path,
                                                       monkeypatch):
        # The collector parses only the sampled pages' I groups; the
        # statistics must be exactly those of a whole-file read.
        from repro.optimizer import stats as stats_mod

        task = make_task("play", work_scale=0)
        plan = compile_program(task.program, task.registry)
        units = find_units(plan)
        snaps = list(wikipedia_corpus(n_pages=12, seed=5).snapshots(3))
        engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        cap = str(tmp_path / "cap")
        engine.run_snapshot(snaps[1], None, None, cap)

        whole = stats_mod.load_recorded_regions(cap, units)
        sampled = [p.did for p in snaps[1].canonical_pages()[1::3]]
        part = stats_mod.load_recorded_regions(cap, units, sampled)
        assert len(whole[units[0].uid]) == len(snaps[1])
        assert part == {uid: {did: regions[did] for did in sampled
                              if did in regions}
                        for uid, regions in whole.items()}

        def collect():
            return collect_statistics(
                plan, units, snaps[2], snaps[:2], sample_size=4,
                k_snapshots=2, prev_capture_dir=cap,
                known_extract_rates={u.uid: 1e-6 for u in units})

        filtered = collect()
        monkeypatch.setattr(
            stats_mod, "load_recorded_regions",
            lambda d, us, dids=None: whole)
        assert collect().units == filtered.units

    def test_sample_skips_identical_pairs_under_fast_paths(self):
        """The engine recycles an identical page under every plan, so
        the collector prices changed pairs only; without the fast paths
        identical pages run the plan and stay in the sample."""
        from repro.corpus import dblife_corpus
        from repro.fastpath.fingerprint import pages_identical
        from repro.optimizer.stats import _sample_pairs

        snaps = list(dblife_corpus(n_pages=60, seed=5,
                                   p_unchanged=0.9).snapshots(2))
        shared = [p for p in snaps[1].pages if snaps[0].get(p.url)]
        changed = [p for p in shared
                   if not pages_identical(p, snaps[0].get(p.url))]
        assert 0 < len(changed) < len(shared) / 4
        on = _sample_pairs(snaps[1], snaps[0], 8, fastpath=True)
        assert len(on) == min(8, len(changed))
        assert not any(pages_identical(p, q) for p, q in on)
        off = _sample_pairs(snaps[1], snaps[0], 8, fastpath=False)
        assert len(off) == 8
        assert any(pages_identical(p, q) for p, q in off)
        # Nothing changed: every shared pair is still a sample.
        same = _sample_pairs(snaps[0], snaps[0], 8, fastpath=True)
        assert len(same) == 8

    def test_requires_history(self):
        task = make_task("play", work_scale=0)
        plan = compile_program(task.program, task.registry)
        units = find_units(plan)
        snaps = list(wikipedia_corpus(n_pages=4, seed=3).snapshots(1))
        with pytest.raises(ValueError):
            collect_statistics(plan, units, snaps[0], [])

    def test_no_shared_pages_degrades_gracefully(self):
        from repro.corpus.snapshot import snapshot_from_texts
        task = make_task("play", work_scale=0)
        plan = compile_program(task.program, task.registry)
        units = find_units(plan)
        s0 = snapshot_from_texts(0, {"a": "x"})
        s1 = snapshot_from_texts(1, {"b": "y"})
        stats = collect_statistics(plan, units, s1, [s0], sample_size=5)
        assert stats.f == 0.0
        assert stats.sample_pages == 0
