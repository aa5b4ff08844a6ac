"""Tests for repro.check — the differential correctness harness.

A harness is only trustworthy if it has been *seen* to catch bugs, so
half of this file runs the harness against deliberately planted faults
(:mod:`repro.check.faults`) and asserts the oracle reports them, the
shrinker minimizes them, and the repro bundle replays them. The other
half unit-tests the invariant layer and the sweep plumbing.
"""

from __future__ import annotations

import random

import pytest

from repro.check import InvariantViolation, invariants
from repro.check.bundle import load_bundle, replay_bundle, write_bundle
from repro.check.faults import FAULTS, active_fault, injected_fault
from repro.check.fuzz import (
    FuzzSpec,
    build_series,
    oracle_predicate,
    run_case,
    shrink_series,
)
from repro.check.grid import (
    CheckConfig,
    build_grid,
    make_assignment,
    reference_config,
)
from repro.check.oracle import build_reference, diff_results, run_oracle
from repro.check.runner import CASE_MIX, run_check, seed_cases
from repro.extractors import ALL_TASKS, make_task
from repro.text.span import Interval, Span


#: The standard copy-heavy fixture: wikipedia churn keeps most text
#: shared between versions, so delex's copy path is exercised hard.
SPEC = FuzzSpec(seed=0, task="play", corpus="wikipedia",
                n_pages=6, n_snapshots=3, grid="small")


@pytest.fixture(scope="module")
def series():
    return build_series(SPEC)


@pytest.fixture(scope="module")
def play_task():
    return make_task("play", work_scale=0)


# -- invariants -------------------------------------------------------------

class _Zone:
    def __init__(self, start, end, shift=0, q_itid=0):
        self.zone = Interval(start, end)
        self.shift = shift
        self.q_itid = q_itid


class _Derivation:
    def __init__(self, zones=(), regions=(), copied=()):
        self.copy_zones = list(zones)
        self.extraction_regions = list(regions)
        self.copied = list(copied)


class TestInvariants:
    def test_disabled_by_default(self):
        assert invariants.ENABLED is False

    def test_checking_restores_previous_state(self):
        assert not invariants.ENABLED
        with invariants.checking(True):
            assert invariants.ENABLED
            with invariants.checking(False):
                assert not invariants.ENABLED
            assert invariants.ENABLED
        assert not invariants.ENABLED

    def test_good_derivation_passes(self):
        r = Interval(0, 100)
        d = _Derivation(zones=[_Zone(10, 30), _Zone(40, 60)],
                        regions=[Interval(0, 15), Interval(25, 45),
                                 Interval(55, 100)],
                        copied=[{"x": Span("p", 12, 28)}])
        invariants.check_derivation(d, r, alpha=5, beta=2)

    def test_zone_outside_region_raises(self):
        with pytest.raises(InvariantViolation, match="containment"):
            invariants.check_derivation(
                _Derivation(zones=[_Zone(10, 120)],
                            regions=[Interval(0, 100)]),
                Interval(0, 100), alpha=1, beta=1)

    def test_unseparated_zones_raise(self):
        with pytest.raises(InvariantViolation, match="separation"):
            invariants.check_derivation(
                _Derivation(zones=[_Zone(0, 10), _Zone(10, 20)],
                            regions=[]),
                Interval(0, 100), alpha=1, beta=1)

    def test_uncovered_gap_raises(self):
        with pytest.raises(InvariantViolation, match="coverage"):
            invariants.check_derivation(
                _Derivation(zones=[_Zone(0, 40)],
                            regions=[Interval(40, 60)]),
                Interval(0, 100), alpha=1, beta=1)

    def test_copied_outside_zone_raises(self):
        with pytest.raises(InvariantViolation, match="copied-extent"):
            invariants.check_derivation(
                _Derivation(zones=[_Zone(0, 100)],
                            regions=[Interval(100, 120)],
                            copied=[{"x": Span("p", 90, 110)}]),
                Interval(0, 120), alpha=1, beta=1)

    def test_rows_in_page(self):
        class P:
            did = "d"
            text = "0123456789"

        invariants.check_rows_in_page([{"x": Span("d", 0, 10)}], P())
        with pytest.raises(InvariantViolation, match="span-in-page"):
            invariants.check_rows_in_page([{"x": Span("d", 5, 11)}], P())
        with pytest.raises(InvariantViolation, match="anchor"):
            invariants.check_rows_in_page([{"x": Span("q", 0, 3)}], P())

    def test_page_order(self):
        invariants.check_page_order(["a", "b", "c"])
        with pytest.raises(InvariantViolation, match="monotonic"):
            invariants.check_page_order(["a", "c", "b"])

    def test_memo_replay(self):
        class Seg:
            def __init__(self, p, q, n):
                self.p_start, self.q_start, self.length = p, q, n

        invariants.check_memo_replay([Seg(0, 2, 3)], "abcx", "xxabc",
                                     Interval(0, 4), Interval(0, 5))
        with pytest.raises(InvariantViolation, match="retag"):
            invariants.check_memo_replay([Seg(0, 0, 3)], "abcx",
                                         "xxabc", Interval(0, 4),
                                         Interval(0, 5))

    def test_counter_counts(self):
        invariants.reset_counter()
        invariants.check_page_order(["a"])
        invariants.check_page_order(["a", "b"])
        assert invariants.checks_run == 2


# -- grid -------------------------------------------------------------------

class TestGrid:
    def test_small_and_full_sizes(self):
        small, full = build_grid("small"), build_grid("full")
        assert 10 <= len(small) < len(full)
        ids = [c.config_id for c in full]
        assert len(ids) == len(set(ids))

    def test_every_capture_group_has_a_serial_off_baseline(self):
        for name in ("small", "full"):
            groups = {}
            for cfg in build_grid(name):
                if cfg.capture_comparable():
                    groups.setdefault(cfg.capture_group(), []).append(cfg)
            for key, members in groups.items():
                assert any(c.backend == "serial" and c.fastpath == "off"
                           for c in members), key

    def test_auto_policy_not_capture_comparable(self):
        assert not CheckConfig(system="delex",
                               policy="auto").capture_comparable()
        assert CheckConfig(system="delex",
                           policy="UD").capture_comparable()
        assert not CheckConfig(system="noreuse").capture_comparable()

    def test_config_dict_round_trip(self):
        for cfg in build_grid("full"):
            assert CheckConfig.from_dict(cfg.as_dict()) == cfg

    def test_system_kwargs(self, play_task):
        kw = CheckConfig(system="delex",
                         policy="mixed").system_kwargs(play_task)
        assert "fixed_assignment" in kw
        assert CheckConfig(system="cyclex", policy="ST").system_kwargs(
            play_task) == {"fixed_matcher": "ST"}
        with pytest.raises(ValueError):
            CheckConfig(system="noreuse",
                        policy="UD").system_kwargs(play_task)
        with pytest.raises(ValueError):
            make_assignment(play_task, "bogus")

    @pytest.mark.parametrize("task_name,frontier", [
        ("chair", "extractServiceSec"), ("play", "extractFilmSec")])
    def test_mixed_policy_chains_producer_into_ru(self, task_name,
                                                  frontier):
        # The page-scan unit produces (ST/UD) and every chained unit
        # recycles with RU, so the sweep exercises the RU path on a
        # filled MatchCache instead of RU degenerating to DN.
        task = make_task(task_name, work_scale=0)
        matchers = make_assignment(task, "mixed").matchers
        assert matchers.pop(frontier) == "ST"
        assert matchers and set(matchers.values()) == {"RU"}

    def test_reference_config_is_fromscratch_serial(self):
        ref = reference_config()
        assert (ref.system, ref.backend, ref.jobs) == ("noreuse",
                                                       "serial", 1)


# -- oracle -----------------------------------------------------------------

class TestOracle:
    def test_clean_sweep_agrees(self, play_task, series):
        report = run_oracle(play_task, series, build_grid("small"),
                            check=True)
        assert report.ok, report.summary()
        assert len(report.outcomes) == len(build_grid("small"))
        assert all(o.snapshots_run == len(series)
                   for o in report.outcomes)
        # The invariant layer really ran during the sweep.
        assert report.checks_run > 100
        # ... and is off again afterwards (no leakage).
        assert not invariants.ENABLED

    def test_reference_attribution_names_the_page(self, play_task,
                                                  series):
        reference = build_reference(play_task, series)
        snap = reference.results[0]
        rel = next(r for r in snap if snap[r])
        victim = next(iter(snap[rel]))
        mutilated = dict(snap)
        mutilated[rel] = snap[rel] - {victim}
        disc = diff_results(reference, mutilated, 0, "test-config")
        assert disc is not None and disc.kind == "results"
        assert disc.missing == (victim,)
        assert disc.pages and "?" not in disc.pages

    def test_error_becomes_discrepancy(self, play_task, series):
        bad = CheckConfig(system="delex", policy="WS")  # no WS in delex?
        report = run_oracle(play_task, series, [bad])
        # Whether WS works or not, the report must never raise; if it
        # ran, it must agree.
        for outcome in report.outcomes:
            for disc in outcome.discrepancies:
                assert disc.kind in ("results", "capture", "error",
                                     "invariant")


# -- faults through the oracle ---------------------------------------------

class TestFaultsAreCaught:
    def test_fault_registry_and_restore(self):
        assert set(FAULTS) == {"drop_copied", "shift_copied",
                               "drop_extraction_region"}
        assert active_fault() is None
        with injected_fault("drop_copied"):
            assert active_fault() == "drop_copied"
        assert active_fault() is None
        with pytest.raises(ValueError):
            with injected_fault("nope"):
                pass

    @pytest.mark.parametrize("fault", ["drop_copied", "shift_copied"])
    def test_oracle_catches_planted_fault(self, fault):
        with injected_fault(fault):
            report = run_case(SPEC)
        assert not report.ok, f"fault {fault} survived the oracle"
        kinds = {d.kind for d in report.discrepancies()}
        assert kinds <= {"results", "capture", "invariant", "error"}

    @staticmethod
    def _two_gap_derivation():
        """A derivation with two extraction regions — the trigger
        condition of ``drop_extraction_region``, which real fuzz pages
        (shorter than the tasks' α) never produce."""
        from repro.reuse.files import InputTuple
        from repro.reuse.regions import derive_reuse
        from repro.text.regions import MatchSegment

        p_region = Interval(0, 400)
        q_inputs = {0: InputTuple(tid=0, did="q", s=0, e=400)}
        segments = [MatchSegment(0, 0, 120, 0),
                    MatchSegment(150, 150, 120, 0),
                    MatchSegment(300, 300, 100, 0)]
        return derive_reuse(p_region, "p", segments, q_inputs, {},
                            alpha=5, beta=2)

    def test_drop_extraction_region_breaks_coverage_invariant(self):
        clean = self._two_gap_derivation()
        assert len(clean.extraction_regions) == 2
        invariants.check_derivation(clean, Interval(0, 400), 5, 2)
        with injected_fault("drop_extraction_region"):
            bad = self._two_gap_derivation()
        assert len(bad.extraction_regions) == 1
        # The corrupted derivation no longer covers the dropped gap —
        # exactly what the coverage invariant exists to catch.
        with pytest.raises(InvariantViolation, match="coverage"):
            invariants.check_derivation(bad, Interval(0, 400), 5, 2)

    def test_shift_copied_caught_with_checking_enabled(self, play_task,
                                                       series):
        # The invariant layer must not mask the oracle: a sweep run
        # under --check on still reports the planted divergence.
        with injected_fault("shift_copied"):
            report = run_oracle(play_task, series, build_grid("small"),
                                check=True)
        assert not report.ok


# -- shrinking --------------------------------------------------------------

class TestShrinking:
    def test_fault_shrinks_to_tiny_series(self):
        """Acceptance: a planted fault shrinks to <= 3 pages x <= 2
        snapshots."""
        with injected_fault("drop_copied"):
            report = run_case(SPEC)
            assert not report.ok
            result = shrink_series(build_series(SPEC),
                                   oracle_predicate(SPEC), report)
        assert result.n_snapshots <= 2
        assert result.n_pages <= 3
        assert not result.report.ok
        assert result.evaluations > 0

    def test_shrinker_on_synthetic_predicate(self, series):
        """Pure-shrinker test: failure iff a specific page survives in
        at least 2 snapshots — the minimum must be exactly that page."""
        target = series[0].pages[0].url

        def failing(candidate):
            hits = sum(1 for s in candidate
                       for p in s.pages if p.url == target)
            return object() if hits >= 2 else None

        result = shrink_series(series, failing, object())
        assert result.n_snapshots == 2
        assert result.n_pages == 1
        assert {p.url for s in result.series for p in s.pages} == {target}


# -- bundles ----------------------------------------------------------------

class TestBundles:
    def test_round_trip_and_replay(self, tmp_path):
        with injected_fault("drop_copied"):
            report = run_case(SPEC)
            assert not report.ok
            result = shrink_series(build_series(SPEC),
                                   oracle_predicate(SPEC), report)
        path = write_bundle(str(tmp_path / "bundle"), result.series,
                            task=SPEC.task, grid=SPEC.grid,
                            report=result.report, spec=SPEC,
                            fault="drop_copied")
        bundle = load_bundle(path)
        assert bundle.fault == "drop_copied"
        assert bundle.spec == SPEC
        assert bundle.n_snapshots == result.n_snapshots
        assert bundle.discrepancies
        # Replay re-injects the recorded fault: still diverges.
        replayed = replay_bundle(path)
        assert not replayed.ok
        # The fault is scoped to the replay only.
        assert active_fault() is None

    def test_clean_bundle_replays_green(self, tmp_path, series):
        path = write_bundle(str(tmp_path / "clean"), series[:2],
                            task=SPEC.task, grid="small")
        replayed = replay_bundle(path)
        assert replayed.ok, replayed.summary()


# -- fuzzer determinism -----------------------------------------------------

class TestFuzzer:
    def test_same_seed_same_series(self):
        def fingerprint(spec):
            return [[(p.url, p.text) for p in s.pages]
                    for s in build_series(spec)]

        assert fingerprint(SPEC) == fingerprint(SPEC)
        assert fingerprint(SPEC) != fingerprint(
            FuzzSpec(seed=1, task=SPEC.task, corpus=SPEC.corpus,
                     n_pages=SPEC.n_pages,
                     n_snapshots=SPEC.n_snapshots))

    def test_global_random_untouched_by_fuzzer(self):
        random.seed(999)
        before = random.getstate()
        build_series(SPEC)
        assert random.getstate() == before

    def test_mutations_actually_fire(self):
        """Across a handful of seeds the schedule must produce its
        adversarial shapes: fresh fuzz urls (rename/duplicate), blank
        pages, and non-ASCII text."""
        fresh = blank = unicode_ = False
        for seed in range(8):
            for snapshot in build_series(FuzzSpec(seed=seed,
                                                  n_snapshots=4)):
                for page in snapshot.pages:
                    if "fuzz.example.org" in page.url:
                        fresh = True
                    if not page.text.strip():
                        blank = True
                    if any(ord(ch) > 127 for ch in page.text):
                        unicode_ = True
        assert fresh and blank and unicode_

    def test_spec_round_trip(self):
        assert FuzzSpec.from_dict(SPEC.as_dict()) == SPEC


# -- campaign runner --------------------------------------------------------

class TestRunCheck:
    @pytest.mark.parametrize("first_seed", [0, 11])
    def test_seven_consecutive_seeds_cover_every_task(self, first_seed):
        """The rotating slot reaches every task, each on its home
        corpus, on top of the fixed cases every seed sweeps."""
        seen = set()
        for seed in range(first_seed, first_seed + 7):
            cases = seed_cases(seed)
            assert cases[:len(CASE_MIX)] == CASE_MIX
            task, corpus = cases[-1]
            assert corpus == make_task(task, work_scale=0).corpus
            seen.update(task for task, _ in cases)
        assert seen == set(ALL_TASKS)

    def test_clean_campaign_passes(self):
        summary = run_check(seed=0, budget=3.0, grid="small",
                            check=True)
        assert summary.ok
        assert summary.cases_run >= 1
        assert summary.checks_run > 0
        assert "PASS" in summary.describe()

    def test_fault_campaign_fails_and_writes_bundle(self, tmp_path):
        bundle_dir = str(tmp_path / "bundle")
        summary = run_check(seed=0, budget=30.0, grid="small",
                            fault="drop_copied", bundle_dir=bundle_dir)
        assert not summary.ok
        assert summary.shrink is not None
        assert summary.shrink.n_snapshots <= 2
        assert summary.shrink.n_pages <= 3
        assert summary.bundle_path == bundle_dir
        assert load_bundle(bundle_dir).fault == "drop_copied"
        assert "FAIL" in summary.describe()
