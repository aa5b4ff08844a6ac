"""The ``repro.adapt`` layer: drift simulator, detector, controller."""

import tempfile
from types import SimpleNamespace

import pytest

from repro.adapt import (
    ADAPT_MODES,
    AdaptConfig,
    AdaptObservation,
    AdaptiveDelexSystem,
    DriftDetector,
    DriftingCorpus,
    DRIFT_PROFILES,
    FactDilutionGenerator,
    PageHinkley,
    Regime,
    RegimeSchedule,
    TemplateVariantGenerator,
    drift_profile,
    should_switch,
)
from repro.core.runner import run_series
from repro.corpus.evolve import ChangeModel
from repro.corpus.generators import DBLifeGenerator
from repro.extractors import make_task
from repro.optimizer.stats import estimate_f
from repro.serve.views import MaterializedView, ViewConfig


def _series_bytes(corpus, n):
    return [tuple((p.url, p.text) for p in s.pages)
            for s in corpus.snapshots(n)]


# ---------------------------------------------------------------------------
# Drift simulator


class TestDriftSimulator:
    @pytest.mark.parametrize("profile", DRIFT_PROFILES)
    def test_profiles_deterministic_under_seed(self, profile):
        a = _series_bytes(drift_profile(profile, n_pages=6, seed=3), 4)
        b = _series_bytes(drift_profile(profile, n_pages=6, seed=3), 4)
        assert a == b

    def test_different_seeds_differ(self):
        a = _series_bytes(drift_profile("churn_burst", n_pages=6, seed=3), 4)
        b = _series_bytes(drift_profile("churn_burst", n_pages=6, seed=4), 4)
        assert a != b

    def test_shift_changes_the_series(self):
        stationary = _series_bytes(
            drift_profile("stationary", n_pages=6, seed=3, shift_at=2), 4)
        drifted = _series_bytes(
            drift_profile("redesign", n_pages=6, seed=3, shift_at=2), 4)
        # Identical up to the boundary, different after it.
        assert stationary[:2] == drifted[:2]
        assert stationary[2:] != drifted[2:]

    def test_regime_shifts_recorded(self):
        corpus = drift_profile("churn_burst", n_pages=6, seed=3, shift_at=2)
        list(corpus.snapshots(4))
        assert corpus.regime_shifts == [(2, "churn_burst")]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            drift_profile("nope")

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            RegimeSchedule.of(Regime(at=3), Regime(at=2))
        with pytest.raises(ValueError):
            Regime(at=0)

    def test_redesign_keeps_urls(self):
        corpus = drift_profile("redesign", n_pages=6, seed=3, shift_at=2)
        snaps = list(corpus.snapshots(3))
        before = {p.url for p in snaps[1].pages}
        after = {p.url for p in snaps[2].pages}
        # A redesign rewrites content under existing URLs; the churn
        # model may add/remove a page or two, but history is kept.
        assert len(before & after) >= len(before) - 2

    def test_template_variant_adds_banner(self):
        import random
        gen = TemplateVariantGenerator(DBLifeGenerator(), banner="v2")
        page = gen.new_page(random.Random(0), "http://x/p1")
        assert "[v2]" in page.lines[0]

    def test_dilution_salt_makes_lines_unique(self):
        import random
        plain = FactDilutionGenerator(DBLifeGenerator(), dilution=1.0)
        salted = FactDilutionGenerator(DBLifeGenerator(), dilution=1.0,
                                       salt=True)
        rng = random.Random(0)
        kind = plain.page_kinds()[0]
        assert len({plain.new_line(rng, kind) for _ in range(40)}) < 40
        assert len({salted.new_line(rng, kind) for _ in range(40)}) == 40


# ---------------------------------------------------------------------------
# estimate_f


class TestEstimateF:
    def _deltas(self, *fractions):
        return [SimpleNamespace(fraction_with_previous=f)
                for f in fractions]

    def test_flat_is_the_default_and_averages(self):
        deltas = self._deltas(0.2, 0.4, 0.9)
        assert estimate_f(deltas) == pytest.approx(0.5)
        assert estimate_f(deltas, mode="flat") == estimate_f(deltas)

    def test_recency_weights_newest_most(self):
        rising = self._deltas(0.0, 0.0, 1.0)
        falling = self._deltas(1.0, 0.0, 0.0)
        assert estimate_f(rising, mode="recency") > 0.5
        assert estimate_f(falling, mode="recency") < 0.5
        # flat mode cannot tell these apart — the bug the recency
        # estimator exists to fix.
        assert estimate_f(rising) == estimate_f(falling)

    def test_recency_half_life_controls_decay(self):
        deltas = self._deltas(0.0, 1.0)
        sharp = estimate_f(deltas, mode="recency", half_life=0.5)
        soft = estimate_f(deltas, mode="recency", half_life=10.0)
        assert sharp > soft > 0.5

    def test_empty_and_bad_mode(self):
        assert estimate_f([]) == 0.0
        with pytest.raises(ValueError):
            estimate_f(self._deltas(0.5), mode="nope")


# ---------------------------------------------------------------------------
# Detection


class TestPageHinkley:
    def test_fires_on_mean_shift(self):
        ph = PageHinkley(delta=0.02, threshold=0.45)
        stream = [0.9, 0.91, 0.9, 0.89, 0.2, 0.21, 0.2]
        fired_at = next((i for i, x in enumerate(stream)
                         if ph.update(x)), None)
        assert fired_at is not None and fired_at >= 4

    def test_quiet_on_stationary_noise(self):
        ph = PageHinkley(delta=0.02, threshold=0.45)
        noise = [0.5, 0.52, 0.48, 0.51, 0.49, 0.5, 0.53, 0.47] * 4
        assert not any(ph.update(x) for x in noise)

    def test_reset_restores_quiet(self):
        ph = PageHinkley(delta=0.02, threshold=0.45)
        for x in (0.9, 0.9, 0.9, 0.1, 0.1, 0.1):
            ph.update(x)
        assert ph.score >= 1.0
        ph.reset()
        assert ph.score == 0.0
        assert not ph.update(0.1)


def _obs(index, f=1.0, unchanged=0.0, hit=0.0, spp=1.0):
    return AdaptObservation(
        snapshot_index=index, pages=10, f_obs=f,
        unchanged_fraction=unchanged, combined_hit_rate=hit,
        seconds_per_page=spp, match_seconds_per_page=0.0,
        extract_seconds_per_page=spp, observed_seconds=spp * 10)


class TestDriftDetector:
    def test_fires_on_regime_shift_names_channel(self):
        detector = DriftDetector(warmup=2)
        signal = None
        for i in range(8):
            shifted = i >= 4
            signal = detector.observe(
                _obs(i, unchanged=0.6 if shifted else 0.0))
            if signal is not None:
                break
        assert signal is not None
        assert "unchanged_fraction" in signal.channels
        assert signal.score >= 1.0

    def test_quiet_on_stationary_stream(self):
        detector = DriftDetector(warmup=2)
        wobble = (0.30, 0.33, 0.28, 0.31, 0.29, 0.32, 0.30, 0.31)
        assert all(detector.observe(_obs(i, unchanged=w)) is None
                   for i, w in enumerate(wobble))

    def test_warmup_suppresses_early_signal(self):
        detector = DriftDetector(warmup=10)
        for i in range(8):
            assert detector.observe(
                _obs(i, unchanged=0.9 if i >= 3 else 0.0)) is None

    def test_cost_residual_channel(self):
        values = AdaptObservation(
            snapshot_index=1, pages=10, f_obs=1.0,
            unchanged_fraction=0.0, combined_hit_rate=0.0,
            seconds_per_page=0.2, match_seconds_per_page=0.0,
            extract_seconds_per_page=0.2, observed_seconds=2.0,
            predicted_seconds=1.0).channel_values()
        assert values["cost_residual"] == pytest.approx(0.6931, abs=1e-3)
        assert "cost_residual" not in _obs(1).channel_values()


# ---------------------------------------------------------------------------
# Hysteresis and controller


class TestShouldSwitch:
    def test_requires_margin(self):
        assert should_switch(1.0, 0.5, 0.0, 0.05, 4.0)
        assert not should_switch(1.0, 0.97, 0.0, 0.05, 4.0)

    def test_requires_payback(self):
        # Win of 0.1/snapshot repays 0.2s sampling within 4 snapshots...
        assert should_switch(1.0, 0.9, 0.2, 0.05, 4.0)
        # ...but not 1.0s of sampling.
        assert not should_switch(1.0, 0.9, 1.0, 0.05, 4.0)

    def test_identical_plan_never_switches(self):
        assert not should_switch(1.0, 0.1, 0.0, 0.05, 4.0, differs=False)


class TestAdaptConfig:
    def test_from_flag(self):
        assert AdaptConfig.from_flag(None) is None
        assert AdaptConfig.from_flag("off") is None
        for mode in ADAPT_MODES:
            assert AdaptConfig.from_flag(mode).mode == mode
        config = AdaptConfig(mode="shadow")
        assert AdaptConfig.from_flag(config) is config
        with pytest.raises(ValueError):
            AdaptConfig.from_flag("sometimes")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            AdaptConfig(mode="maybe")


@pytest.fixture(scope="module")
def chair_fast():
    return make_task("chair", work_scale=0)


@pytest.fixture(scope="module")
def drifting_snaps():
    corpus = drift_profile("churn_burst", n_pages=8, seed=11, shift_at=2)
    return list(corpus.snapshots(5))


class TestAdaptiveController:
    def test_shadow_byte_identical_to_off(self, chair_fast,
                                          drifting_snaps):
        plain = run_series(chair_fast, drifting_snaps,
                           systems=("delex",), adapt=None)["delex"]
        shadow = run_series(chair_fast, drifting_snaps,
                            systems=("delex",), adapt="shadow")["delex"]
        for a, b in zip(plain.snapshots, shadow.snapshots):
            assert a.results == b.results

    def test_on_matches_from_scratch_reference(self, chair_fast,
                                               drifting_snaps):
        reports = run_series(chair_fast, drifting_snaps,
                             systems=("delex", "noreuse"), adapt="on")
        for a, b in zip(reports["delex"].snapshots,
                        reports["noreuse"].snapshots):
            assert a.results == b.results

    def test_static_mode_plans_exactly_once(self, chair_fast,
                                            drifting_snaps):
        with tempfile.TemporaryDirectory() as workdir:
            system = AdaptiveDelexSystem(
                chair_fast, workdir, adapt=AdaptConfig(mode="static"))
            for snapshot in drifting_snaps:
                system.process(snapshot)
            assert [d.action for d in system.decisions[:2]] == [
                "bootstrap", "initial_plan"]
            assert all(d.action == "keep"
                       for d in system.decisions[2:])
            assert system.replans == 0

    def test_cooldown_prevents_thrash(self, chair_fast, drifting_snaps):
        # A detector that fires on every observation is the worst case;
        # cooldown must still space replans apart.
        class Trigger(DriftDetector):
            def observe(self, obs):
                from repro.adapt.detect import DriftSignal
                return DriftSignal(obs.snapshot_index, 9.9,
                                   ("unchanged_fraction",), {})

        with tempfile.TemporaryDirectory() as workdir:
            system = AdaptiveDelexSystem(
                chair_fast, workdir,
                adapt=AdaptConfig(mode="on", warmup=0, cooldown=2),
                detector=Trigger())
            for snapshot in drifting_snaps:
                system.process(snapshot)
        replans = [d.snapshot_index for d in system.decisions
                   if d.action.startswith(("replan", "forced"))]
        assert replans, "the always-firing detector never replanned"
        assert all(b - a >= 2 for a, b in zip(replans, replans[1:]))

    def test_forced_replan_without_detector(self, chair_fast,
                                            drifting_snaps):
        with tempfile.TemporaryDirectory() as workdir:
            system = AdaptiveDelexSystem(
                chair_fast, workdir,
                adapt=AdaptConfig(mode="on", detect=False,
                                  force_replan_at=frozenset({3})))
            for snapshot in drifting_snaps:
                system.process(snapshot)
        actions = {d.snapshot_index: d.action for d in system.decisions}
        assert actions[3] in ("forced_replan", "replan_keep")
        assert system.detections == 0

    def test_shadow_never_switches(self, chair_fast, drifting_snaps):
        with tempfile.TemporaryDirectory() as workdir:
            system = AdaptiveDelexSystem(
                chair_fast, workdir,
                adapt=AdaptConfig(mode="shadow", warmup=1, cooldown=0))
            for snapshot in drifting_snaps:
                system.process(snapshot)
            assert system.switches == 0
            summary = system.summary()
            assert summary["mode"] == "shadow"
            assert summary["switches"] == 0


# ---------------------------------------------------------------------------
# Wiring: runner audit trail, serve


class TestWiring:
    def test_run_series_optimizer_doc(self, chair_fast, drifting_snaps):
        report = run_series(chair_fast, drifting_snaps,
                            systems=("delex",), adapt="on")["delex"]
        doc = report.snapshots[1].optimizer
        assert doc is not None
        assert set(doc["assignment"]) == set(chair_fast.blackboxes)
        stats = doc["statistics"]
        assert {"f", "m", "weights", "units"} <= set(stats)
        assert doc["sampled_at_snapshot"] == 1
        assert doc["adapt"]["action"] == "initial_plan"
        # Plain delex (adapt off) re-samples once the page mix drifts
        # (the burst lands on snapshot 2, so snapshot 3 re-plans) and
        # exposes the same audit trail, minus the controller decision,
        # plus what its re-plan trigger read.
        plain = run_series(chair_fast, drifting_snaps,
                           systems=("delex",), adapt=None)["delex"]
        docs = [snap.optimizer for snap in plain.snapshots[1:]]
        assert [doc["replanned"] for doc in docs] == [True, False, True,
                                                      False]
        late = docs[-1]
        assert late["sampled_at_snapshot"] == 3
        assert "adapt" not in late
        assert set(late["trigger"]) == {"mix", "baseline", "bound"}

    def test_serve_view_adapt_summary(self, drifting_snaps, tmp_path):
        config = ViewConfig(name="chair", task="chair", system="delex",
                            work_scale=0.0, adapt="shadow")
        view = MaterializedView(config, str(tmp_path / "view"))
        for snapshot in drifting_snaps[:3]:
            view.apply_snapshot(snapshot)
        summary = view.adapt_summary()
        assert summary is not None and summary["mode"] == "shadow"
        assert view.describe()["adapt"] == summary
        assert config.to_dict()["adapt"] == "shadow"

    def test_view_config_rejects_bad_adapt(self):
        with pytest.raises(ValueError):
            ViewConfig(name="x", task="chair", adapt="never")
