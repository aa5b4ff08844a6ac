"""The corpus-drift simulator (:mod:`repro.corpus.drift`): regime
schedules over the page evolver, deterministic under the seed."""

import random

import pytest

from repro.corpus.drift import (
    DRIFT_PROFILES,
    FactDilutionGenerator,
    Regime,
    RegimeSchedule,
    TemplateVariantGenerator,
    drift_profile,
)
from repro.corpus.generators import DBLifeGenerator


def _series_bytes(corpus, n):
    return [tuple((p.url, p.text) for p in s.pages)
            for s in corpus.snapshots(n)]


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
        gen = TemplateVariantGenerator(DBLifeGenerator(), banner="v2")
        page = gen.new_page(random.Random(0), "http://x/p1")
        assert "[v2]" in page.lines[0]

    def test_dilution_salt_makes_lines_unique(self):
        plain = FactDilutionGenerator(DBLifeGenerator(), dilution=1.0)
        salted = FactDilutionGenerator(DBLifeGenerator(), dilution=1.0,
                                       salt=True)
        rng = random.Random(0)
        kind = plain.page_kinds()[0]
        assert len({plain.new_line(rng, kind) for _ in range(40)}) < 40
        assert len({salted.new_line(rng, kind) for _ in range(40)}) == 40
