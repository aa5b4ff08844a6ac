"""Corpus generators and the evolution model."""

import random

import pytest

from repro.corpus.evolve import ChangeModel, EvolvingCorpus, dblife_corpus, wikipedia_corpus
from repro.corpus.generators import DBLifeGenerator, WikipediaGenerator
from repro.corpus.stats import profile_corpus, snapshot_delta


class TestChangeModel:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            ChangeModel(p_unchanged=1.5)

    def test_rejects_edit_mix_over_one(self):
        with pytest.raises(ValueError):
            ChangeModel(p_insert=0.8, p_delete=0.5)


class TestGenerators:
    def test_dblife_page_structure(self):
        rng = random.Random(0)
        gen = DBLifeGenerator()
        page = gen.new_page(rng, "http://x/1")
        text = page.text()
        assert "== Service ==" in text
        assert "== Advising ==" in text
        assert any("advises" in line for line in page.lines)

    def test_wikipedia_actor_page(self):
        rng = random.Random(1)
        gen = WikipediaGenerator()
        for _ in range(20):
            page = gen.new_page(rng, "http://x/1")
            if page.kind == "actor":
                text = page.text()
                assert "Born " in text
                assert "== Filmography ==" in text
                return
        pytest.fail("no actor page generated in 20 tries")

    def test_new_line_kinds(self):
        rng = random.Random(2)
        gen = WikipediaGenerator()
        lines = {gen.new_line(rng, "actor") for _ in range(60)}
        assert any("starred as" in l for l in lines)
        assert any("grossed $" in l for l in lines)

    def test_modify_line_bumps_numbers(self):
        rng = random.Random(3)
        gen = DBLifeGenerator()
        line = "Alice Chen serves as program chair of SIGMOD 2008."
        seen = {gen.modify_line(rng, "homepage", line) for _ in range(30)}
        assert any("SIGMOD 20" in l and "2008" not in l for l in seen)


class TestEvolvingCorpus:
    def test_deterministic(self):
        a = [s.get(u).fingerprint
             for s in dblife_corpus(n_pages=10, seed=5).snapshots(3)
             for u in s.urls()]
        b = [s.get(u).fingerprint
             for s in dblife_corpus(n_pages=10, seed=5).snapshots(3)
             for u in s.urls()]
        assert a == b

    def test_seed_changes_output(self):
        a = list(dblife_corpus(n_pages=10, seed=1).snapshots(2))
        b = list(dblife_corpus(n_pages=10, seed=2).snapshots(2))
        assert ([p.fingerprint for p in a[0]]
                != [p.fingerprint for p in b[0]])

    def test_snapshot_indexes_increment(self):
        snaps = list(wikipedia_corpus(n_pages=5, seed=0).snapshots(4))
        assert [s.index for s in snaps] == [0, 1, 2, 3]

    def test_rejects_zero_pages(self):
        with pytest.raises(ValueError):
            EvolvingCorpus(DBLifeGenerator(), 0, ChangeModel())

    def test_unchanged_probability_one_freezes_corpus(self):
        model = ChangeModel(p_unchanged=1.0, p_removed=0.0, p_added=0.0)
        corpus = EvolvingCorpus(DBLifeGenerator(), 8, model, seed=3)
        s0, s1 = list(corpus.snapshots(2))
        assert snapshot_delta(s0, s1).fraction_identical == 1.0

    def test_unchanged_probability_zero_changes_everything(self):
        model = ChangeModel(p_unchanged=0.0, p_removed=0.0, p_added=0.0,
                            mean_edits=2.0)
        corpus = EvolvingCorpus(WikipediaGenerator(), 8, model, seed=3)
        s0, s1 = list(corpus.snapshots(2))
        assert snapshot_delta(s0, s1).fraction_identical < 0.3

    def test_page_addition_and_removal(self):
        model = ChangeModel(p_unchanged=1.0, p_removed=0.5, p_added=0.5)
        corpus = EvolvingCorpus(DBLifeGenerator(), 20, model, seed=7)
        s0, s1 = list(corpus.snapshots(2))
        delta = snapshot_delta(s0, s1)
        assert delta.shared_urls < len(s0)
        assert len(s1) != delta.shared_urls  # new URLs appeared


class TestPresets:
    def test_dblife_mostly_identical(self):
        snaps = list(dblife_corpus(n_pages=60, seed=9).snapshots(4))
        profile = profile_corpus(snaps)
        assert profile.avg_fraction_identical > 0.88

    def test_wikipedia_mostly_changed(self):
        snaps = list(wikipedia_corpus(n_pages=60, seed=9).snapshots(4))
        profile = profile_corpus(snaps)
        assert profile.avg_fraction_identical < 0.35
        # ...but URLs persist: reuse candidates exist.
        assert profile.avg_fraction_with_previous > 0.9


class TestStats:
    def test_snapshot_delta_counts(self):
        from repro.corpus.snapshot import snapshot_from_texts
        prev = snapshot_from_texts(0, {"a": "1", "b": "2", "c": "3"})
        nxt = snapshot_from_texts(1, {"a": "1", "b": "x", "d": "4"})
        delta = snapshot_delta(prev, nxt)
        assert delta.shared_urls == 2
        assert delta.identical_pages == 1
        assert delta.fraction_with_previous == pytest.approx(2 / 3)
        assert delta.fraction_identical == pytest.approx(1 / 3)

    def test_profile_requires_snapshots(self):
        with pytest.raises(ValueError):
            profile_corpus([])


class TestRenameChurn:
    def test_renamed_pages_keep_content(self):
        from repro.corpus.evolve import ChangeModel, EvolvingCorpus
        from repro.corpus.generators import WikipediaGenerator

        model = ChangeModel(p_unchanged=1.0, p_removed=0.0, p_added=0.0,
                            p_renamed=1.0)
        corpus = EvolvingCorpus(WikipediaGenerator(), 6, model, seed=4)
        s0, s1 = list(corpus.snapshots(2))
        # Every URL changed...
        assert not set(s0.urls()) & set(s1.urls())
        # ...but the content set is identical.
        assert (sorted(p.fingerprint for p in s0)
                == sorted(p.fingerprint for p in s1))

    def test_partial_rename_rate(self):
        from repro.corpus.evolve import ChangeModel, EvolvingCorpus
        from repro.corpus.generators import WikipediaGenerator

        model = ChangeModel(p_unchanged=1.0, p_removed=0.0, p_added=0.0,
                            p_renamed=0.3)
        corpus = EvolvingCorpus(WikipediaGenerator(), 40, model, seed=4)
        s0, s1 = list(corpus.snapshots(2))
        shared = len(set(s0.urls()) & set(s1.urls()))
        assert 10 < shared < 40


class TestDeterminism:
    """Same seed, same snapshot bytes — and no global random usage.

    Every random draw in the corpus layer flows through an injected
    ``random.Random`` (the generators and vocab take ``rng``
    parameters; the evolver owns a private instance). These tests pin
    that contract: identical seeds serialize to identical bytes, the
    global :mod:`random` state is never consulted or advanced, and an
    explicitly injected rng drives the stream.
    """

    @staticmethod
    def _series_bytes(corpus, count, tmp_path, tag):
        from repro.corpus.snapshot import write_snapshot

        blobs = []
        for i, snapshot in enumerate(corpus.snapshots(count)):
            path = str(tmp_path / f"{tag}_{i}.snap")
            write_snapshot(snapshot, path)
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        return blobs

    def test_same_seed_identical_snapshot_bytes(self, tmp_path):
        for factory in (dblife_corpus, wikipedia_corpus):
            a = self._series_bytes(factory(n_pages=10, seed=7), 3,
                                   tmp_path, "a")
            b = self._series_bytes(factory(n_pages=10, seed=7), 3,
                                   tmp_path, "b")
            assert a == b

    def test_global_random_state_untouched(self):
        random.seed(12345)
        before = random.getstate()
        list(wikipedia_corpus(n_pages=8, seed=1).snapshots(3))
        assert random.getstate() == before

    def test_interleaved_global_draws_do_not_change_output(self):
        def texts(noise):
            corpus = dblife_corpus(n_pages=6, seed=9)
            out = []
            for snapshot in corpus.snapshots(3):
                if noise:
                    random.random()  # global draws between snapshots
                out.append([(p.url, p.text) for p in snapshot])
            return out

        assert texts(noise=False) == texts(noise=True)

    def test_injected_rng_drives_the_stream(self):
        model = ChangeModel(p_unchanged=0.5)
        make = lambda rng: EvolvingCorpus(  # noqa: E731
            WikipediaGenerator(), 6, model, rng=rng)
        a = [[(p.url, p.text) for p in s]
             for s in make(random.Random(3)).snapshots(3)]
        b = [[(p.url, p.text) for p in s]
             for s in make(random.Random(3)).snapshots(3)]
        c = [[(p.url, p.text) for p in s]
             for s in make(random.Random(4)).snapshots(3)]
        assert a == b
        assert a != c
