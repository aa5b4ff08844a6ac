"""MentionMultiplier and the Figure 14 task rewrite."""

import pytest

from repro.corpus import wikipedia_corpus
from repro.core.runner import run_series, verify_agreement
from repro.extractors import MentionMultiplier, make_task, multiply_task_mentions
from repro.extractors.rules import RegexExtractor, SectionExtractor


def name_extractor():
    return RegexExtractor("names", r"(?P<v>[A-Z][a-z]+)",
                          groups={"v": "v"}, scope=30, context=2)


class TestMentionMultiplier:
    def test_replicates_with_copy_ids(self):
        wrapped = MentionMultiplier(name_extractor(), 3)
        got = wrapped.extract("Alice and Bob")
        assert len(got) == 6
        copy_ids = sorted(e.get("copy_id") for e in got
                          if e.get("v").start == 0)
        assert copy_ids == [0, 1, 2]

    def test_factor_one_keeps_single_copy(self):
        wrapped = MentionMultiplier(name_extractor(), 1)
        assert len(wrapped.extract("Alice")) == 1

    def test_rejects_factor_zero(self):
        with pytest.raises(ValueError):
            MentionMultiplier(name_extractor(), 0)

    def test_inherits_alpha_beta(self):
        inner = name_extractor()
        wrapped = MentionMultiplier(inner, 2)
        assert wrapped.scope == inner.scope
        assert wrapped.context == inner.context

    def test_inherits_splitter_and_split_key(self):
        inner = SectionExtractor("sec", "v", "Body", scope=400)
        wrapped = MentionMultiplier(inner, 2)
        assert (wrapped.splitter, wrapped.split_key) == ("header", "Body")

    def test_copy_id_classified_as_scalar(self):
        wrapped = MentionMultiplier(name_extractor(), 2)
        assert "copy_id" in wrapped.scalars


class TestMultiplyTask:
    def test_only_leaf_blackboxes_multiplied(self):
        task = multiply_task_mentions(make_task("play", work_scale=0), 3)
        sec = task.registry.extractor("extractFilmSec")
        actor = task.registry.extractor("extractPlayActor")
        assert not isinstance(sec, MentionMultiplier)
        assert isinstance(actor, MentionMultiplier)

    def test_program_still_validates_and_runs(self):
        task = multiply_task_mentions(make_task("play", work_scale=0), 2)
        snaps = list(wikipedia_corpus(n_pages=6, seed=3).snapshots(3))
        reports = run_series(task, snaps, systems=("noreuse", "delex"))
        assert verify_agreement(reports) == []

    def test_final_mentions_unchanged(self):
        base = make_task("play", work_scale=0)
        task = multiply_task_mentions(base, 4)
        snaps = list(wikipedia_corpus(n_pages=6, seed=3).snapshots(1))
        base_reports = run_series(base, snaps, systems=("noreuse",))
        mult_reports = run_series(task, snaps, systems=("noreuse",))
        assert (base_reports["noreuse"].snapshots[0].results
                == mult_reports["noreuse"].snapshots[0].results)
