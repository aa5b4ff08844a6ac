"""repro.delta: counted multisets, per-operator rules, classifier,
and the DeltaMaintainer against per-page plain evaluation."""

from collections import namedtuple

import pytest

from repro.delta.classify import (
    PageDecision,
    UpdateClassifier,
    plan_delta_blockers,
)
from repro.delta.deltaset import (
    DeltaSet,
    Multiset,
    NegativeMultiplicityError,
)
from repro.delta.maintain import (
    DeltaMaintainer,
    DeltaStateError,
    merge_sorted_index,
)
from repro.delta.rows import (
    freeze_row,
    freeze_rows,
    is_span_value,
    merge_frozen,
    thaw_row,
)
from repro.delta.rules import DeltaCounters, PagePlanDelta
from repro.corpus.snapshot import snapshot_from_texts
from repro.extractors.rules import RegexExtractor, SectionExtractor
from repro.plan.compile import compile_program
from repro.plan.operators import evaluate_plain
from repro.text.span import Span
from repro.xlog.parser import parse_program
from repro.xlog.registry import Registry


def build_registry():
    reg = Registry()
    reg.register_extractor(RegexExtractor(
        "extractName", r"(?P<v>[A-Z][a-z]+ [A-Z][a-z]+)",
        groups={"v": "v"}, scope=40, context=2))
    reg.register_extractor(RegexExtractor(
        "extractYear", r"(?P<v>\d{4})", groups={"v": "v"},
        scope=10, context=2))
    reg.register_extractor(SectionExtractor(
        "extractBody", "v", "Body", scope=500, context=32))
    reg.register_extractor(RegexExtractor(
        "extractAmount", r"\$(?P<v>\d+)(?P<t>M)",
        groups={"t": "t"},
        scalars={"v": lambda m: int(m.group("v"))},
        scope=15, context=2))
    return reg


def compile_src(src):
    return compile_program(parse_program(src), build_registry())


PAGE = ("intro Alice Chen in 1999\n"
        "== Body ==\n"
        "Karen Xu spent $120M in 2001\n")

#: Program exercising chain + join + row-determined select + union.
RICH_SRC = """
    names(v) :- docs(d), extractBody(d, b), extractName(b, v).
    pairs(n, y) :- docs(d), extractName(d, n), extractYear(d, y),
                   before(n, y).
    found(v) :- docs(d), extractName(d, v).
    found(v) :- docs(d), extractYear(d, v).
    rich(t) :- docs(d), extractAmount(d, t, v), atLeast(v, 100).
"""


def plain_page_rows(plan, text, did):
    """Ground truth: plain evaluation, frozen to canonical tuples."""
    memo = {}
    out = {}
    for rel in plan.program.head_relations():
        rows = evaluate_plain(plan.roots[rel], text, did, memo)
        out[rel] = set(freeze_rows(rows, text))
    return out


Diff = namedtuple("Diff", "changed new deleted unchanged resurrected")


def diff_texts(prev, cur, tombstones=()):
    changed = tuple(d for d in cur if d in prev and prev[d] != cur[d])
    new = tuple(d for d in cur if d not in prev)
    deleted = tuple(sorted(d for d in prev if d not in cur))
    unchanged = tuple(d for d in cur if d in prev and prev[d] == cur[d])
    resurrected = tuple(d for d in new if d in tombstones)
    return Diff(changed, new, deleted, unchanged, resurrected)


def run_series(maintainer, series):
    """Apply a list of {url: text} corpora; yield per-gen results."""
    prev = {}
    tombstones = set()
    for i, texts in enumerate(series):
        snap = snapshot_from_texts(i, texts)
        cur = {p.did: p.text for p in snap.canonical_pages()}
        diff = diff_texts(prev, cur, tombstones)
        result = maintainer.apply(snap, diff, check=True)
        tombstones |= set(diff.deleted)
        tombstones -= set(diff.resurrected)
        prev = cur
        yield snap, result


def assert_matches_batch(maintainer, snap):
    """Maintained index and page rows equal from-scratch evaluation."""
    plan_delta = maintainer.plan_delta
    pages = {p.did: p.text for p in snap.canonical_pages()}
    want_union = {rel: set() for rel in maintainer.relations}
    for did, text in pages.items():
        want = plain_page_rows(maintainer.plan_delta.plan, text, did)
        got = plan_delta.page_rows(maintainer.states[did])
        for rel in want_union:
            assert set(got[rel]) == want[rel], (did, rel)
            want_union[rel] |= want[rel]
    for rel, want in want_union.items():
        assert maintainer.index[rel] == tuple(
            sorted(want, key=repr)), rel


class TestDeltaSet:
    def test_add_cancels_to_zero(self):
        d = DeltaSet()
        d.add(("row",), 2)
        d.add(("row",), -2)
        assert d.is_empty()
        assert ("row",) not in d

    def test_from_rows_accumulates_duplicates(self):
        d = DeltaSet.from_rows([("a",), ("a",), ("b",)])
        assert d.count(("a",)) == 2
        assert d.count(("b",)) == 1
        assert d.weight() == 3

    def test_update_is_group_addition(self):
        d = DeltaSet.from_rows([("a",)])
        d.update(DeltaSet.from_rows([("a",)], count=-1))
        assert d.is_empty()

    def test_negated(self):
        d = DeltaSet.from_rows([("a",)], count=3).negated()
        assert d.count(("a",)) == -3

    def test_adds_and_dels_partition(self):
        d = DeltaSet()
        d.add(("a",), 1)
        d.add(("b",), -2)
        assert d.adds() == [(("a",), 1)]
        assert d.dels() == [(("b",), -2)]


class TestMultiset:
    def test_support_transitions(self):
        m = Multiset()
        appeared, vanished = m.apply(DeltaSet.from_rows([("a",)], 2))
        assert appeared == [("a",)] and vanished == []
        # 2 -> 1: no transition.
        appeared, vanished = m.apply(DeltaSet.from_rows([("a",)], -1))
        assert appeared == [] and vanished == []
        # 1 -> 0: vanishes.
        appeared, vanished = m.apply(DeltaSet.from_rows([("a",)], -1))
        assert vanished == [("a",)]
        assert m.is_empty()

    def test_underflow_raises(self):
        m = Multiset()
        with pytest.raises(NegativeMultiplicityError):
            m.apply(DeltaSet.from_rows([("a",)], -1), where="test")

    def test_as_delta_retract_everything(self):
        m = Multiset()
        m.apply(DeltaSet.from_rows([("a",), ("a",), ("b",)]))
        retract = m.as_delta(sign=-1)
        m.apply(retract)
        assert m.is_empty()


class TestFrozenRows:
    def test_freeze_embeds_span_text(self):
        frozen = freeze_row({"v": Span("d0", 6, 16)}, PAGE)
        assert frozen == (("v", (6, 16, "Alice Chen")),)
        assert is_span_value(frozen[0][1])

    def test_scalars_pass_through_and_never_look_like_spans(self):
        frozen = freeze_row({"n": 120, "s": "x"}, PAGE)
        assert frozen == (("n", 120), ("s", "x"))
        assert not any(is_span_value(v) for _, v in frozen)

    def test_thaw_round_trip(self):
        row = {"v": Span("d0", 6, 16), "n": 7}
        assert thaw_row(freeze_row(row, PAGE), "d0") == row

    def test_merge_frozen(self):
        left = (("a", 1),)
        right = (("b", 2),)
        assert merge_frozen(left, right) == (("a", 1), ("b", 2))


class TestRules:
    def test_new_page_equals_plain_eval(self):
        plan = compile_src(RICH_SRC)
        pd = PagePlanDelta(plan)
        state = pd.new_page_state("d0")
        pd.apply_page_text(state, PAGE)
        want = plain_page_rows(plan, PAGE, "d0")
        got = pd.page_rows(state)
        for rel in want:
            assert set(got[rel]) == want[rel], rel

    def test_edit_propagates_to_plain_eval(self):
        plan = compile_src(RICH_SRC)
        pd = PagePlanDelta(plan)
        state = pd.new_page_state("d0")
        pd.apply_page_text(state, PAGE)
        edited = PAGE.replace("$120M", "$50M").replace("2001", "2007")
        pd.apply_page_text(state, edited)
        want = plain_page_rows(plan, edited, "d0")
        got = pd.page_rows(state)
        for rel in want:
            assert set(got[rel]) == want[rel], rel

    def test_deletion_drains_state_without_extractor_calls(self):
        plan = compile_src(RICH_SRC)
        pd = PagePlanDelta(plan)
        state = pd.new_page_state("d0")
        pd.apply_page_text(state, PAGE)
        counters = DeltaCounters()
        deltas = pd.apply_page_text(state, None, counters)
        assert counters.extractor_calls == 0
        assert state.is_drained()
        # Everything that was added is retracted, nothing else.
        assert all(c < 0 for delta in deltas.values()
                   for _, c in delta.items())

    def test_unchanged_section_hits_ie_memo(self):
        # Edit outside == Body ==: the chained extractName over the
        # body region must reuse its memoized extractions.
        plan = compile_src(
            "names(v) :- docs(d), extractBody(d, b), extractName(b, v).")
        pd = PagePlanDelta(plan)
        state = pd.new_page_state("d0")
        pd.apply_page_text(state, PAGE)
        counters = DeltaCounters()
        edited = "prefix edit\n" + PAGE
        pd.apply_page_text(state, edited, counters)
        # The prefix edit changes the page, but only in the text before
        # the Body header, a split extractBody's key does not select:
        # no extractor runs. The Body split and the body region it
        # yields only shift, and their memoized extractions replay at
        # the new offsets.
        assert counters.extractor_calls == 0
        assert counters.memo_hits >= 2
        want = plain_page_rows(plan, edited, "d0")
        assert set(pd.page_rows(state)["names"]) == want["names"]
        # Same-length edit before the section: the body region keeps
        # its offsets and text, so its old/new rows cancel and
        # extractName sees no delta at all.
        counters = DeltaCounters()
        pd.apply_page_text(state, edited.replace("intro", "intrA"),
                           counters)
        assert counters.extractor_calls == 0
        assert counters.rows_added == counters.rows_retracted == 0

    def test_ie_memo_holds_exactly_the_live_region_texts(self):
        plan = compile_src(
            "names(v) :- docs(d), extractBody(d, b), extractName(b, v).")
        pd = PagePlanDelta(plan)
        state = pd.new_page_state("d0")
        pd.apply_page_text(state, PAGE)
        pd.apply_page_text(state, PAGE.replace("Karen", "Maria"))
        for ie_state in state.ie.values():
            assert set(ie_state.memo) == set(ie_state.region_refs.support())
        assert not any("Karen" in text for ie_state in state.ie.values()
                       for text in ie_state.memo)
        pd.apply_page_text(state, None)
        assert state.is_drained()


class TestClassifier:
    def test_row_determined_plan_small_edit_is_delta(self):
        plan = compile_src(RICH_SRC)
        assert plan_delta_blockers(plan) == ()
        classifier = UpdateClassifier(plan)
        decision = classifier.classify_changed("d0")
        assert decision.decision == "delta"

    def test_imm_before_blocks_delta(self):
        plan = compile_src(
            "pairs(n, y) :- docs(d), extractName(d, n), "
            "extractYear(d, y), immBefore(n, y).")
        assert plan_delta_blockers(plan) == ("immBefore",)
        decision = UpdateClassifier(plan).classify_changed("d0")
        assert decision.decision == "fallback"
        assert "immBefore" in decision.reason

    def test_rewrite_goes_delta(self):
        # However much of the page an edit rewrites, delta propagation
        # calls the extractors on the same region texts a re-derivation
        # would: a row-determined plan never falls back.
        m = DeltaMaintainer(compile_src(RICH_SRC))
        series = [{"u": PAGE},
                  {"u": "completely different text, Nora Lane 1988 Q"}]
        for snap, result in run_series(m, series):
            assert_matches_batch(m, snap)
        assert result.decision_counts() == {"delta": 1}

    def test_rewrite_with_imm_before_falls_back(self):
        m = DeltaMaintainer(compile_src(
            "pairs(n, y) :- docs(d), extractName(d, n), "
            "extractYear(d, y), immBefore(n, y)."))
        series = [{"u": PAGE},
                  {"u": "completely different text, Nora Lane 1988 Q"}]
        for snap, result in run_series(m, series):
            assert_matches_batch(m, snap)
        assert result.decision_counts() == {"fallback": 1}

    def test_unknown_decision_rejected(self):
        with pytest.raises(ValueError):
            PageDecision(did="d0", decision="nope", reason="")


class TestMergeSortedIndex:
    def test_merge_and_remove(self):
        old = tuple(sorted([("a",), ("c",), ("e",)], key=repr))
        got = merge_sorted_index(old, [("b",), ("f",)], [("c",)])
        assert got == tuple(sorted([("a",), ("b",), ("e",), ("f",)],
                                   key=repr))

    def test_noop_returns_same_object(self):
        old = (("a",),)
        assert merge_sorted_index(old, [], []) is old


class TestMaintainer:
    def test_series_matches_batch(self):
        m = DeltaMaintainer(compile_src(RICH_SRC))
        series = [
            {"u1": PAGE, "u2": "Nora Lane wrote in 1988\n"},
            {"u1": PAGE.replace("2001", "2013"),
             "u2": "Nora Lane wrote in 1988\n",
             "u3": "== Body ==\nOwen Hart spent $200M\n"},
            {"u1": PAGE.replace("2001", "2013"),
             "u3": "== Body ==\nOwen Hart spent $90M\n"},
        ]
        for snap, _result in run_series(m, series):
            assert_matches_batch(m, snap)

    def test_churn_cycle_retract_then_add(self):
        """Three snapshots: present -> absent -> back with identical
        text. The return must be a real retract-then-add (rows leave
        the index, then reappear), never a no-op."""
        m = DeltaMaintainer(compile_src(
            "names(v) :- docs(d), extractName(d, v)."))
        series = [
            {"stay": "Alice Chen\n", "churn": "Karen Xu\n"},
            {"stay": "Alice Chen\n"},
            {"stay": "Alice Chen\n", "churn": "Karen Xu\n"},
        ]
        results = [r for _s, r in run_series(m, series)]
        gen0, gen1, gen2 = (r.relations["names"] for r in results)
        assert len(gen0) == 2
        assert len(gen1) == 1  # Karen Xu retracted with the page
        assert gen2 == gen0    # resurrection re-adds, byte-identical
        churn_did = [d for d in results[2].decisions
                     if results[2].decisions[d].decision ==
                     "resurrected"]
        assert len(churn_did) == 1
        # The resurrected page was a real add: tuples flowed again.
        assert results[2].delta_weight > 0

    def test_multiplicity_zero_cancellation_across_pages(self):
        """Two pages producing the same canonical tuple: deleting one
        producer must NOT remove the tuple while the other remains."""
        m = DeltaMaintainer(compile_src(
            "names(v) :- docs(d), extractName(d, v)."))
        text = "Alice Chen\n"
        series = [
            {"a": text, "b": text},   # identical pages, same tuple
            {"a": text},              # one producer retracts
            {},                       # last producer retracts
        ]
        results = [r for _s, r in run_series(m, series)]
        assert len(results[0].relations["names"]) == 1
        assert len(results[1].relations["names"]) == 1  # survives!
        assert results[2].relations["names"] == ()
        assert m.relations["names"].is_empty()

    def test_fallback_page_still_tuple_granular(self):
        plan = compile_src(
            "pairs(n, y) :- docs(d), extractName(d, n), "
            "extractYear(d, y), immBefore(n, y).")
        m = DeltaMaintainer(plan)
        series = [
            {"u": "Alice Chen 1999 and Karen Xu\n"},
            {"u": "Alice Chen 1999 and Karen Xu 2004\n"},
        ]
        for snap, result in run_series(m, series):
            assert_matches_batch(m, snap)
        assert result.decision_counts().get("fallback") == 1
        assert result.fallback_ratio == 1.0

    def test_drain_check_catches_corrupted_state(self):
        m = DeltaMaintainer(compile_src(
            "names(v) :- docs(d), extractName(d, v)."))
        list(run_series(m, [{"a": "Alice Chen\n", "b": "Karen Xu\n"}]))
        # Corrupt page a's state behind the maintainer's back.
        state = m.states["a"]
        root_idx = m.plan_delta.root_index["names"]
        state.out[root_idx].apply(DeltaSet.from_rows([("bogus",)]))
        snap = snapshot_from_texts(1, {"b": "Karen Xu\n"})
        diff = Diff((), (), ("a",), ("b",), ())
        with pytest.raises((DeltaStateError,
                            NegativeMultiplicityError)):
            m.apply(snap, diff, check=True)

    def test_decision_counts_and_to_dict(self):
        m = DeltaMaintainer(compile_src(RICH_SRC))
        results = [r for _s, r in run_series(m, [
            {"u": PAGE}, {"u": PAGE.replace("2001", "2007")}])]
        data = results[1].to_dict()
        assert data["decisions"] == {"delta": 1}
        assert data["fallback_ratio"] == 0.0
        assert "extractor_calls" in data and "memo_hits" in data
