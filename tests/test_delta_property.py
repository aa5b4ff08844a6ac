"""Property tests: for random small programs and random corpus
evolutions, the delta-maintained state equals from-scratch plain
evaluation of the updated corpus — every generation, including
multiplicity-zero cancellation (duplicate pages, deletions,
resurrections) — and every IE memo holds exactly its page's live
region texts, or, for a split-declared extractor, its live selected
split texts."""

from collections import namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.snapshot import snapshot_from_texts
from repro.delta.maintain import DeltaMaintainer
from repro.delta.rows import freeze_rows
from repro.extractors.rules import RegexExtractor, SectionExtractor
from repro.extractors.splitters import split_selected
from repro.plan.compile import compile_program
from repro.plan.operators import evaluate_plain
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


REGISTRY = build_registry()

#: Pool of program shapes covering every operator the delta rules
#: implement: chain (IE over IE output), join, union with a shared
#: head (multiplicity from two derivations), row-determined selects,
#: and scalar comparisons.
PROGRAM_POOL = (
    "names(v) :- docs(d), extractName(d, v).",
    """
    names(v) :- docs(d), extractBody(d, b), extractName(b, v).
    """,
    """
    pairs(n, y) :- docs(d), extractName(d, n), extractYear(d, y),
                   before(n, y).
    """,
    """
    found(v) :- docs(d), extractName(d, v).
    found(v) :- docs(d), extractYear(d, v).
    """,
    """
    rich(t) :- docs(d), extractAmount(d, t, v), atLeast(v, 100).
    names(v) :- docs(d), extractBody(d, b), extractName(b, v).
    """,
)

PLANS = tuple(compile_program(parse_program(src), REGISTRY)
              for src in PROGRAM_POOL)

#: A plan with a non-row-determined selection: every changed page of
#: it takes the fallback.
BLOCKED_PLAN = compile_program(parse_program("""
    pairs(n, y) :- docs(d), extractName(d, n), extractYear(d, y),
                   immBefore(n, y).
    names(v) :- docs(d), extractBody(d, b), extractName(b, v).
"""), REGISTRY)

#: Vocabulary chosen so random lines hit (and miss) every extractor.
TOKENS = ("Alice Chen", "Karen Xu", "Bob", "1999", "2001", "$120M",
          "$7M", "== Body ==", "intro", "review of")

URLS = ("a", "b", "c", "d")

lines = st.lists(st.sampled_from(TOKENS), min_size=0, max_size=6)
texts = lines.map(lambda ls: " ".join(ls) + "\n")
corpora = st.dictionaries(st.sampled_from(URLS), texts,
                          min_size=0, max_size=len(URLS))
series_strategy = st.lists(corpora, min_size=1, max_size=5)

#: Multi-line pages, so ``== Body ==`` can open a section whose region
#: an edit before it shifts, and ``== Other ==`` a split that
#: ``extractBody``'s key does not select.
LINE_TOKENS = TOKENS + ("\n== Body ==\n", "\n== Other ==\n", "\n")
long_texts = st.lists(st.sampled_from(LINE_TOKENS), min_size=0,
                      max_size=12).map(lambda ls: " ".join(ls) + "\n")

#: One page edit: insert a token or delete a run of characters at a
#: relative position (so before, inside or after any region), rewrite
#: the whole page, or delete the page.
edits = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(URLS),
              st.integers(0, 1000), st.sampled_from(LINE_TOKENS)),
    st.tuples(st.just("delete"), st.sampled_from(URLS),
              st.integers(0, 1000), st.integers(1, 12)),
    st.tuples(st.just("rewrite"), st.sampled_from(URLS), long_texts),
    st.tuples(st.just("drop"), st.sampled_from(URLS)),
)


def apply_edit(corpus, edit):
    """``corpus`` after one page edit (a new dict)."""
    out = dict(corpus)
    kind, url = edit[0], edit[1]
    if kind == "drop":
        out.pop(url, None)
    elif kind == "rewrite":
        out[url] = edit[2]
    elif url in out:
        text = out[url]
        at = edit[2] * len(text) // 1000
        if kind == "insert":
            out[url] = text[:at] + edit[3] + " " + text[at:]
        else:
            out[url] = text[:at] + text[at + edit[3]:]
    return out


Diff = namedtuple("Diff", "changed new deleted unchanged resurrected")


def diff_texts(prev, cur, tombstones):
    return Diff(
        changed=tuple(d for d in cur if d in prev and prev[d] != cur[d]),
        new=tuple(d for d in cur if d not in prev),
        deleted=tuple(sorted(d for d in prev if d not in cur)),
        unchanged=tuple(d for d in cur if d in prev and prev[d] == cur[d]),
        resurrected=tuple(d for d in cur
                          if d not in prev and d in tombstones))


def batch_state(plan, pages):
    """From-scratch ground truth for one corpus: the sorted relation
    index and the per-page row sets the maintainer must match."""
    per_page = {}
    union = {rel: set() for rel in plan.program.head_relations()}
    for did, text in pages.items():
        memo = {}
        rows = {rel: set(freeze_rows(
                    evaluate_plain(plan.roots[rel], text, did, memo),
                    text))
                for rel in union}
        per_page[did] = rows
        for rel in union:
            union[rel] |= rows[rel]
    index = {rel: tuple(sorted(want, key=repr))
             for rel, want in union.items()}
    return per_page, index


def drive(plan, series):
    maintainer = DeltaMaintainer(plan)
    prev = {}
    tombstones = set()
    for i, corpus in enumerate(series):
        snap = snapshot_from_texts(i, corpus)
        cur = {p.did: p.text for p in snap.canonical_pages()}
        diff = diff_texts(prev, cur, tombstones)
        deleted = [maintainer.states[did] for did in diff.deleted]
        maintainer.apply(snap, diff, check=True)
        assert all(state.is_drained() for state in deleted), i
        for state in maintainer.states.values():
            for index, ie_state in state.ie.items():
                assert (set(ie_state.memo)
                        == set(ie_state.region_refs.support())), (
                    i, state.did)
                # Unselected splits get no memo entry and no reference.
                extractor = maintainer.plan_delta.nodes[index].extractor
                if extractor.splitter is not None:
                    assert all(split_selected(extractor.splitter,
                                              extractor.split_key, text)
                               for text in ie_state.memo), (i, state.did)
        tombstones |= set(diff.deleted)
        tombstones -= set(diff.resurrected)
        prev = cur

        per_page, index = batch_state(plan, cur)
        assert set(maintainer.states) == set(cur)
        for did, want_rows in per_page.items():
            got = maintainer.plan_delta.page_rows(maintainer.states[did])
            for rel, want in want_rows.items():
                assert set(got[rel]) == want, (i, did, rel)
        for rel, want in index.items():
            assert maintainer.index.get(rel, ()) == want, (i, rel)


class TestDeltaEqualsBatch:
    @settings(max_examples=25, deadline=None)
    @given(plan_i=st.integers(0, len(PLANS) - 1), series=series_strategy)
    def test_random_series_matches_plain_evaluation(self, plan_i, series):
        drive(PLANS[plan_i], series)

    @settings(max_examples=15, deadline=None)
    @given(text=texts, other=texts,
           plan_i=st.integers(0, len(PLANS) - 1))
    def test_churn_cycle_and_duplicate_pages(self, text, other, plan_i):
        """Forced worst-case multiplicity script: two pages sharing
        one text (their canonical tuples coincide → counts must add),
        then deletion, then resurrection of the same bytes."""
        series = [
            {"a": text, "b": text, "c": other},
            {"a": text, "c": other},       # b deleted; a still holds rows
            {"c": other},                  # a deleted; shared rows vanish
            {"a": text, "b": text},        # both resurrect, c deleted
        ]
        drive(PLANS[plan_i], series)

    @settings(max_examples=30, deadline=None)
    @given(base=st.dictionaries(st.sampled_from(URLS), long_texts,
                                min_size=1, max_size=len(URLS)),
           steps=st.lists(st.lists(edits, min_size=1, max_size=3),
                          min_size=1, max_size=5),
           plan_i=st.integers(0, len(PLANS)))
    def test_local_edits_and_rewrites_match_plain_evaluation(
            self, base, steps, plan_i):
        """Edits before, inside and after regions shift or rewrite
        them; rewrites and (for the blocked plan) fallbacks re-derive
        whole pages. No generation may differ from plain evaluation or
        leave a memo entry behind."""
        plan = PLANS[plan_i] if plan_i < len(PLANS) else BLOCKED_PLAN
        series = [base]
        for step in steps:
            corpus = series[-1]
            for edit in step:
                corpus = apply_edit(corpus, edit)
            series.append(corpus)
        drive(plan, series)
