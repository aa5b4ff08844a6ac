"""Snapshot-delta fast paths: units, counters, and on/off parity.

The headline property is behaviour preservation: with the fast paths
on, every system produces byte-identical reuse files and identical
extraction results to the fast paths off. The tests here check the
individual mechanisms (the switch, page identity, the matcher entry
point, reuse-file readers) and then the end-to-end parity
over evolved multi-snapshot series for all four systems.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import dblife_corpus, wikipedia_corpus
from repro.corpus.snapshot import Snapshot, read_snapshot, write_snapshot
from repro.core.runner import (
    SYSTEM_NAMES,
    canonical_results,
    make_system,
    run_series,
    verify_fastpath,
)
from repro.extractors import make_task
from repro.fastpath import (
    FastPathStats,
    MatchMemo,
    content_fingerprint,
    fastpath_enabled,
    pages_identical,
)
from repro.matchers import STMatcher, UDMatcher, WinnowingMatcher
from repro.matchers.base import DN_NAME, RU_NAME, ST_NAME, UD_NAME
from repro.matchers.dn import EQ_NAME
from repro.matchers.ud import myers_lcs_pairs
from repro.matchers.ws import WS_NAME
from repro.plan import compile_program, find_units
from repro.plan.operators import ScanNode
from repro.reuse.engine import PlanAssignment
from repro.reuse.files import (
    CaptureWriter,
    PageCapture,
    PageRecorder,
    ReuseFileReader,
    parse_outputs,
)
from repro.text.document import Page
from repro.text.regions import MatchSegment
from repro.text.span import Interval


# -- configuration ---------------------------------------------------------


class TestFastPathConfig:
    def test_default_is_on(self):
        assert fastpath_enabled(None) is True

    @pytest.mark.parametrize("flag", ["off", "false", "0", "no", False])
    def test_off_flags(self, flag):
        assert fastpath_enabled(flag) is False

    @pytest.mark.parametrize("flag", ["on", "true", "1", "yes", True])
    def test_on_flags(self, flag):
        assert fastpath_enabled(flag) is True

    def test_passthrough_and_invalid(self):
        assert fastpath_enabled(fastpath_enabled("ON")) is True
        with pytest.raises(ValueError):
            fastpath_enabled("sometimes")


# -- fingerprints ----------------------------------------------------------


class TestFingerprint:
    def test_stable_and_distinct(self):
        assert content_fingerprint("abc") == content_fingerprint("abc")
        assert content_fingerprint("abc") != content_fingerprint("abd")

    def test_page_fingerprint_lazy_and_cached(self):
        page = Page(did="d1", url="u", text="hello world")
        assert page.fp == ""
        fp = page.fingerprint
        assert fp == content_fingerprint("hello world")
        assert page.fp == fp  # cached into the instance

    def test_pages_identical_requires_equal_text(self):
        p = Page(did="a", url="u", text="same text here")
        q = Page(did="b", url="u", text="same text here")
        r = Page(did="c", url="u", text="other text here")
        assert pages_identical(p, q)
        assert not pages_identical(p, r)
        assert not pages_identical(p, None)

    def test_pages_identical_survives_forged_fingerprint(self):
        # A stale/colliding fp field must not fool the check: text is
        # always compared.
        p = Page(did="a", url="u", text="one")
        q = Page(did="b", url="u", text="two", fp=p.fingerprint)
        assert not pages_identical(p, q)

    def test_snapshot_roundtrip_persists_fingerprint(self, tmp_path):
        snaps = list(dblife_corpus(n_pages=4, seed=0).snapshots(1))
        path = os.path.join(tmp_path, "snap.jsonl")
        write_snapshot(snaps[0], path)
        restored = read_snapshot(path)
        for page in restored.canonical_pages():
            assert page.fp != ""
            assert page.fp == content_fingerprint(page.text)


#: What each matching system needs for its identity path to be
#: reachable at all (Delex: no RU unit; Cyclex: a UD/ST matcher).
_IDENTITY_PATH_KWARGS = {
    "shortcut": lambda units: {},
    "cyclex": lambda units: {"fixed_matcher": UD_NAME},
    "delex": lambda units: {
        "fixed_assignment": PlanAssignment.uniform(units, UD_NAME)},
}


#: Changed texts for a page whose ``fp`` still claims its old content:
#: another page's text, and a same-length rewrite (which also passes
#: Delex's exact-interval guard, so only the text comparison stops it).
_FORGERIES = {
    "other_page": lambda old, donor: donor.text,
    "same_length": lambda old, donor: old.text[::-1],
}


class TestForgedFingerprint:
    @pytest.mark.parametrize("forgery", sorted(_FORGERIES))
    @pytest.mark.parametrize("system", sorted(_IDENTITY_PATH_KWARGS))
    def test_stale_fp_never_recycles_a_changed_page(self, system, forgery,
                                                    tmp_path):
        """A page whose persisted ``fp`` claims it is unchanged while its
        text changed must be re-extracted by every system: the
        fingerprint only filters, the text decides."""
        task = make_task("talk", work_scale=0)
        s0, s1 = list(dblife_corpus(n_pages=6, seed=3).snapshots(2))
        victim, donor = s1.pages[0], s1.pages[1]
        old = s0.get(victim.url)
        text = _FORGERIES[forgery](old, donor)
        assert old is not None and old.text != text
        forged = Page(victim.did, victim.url, text=text,
                      fp=old.fingerprint)
        s1 = Snapshot(1, [forged if p.did == victim.did else p
                          for p in s1.pages])
        units = find_units(compile_program(task.program, task.registry))
        results = []
        for instance in (
                make_system("noreuse", task, str(tmp_path / "noreuse")),
                make_system(system, task, str(tmp_path / system),
                            **_IDENTITY_PATH_KWARGS[system](units))):
            instance.process(s0, None)
            results.append(canonical_results(instance.process(s1, s0)))
        assert results[1] == results[0]


# -- match memo ------------------------------------------------------------


P_TEXT = "alpha beta gamma\ndelta epsilon\nzeta eta theta iota kappa\n"
Q_TEXT = "alpha beta gamma\nDELTA epsilon\nzeta eta theta iota kappa\n"


class CountingUD(UDMatcher):
    """UD that counts its ``match`` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.calls = 0

    def match(self, *args, **kwargs):
        self.calls += 1
        return super().match(*args, **kwargs)


class TestMatchMemo:
    @pytest.mark.parametrize("matcher", [
        STMatcher(min_length=8), UDMatcher(), WinnowingMatcher()])
    def test_memo_equals_direct(self, matcher):
        region = Interval(0, len(P_TEXT))
        candidates = {7: Interval(0, len(Q_TEXT)),
                      9: Interval(0, 30), 3: Interval(17, 45)}
        direct = matcher.match_many(P_TEXT, region, Q_TEXT, candidates)
        memo = MatchMemo()
        routed = memo.match_many(matcher, P_TEXT, region, Q_TEXT,
                                 candidates)
        assert routed == direct
        # Second pass: nothing was kept, still identical.
        again = memo.match_many(matcher, P_TEXT, region, Q_TEXT,
                                candidates)
        assert again == direct
        ran = 0 if matcher.name == WS_NAME else 2 * len(candidates)
        assert memo.stats.memo_misses == ran
        assert memo.stats.region_short_circuits == 0

    def test_retag_per_candidate(self):
        # Two candidates with the same interval each run the matcher
        # and keep their own itids.
        matcher = UDMatcher()
        region = Interval(0, len(P_TEXT))
        candidates = {5: Interval(0, len(Q_TEXT)),
                      8: Interval(0, len(Q_TEXT))}
        memo = MatchMemo()
        routed = memo.match_many(matcher, P_TEXT, region, Q_TEXT,
                                 candidates)
        assert routed == matcher.match_many(P_TEXT, region, Q_TEXT,
                                            candidates)
        assert memo.stats.memo_misses == 2
        assert {seg.q_itid for seg in routed} == {5, 8}

    def test_distinct_configs_do_not_collide(self):
        region = Interval(0, len(P_TEXT))
        candidates = {1: Interval(0, len(Q_TEXT))}
        memo = MatchMemo()
        loose = memo.match_many(STMatcher(min_length=8), P_TEXT, region,
                                Q_TEXT, candidates)
        strict = memo.match_many(STMatcher(min_length=26), P_TEXT, region,
                                 Q_TEXT, candidates)
        assert loose == STMatcher(min_length=8).match_many(
            P_TEXT, region, Q_TEXT, candidates)
        assert strict == STMatcher(min_length=26).match_many(
            P_TEXT, region, Q_TEXT, candidates)
        assert memo.stats.memo_misses == 2

    def test_equal_regions_run_the_matcher(self):
        # The memo has no equal-region shortcut: the engine replays an
        # equal region before it matches (tests/test_replay.py), so
        # every candidate that reaches the memo runs the matcher.
        matcher = CountingUD()
        p_text = "head\n" + P_TEXT
        region = Interval(5, len(p_text))
        q_text = "x" * 9 + P_TEXT + Q_TEXT
        candidates = {4: Interval(9, 9 + len(P_TEXT)),
                      6: Interval(9 + len(P_TEXT), len(q_text))}
        memo = MatchMemo()
        routed = memo.match_many(matcher, p_text, region, q_text,
                                 candidates)
        assert matcher.calls == 2
        assert routed == UDMatcher().match_many(p_text, region, q_text,
                                                candidates)
        assert routed[0] == MatchSegment(5, 9, len(P_TEXT), 4)
        assert memo.stats.region_short_circuits == 0
        assert memo.stats.memo_misses == 2


# -- capture byte accounting and the page-table reader ------------------


def _write_capture(directory, groups):
    """A capture of unit "u" whose pages hold the I groups of
    ``groups``: ``[(did, [(s, e), ...])]``."""
    writer = CaptureWriter(str(directory), ["u"])
    for did, tuples in groups:
        recorder = PageRecorder()
        for s, e in tuples:
            recorder.input("u", s, e)
        writer.write_page(did, recorder.groups(), PageCapture(did))
    writer.close()


def _regions(reader, did: str):
    """The (s, e) of ``did``'s recorded inputs, read as the engine does."""
    groups = reader.capture(did).get("u")
    return [] if groups is None else [(t.s, t.e) for t in groups.inputs]


class TestReaderBytes:
    def test_bytes_read_counts_utf8_bytes(self, tmp_path):
        # Multi-byte characters force len(chars) != len(bytes); the
        # block-based I/O cost model needs actual bytes. The stock
        # recorder escapes non-ASCII, so store raw UTF-8 JSON lines.
        import json as _json

        groups = [("pägé-αβ", [(0, 5), (5, 9)]), ("ズ-page", [(2, 7)])]
        writer = CaptureWriter(str(tmp_path), ["u"])
        for did, tuples in groups:
            data = "".join(_json.dumps({"t": tid, "s": s, "e": e, "c": "ü"},
                                       ensure_ascii=False) + "\n"
                           for tid, (s, e) in enumerate(tuples))
            writer.write_page(did, {"u": (data.encode("utf-8"), b"")},
                              PageCapture(did))
        writer.close()
        reader = ReuseFileReader(str(tmp_path))
        for did, tuples in groups:
            assert _regions(reader, did) == tuples
        path = os.path.join(tmp_path, "u.I.reuse")
        assert reader.bytes_read == os.path.getsize(path)
        with open(path, encoding="utf-8") as f:
            n_chars = len(f.read())
        # The regression being guarded: text-mode counting (characters)
        # undercounts these groups.
        assert reader.bytes_read > n_chars
        reader.close()

    def test_writer_byte_count_matches_file(self, tmp_path):
        groups = [(f"p{i}", [(0, 5), (9, 30)]) for i in range(4)]
        _write_capture(tmp_path, groups)
        reader = ReuseFileReader(str(tmp_path))
        for did, tuples in groups:
            assert _regions(reader, did) == tuples
        path = os.path.join(tmp_path, "u.I.reuse")
        assert reader.bytes_read == os.path.getsize(path)
        assert reader.table.segments[(0, "u")] == (os.path.getsize(path), 0)
        reader.close()


class TestWholeFileLoader:
    """The one reader: any page's groups, in any order, through a page
    table loaded once (what scopes that pair pages across URLs need)."""

    def test_any_order_reads_match_sequential(self, tmp_path):
        groups = [(f"page-{i:02d}", [(i, i + 10), (i + 20, i + 30)])
                  for i in range(6)]
        _write_capture(tmp_path, groups)
        expected = {}
        seq = ReuseFileReader(str(tmp_path))
        for did, _ in groups:
            expected[did] = _regions(seq, did)
        seq.close()
        assert expected == dict(groups)
        loaded = ReuseFileReader(str(tmp_path))
        order = [g[0] for g in groups]
        shuffled = order[::-1] + order[:2]  # backwards, then re-reads
        for did in shuffled:
            assert _regions(loaded, did) == expected[did], did

    def test_missing_page_returns_empty(self, tmp_path):
        _write_capture(tmp_path, [("present", [(0, 4)])])
        loaded = ReuseFileReader(str(tmp_path))
        assert _regions(loaded, "absent") == []
        assert _regions(loaded, "present") != []

    def test_multibyte_page_ids(self, tmp_path):
        groups = [("π-page", [(0, 3)]), ("ascii", [(1, 5)]),
                  ("日本語", [(2, 9)])]
        _write_capture(tmp_path, groups)
        loaded = ReuseFileReader(str(tmp_path))
        for did, tuples in reversed(groups):
            assert _regions(loaded, did) == tuples

    def test_empty_reuse_file(self, tmp_path):
        # A capture of no pages is a table alone; every read misses.
        _write_capture(tmp_path, [])
        assert os.listdir(tmp_path) == ["pages.table"]
        assert _regions(ReuseFileReader(str(tmp_path)), "any") == []

    def test_single_page_group(self, tmp_path):
        # Re-reading the same group never depends on earlier reads.
        recorder = PageRecorder()
        recorder.input("u", 0, 9)
        recorder.output("u", 0, (("x", "s", 0, 4),))
        recorder.output("u", 0, (("x", "s", 6, 9),))
        writer = CaptureWriter(str(tmp_path), ["u"])
        writer.write_page("only", recorder.groups(), PageCapture("only"))
        writer.close()
        loaded = ReuseFileReader(str(tmp_path))
        for _ in range(3):
            groups = loaded.capture("only").get("u")
            assert [(o.itid, o.fields)
                    for o in parse_outputs(groups.o_data)] \
                == [(0, (("x", "s", 0, 4),)), (0, (("x", "s", 6, 9),))]


# -- capped UD stays well-formed (satellite: _prefix_suffix_pairs) ---------


LINES = st.lists(st.sampled_from(["a", "b", "c", "dd"]), max_size=14)


class TestCappedUDProperty:
    @given(a=LINES, b=LINES, max_d=st.integers(min_value=0, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_pairs_monotone_nonoverlapping_and_valid(self, a, b, max_d):
        pairs = myers_lcs_pairs(a, b, max_d=max_d)
        for i, j in pairs:
            assert 0 <= i < len(a) and 0 <= j < len(b)
            assert a[i] == b[j]
        for (i1, j1), (i2, j2) in zip(pairs, pairs[1:]):
            # Strictly increasing in both coordinates: monotone, no
            # index claimed twice, no crossing pairs.
            assert i2 > i1 and j2 > j1

    @given(a=LINES, b=LINES)
    @settings(max_examples=100, deadline=None)
    def test_uncapped_matches_capped_upper_bound(self, a, b):
        full = myers_lcs_pairs(a, b, max_d=0)
        capped = myers_lcs_pairs(a, b, max_d=2)
        assert len(capped) <= len(full)

    def test_prefix_never_reclaimed_by_suffix(self):
        # The crossing-pair regression: duplicated head/tail lines.
        pairs = myers_lcs_pairs(["x", "x"], ["x"], max_d=1)
        assert pairs == [(0, 0)] or pairs == [(1, 0)]


# -- end-to-end parity: fastpath on == fastpath off ------------------------


def _capture_tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


@pytest.fixture(scope="module")
def chair_task():
    return make_task("chair", work_scale=0)


@pytest.fixture(scope="module")
def parity_snaps():
    return list(dblife_corpus(n_pages=12, seed=11,
                              p_unchanged=0.6).snapshots(3))


@pytest.fixture(scope="module")
def play_snaps():
    return list(wikipedia_corpus(n_pages=12, seed=11,
                                 p_unchanged=0.6).snapshots(3))


#: Plans whose RU units recycle what the producers below them matched:
#: ``id -> (task, frontier matcher, per-uid overrides)``; every other
#: unit gets RU. The ``play`` plan puts a UD producer between the ST
#: frontier and the RU units; ``chair-UD-RU-ST`` ends in an ST producer
#: with several candidates per page (sentences); ``chair-DN-RU`` leaves
#: the RU units an empty MatchCache.
RU_PLANS = {
    "chair-UD-RU": ("chair", UD_NAME, {}),
    "chair-ST-RU": ("chair", ST_NAME, {}),
    "chair-WS-RU": ("chair", WS_NAME, {}),
    "chair-UD-RU-ST": ("chair", UD_NAME, {"extractChairFact": ST_NAME}),
    "chair-DN-RU": ("chair", DN_NAME, {}),
    "play-ST-UD-RU": ("play", ST_NAME, {"extractPlaySent": UD_NAME}),
}


def _blocks(unit_stats):
    """The per-unit statistics the optimizer reads, per snapshot."""
    return [{uid: (u.i_blocks, u.o_blocks) for uid, u in snap.items()}
            for snap in unit_stats]


def _ru_plan(task, front, overrides, rest=RU_NAME):
    """Frontier units (input is the page scan) get ``front``, the rest
    ``rest``, then ``overrides`` apply."""
    units = find_units(compile_program(task.program, task.registry))
    matchers = {u.uid: (front if isinstance(u.ie_node.child, ScanNode)
                        else rest) for u in units}
    matchers.update(overrides)
    return PlanAssignment(matchers)


class TestFastPathParity:
    def test_all_systems_results_identical(self, chair_task, parity_snaps):
        assert verify_fastpath(chair_task, parity_snaps,
                               systems=SYSTEM_NAMES) == []

    @pytest.mark.parametrize("matcher", [ST_NAME, UD_NAME, WS_NAME])
    def test_delex_reuse_files_byte_identical(self, chair_task,
                                              parity_snaps, tmp_path,
                                              matcher):
        plan = compile_program(chair_task.program, chair_task.registry)
        units = find_units(plan)
        assignment = PlanAssignment.uniform(units, matcher)
        trees, results = {}, {}
        for flag in ("on", "off"):
            workdir = os.path.join(tmp_path, flag)
            system = make_system("delex", chair_task, workdir,
                                 fastpath=flag,
                                 fixed_assignment=assignment,
                                 capture_history=10)
            prev = None
            series = []
            for snap in parity_snaps:
                result = system.process(snap, prev)
                series.append(canonical_results(result))
                prev = snap
            trees[flag] = _capture_tree(workdir)
            results[flag] = series
        assert results["on"] == results["off"]
        assert trees["on"].keys() == trees["off"].keys()
        for rel_path in trees["on"]:
            assert trees["on"][rel_path] == trees["off"][rel_path], rel_path

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("plan_id", sorted(RU_PLANS))
    def test_delex_mixed_ru_assignment_parity(self, parity_snaps,
                                              play_snaps, tmp_path,
                                              plan_id, backend):
        # Identical pages are recycled only with the fast paths on;
        # off, every page runs its matchers. Results, capture files
        # and the block counts the optimizer reads from the per-unit
        # statistics agree; the other unit counters count only the
        # rows a unit ran on, so they leave the recycled pages out.
        task_name, front, overrides = RU_PLANS[plan_id]
        task = make_task(task_name, work_scale=0)
        snaps = parity_snaps if task_name == "chair" else play_snaps
        assignment = _ru_plan(task, front, overrides)
        runs = {}
        for flag in ("on", "off"):
            workdir = os.path.join(tmp_path, flag)
            system = make_system(
                "delex", task, workdir, fastpath=flag,
                fixed_assignment=assignment, capture_history=10,
                jobs=1 if backend == "serial" else 2, backend=backend)
            prev = None
            results, unit_stats, recycled = [], [], 0
            for snap in snaps:
                result = system.process(snap, prev)
                results.append(canonical_results(result))
                unit_stats.append(result.unit_stats)
                recycled += result.timings.fastpath.pages_recycled
                prev = snap
            runs[flag] = (results, unit_stats, _capture_tree(workdir),
                          recycled)
        on, off = runs["on"], runs["off"]
        assert on[0] == off[0]
        assert _blocks(on[1]) == _blocks(off[1])
        assert on[2].keys() == off[2].keys()
        for rel_path in on[2]:
            assert on[2][rel_path] == off[2][rel_path], rel_path
        assert on[3] > off[3] == 0

    @pytest.mark.parametrize("matcher", [ST_NAME, UD_NAME, EQ_NAME])
    def test_cyclex_result_files_byte_identical(self, chair_task,
                                                parity_snaps, tmp_path,
                                                matcher):
        trees, results = {}, {}
        for flag in ("on", "off"):
            workdir = os.path.join(tmp_path, flag)
            system = make_system("cyclex", chair_task, workdir,
                                 fastpath=flag, fixed_matcher=matcher)
            prev = None
            series = []
            for snap in parity_snaps:
                result = system.process(snap, prev)
                series.append(canonical_results(result))
                prev = snap
            trees[flag] = _capture_tree(workdir)
            results[flag] = series
        assert results["on"] == results["off"]
        assert trees["on"] == trees["off"]

    @pytest.mark.parametrize("front,rest", [(ST_NAME, ST_NAME),
                                            (UD_NAME, RU_NAME)])
    def test_identical_snapshots_short_circuit_everything(self, chair_task,
                                                          front, rest):
        from repro.corpus.evolve import ChangeModel, EvolvingCorpus
        from repro.corpus.generators import DBLifeGenerator
        frozen = ChangeModel(p_unchanged=1.0, p_removed=0.0, p_added=0.0)
        snaps = list(EvolvingCorpus(DBLifeGenerator(), 8, frozen,
                                    seed=2).snapshots(2))
        assignment = _ru_plan(chair_task, front, {}, rest=rest)
        reports = run_series(
            chair_task, snaps, systems=("noreuse", "delex"),
            system_kwargs={"delex": {"fixed_assignment": assignment}},
            fastpath="on")
        fp = reports["delex"].snapshots[-1].timings.fastpath
        assert fp is not None
        assert fp.pages_paired > 0
        assert fp.pages_short_circuited == fp.pages_paired
        assert fp.unchanged_fraction == 1.0
        # And the short-circuited run still agrees with no-reuse.
        assert (reports["delex"].snapshots[-1].results
                == reports["noreuse"].snapshots[-1].results)

    def test_fastpath_off_reports_zero_counters(self, chair_task,
                                                parity_snaps):
        reports = run_series(chair_task, parity_snaps, systems=("delex",),
                             fastpath="off")
        fp = reports["delex"].snapshots[-1].timings.fastpath
        assert fp is not None
        assert fp.pages_paired > 0
        assert fp.pages_recycled == fp.pages_short_circuited == 0
        assert fp.memo_hits == fp.memo_misses == 0
        assert fp.automata_built == fp.automata_reused == 0

    def test_parallel_fastpath_matches_serial(self, chair_task,
                                              parity_snaps):
        serial = run_series(chair_task, parity_snaps, systems=("delex",),
                            jobs=1, fastpath="on")
        parallel = run_series(chair_task, parity_snaps, systems=("delex",),
                              jobs=2, backend="process", fastpath="on")
        for s_snap, p_snap in zip(serial["delex"].snapshots,
                                  parallel["delex"].snapshots):
            assert s_snap.results == p_snap.results


class TestStatsPlumbing:
    def test_merge_accumulates(self):
        a = FastPathStats(pages_paired=2, memo_misses=3,
                          region_short_circuits=1)
        b = FastPathStats(pages_paired=1, memo_misses=1, pages_recycled=4)
        a.merge(b)
        assert a.pages_paired == 3
        assert a.memo_misses == 4
        assert a.pages_recycled == 4
        assert a.region_short_circuits == 1

    def test_as_dict_and_describe(self):
        stats = FastPathStats(pages_paired=4, pages_recycled=2,
                              memo_misses=1, region_short_circuits=3)
        row = stats.to_dict()
        assert row["combined_hit_rate"] == 0.75
        assert row["pages_short_circuited"] == 2
        assert stats.unchanged_fraction == 0.5
        assert "recycled 2/4 pages whole" in stats.describe()
