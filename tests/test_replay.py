"""Content-addressed replay in the reuse engine.

A region, or a declared split of one, whose text the unit recorded on
the previous page replays the recorded outputs, shifted, before any
matcher runs (:mod:`repro.reuse.replay`). These tests pin the
splitters, the index's attribution rule, what the engine runs and
counts, and that replay is a fast path: results and capture bytes are
those of the reference engine (fast paths off).
"""

import os
import random

import pytest

from repro.check import InvariantViolation, invariants
from repro.core.noreuse import NoReuseSystem
from repro.core.runner import canonical_results
from repro.corpus.snapshot import Snapshot
from repro.extractors.splitters import split_bounds
from repro.fastpath.stats import FastPathStats
from repro.matchers.base import MatchCache
from repro.reuse.engine import (
    PrevCaptureSource,
    ReuseEngine,
    UnitRunStats,
)
from repro.reuse.files import (
    InputTuple,
    OutputTuple,
    PageCapture,
    PageRecorder,
    UnitGroups,
    encode_fields,
)
from repro.reuse.replay import ReplayIndex
from repro.text.document import Page
from repro.text.regions import MatchSegment
from repro.text.span import Span
from repro.timing import Timer, Timings

from tests.test_engine import build_engine, evolve_text, render_page


# -- splitters --------------------------------------------------------------

@pytest.mark.parametrize("text,want", [
    ("", [(0, 0)]),
    ("a", [(0, 1)]),
    ("a\n", [(0, 2)]),
    ("a\nb", [(0, 2), (2, 3)]),
    ("\n\n", [(0, 1), (1, 2)]),
])
def test_line_splits(text, want):
    assert split_bounds("line", text) == want


def test_header_splits_start_at_every_header_line():
    text = "pre\n== A ==\nbody\n== B ==\nx == C ==\n== D =="
    starts = [lo for lo, _ in split_bounds("header", text)]
    assert starts == [0, text.index("== A"), text.index("== B"),
                      text.index("== D")]
    assert split_bounds("header", "== A ==\nbody") == [(0, 12)]


def test_splits_cover_the_text():
    rng = random.Random(3)
    for _ in range(200):
        text = "".join(rng.choice("ab=\n ")
                       for _ in range(rng.randrange(40)))
        for kind in ("line", "header"):
            bounds = split_bounds(kind, text)
            assert bounds[0][0] == 0 and bounds[-1][1] == len(text)
            assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


# -- the index --------------------------------------------------------------

def _out(tid, itid, start, end):
    return OutputTuple(tid, itid, (("v", "s", start, end),))


def test_index_first_recorded_region_wins():
    q_text = "abc|abc"
    inputs = [InputTuple(0, "q", 0, 3), InputTuple(1, "q", 4, 7)]
    index = ReplayIndex(q_text, inputs, {}, None)
    assert index.region("abc").tid == 0
    assert index.region("abd") is None
    assert index.splits() is None


def test_index_attributes_outputs_to_their_split():
    q_text = "xx\nyy\nzz"
    inputs = [InputTuple(0, "q", 0, len(q_text))]
    outputs = {0: [_out(0, 0, 0, 2), _out(1, 0, 6, 8)]}
    splits = ReplayIndex(q_text, inputs, outputs, "line").splits()
    assert splits["xx\n"] == (inputs[0], 0, [outputs[0][0]])
    assert splits["yy\n"] == (inputs[0], 3, [])
    assert splits["zz"] == (inputs[0], 6, [outputs[0][1]])


@pytest.mark.parametrize("output", [
    _out(0, 0, 1, 4),                      # crosses the first line end
    OutputTuple(0, 0, (("n", "v", 3, None),)),  # no span to place
    _out(0, 0, 3, 3),                      # empty, on a split edge
])
def test_index_without_splits_when_an_output_has_no_one_split(output):
    index = ReplayIndex("xx\nyy", [InputTuple(0, "q", 0, 5)],
                        {0: [output]}, "line")
    assert index.splits() is None
    assert index.region("xx\nyy") is not None


# -- the engine -------------------------------------------------------------

def _pages(texts):
    return [Page.from_url(url, text) for url, text in texts.items()]


def _two_runs(tmp_path, names, texts0, texts1, fastpath="on"):
    plan, units, assignment = build_engine(names)
    engine = ReuseEngine(plan, units, assignment, fastpath=fastpath)
    s0, s1 = Snapshot(0, _pages(texts0)), Snapshot(1, _pages(texts1))
    engine.run_snapshot(s0, None, None, str(tmp_path / "0"))
    r1 = engine.run_snapshot(s1, s0, str(tmp_path / "0"),
                             str(tmp_path / "1"))
    assert canonical_results(r1) == canonical_results(
        NoReuseSystem(plan).process(s1))
    return r1


BODY = ("intro\n== Body ==\nAna likes tea.\nBob likes jazz.\n"
        "Cat likes rain.\n== Tail ==\nclosing words\n")


@pytest.mark.parametrize("names", [["DN"] * 3, ["UD", "UD", "RU"],
                                   ["ST", "RU", "RU"]])
def test_only_the_changed_split_is_extracted(tmp_path, names):
    edited = BODY.replace("Bob likes jazz.", "Bob likes chess!")
    r1 = _two_runs(tmp_path, names, {"u": BODY}, {"u": edited})
    stats = r1.unit_stats
    body = edited[edited.index("Ana"):edited.index("== Tail")]
    # getBody (header splits keyed on "Body"): the Body section is new;
    # the rest is under no Body header, so it is skipped, not replayed.
    assert stats["getBody"].extracted_chars == len(
        "== Body ==\n") + len(body)
    assert stats["getBody"].replayed_chars == 0
    assert stats["getBody"].skipped_chars == len(edited) - len(
        "== Body ==\n") - len(body)
    # getFacts (line splits): one new line; the section was not matched.
    assert stats["getFacts"].extracted_chars == len("Bob likes chess!\n")
    assert stats["getFacts"].matcher_calls == 0
    # getWho: two sentences replay whole; the new one is matched or
    # extracted, never both replayed and extracted.
    assert stats["getWho"].replayed_chars == len("Ana likes tea.") + len(
        "Cat likes rain.")
    assert r1.timings.fastpath.region_short_circuits == 2 + 2


def test_scratch_runs_extract_only_selected_splits(tmp_path):
    """Without a recorded previous page (snapshot 0, a new page) a keyed
    unit extracts only the splits its key selects; with the fast paths
    off it extracts the whole region, with the same results."""
    text = BODY + "Dan likes maps.\n"
    body = text.index("== Body")
    for fastpath in ("on", "off"):
        plan, units, assignment = build_engine(["DN"] * 3)
        engine = ReuseEngine(plan, units, assignment, fastpath=fastpath)
        s0 = Snapshot(0, _pages({"u": text}))
        r0 = engine.run_snapshot(s0, None, None, str(tmp_path / fastpath))
        assert canonical_results(r0) == canonical_results(
            NoReuseSystem(plan).process(s0))
        stats = r0.unit_stats
        if fastpath == "on":
            body_split = text.index("== Tail") - body
            assert stats["getBody"].extracted_chars == body_split
            assert stats["getBody"].skipped_chars == len(text) - body_split
        else:
            assert stats["getBody"].extracted_chars == len(text)
            assert stats["getBody"].skipped_chars == 0
        # Every line of the Body section holds the key "likes".
        assert stats["getFacts"].skipped_chars == 0


def test_replay_is_a_fast_path(tmp_path):
    """Results and every capture byte equal the reference engine's."""
    rng = random.Random(5)
    texts0 = {f"u{i}": render_page(rng) for i in range(6)}
    texts1 = {u: evolve_text(rng, t) if i % 3 else t
              for i, (u, t) in enumerate(texts0.items())}
    for names in (["UD", "RU", "RU"], ["DN", "ST", "UD"]):
        on = _two_runs(tmp_path / "on" / names[1], names, texts0, texts1)
        off = _two_runs(tmp_path / "off" / names[1], names, texts0,
                        texts1, fastpath="off")
        assert canonical_results(on) == canonical_results(off)
        assert off.timings.fastpath.region_short_circuits == 0
        assert all(s.replayed_chars == 0 for s in off.unit_stats.values())
        for name in sorted(os.listdir(tmp_path / "off" / names[1] / "1")):
            assert ((tmp_path / "on" / names[1] / "1" / name).read_bytes()
                    == (tmp_path / "off" / names[1] / "1" / name)
                    .read_bytes()), name


def _evaluate(engine, page, q_page, capture, cache=None):
    stats = {uid: UnitRunStats() for uid in engine.evaluator.uids()}
    fp_stats = FastPathStats()
    rows = engine.evaluator.run_page(page, q_page, capture, PageRecorder(),
                                     stats, Timer(Timings()),
                                     cache=cache, fp_stats=fp_stats)
    return rows, stats, fp_stats


def test_replay_records_the_full_segment_for_ru(tmp_path):
    plan, units, assignment = build_engine(["DN", "UD", "RU"])
    engine = ReuseEngine(plan, units, assignment)
    q_page = Page.from_url("u", BODY)
    page = Page.from_url("u", "moved\n" + BODY)
    engine.run_snapshot(Snapshot(0, [q_page]), None, None,
                        str(tmp_path / "0"))
    source = PrevCaptureSource(str(tmp_path / "0"), engine.evaluator.uids())
    try:
        cache = MatchCache()
        _, stats, _ = _evaluate(engine, page, q_page, source.read(q_page),
                                cache)
    finally:
        source.close()
    body = BODY.index("== Body")
    shift = len("moved\n")
    # The page is new text, the Body section replays as a split of the
    # page; its segment is what RU units above it recycle.
    assert MatchSegment(body + shift, body,
                        BODY.index("== Tail") - body, 0) in cache.segments
    assert all(s.matcher_calls == 0 for s in stats.values())


def test_check_layer_re_extracts_what_replays():
    """Under ``--check`` a replayed region is re-extracted and compared:
    a recorded output that extraction does not give is caught."""
    plan, units, assignment = build_engine(["UD", "UD", "UD"])
    engine = ReuseEngine(plan, units, assignment)
    page = Page.from_url("u", BODY)
    recorder = PageRecorder()
    tid = recorder.input("getBody", 0, len(BODY))
    recorder.output("getBody", tid, encode_fields(
        {"sec": Span(page.did, 0, 5)}))
    i_data, o_data = recorder.groups()["getBody"]
    capture = PageCapture(page.did, groups={
        "getBody": UnitGroups(page.did, i_data, o_data)})
    with invariants.checking():
        with pytest.raises(InvariantViolation, match="replay"):
            _evaluate(engine, page, page, capture)
    # Without the check layer the recorded output is replayed as is.
    _, _, fp_stats = _evaluate(engine, page, page, capture)
    assert fp_stats.region_short_circuits == 1
