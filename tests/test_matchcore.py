"""Matcher core: the matcher entry point and self-match.

* **Memo** — routing a call through :class:`MatchMemo` returns exactly
  what the bare matcher returns, at any offsets.

* **Self-match** — UD and ST return exactly one full-region segment
  for a region matched against itself (the segment the engine's
  replay records for RU units); WS does not, and a pinned
  counterexample says why.

* **One implementation** — a Delex series and a serve apply run
  without importing numpy.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.fastpath.memo import MatchMemo
from repro.matchers.dn import EQMatcher
from repro.matchers.st import STMatcher
from repro.matchers.ud import UDMatcher
from repro.matchers.ws import WinnowingMatcher
from repro.text.regions import MatchSegment
from repro.text.span import Interval


# -- memo: byte-identity with the bare matcher ------------------------------


def _direct_match_many(matcher, p_text, p_region, q_text, candidates):
    return matcher.match_many(p_text, p_region, q_text, candidates)


@st.composite
def _evolved_pair(draw):
    """A q text and a p text sharing movable chunks, plus regions."""
    alphabet = "ab \n"
    chunks = draw(st.lists(st.text(alphabet, min_size=1, max_size=24),
                           min_size=1, max_size=6))
    q_text = "#".join(chunks)
    order = draw(st.permutations(range(len(chunks))))
    edits = [draw(st.text(alphabet, max_size=6)) for _ in chunks]
    p_text = "#".join(chunks[i] + edits[i] for i in order)
    return q_text, p_text


@settings(max_examples=60, deadline=None)
@given(pair=_evolved_pair(),
       matcher_kind=st.sampled_from(["ST", "UD"]),
       shift=st.integers(min_value=0, max_value=7))
def test_memo_and_cache_replay_byte_identical(pair, matcher_kind, shift):
    """Routing match_many through the memo returns exactly the segments
    the bare matcher returns — including when the same content recurs
    at shifted offsets under another itid."""
    q_text, p_text = pair
    matcher = (STMatcher(min_length=4) if matcher_kind == "ST"
               else UDMatcher())
    memo = MatchMemo()
    p_region = Interval(0, len(p_text))
    candidates = {7: Interval(0, len(q_text))}
    expect = _direct_match_many(matcher, p_text, p_region, q_text,
                                candidates)
    got = memo.match_many(matcher, p_text, p_region, q_text, candidates)
    assert got == expect
    # Same content at shifted offsets through a fresh memo, different
    # itid: results must equal a bare matcher run on the shifted texts.
    pad = "\t" * shift
    p2, q2 = pad + p_text, pad + q_text
    p2_region = Interval(shift, len(p2))
    candidates2 = {13: Interval(shift, len(q2))}
    expect2 = _direct_match_many(matcher, p2, p2_region, q2, candidates2)
    memo2 = MatchMemo()
    got2 = memo2.match_many(matcher, p2, p2_region, q2, candidates2)
    assert got2 == expect2


# -- self-match: the identity short circuit's precondition -----------------


@settings(max_examples=150, deadline=None)
@given(text=st.text("ab \n#", min_size=1, max_size=160), data=st.data(),
       min_length=st.integers(min_value=1, max_value=16))
def test_self_match_is_one_full_region_segment(text, data, min_length):
    """UD (any non-empty region) and ST (regions of at least
    ``min_length``) matched against the very same region return exactly
    the one full-region segment — the segment the engine's identity
    path records for RU units instead of running the matcher."""
    start = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    end = data.draw(st.integers(min_value=start + 1, max_value=len(text)))
    region = Interval(start, end)
    full = [MatchSegment(start, start, end - start)]
    ud, st_matcher = UDMatcher(), STMatcher(min_length=min_length)
    assert ud.match(text, region, text, region) == full
    assert (ud.match_many(text, region, text, {7: region})
            == [MatchSegment(start, start, end - start, 7)])
    if end - start >= min_length:
        assert st_matcher.match(text, region, text, region) == full


def _self_match(matcher, text, region, memo):
    """``matcher`` on (region, region) of one text. ``memo="off"``
    calls the matcher directly; ``memo="force"`` routes the call
    through a fresh :class:`MatchMemo`, the engine's matcher entry
    point, which must agree."""
    if memo == "off":
        return matcher.match(text, region, text, region)
    return MatchMemo().match_many(matcher, text, region, text, {-1: region})


@pytest.mark.parametrize("memo", ["off", "force"])
def test_self_match_long_regions(memo):
    """The same precondition on inputs the property rarely draws: a
    run of one character and hundreds of lines."""
    for text in ("a" * 3000, "\n".join(f"line {i % 7}" for i in range(400))):
        region = Interval(0, len(text))
        for matcher in (UDMatcher(), STMatcher(min_length=12)):
            assert (_self_match(matcher, text, region, memo)
                    == [MatchSegment(0, 0, len(text))])


@pytest.mark.parametrize("memo", ["off", "force"])
def test_ws_self_match_reports_internal_repeats(memo):
    """On an identical region WS also pairs repeated k-grams, so what
    it returns is not the single full-region segment; routed through
    the memo it returns the same."""
    text = "abcdefghijklmnop" * 3
    region = Interval(0, len(text))
    assert (_self_match(WinnowingMatcher(), text, region, memo)
            == [MatchSegment(0, 0, 48), MatchSegment(0, 16, 32),
                MatchSegment(16, 0, 32)])


@settings(max_examples=150, deadline=None)
@given(p_text=st.text("ab \n", max_size=40),
       q_text=st.text("ab \n", max_size=40), data=st.data())
def test_eq_matches_only_equal_regions(p_text, q_text, data):
    """EQ (Shortcut's matcher) returns the one full-region segment
    when the two region texts are equal and nothing otherwise."""
    def region(text):
        start = data.draw(st.integers(min_value=0, max_value=len(text)))
        end = data.draw(st.integers(min_value=start, max_value=len(text)))
        return Interval(start, end)

    p_region, q_region = region(p_text), region(q_text)
    if data.draw(st.booleans()):
        q_text, q_region = p_text, p_region
    equal = (p_text[p_region.start:p_region.end]
             == q_text[q_region.start:q_region.end])
    got = EQMatcher().match(p_text, p_region, q_text, q_region)
    assert got == ([MatchSegment(p_region.start, q_region.start,
                                 len(p_region))] if equal else [])


# -- one implementation per matcher: nothing imports numpy -----------------

_NO_NUMPY_SCRIPT = """
import os, sys
from repro.core.runner import make_system
from repro.corpus import dblife_corpus
from repro.extractors import make_task
from repro.serve.views import MaterializedView, ViewConfig

work = sys.argv[1]
snaps = list(dblife_corpus(n_pages=6, seed=3, p_unchanged=0.5).snapshots(2))
system = make_system("delex", make_task("chair", work_scale=0),
                     os.path.join(work, "batch"), fastpath="on")
prev = None
for snap in snaps:
    system.process(snap, prev)
    prev = snap
view = MaterializedView(ViewConfig(name="chair", task="chair",
                                   work_scale=0),
                        os.path.join(work, "view"))
view.apply_snapshot(snaps[0])
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "numpy")
assert "numpy" not in sys.modules, loaded[:3]
"""


def test_batch_and_serve_never_import_numpy(tmp_path):
    """A Delex series and a serve apply run without numpy: every
    matcher has one pure-Python implementation. Runs in a fresh
    interpreter, since the test runner's own plugins may load numpy."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
