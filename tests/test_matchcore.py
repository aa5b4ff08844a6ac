"""Matcher core: config keys, the cross-snapshot match cache, memo
replay and self-match.

Contracts from the content-keyed caching design:

* **Config keys** — every matcher attribute is classified as either
  result-relevant (``CONFIG_ATTRS``, part of :meth:`Matcher.config_key`)
  or execution-only (``STATE_ATTRS``); an unclassified attribute fails
  the sweep here, because it could silently let differently-configured
  matchers share cached results.

* **Cross-snapshot cache** — :class:`CrossSnapshotMatchCache` is a
  plain bounded LRU: recency order, entry and byte caps, occupancy and
  eviction counters, and safety under concurrent use.

* **Self-match** — UD and ST return exactly one full-region segment
  for a region matched against itself (the segment the engine's
  identity path records for RU units); WS does not, and a pinned
  counterexample says why.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.fastpath.matchcache import CrossSnapshotMatchCache
from repro.fastpath.memo import MatchMemo
from repro.matchers.base import MatchCache
from repro.matchers.dn import DNMatcher, EQMatcher
from repro.matchers.ru import RUMatcher
from repro.matchers.st import STMatcher
from repro.matchers.ud import UDMatcher
from repro.matchers.ws import WinnowingMatcher
from repro.text.regions import MatchSegment
from repro.text.span import Interval


def _all_matchers():
    return [
        DNMatcher(),
        EQMatcher(),
        UDMatcher(max_d=3),
        STMatcher(min_length=9, automatons=object()),
        RUMatcher(MatchCache()),
        WinnowingMatcher(k=6, window=4),
    ]


class TestConfigKeys:
    def test_every_attribute_is_classified(self):
        """No matcher instance may grow an attribute that is neither
        config (keyed) nor state (excluded by design)."""
        for matcher in _all_matchers():
            declared = set(matcher.CONFIG_ATTRS) | set(matcher.STATE_ATTRS)
            undeclared = set(vars(matcher)) - declared
            assert not undeclared, \
                f"{type(matcher).__name__}: unclassified {undeclared}"

    def test_config_attrs_all_exist(self):
        for matcher in _all_matchers():
            for attr in matcher.CONFIG_ATTRS + matcher.STATE_ATTRS:
                assert hasattr(matcher, attr)

    def test_distinct_configs_distinct_keys(self):
        assert (STMatcher(min_length=8).config_key()
                != STMatcher(min_length=12).config_key())
        assert (UDMatcher(max_d=0).config_key()
                != UDMatcher(max_d=5).config_key())
        base = WinnowingMatcher(k=12, window=8).config_key()
        assert WinnowingMatcher(k=10, window=8).config_key() != base
        assert WinnowingMatcher(k=12, window=6).config_key() != base
        assert WinnowingMatcher(
            k=12, window=8, max_anchors_per_hash=9).config_key() != base

    def test_keys_distinct_across_matchers(self):
        keys = [m.config_key() for m in _all_matchers()]
        assert len(set(keys)) == len(keys)

    def test_state_does_not_change_key(self):
        """A cache never changes output — two instances differing only
        in one MUST share cached results."""
        plain = STMatcher(min_length=12)
        loaded = STMatcher(min_length=12, automatons=object())
        assert plain.config_key() == loaded.config_key()


class TestCrossSnapshotMatchCache:
    KEY_A = (("ST", 12), b"pa", b"qa")
    KEY_B = (("ST", 12), b"pb", b"qb")
    KEY_C = (("ST", 12), b"pc", b"qc")

    def test_roundtrip_and_counters(self):
        cache = CrossSnapshotMatchCache()
        assert cache.get(self.KEY_A) is None
        cache.put(self.KEY_A, ((0, 0, 5),))
        assert cache.get(self.KEY_A) == ((0, 0, 5),)
        c = cache.counters()
        # Hits and misses are the caller's to count (FastPathStats);
        # the store reports occupancy and evictions only.
        assert set(c) == {"entries", "bytes", "max_entries", "max_bytes",
                          "evictions"}
        assert c["entries"] == len(cache) == 1
        assert c["evictions"] == 0
        assert "entries=1" in cache.describe()

    def test_lru_refresh_on_get(self):
        cache = CrossSnapshotMatchCache(max_entries=2)
        cache.put(self.KEY_A, ())
        cache.put(self.KEY_B, ())
        cache.get(self.KEY_A)  # A is now most recent
        evicted = cache.put(self.KEY_C, ())
        assert evicted == 1
        assert cache.get(self.KEY_B) is None  # B was the LRU entry
        assert cache.get(self.KEY_A) is not None
        assert cache.evictions == 1

    def test_byte_bound_evicts(self):
        from repro.fastpath.matchcache import _entry_bytes
        one_entry = _entry_bytes(((0, 0, 1),))
        cache = CrossSnapshotMatchCache(max_entries=100,
                                        max_bytes=2 * one_entry)
        cache.put(self.KEY_A, ((0, 0, 1),))
        cache.put(self.KEY_B, ((0, 0, 1),))
        assert len(cache) == 2 and cache.bytes == 2 * one_entry
        cache.put(self.KEY_C, ((0, 0, 1),))
        assert len(cache) == 2 and cache.bytes == 2 * one_entry
        assert cache.get(self.KEY_A) is None

    def test_refresh_same_key_does_not_double_count_bytes(self):
        cache = CrossSnapshotMatchCache()
        cache.put(self.KEY_A, ((0, 0, 1), (2, 2, 3)))
        before = cache.bytes
        cache.put(self.KEY_A, ((0, 0, 1), (2, 2, 3)))
        assert cache.bytes == before
        assert len(cache) == 1

    def test_clear(self):
        cache = CrossSnapshotMatchCache()
        cache.put(self.KEY_A, ((0, 0, 5),))
        cache.clear()
        assert len(cache) == 0 and cache.bytes == 0
        assert cache.get(self.KEY_A) is None

    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            CrossSnapshotMatchCache(max_entries=0)
        with pytest.raises(ValueError):
            CrossSnapshotMatchCache(max_bytes=0)

    def test_thread_safety_under_contention(self):
        cache = CrossSnapshotMatchCache(max_entries=16)
        errors = []

        def worker(seed: int) -> None:
            rng = random.Random(seed)
            try:
                for i in range(400):
                    key = (("ST", 12), b"p%d" % rng.randrange(32), b"q")
                    if rng.random() < 0.5:
                        cache.put(key, ((0, 0, i),))
                    else:
                        cache.get(key)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16
        c = cache.counters()
        # every retained value is a single-segment entry, so the byte
        # ledger must agree exactly with the occupancy
        from repro.fastpath.matchcache import _entry_bytes
        assert c["bytes"] == c["entries"] * _entry_bytes(((0, 0, 1),))


# -- memo + match store: byte-identity under replay ------------------------


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
       max_entries=st.sampled_from([1, 2, 64]),
       shift=st.integers(min_value=0, max_value=7))
def test_memo_and_cache_replay_byte_identical(pair, matcher_kind,
                                              max_entries, shift):
    """Routing match_many through the memo + a (possibly tiny, i.e.
    constantly evicting) match store returns exactly the segments the
    bare matcher returns — including when the same content replays at
    shifted offsets, where rebasing must retag positions and itids."""
    q_text, p_text = pair
    matcher = (STMatcher(min_length=4) if matcher_kind == "ST"
               else UDMatcher())
    store = CrossSnapshotMatchCache(max_entries=max_entries)
    memo = MatchMemo(shared=store)
    p_region = Interval(0, len(p_text))
    candidates = {7: Interval(0, len(q_text))}
    expect = _direct_match_many(matcher, p_text, p_region, q_text,
                                candidates)
    got = memo.match_many(matcher, p_text, p_region, q_text, candidates)
    assert got == expect
    # Same content at shifted offsets, replayed through a *fresh* memo
    # over the same store (the cross-snapshot path), different
    # itid: results must equal a bare matcher run on the shifted texts.
    pad = "\t" * shift
    p2, q2 = pad + p_text, pad + q_text
    p2_region = Interval(shift, len(p2))
    candidates2 = {13: Interval(shift, len(q2))}
    expect2 = _direct_match_many(matcher, p2, p2_region, q2, candidates2)
    memo2 = MatchMemo(shared=store)
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
    through a fresh :class:`MatchMemo`, whose equal-region shortcut
    answers ST and UD without running them and must agree."""
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
    """Why WS producers keep the slow path in plans with RU units: on
    an identical region WS also pairs repeated k-grams, so what it
    records is not the single full-region segment — and the memo's
    equal-region shortcut must not claim otherwise."""
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
