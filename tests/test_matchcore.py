"""Raw-speed matcher core: config keys, the cross-snapshot match
cache, and kernel/fallback parity.

Three contracts from the content-keyed caching design:

* **Config keys** — every matcher attribute is classified as either
  result-relevant (``CONFIG_ATTRS``, part of :meth:`Matcher.config_key`)
  or execution-only (``STATE_ATTRS``); an unclassified attribute fails
  the sweep here, because it could silently let differently-configured
  matchers share cached results.

* **Cross-snapshot cache** — :class:`CrossSnapshotMatchCache` is a
  plain bounded LRU: recency order, entry and byte caps, occupancy and
  eviction counters, and safety under concurrent use.

* **Kernel parity** — every vectorized kernel (ST k-gram, UD interned
  Myers band sweep, WS winnowing, and their shared helpers) is pinned
  byte-identical to its pure-Python fallback, including the rare hash
  collision repair path and the numpy-disabled whole-system run.

* **Self-match** — UD and ST return exactly one full-region segment
  for a region matched against itself (the segment the engine's
  identity path records for RU units); WS does not, and a pinned
  counterexample says why.
"""

from __future__ import annotations

import random
import threading

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus import dblife_corpus
from repro.core.runner import canonical_results, make_system
from repro.extractors import make_task
from repro.fastpath.matchcache import CrossSnapshotMatchCache
from repro.fastpath.memo import MatchMemo
from repro.matchers import base as base_mod
from repro.matchers import ud as ud_mod
from repro.matchers.base import MatchCache, ST_NAME
from repro.matchers.dn import DNMatcher, EQMatcher
from repro.matchers.ru import RUMatcher
from repro.matchers.st import STMatcher, st_kernel
from repro.matchers.ud import (
    UDMatcher,
    _myers_core,
    _myers_core_np,
    _pair_runs,
    _pair_runs_np,
)
from repro.matchers.ws import WinnowingMatcher, winnow_fingerprints, \
    winnow_fingerprints_np
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment
from repro.text import tokens as _tokens
from repro.text.regions import MatchSegment
from repro.text.span import Interval

np = _tokens.get_numpy()
needs_numpy = pytest.mark.skipif(np is None, reason="numpy not installed")


def _all_matchers():
    return [
        DNMatcher(),
        EQMatcher(),
        UDMatcher(max_d=3, kernel="force"),
        STMatcher(min_length=9, automatons=object(),
                  tokens=_tokens.TokenCache(), kernel="off"),
        RUMatcher(MatchCache()),
        WinnowingMatcher(k=6, window=4, kernel="auto"),
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
        """Caches and kernel toggles are parity-pinned — two instances
        differing only in them MUST share cached results."""
        plain = STMatcher(min_length=12, kernel="off")
        loaded = STMatcher(min_length=12, automatons=object(),
                           tokens=_tokens.TokenCache(), kernel="force")
        assert plain.config_key() == loaded.config_key()
        assert (UDMatcher(kernel="off").config_key()
                == UDMatcher(kernel="force").config_key())


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


# -- kernel / fallback parity ----------------------------------------------


@needs_numpy
class TestKgramHashes:
    def _reference(self, values, k):
        """Linear rolling recurrence the O(log k) doubling must match."""
        base = _tokens.ST_HASH_BASE
        mod = 1 << 64
        out = []
        for i in range(len(values) - k + 1):
            h = 0
            for v in values[i:i + k]:
                h = (h * base + v) % mod
            out.append(h)
        return out

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 8, 13, 32])
    def test_matches_linear_reference(self, k):
        rng = random.Random(k)
        values = [rng.randrange(1 << 20) for _ in range(50)]
        arr = np.asarray(values, dtype=np.uint64)
        got = _tokens.kgram_hashes(arr, k, np).tolist()
        assert got == self._reference(values, k)

    def test_short_input(self):
        arr = np.asarray([1, 2], dtype=np.uint64)
        assert _tokens.kgram_hashes(arr, 5, np).shape[0] == 0


def _texts_with_overlaps(rng, n_chunks=8, vocab=("alpha", "beta", "gamma",
                                                 "delta x", "epsilon yz")):
    chunks = [" ".join(rng.choices(vocab, k=rng.randrange(1, 6)))
              for _ in range(n_chunks)]
    q = "\n".join(chunks)
    order = list(range(n_chunks))
    rng.shuffle(order)
    p = "\n".join(chunks[i] + ("!" if rng.random() < 0.4 else "")
                  for i in order)
    return p, q


@needs_numpy
class TestSTKernelParity:
    def _assert_parity(self, p, q, min_length):
        slow = STMatcher(min_length=min_length, kernel="off")
        fast = STMatcher(min_length=min_length,
                         tokens=_tokens.TokenCache(), kernel="force")
        pr, qr = Interval(0, len(p)), Interval(0, len(q))
        assert fast.match(p, pr, q, qr) == slow.match(p, pr, q, qr)

    def test_randomized(self):
        rng = random.Random(11)
        for _ in range(40):
            p, q = _texts_with_overlaps(rng)
            self._assert_parity(p, q, rng.choice([4, 8, 12]))

    def test_collision_repair_path(self, monkeypatch):
        """With the k-gram hash degraded to 7 buckets, anchors are
        overwhelmingly spurious — the run-length verification repair
        must still leave byte-identical output."""
        real = _tokens.kgram_hashes
        monkeypatch.setattr(
            _tokens, "kgram_hashes",
            lambda arr, k, np_mod: real(arr, k, np_mod) % np_mod.uint64(7))
        rng = random.Random(23)
        for _ in range(20):
            p, q = _texts_with_overlaps(rng, n_chunks=5)
            self._assert_parity(p, q, 5)

    def test_kernel_subregions(self):
        text = "the quick brown fox jumps over the lazy dog" * 3
        p = text + " tail"
        self._assert_parity(p, text, 8)
        slow = STMatcher(min_length=8, kernel="off")
        fast = STMatcher(min_length=8, tokens=_tokens.TokenCache(),
                         kernel="force")
        pr, qr = Interval(5, len(p) - 7), Interval(3, len(text) - 2)
        assert (fast.match(p, pr, text, qr)
                == slow.match(p, pr, text, qr))


@needs_numpy
class TestUDKernelParity:
    def test_myers_core_np_matches_serial(self):
        rng = random.Random(5)
        for trial in range(120):
            n, m = rng.randrange(0, 40), rng.randrange(0, 40)
            sigma = rng.choice([2, 4, 9])
            a = [rng.randrange(sigma) for _ in range(n)]
            b = [rng.randrange(sigma) for _ in range(m)]
            # the cores assume no common prefix/suffix
            if a and b and a[0] == b[0]:
                b[0] = sigma
            if a and b and a[-1] == b[-1]:
                b[-1] = sigma + 1
            max_d = rng.choice([0, 0, 4, 11])
            assert (_myers_core_np(a, b, max_d, np)
                    == _myers_core(a, b, max_d)), (a, b, max_d)

    def test_myers_vector_phase_exercised(self, monkeypatch):
        """Force the serial->vector switch down so the array sweep
        (not just the serial prefix) is what's being verified."""
        monkeypatch.setattr(ud_mod, "_MYERS_SWITCH_D", 1)
        rng = random.Random(6)
        for trial in range(60):
            a = [rng.randrange(3) for _ in range(rng.randrange(0, 30))]
            b = [rng.randrange(3) for _ in range(rng.randrange(0, 30))]
            if a and b and a[0] == b[0]:
                b[0] = 3
            if a and b and a[-1] == b[-1]:
                b[-1] = 4
            assert _myers_core_np(a, b, 0, np) == _myers_core(a, b, 0)

    def test_pair_runs_np(self):
        rng = random.Random(9)
        for _ in range(30):
            pairs = []
            x = y = 0
            while len(pairs) < rng.randrange(1, 400):
                x += rng.randrange(1, 3)
                y += rng.randrange(1, 3)
                run = rng.randrange(1, 5)
                for _ in range(run):
                    pairs.append((x, y))
                    x += 1
                    y += 1
            assert _pair_runs_np(pairs, np) == _pair_runs(pairs)

    def test_matcher_parity_large_region(self):
        rng = random.Random(31)
        lines_q = [f"line {rng.randrange(40)} body" for _ in range(300)]
        lines_p = list(lines_q)
        for _ in range(30):  # edits
            lines_p[rng.randrange(len(lines_p))] = "edited"
        rng.shuffle(lines_p[:150])  # move blocks around
        p, q = "\n".join(lines_p), "\n".join(lines_q)
        pr, qr = Interval(0, len(p)), Interval(0, len(q))
        assert (UDMatcher(kernel="force").match(p, pr, q, qr)
                == UDMatcher(kernel="off").match(p, pr, q, qr))


@needs_numpy
class TestWSKernelParity:
    @pytest.mark.parametrize("k,window", [(4, 3), (12, 8), (6, 1)])
    def test_winnow_parity(self, k, window):
        rng = random.Random(k * 100 + window)
        for _ in range(25):
            text, _ = _texts_with_overlaps(rng, n_chunks=4)
            assert (winnow_fingerprints_np(text, k, window, np)
                    == winnow_fingerprints(text, k, window))

    def test_matcher_parity(self):
        rng = random.Random(41)
        for _ in range(20):
            p, q = _texts_with_overlaps(rng)
            pr, qr = Interval(0, len(p)), Interval(0, len(q))
            assert (WinnowingMatcher(kernel="force").match(p, pr, q, qr)
                    == WinnowingMatcher(kernel="off").match(p, pr, q, qr))


# -- self-match: the identity short circuit's precondition -----------------


def _self_matchers(min_length, kernel):
    tokens = _tokens.TokenCache() if np is not None else None
    return (UDMatcher(kernel=kernel),
            STMatcher(min_length=min_length, tokens=tokens, kernel=kernel))


@settings(max_examples=150, deadline=None)
@given(text=st.text("ab \n#", min_size=1, max_size=160), data=st.data(),
       min_length=st.integers(min_value=1, max_value=16),
       kernel=st.sampled_from(["off", "force"]))
def test_self_match_is_one_full_region_segment(text, data, min_length,
                                               kernel):
    """UD (any non-empty region) and ST (regions of at least
    ``min_length``) matched against the very same region return exactly
    the one full-region segment — the segment the engine's identity
    path records for RU units instead of running the matcher."""
    start = data.draw(st.integers(min_value=0, max_value=len(text) - 1))
    end = data.draw(st.integers(min_value=start + 1, max_value=len(text)))
    region = Interval(start, end)
    full = [MatchSegment(start, start, end - start)]
    ud, st_matcher = _self_matchers(min_length, kernel)
    assert ud.match(text, region, text, region) == full
    assert (ud.match_many(text, region, text, {7: region})
            == [MatchSegment(start, start, end - start, 7)])
    if end - start >= min_length:
        assert st_matcher.match(text, region, text, region) == full


@pytest.mark.parametrize("kernel", ["off", "force"])
def test_self_match_long_regions(kernel):
    """The same precondition on inputs the property rarely draws: a
    run of one character (ST's anchor-pair cap falls back to the
    automaton) and hundreds of lines (UD's vectorized run detection)."""
    for text in ("a" * 3000, "\n".join(f"line {i % 7}" for i in range(400))):
        region = Interval(0, len(text))
        for matcher in _self_matchers(12, kernel):
            assert (matcher.match(text, region, text, region)
                    == [MatchSegment(0, 0, len(text))])


@pytest.mark.parametrize("kernel", ["off", "force"])
def test_ws_self_match_reports_internal_repeats(kernel):
    """Why WS producers keep the slow path in plans with RU units: on
    an identical region WS also pairs repeated k-grams, so what it
    records is not the single full-region segment."""
    text = "abcdefghijklmnop" * 3
    region = Interval(0, len(text))
    assert (WinnowingMatcher(kernel=kernel).match(text, region, text, region)
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


# -- whole-system byte-identity with numpy masked off ----------------------


@needs_numpy
@pytest.mark.parametrize("matcher", [ST_NAME, "UD"])
def test_system_results_identical_without_numpy(tmp_path, matcher):
    """A fast-paths-on Delex series must produce identical extraction
    results whether the vectorized kernels run or the pure fallbacks
    do (the no-numpy deployment axis)."""
    task = make_task("chair", work_scale=0.2)
    snapshots = list(dblife_corpus(n_pages=10, seed=55,
                                   p_unchanged=0.6).snapshots(3))
    plan = compile_program(task.program, task.registry)
    assignment = PlanAssignment.uniform(find_units(plan), matcher)
    series = {}
    try:
        for flag, enabled in (("np", True), ("pure", False)):
            _tokens.set_numpy_enabled(enabled)
            system = make_system("delex", task,
                                 str(tmp_path / f"{matcher}_{flag}"),
                                 fastpath="on",
                                 fixed_assignment=assignment)
            prev = None
            outs = []
            for snap in snapshots:
                outs.append(canonical_results(system.process(snap, prev)))
                prev = snap
            series[flag] = outs
    finally:
        _tokens.set_numpy_enabled(None)
    assert series["np"] == series["pure"]
