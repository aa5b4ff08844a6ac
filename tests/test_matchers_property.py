"""Property tests: ST and WS matchers vs brute-force references.

The ST matcher's contract is exact: streaming the p-region through a
suffix automaton of the q-region yields the *matching statistics*
profile L[i] (the longest substring of q ending at each p position),
and its segments are precisely the local maxima of that profile with
``L >= min_length``. The brute-force reference here recomputes L by
O(n^2) substring search and re-derives the peak set independently, so
any automaton bug (clone bookkeeping, link walks, first-occurrence end
positions) shows up as a set mismatch on some small-alphabet input —
exactly the regime where suffix structures are thick with clones.

WS (winnowing) is deliberately lossy, so exact parity is the wrong
spec; its reference properties are soundness and maximality against a
brute-force enumeration of all maximal equal runs: every WS segment
must *be* one of the reference runs (same start, same shift, same
maximal length), and byte-identical regions must yield the full-region
run (the property the reuse engine's wholesale-copy path leans on).
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.matchers.st import STMatcher, SuffixAutomaton  # noqa: E402
from repro.matchers.ws import WinnowingMatcher  # noqa: E402
from repro.text.span import Interval  # noqa: E402

#: Small alphabets maximize repeated substrings (the hard case for
#: suffix automata) while keeping the brute-force references fast.
SMALL = st.text(alphabet="ab", max_size=32)
SMALLER = st.text(alphabet="abc", max_size=24)
#: Padding from a disjoint alphabet, so region arithmetic is exercised
#: without accidentally extending matches across region edges.
PAD = st.text(alphabet="xyz", max_size=5)

COMMON = settings(deadline=None, max_examples=150)


# -- brute-force references -------------------------------------------------

def matching_statistics(p: str, q: str) -> list:
    """L[i] = length of the longest suffix of p[:i+1] occurring in q."""
    stats = []
    for i in range(len(p)):
        best = 0
        for length in range(min(i + 1, len(q)), 0, -1):
            if p[i - length + 1:i + 1] in q:
                best = length
                break
        stats.append(best)
    return stats


def reference_peaks(p: str, q: str, min_length: int) -> set:
    """The (p_end, length) local maxima of the matching statistics."""
    stats = matching_statistics(p, q)
    peaks = set()
    for i, length in enumerate(stats):
        if length < min_length:
            continue
        if i + 1 == len(stats) or stats[i + 1] != length + 1:
            peaks.add((i, length))
    return peaks


def maximal_runs(p: str, q: str, min_length: int) -> set:
    """All maximal equal runs, as (p_start, q_start, length) triples."""
    runs = set()
    for shift in range(-len(q) + 1, len(p)):
        i = max(0, shift)
        while i < len(p):
            j = i - shift
            if 0 <= j < len(q) and p[i] == q[j]:
                start = i
                while i < len(p) and i - shift < len(q) \
                        and p[i] == q[i - shift]:
                    i += 1
                if i - start >= min_length:
                    runs.add((start, start - shift, i - start))
            else:
                i += 1
    return runs


# -- ST ---------------------------------------------------------------------

@COMMON
@given(p=SMALL, q=SMALL, pad_p=PAD, pad_q=PAD,
       min_length=st.integers(min_value=1, max_value=6))
def test_st_peak_parity_with_brute_force(p, q, pad_p, pad_q, min_length):
    """ST's segment set == the brute-force matching-statistics peaks."""
    p_text = pad_p + p
    q_text = pad_q + q
    p_region = Interval(len(pad_p), len(p_text))
    q_region = Interval(len(pad_q), len(q_text))
    segments = STMatcher(min_length=min_length).match(
        p_text, p_region, q_text, q_region)
    got = {(seg.p_start - p_region.start + seg.length - 1, seg.length)
           for seg in segments}
    assert got == reference_peaks(p, q, min_length)
    for seg in segments:
        # Witness: the claimed q occurrence is literal text equality,
        # inside the q region.
        assert q_region.start <= seg.q_start
        assert seg.q_start + seg.length <= q_region.end
        assert (p_text[seg.p_start:seg.p_start + seg.length]
                == q_text[seg.q_start:seg.q_start + seg.length])


@COMMON
@given(p=SMALLER, q=SMALLER,
       floor=st.integers(min_value=1, max_value=8))
def test_st_length_floor(p, q, floor):
    """Raising min_length keeps exactly the peaks at or above it."""
    whole_p = Interval(0, len(p))
    whole_q = Interval(0, len(q))
    base = STMatcher(min_length=1).match(p, whole_p, q, whole_q)
    floored = STMatcher(min_length=floor).match(p, whole_p, q, whole_q)
    assert {(s.p_start, s.length) for s in floored} \
        == {(s.p_start, s.length) for s in base if s.length >= floor}
    assert all(s.length >= floor for s in floored)


@COMMON
@given(q=SMALL)
def test_st_first_end_is_a_real_occurrence(q):
    """Every automaton state's first_end is an occurrence end of every
    string the state represents (checked via the matcher on p == q)."""
    if not q:
        return
    sam = SuffixAutomaton(q)
    for state in range(1, len(sam.length)):
        end = sam.first_end[state]
        assert 0 <= end < len(q)
        # The state's longest string ends at first_end.
        length = sam.length[state]
        assert length <= end + 1


# -- WS ---------------------------------------------------------------------

@COMMON
@given(p=SMALL, q=SMALL, pad_p=PAD, pad_q=PAD)
def test_ws_segments_are_reference_maximal_runs(p, q, pad_p, pad_q):
    """Every WS segment equals a brute-force maximal equal run —
    soundness (literal equality) and maximality (inextensible) in one
    assertion, since the reference set contains only maximal runs."""
    k = 3
    p_text = pad_p + p
    q_text = pad_q + q
    p_region = Interval(len(pad_p), len(p_text))
    q_region = Interval(len(pad_q), len(q_text))
    matcher = WinnowingMatcher(k=k, window=2)
    segments = matcher.match(p_text, p_region, q_text, q_region)
    reference = maximal_runs(p, q, k)
    for seg in segments:
        rel = (seg.p_start - p_region.start,
               seg.q_start - q_region.start, seg.length)
        assert rel in reference, (rel, reference)


@COMMON
@given(body=st.text(alphabet="abc", min_size=3, max_size=40), pad=PAD)
def test_ws_identical_regions_yield_full_region_segment(body, pad):
    """Byte-identical regions must produce the whole-region run (what
    makes a fully unchanged input region wholesale-copyable)."""
    p_text = pad + body
    q_text = body
    p_region = Interval(len(pad), len(p_text))
    q_region = Interval(0, len(q_text))
    matcher = WinnowingMatcher(k=3, window=2)
    segments = matcher.match(p_text, p_region, q_text, q_region)
    assert any(seg.p_start == p_region.start
               and seg.q_start == q_region.start
               and seg.length == len(body) for seg in segments)


@COMMON
@given(p=SMALL, q=SMALL)
def test_ws_never_reports_below_k(p, q):
    matcher = WinnowingMatcher(k=4, window=3)
    segments = matcher.match(p, Interval(0, len(p)),
                             q, Interval(0, len(q)))
    assert all(seg.length >= 4 for seg in segments)
