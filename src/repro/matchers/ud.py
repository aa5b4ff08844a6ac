"""The UD matcher: a Unix-diff-style matcher (Myers' O(ND) algorithm).

UD diffs the two regions line by line with Myers' greedy O(ND)
algorithm [Myers 1986], converts runs of equal lines to character
segments, and greedily extends each segment character-wise. Like the
Unix ``diff`` it emulates, it is fast (linear in practice) but finds
only *aligned* overlaps — it misses moved blocks, which the ST matcher
catches.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..text.regions import MatchSegment
from ..text.span import Interval
from .base import UD_NAME, Matcher


def _split_lines(text: str, region: Interval) -> Tuple[List[str], List[int]]:
    """Lines of a region plus each line's absolute start offset."""
    body = text[region.start:region.end]
    lines = body.split("\n")
    offsets: List[int] = []
    pos = region.start
    for line in lines:
        offsets.append(pos)
        pos += len(line) + 1
    return lines, offsets


def myers_lcs_pairs(a: Sequence, b: Sequence,
                    max_d: int = 0) -> List[Tuple[int, int]]:
    """Matched index pairs of an LCS of ``a`` and ``b`` (Myers O(ND)).

    The common prefix and suffix are stripped before the O(ND) search
    — the classic diff shrink: real diffs of evolving pages touch a
    few lines in the middle, so the quadratic part runs on a fraction
    of the input. The prefix/suffix lines are always part of *an* LCS,
    so the result length is still optimal (tie-breaks among equal-size
    LCSs may differ from an untrimmed run, which is why the trim is
    unconditional rather than flag-gated: every caller sees the same
    alignment).

    ``max_d`` caps the edit distance explored; 0 means unlimited. When
    the cap is hit the common prefix/suffix alone is returned —
    trading completeness for time exactly like a real diff tool under
    pressure.
    """
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        return []
    pre = 0
    while pre < n and pre < m and a[pre] == b[pre]:
        pre += 1
    suf = 0
    while (suf < n - pre and suf < m - pre
           and a[n - 1 - suf] == b[m - 1 - suf]):
        suf += 1
    pairs: List[Tuple[int, int]] = [(i, i) for i in range(pre)]
    mid_a, mid_b = a[pre:n - suf], b[pre:m - suf]
    if mid_a and mid_b:
        pairs.extend((x + pre, y + pre)
                     for x, y in _myers_core(mid_a, mid_b, max_d))
    pairs.extend((n - suf + t, m - suf + t) for t in range(suf))
    return pairs


def _myers_core(a: Sequence, b: Sequence,
                max_d: int) -> List[Tuple[int, int]]:
    """The O(ND) search proper, on sequences with no common prefix or
    suffix (``myers_lcs_pairs`` guarantees that)."""
    n, m = len(a), len(b)
    limit = max_d if max_d > 0 else n + m
    # v[k] = furthest x reached on diagonal k; trace snapshots v at the
    # start of each d round so the path can be reconstructed.
    v = {1: 0}
    trace: List[dict] = []
    found_d = -1
    for d in range(limit + 1):
        trace.append(dict(v))
        for k in range(-d, d + 1, 2):
            if k == -d or (k != d and v[k - 1] < v[k + 1]):
                x = v[k + 1]
            else:
                x = v[k - 1] + 1
            y = x - k
            while x < n and y < m and a[x] == b[y]:
                x += 1
                y += 1
            v[k] = x
            if x >= n and y >= m:
                found_d = d
                break
        if found_d >= 0:
            break
    if found_d < 0:
        return _prefix_suffix_pairs(a, b)
    # Backtrack through the trace collecting snake (equal-run) moves.
    pairs: List[Tuple[int, int]] = []
    x, y = n, m
    for d in range(found_d, -1, -1):
        v_prev = trace[d]
        k = x - y
        if k == -d or (k != d and v_prev[k - 1] < v_prev[k + 1]):
            prev_k = k + 1
        else:
            prev_k = k - 1
        prev_x = v_prev[prev_k]
        prev_y = prev_x - prev_k
        while x > prev_x and y > prev_y:
            x -= 1
            y -= 1
            pairs.append((x, y))
        if d > 0:
            x, y = prev_x, prev_y
    pairs.reverse()
    return pairs


def _prefix_suffix_pairs(a: Sequence,
                         b: Sequence) -> List[Tuple[int, int]]:
    """Common-prefix plus common-suffix pairs (the capped-``max_d``
    fallback), guaranteed monotone and non-overlapping.

    The suffix walk is explicitly capped at ``min(len) - prefix`` so
    it can never reclaim an index the prefix walk already claimed (in
    either sequence) — without the cap, inputs like ``aa`` vs ``a``
    would pair the same element twice and emit crossing pairs. Every
    suffix index is therefore >= the prefix length in both
    coordinates, which makes the concatenation strictly increasing in
    both coordinates with no sort needed.
    """
    pairs: List[Tuple[int, int]] = []
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        pairs.append((i, i))
        i += 1
    j = 0
    max_j = min(len(a), len(b)) - i  # hard bound: stay clear of the prefix
    while j < max_j and a[len(a) - 1 - j] == b[len(b) - 1 - j]:
        j += 1
    pairs.extend((len(a) - j + t, len(b) - j + t) for t in range(j))
    return pairs


def _pair_runs(pairs: List[Tuple[int, int]]
               ) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """Maximal runs of diagonally consecutive pairs, as
    (first pair, last pair)."""
    runs: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    run_start = None
    prev = None
    for pi, qi in pairs + [(-2, -2)]:
        if prev is not None and (pi, qi) == (prev[0] + 1, prev[1] + 1):
            prev = (pi, qi)
            continue
        if run_start is not None:
            runs.append((run_start, prev))
        run_start = (pi, qi) if pi >= 0 else None
        prev = (pi, qi) if pi >= 0 else None
    return runs


class UDMatcher(Matcher):
    """Line-level Myers diff converted to character match segments."""

    name = UD_NAME

    def __init__(self, max_d: int = 0) -> None:
        self.max_d = max_d

    def match(self, p_text: str, p_region: Interval,
              q_text: str, q_region: Interval) -> List[MatchSegment]:
        p_lines, p_offsets = _split_lines(p_text, p_region)
        q_lines, q_offsets = _split_lines(q_text, q_region)
        pairs = myers_lcs_pairs(p_lines, q_lines, self.max_d)
        segments = [
            self._run_to_segment(start, end, p_lines, p_offsets,
                                 q_lines, q_offsets)
            for start, end in _pair_runs(pairs)
        ]
        return [self._extend(s, p_text, p_region, q_text, q_region)
                for s in segments if s.length > 0]

    @staticmethod
    def _run_to_segment(start: Tuple[int, int], end: Tuple[int, int],
                        p_lines: List[str], p_offsets: List[int],
                        q_lines: List[str],
                        q_offsets: List[int]) -> MatchSegment:
        p_start = p_offsets[start[0]]
        q_start = q_offsets[start[1]]
        p_end = p_offsets[end[0]] + len(p_lines[end[0]])
        return MatchSegment(p_start, q_start, p_end - p_start)

    @staticmethod
    def _extend(seg: MatchSegment, p_text: str, p_region: Interval,
                q_text: str, q_region: Interval) -> MatchSegment:
        """Grow a segment character-wise while text stays equal."""
        ps, qs, length = seg.p_start, seg.q_start, seg.length
        while (ps > p_region.start and qs > q_region.start
               and p_text[ps - 1] == q_text[qs - 1]):
            ps -= 1
            qs -= 1
            length += 1
        while (ps + length < p_region.end and qs + length < q_region.end
               and p_text[ps + length] == q_text[qs + length]):
            length += 1
        return MatchSegment(ps, qs, length)
