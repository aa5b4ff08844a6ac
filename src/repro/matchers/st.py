"""The ST matcher: suffix-structure matching that finds moved text.

The paper's ST matcher is suffix-tree based and finds *all* matching
regions in time linear in the two region lengths. We implement the
equivalent with a suffix automaton of the q-region: streaming the
p-region through the automaton yields, for every position of p, the
longest substring ending there that occurs anywhere in q (plus one of
its q end positions). Local maxima of that profile become candidate
match segments — including text blocks that moved, which the
diff-based UD matcher cannot see. It is the most complete matcher and
also the most expensive one, exactly the trade-off the optimizer
weighs.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from ..text.regions import MatchSegment
from ..text.span import Interval
from .base import ST_NAME, Matcher


class SuffixAutomaton:
    """Suffix automaton with first-occurrence end positions."""

    __slots__ = ("next", "link", "length", "first_end", "last")

    def __init__(self, text: str) -> None:
        self.next: List[Dict[str, int]] = [{}]
        self.link: List[int] = [-1]
        self.length: List[int] = [0]
        self.first_end: List[int] = [-1]
        self.last = 0
        for i, ch in enumerate(text):
            self._extend(ch, i)

    def _new_state(self, length: int, first_end: int) -> int:
        self.next.append({})
        self.link.append(-1)
        self.length.append(length)
        self.first_end.append(first_end)
        return len(self.next) - 1

    def _extend(self, ch: str, pos: int) -> None:
        cur = self._new_state(self.length[self.last] + 1, pos)
        p = self.last
        while p != -1 and ch not in self.next[p]:
            self.next[p][ch] = cur
            p = self.link[p]
        if p == -1:
            self.link[cur] = 0
        else:
            q = self.next[p][ch]
            if self.length[p] + 1 == self.length[q]:
                self.link[cur] = q
            else:
                clone = self._new_state(self.length[p] + 1,
                                        self.first_end[q])
                self.next[clone] = dict(self.next[q])
                self.link[clone] = self.link[q]
                while p != -1 and self.next[p].get(ch) == q:
                    self.next[p][ch] = clone
                    p = self.link[p]
                self.link[q] = clone
                self.link[cur] = clone
        self.last = cur


def probe_peaks(sam: SuffixAutomaton, p_body: str,
                min_length: int) -> Iterator[Tuple[int, int, int]]:
    """Stream ``p_body`` through ``sam`` and yield the match-profile
    peaks.

    Yields ``(p_end_rel, length, state)`` for every local maximum of
    the longest-match profile with ``length >= min_length``.
    """
    state = 0
    length = 0
    nxt = sam.next
    link = sam.link
    lengths = sam.length
    prev_len = 0
    for i, ch in enumerate(p_body):
        if ch in nxt[state]:
            state = nxt[state][ch]
            length += 1
        else:
            # The peak that just ended at i - 1.
            if prev_len >= min_length:
                yield (i - 1, prev_len, state)
            while state != -1 and ch not in nxt[state]:
                state = link[state]
            if state == -1:
                state = 0
                length = 0
            else:
                length = lengths[state] + 1
                state = nxt[state][ch]
        prev_len = length
    if prev_len >= min_length:
        yield (len(p_body) - 1, prev_len, state)


class STMatcher(Matcher):
    """All-maximal-common-substring matcher via a suffix automaton.

    ``min_length`` suppresses matches too short to enable any reuse
    (a match shorter than ``2β + 1`` has an empty copy zone for every
    unit); the engine picks it per unit from the unit's β.

    Each call builds the automaton of its q-region; no automaton is
    kept between calls. With the fast paths on, the engine replays a
    region whose text the unit recorded without calling any matcher
    (:mod:`repro.reuse.replay`).
    """

    name = ST_NAME

    def __init__(self, min_length: int = 12) -> None:
        if min_length < 1:
            raise ValueError("min_length must be >= 1")
        self.min_length = min_length

    def match(self, p_text: str, p_region: Interval,
              q_text: str, q_region: Interval) -> List[MatchSegment]:
        p_len = p_region.end - p_region.start
        q_len = q_region.end - q_region.start
        if p_len <= 0 or q_len <= 0:
            return []
        sam = SuffixAutomaton(q_text[q_region.start:q_region.end])
        p_body = p_text[p_region.start:p_region.end]
        first_end = sam.first_end
        segments: List[MatchSegment] = []
        for p_end_rel, length, state in probe_peaks(sam, p_body,
                                                    self.min_length):
            p_start = p_region.start + p_end_rel - length + 1
            q_start = q_region.start + first_end[state] - length + 1
            segments.append(MatchSegment(p_start, q_start, length))
        return segments
