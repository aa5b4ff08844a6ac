"""The equal-region shortcut in front of the ST and UD matchers.

ST and UD are pure functions of two regions, and on two regions with
equal text each provably returns one segment spanning the whole region:
ST's match profile over identical bodies rises by one per position and
leaves a single peak (kept if it clears ``min_length``), and UD aligns
every line. :class:`MatchMemo` answers such a pair in O(1) after an
exact slice compare, without running the matcher, and calls the matcher
for every other pair. WS is excluded: repeated k-grams can make it emit
extra shifted segments even for identical regions. RU's result depends
on the page pair's mutable :class:`~repro.matchers.base.MatchCache` and
DN never matches, so both always delegate.

The memo keeps no results: nothing it computes outlives the call, so
no match result is carried across candidates, page pairs or snapshots.
With ``--check`` enabled every shortcut answer is re-verified to
witness text equality inside its regions.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..check import invariants as _inv
from ..matchers.base import ST_NAME, UD_NAME, Matcher
from ..text.regions import MatchSegment
from ..text.span import Interval
from .stats import FastPathStats

#: Matchers whose answer on two equal regions is known without running
#: them.
SHORTCUT = (ST_NAME, UD_NAME)


class MatchMemo:
    """The equal-region shortcut for one page pair's matcher calls.

    Each candidate counts once in ``stats``: a ``region_short_circuit``
    when its text equals the p-region's, a ``memo_miss`` when the
    matcher has to run.
    """

    def __init__(self, stats: Optional[FastPathStats] = None) -> None:
        self.stats = stats if stats is not None else FastPathStats()

    def match_many(self, matcher: Matcher, p_text: str,
                   p_region: Interval, q_text: str,
                   candidates: Dict[int, Interval]) -> List[MatchSegment]:
        """Equivalent of :meth:`Matcher.match_many`.

        Iterates candidates in the caller's order and tags segments
        with each candidate's itid, exactly like the default
        ``match_many`` loop — so routing through the memo is
        observationally identical to calling the matcher directly.
        """
        if matcher.name not in SHORTCUT:
            return matcher.match_many(p_text, p_region, q_text, candidates)
        p_start = p_region.start
        length = p_region.end - p_start
        # What the matcher returns on equal text: the full-region
        # segment, or nothing for an empty (UD) or short (ST) region.
        full = length >= (matcher.min_length if matcher.name == ST_NAME
                          else 1)
        p_body: Optional[str] = None
        stats = self.stats
        out: List[MatchSegment] = []
        for itid, q_region in candidates.items():
            q_start = q_region.start
            if q_region.end - q_start == length:
                if p_body is None:
                    p_body = p_text[p_start:p_region.end]
                if q_text.startswith(p_body, q_start):
                    stats.region_short_circuits += 1
                    if full:
                        segment = MatchSegment(p_start, q_start, length,
                                               q_itid=itid)
                        if _inv.ENABLED:
                            _inv.check_memo_replay([segment], p_text,
                                                   q_text, p_region,
                                                   q_region)
                        out.append(segment)
                    continue
            stats.memo_misses += 1
            for seg in matcher.match(p_text, p_region, q_text, q_region):
                out.append(MatchSegment(seg.p_start, seg.q_start,
                                        seg.length, q_itid=itid))
        return out
