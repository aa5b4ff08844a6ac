"""The RU matcher: recycle matching work across IE units.

While an execution tree runs on a page pair, every segment found by an
ST or UD matcher is recorded in the page pair's
:class:`~repro.matchers.base.MatchCache`. When a later IE unit must
match a region R' of p against a region S' of q, RU simply intersects
the recorded segments with R' (p side) and S' (q side) — no text is
scanned at all. Since IE units higher in the tree match successively
smaller regions carved out of regions lower units already matched, RU
usually recovers everything an expensive matcher would find, at
negligible cost (Section 5.4).

RU with an empty cache behaves exactly like DN.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..text.regions import MatchSegment
from ..text.span import Interval
from .base import RU_NAME, MatchCache, Matcher


class RUMatcher(Matcher):
    """Intersects previously recorded match segments with new regions."""

    name = RU_NAME

    def __init__(self, cache: MatchCache) -> None:
        self.cache = cache

    def match(self, p_text: str, p_region: Interval,
              q_text: str, q_region: Interval) -> List[MatchSegment]:
        out: List[MatchSegment] = []
        for seg in self.cache.segments:
            trimmed = seg.trim_to_p(p_region)
            if trimmed is None:
                continue
            trimmed = trimmed.trim_to_q(q_region)
            if trimmed is None:
                continue
            out.append(trimmed)
        return out

    def match_many(self, p_text: str, p_region: Interval, q_text: str,
                   candidates: Dict[int, Interval]) -> List[MatchSegment]:
        """Trim the p side once per region, then fan out over the
        candidates' q sides — the hot path when an upper IE unit
        matches many small regions against many recorded regions."""
        p_trimmed = [
            seg for seg in
            (s.trim_to_p(p_region) for s in self.cache.segments)
            if seg is not None
        ]
        if not p_trimmed:
            return []
        out: List[MatchSegment] = []
        for itid, q_region in candidates.items():
            q_start, q_end = q_region.start, q_region.end
            for seg in p_trimmed:
                # Cheap reject before constructing trimmed segments.
                if seg.q_start >= q_end or seg.q_start + seg.length <= q_start:
                    continue
                trimmed = seg.trim_to_q(q_region)
                if trimmed is not None:
                    out.append(replace(trimmed, q_itid=itid))
        return out
