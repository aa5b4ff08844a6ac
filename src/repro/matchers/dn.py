"""The DN ("do nothing") and EQ ("equal or nothing") matchers.

DN declares the two regions share nothing, at zero cost. Assigning DN
to an IE unit amounts to running that unit from scratch — which the
optimizer will happily do when matching would cost more than the
extraction it saves.

EQ recognises only identical regions: the whole region is one segment
when the two texts are equal, and nothing is shared otherwise. It is
the Shortcut baseline's matcher and, like WS, outside the optimizer's
plan space (:data:`~repro.matchers.base.MATCHER_NAMES`).
"""

from __future__ import annotations

from typing import List

from ..text.regions import MatchSegment
from ..text.span import Interval
from .base import DN_NAME, Matcher

EQ_NAME = "EQ"


class DNMatcher(Matcher):
    """Always reports no overlap."""

    name = DN_NAME

    def match(self, p_text: str, p_region: Interval,
              q_text: str, q_region: Interval) -> List[MatchSegment]:
        return []


class EQMatcher(Matcher):
    """One full-region segment when the region texts are equal."""

    name = EQ_NAME

    def match(self, p_text: str, p_region: Interval,
              q_text: str, q_region: Interval) -> List[MatchSegment]:
        if (p_text[p_region.start:p_region.end]
                != q_text[q_region.start:q_region.end]):
            return []
        return [MatchSegment(p_region.start, q_region.start, len(p_region))]
