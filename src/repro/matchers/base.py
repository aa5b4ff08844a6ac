"""Matcher interface and the shared match cache.

A matcher finds equal-text segments between a region of the current
page ``p`` and one recorded input region of the previous page ``q``.
All coordinates are absolute page offsets.

The :class:`MatchCache` implements the bookkeeping behind the RU
matcher (Section 5.4): every segment found by an ST or UD matcher while
processing a page pair is recorded, so later IE units can recycle the
matching work instead of re-matching.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, List

from ..obs import trace as _otrace
from ..text.regions import MatchSegment
from ..text.span import Interval

DN_NAME = "DN"
UD_NAME = "UD"
ST_NAME = "ST"
RU_NAME = "RU"

MATCHER_NAMES = (DN_NAME, UD_NAME, ST_NAME, RU_NAME)


class Matcher(ABC):
    """Finds overlapping regions between two page regions."""

    name: str = "?"

    @abstractmethod
    def match(self, p_text: str, p_region: Interval,
              q_text: str, q_region: Interval) -> List[MatchSegment]:
        """Equal-text segments between ``p_region`` and ``q_region``.

        Every returned segment must lie inside both regions and witness
        actual text equality. ``q_itid`` tagging is the caller's job.
        """

    def match_many(self, p_text: str, p_region: Interval, q_text: str,
                   candidates: Dict[int, Interval]) -> List[MatchSegment]:
        """Match one p region against many recorded q regions.

        Returns segments tagged with each candidate's itid. The default
        loops over :meth:`match`; matchers with shareable per-region
        work (RU) override this.
        """
        out: List[MatchSegment] = []
        for itid, q_region in candidates.items():
            for seg in self.match(p_text, p_region, q_text, q_region):
                out.append(replace(seg, q_itid=itid))
        if _otrace.ENABLED:  # one module-attribute check when tracing off
            _otrace.annotate(f"segments_{self.name}", len(out))
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class MatchCache:
    """Per-page-pair record of all segments found by ST/UD matchers.

    The paper's RU matcher keeps triples (R, S, O); since our segments
    already carry both sides' coordinates, a flat segment list is the
    same information.
    """

    def __init__(self) -> None:
        self._segments: List[MatchSegment] = []

    def record(self, segments: List[MatchSegment]) -> None:
        self._segments.extend(segments)

    @property
    def segments(self) -> List[MatchSegment]:
        return self._segments

    def clear(self) -> None:
        self._segments.clear()

    def __len__(self) -> int:
        return len(self._segments)
