"""The matcher entry point of the reuse engine.

Every matcher call of :class:`~repro.reuse.engine.PageEvaluator` goes
through :meth:`MatchMemo.match_many`, which runs the matcher and counts
the ST and UD candidates it matched. A region whose text the unit
already recorded on the previous page never gets here: the engine
replays it first (:mod:`repro.reuse.replay`). The class keeps its name
because tools that time the matcher layer wrap this method by name.

The memo keeps no results: nothing it computes outlives the call, so
no match result is carried across candidates, page pairs or snapshots.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..matchers.base import ST_NAME, UD_NAME, Matcher
from ..text.regions import MatchSegment
from ..text.span import Interval
from .stats import FastPathStats


class MatchMemo:
    """One page pair's matcher calls and their accounting.

    Each ST or UD candidate counts once in ``stats`` as a
    ``memo_miss``: a candidate region the matcher ran on.
    """

    def __init__(self, stats: Optional[FastPathStats] = None) -> None:
        self.stats = stats if stats is not None else FastPathStats()

    def match_many(self, matcher: Matcher, p_text: str,
                   p_region: Interval, q_text: str,
                   candidates: Dict[int, Interval]) -> List[MatchSegment]:
        """:meth:`Matcher.match_many`, counted."""
        if matcher.name in (ST_NAME, UD_NAME):
            self.stats.memo_misses += len(candidates)
        return matcher.match_many(p_text, p_region, q_text, candidates)
