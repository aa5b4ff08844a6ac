"""WS: a winnowing-fingerprint matcher (pluggable extra matcher).

The paper notes more matchers can be plugged in as they become
available; WS demonstrates the interface with a classic third design
point between UD and ST:

* UD (diff) — fast, aligned overlaps only;
* ST (suffix automaton) — complete, including moves, but builds a
  structure over the q region per call;
* WS (winnowing, Schleimer et al. 2003) — fingerprint both regions
  with the k-gram/window winnowing scheme, join fingerprints, and
  extend each anchor to a maximal equal segment. Finds moved blocks
  like ST at near-diff cost, but can miss overlaps shorter than the
  fingerprint window.

WS is not part of the default optimizer plan space (which stays the
paper's {DN, UD, ST, RU}); it is available to explicit
:class:`~repro.reuse.engine.PlanAssignment`s and to the matcher
trade-off benchmark.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Tuple

from ..text.regions import MatchSegment
from ..text.span import Interval
from .base import Matcher

WS_NAME = "WS"


def winnow_fingerprints(text: str, k: int, window: int
                        ) -> Dict[int, List[int]]:
    """Winnowing: the minimal k-gram hash of every ``window``-sized
    hash window, mapped to its k-gram start positions."""
    n = len(text)
    if n < k:
        return {}
    encoded = text.encode("utf-8", "ignore")
    if len(encoded) < k:
        return {}
    hashes = [zlib.crc32(encoded[i:i + k])
              for i in range(len(encoded) - k + 1)]
    out: Dict[int, List[int]] = {}
    last_pick = -1
    for w_start in range(0, max(1, len(hashes) - window + 1)):
        w_end = min(len(hashes), w_start + window)
        best = w_start
        for i in range(w_start, w_end):
            if hashes[i] <= hashes[best]:
                best = i
        if best != last_pick:
            out.setdefault(hashes[best], []).append(best)
            last_pick = best
    return out


class WinnowingMatcher(Matcher):
    """Fingerprint-anchored maximal-segment matcher."""

    name = WS_NAME
    CONFIG_ATTRS = ("k", "window", "max_anchors")

    def __init__(self, k: int = 12, window: int = 8,
                 max_anchors_per_hash: int = 4) -> None:
        if k < 2 or window < 1:
            raise ValueError("need k >= 2 and window >= 1")
        self.k = k
        self.window = window
        self.max_anchors = max_anchors_per_hash

    def match(self, p_text: str, p_region: Interval,
              q_text: str, q_region: Interval) -> List[MatchSegment]:
        p_body = p_text[p_region.start:p_region.end]
        q_body = q_text[q_region.start:q_region.end]
        if not p_body or not q_body:
            return []
        q_prints = winnow_fingerprints(q_body, self.k, self.window)
        if not q_prints:
            return []
        p_prints = winnow_fingerprints(p_body, self.k, self.window)
        segments: List[MatchSegment] = []
        claimed: Dict[int, List[Tuple[int, int]]] = {}
        for h, p_positions in p_prints.items():
            q_positions = q_prints.get(h)
            if not q_positions:
                continue
            for p_pos in p_positions[:self.max_anchors]:
                for q_pos in q_positions[:self.max_anchors]:
                    shift = p_pos - q_pos
                    if self._already_claimed(claimed, shift, p_pos):
                        continue
                    seg = self._extend(p_body, q_body, p_pos, q_pos)
                    if seg is None:
                        continue
                    claimed.setdefault(shift, []).append(
                        (seg[0], seg[0] + seg[2]))
                    segments.append(MatchSegment(
                        p_region.start + seg[0],
                        q_region.start + seg[1], seg[2]))
        return segments

    @staticmethod
    def _already_claimed(claimed: Dict[int, List[Tuple[int, int]]],
                         shift: int, p_pos: int) -> bool:
        for start, end in claimed.get(shift, ()):
            if start <= p_pos < end:
                return True
        return False

    def _extend(self, p_body: str, q_body: str, p_pos: int,
                q_pos: int) -> "Tuple[int, int, int] | None":
        """Maximal equal run around an anchor (relative coords)."""
        if p_body[p_pos] != q_body[q_pos]:
            return None
        start_p, start_q = p_pos, q_pos
        while (start_p > 0 and start_q > 0
               and p_body[start_p - 1] == q_body[start_q - 1]):
            start_p -= 1
            start_q -= 1
        end_p, end_q = p_pos, q_pos
        limit_p, limit_q = len(p_body), len(q_body)
        while (end_p < limit_p and end_q < limit_q
               and p_body[end_p] == q_body[end_q]):
            end_p += 1
            end_q += 1
        length = end_p - start_p
        if length < self.k:
            return None
        return (start_p, start_q, length)
