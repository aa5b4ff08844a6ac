"""Content-keyed match memoization and suffix-automaton reuse.

:class:`MatchMemo` memoizes whole matcher calls in one
:class:`~repro.fastpath.matchcache.CrossSnapshotMatchCache`. Its key
is (matcher config key, fingerprint of ``p_text[p_region]``,
fingerprint of ``q_text[q_region]``) — pure *content*, no offsets — so
a hit is valid wherever the same region text recurs: chained units
re-matching their producers' regions, different pages sharing
boilerplate, and later snapshots re-matching regions that merely
moved. Stored segments are region-relative triples; replay rebases
them onto the caller's region offsets and tags the caller's itid, so a
hit is byte-for-byte what the matcher would have produced. Only the
stateless matchers (ST, UD, WS) are memoized: RU's result depends on
the mutable :class:`~repro.matchers.base.MatchCache` and DN never
matches, so both always delegate.

Two extra layers ride on the content keys:

* **Equal-region shortcut** — when both fingerprints are equal, ST and
  UD provably return the single full-region segment (or nothing, for
  ST regions under ``min_length``), so the memo answers in O(1)
  without ever running a matcher (``region_short_circuits``). WS is
  excluded: repeated k-grams can make it emit extra shifted segments
  even for identical regions.

* **:class:`AutomatonCache`** — per page pair, ST's suffix automaton
  over a q-region is keyed by the region's fingerprint, so a hit costs
  one dict probe instead of the full O(region) body copy + memcmp the
  bounds-keyed version paid (``automata_bytes_copied`` grows only on
  builds — its staying flat across hits is the proof).

The memo and automaton cache live for one page pair (the store they
look results up in outlives both); fingerprints are memoized per (text
identity, bounds) so each unique region is hashed once. With
``--check`` enabled, every replayed result is re-verified to witness
text equality inside the *current* regions, which also makes a
(cryptographically negligible) blake2b collision detectable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..check import invariants as _inv
from ..matchers.base import Matcher
from ..obs import trace as _otrace
from ..matchers.st import SuffixAutomaton
from .fingerprint import content_fingerprint
from ..text.regions import MatchSegment
from ..text.span import Interval
from .matchcache import CrossSnapshotMatchCache
from .stats import FastPathStats

#: Matchers whose ``match`` is a pure function of (texts, regions,
#: config) — safe to memoize and to share across snapshots.
MEMOIZABLE = ("ST", "UD", "WS")


class RegionFingerprints:
    """Memoized blake2b fingerprints of one text's regions.

    Each unique (start, end) is sliced and hashed exactly once; the
    digest then stands in for the region's content in every cache key.
    Bound to one text object — callers swap in a fresh instance when
    the text changes (identity check, so no text comparison either).
    """

    __slots__ = ("text", "_digests")

    def __init__(self, text: str) -> None:
        self.text = text
        self._digests: Dict[Tuple[int, int], str] = {}

    def get(self, start: int, end: int) -> str:
        key = (start, end)
        digest = self._digests.get(key)
        if digest is None:
            digest = content_fingerprint(self.text[start:end])
            self._digests[key] = digest
        return digest

    def __len__(self) -> int:
        return len(self._digests)


def _rebase(rel_segments: Tuple[Tuple[int, int, int], ...],
            p_start: int, q_start: int, itid: int) -> List[MatchSegment]:
    """Region-relative triples -> absolute tagged segments."""
    return [MatchSegment(p_start + dp, q_start + dq, length, q_itid=itid)
            for dp, dq, length in rel_segments]


class MatchMemo:
    """Per-page-pair front end to the content-keyed match store.

    ``shared`` is the :class:`CrossSnapshotMatchCache` every lookup goes
    to — the one the owning system carries across page pairs and
    snapshots; a memo built without one gets a private store. The memo
    itself keeps no results, only the page pair's region fingerprints.
    Each lookup counts once in ``stats``: a ``memo_hit`` when the store
    answers, a ``memo_miss`` when the matcher has to run.
    """

    def __init__(self, stats: Optional[FastPathStats] = None,
                 shared: Optional[CrossSnapshotMatchCache] = None) -> None:
        self._p_fps: Optional[RegionFingerprints] = None
        self._q_fps: Optional[RegionFingerprints] = None
        self.shared = (shared if shared is not None
                       else CrossSnapshotMatchCache())
        self.stats = stats if stats is not None else FastPathStats()
        # config_key() walks CONFIG_ATTRS with getattr; matchers are
        # immutable after construction, so one computation per matcher
        # identity suffices (match_many runs thousands of times per
        # snapshot against the same few instances).
        self._last_matcher: Optional[Matcher] = None
        self._last_config: Tuple = ()

    def _p_fingerprint(self, p_text: str, region: Interval) -> str:
        if self._p_fps is None or self._p_fps.text is not p_text:
            self._p_fps = RegionFingerprints(p_text)
        return self._p_fps.get(region.start, region.end)

    @staticmethod
    def _equal_region_segments(matcher: Matcher, length: int
                               ) -> Optional[Tuple[Tuple[int, int, int], ...]]:
        """What ST/UD return for two content-equal regions, in O(1).

        ST's match profile over identical bodies rises by one per
        position, leaving a single peak spanning the whole region (if
        it clears ``min_length``); UD aligns every line and extension
        is already region-bounded. WS gets ``None``: not eligible.
        """
        if matcher.name == "ST":
            if length >= matcher.min_length:
                return ((0, 0, length),)
            return ()
        if matcher.name == "UD":
            if length > 0:
                return ((0, 0, length),)
            return ()
        return None

    def match_many(self, matcher: Matcher, p_text: str,
                   p_region: Interval, q_text: str,
                   candidates: Dict[int, Interval]) -> List[MatchSegment]:
        """Memoized equivalent of :meth:`Matcher.match_many`.

        Iterates candidates in the caller's order and tags segments
        with each candidate's itid, exactly like the default
        ``match_many`` loop — so routing through the memo is
        observationally identical to calling the matcher directly.
        """
        if matcher.name not in MEMOIZABLE:
            return matcher.match_many(p_text, p_region, q_text, candidates)
        if self._last_matcher is not matcher:
            self._last_config = matcher.config_key()
            self._last_matcher = matcher
        config = self._last_config
        p_fp = self._p_fingerprint(p_text, p_region)
        p_start = p_region.start
        # Local bindings: this loop runs per input row on the fast
        # path, where attribute loads are a measurable share of the
        # sub-10us per-candidate budget.
        q_fps = self._q_fps
        if q_fps is None or q_fps.text is not q_text:
            q_fps = RegionFingerprints(q_text)
            self._q_fps = q_fps
        q_fingerprint = q_fps.get
        stats = self.stats
        store = self.shared
        out: List[MatchSegment] = []
        for itid, q_region in candidates.items():
            q_fp = q_fingerprint(q_region.start, q_region.end)
            if p_fp == q_fp:
                shortcut = self._equal_region_segments(
                    matcher, p_region.end - p_start)
                if shortcut is not None:
                    stats.region_short_circuits += 1
                    segments = _rebase(shortcut, p_start,
                                       q_region.start, itid)
                    if _inv.ENABLED:
                        _inv.check_memo_replay(segments, p_text, q_text,
                                               p_region, q_region)
                    out.extend(segments)
                    continue
            key = (config, p_fp, q_fp)
            rel = store.get(key)
            replayed = rel is not None
            if replayed:
                stats.memo_hits += 1
                if _otrace.ENABLED:  # annotate the enclosing page span
                    _otrace.annotate("memo_hits")
            else:
                found = matcher.match(p_text, p_region, q_text, q_region)
                rel = tuple((seg.p_start - p_start,
                             seg.q_start - q_region.start, seg.length)
                            for seg in found)
                stats.cache_evictions += store.put(key, rel)
                stats.memo_misses += 1
                if _otrace.ENABLED:
                    _otrace.annotate("memo_misses")
            segments = _rebase(rel, p_start, q_region.start, itid)
            if replayed and _inv.ENABLED:
                # Replay soundness: rebased segments must still witness
                # text equality inside *this* call's regions (--check
                # layer; also flags fingerprint collisions).
                _inv.check_memo_replay(segments, p_text, q_text,
                                       p_region, q_region)
            out.extend(segments)
        return out


class AutomatonCache:
    """Per-page-pair cache of ST suffix automata, keyed by the
    q-region's content fingerprint.

    A hit costs one memoized-fingerprint lookup plus a dict probe — no
    body copy, no memcmp (the bounds-keyed predecessor copied the full
    region text on *every* call to verify it; ``automata_bytes_copied``
    counts build-path copies only, proving hits stay O(1)). Content
    keying also lets equal-content regions at different bounds share
    one automaton.
    """

    def __init__(self, stats: Optional[FastPathStats] = None) -> None:
        self._cache: Dict[str, SuffixAutomaton] = {}
        self._fps: Optional[RegionFingerprints] = None
        self.stats = stats if stats is not None else FastPathStats()

    def __len__(self) -> int:
        return len(self._cache)

    def _fingerprint(self, q_text: str, q_region: Interval) -> str:
        if self._fps is None or self._fps.text is not q_text:
            self._fps = RegionFingerprints(q_text)
        return self._fps.get(q_region.start, q_region.end)

    def peek(self, q_text: str,
             q_region: Interval) -> Optional[SuffixAutomaton]:
        """The cached automaton, or None — never builds, never counts.

        The ST kernel path uses this to prefer an existing automaton
        over re-anchoring; stat accounting stays with :meth:`get`.
        """
        return self._cache.get(self._fingerprint(q_text, q_region))

    def get(self, q_text: str, q_region: Interval) -> SuffixAutomaton:
        """The suffix automaton of ``q_text[q_region]``, cached."""
        fingerprint = self._fingerprint(q_text, q_region)
        sam = self._cache.get(fingerprint)
        if sam is not None:
            self.stats.automata_reused += 1
            return sam
        body = q_text[q_region.start:q_region.end]
        self.stats.automata_bytes_copied += len(body)
        sam = SuffixAutomaton(body)
        self._cache[fingerprint] = sam
        self.stats.automata_built += 1
        return sam
