"""Matcher construction helpers."""

from __future__ import annotations

from typing import Optional

from .base import DN_NAME, MATCHER_NAMES, RU_NAME, ST_NAME, UD_NAME, MatchCache, Matcher
from .dn import EQ_NAME, DNMatcher, EQMatcher
from .ru import RUMatcher
from .st import STMatcher
from .ud import UDMatcher
from .ws import WS_NAME, WinnowingMatcher


def make_matcher(name: str, cache: Optional[MatchCache] = None,
                 min_length: int = 12, max_d: int = 0) -> Matcher:
    """Instantiate a matcher by name.

    RU requires the page pair's :class:`MatchCache`; the others ignore
    it. ``min_length`` tunes ST's emission threshold, ``max_d`` caps
    UD's explored edit distance (0 = unlimited). No matcher keeps
    results or automata between calls: there is no match store.
    """
    if name == DN_NAME:
        return DNMatcher()
    if name == UD_NAME:
        return UDMatcher(max_d=max_d)
    if name == ST_NAME:
        return STMatcher(min_length=min_length)
    if name == RU_NAME:
        if cache is None:
            raise ValueError("RU matcher needs a MatchCache")
        return RUMatcher(cache)
    if name == WS_NAME:
        return WinnowingMatcher()
    if name == EQ_NAME:
        return EQMatcher()
    raise ValueError(f"unknown matcher {name!r}; choose from "
                     f"{MATCHER_NAMES + (WS_NAME, EQ_NAME)}")
