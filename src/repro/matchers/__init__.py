"""Matcher portfolio: DN, UD (Myers diff), ST (suffix automaton), RU,
plus WS (winnowing) and EQ (page identity) outside the plan space."""

from .base import (
    DN_NAME,
    MATCHER_NAMES,
    RU_NAME,
    ST_NAME,
    UD_NAME,
    MatchCache,
    Matcher,
)
from .dn import EQ_NAME, DNMatcher, EQMatcher
from .registry import make_matcher
from .ru import RUMatcher
from .st import STMatcher, SuffixAutomaton, probe_peaks
from .ud import UDMatcher, myers_lcs_pairs
from .ws import WS_NAME, WinnowingMatcher, winnow_fingerprints

__all__ = [
    "Matcher",
    "MatchCache",
    "DNMatcher",
    "EQMatcher",
    "UDMatcher",
    "STMatcher",
    "RUMatcher",
    "SuffixAutomaton",
    "probe_peaks",
    "myers_lcs_pairs",
    "WinnowingMatcher",
    "winnow_fingerprints",
    "WS_NAME",
    "EQ_NAME",
    "make_matcher",
    "MATCHER_NAMES",
    "DN_NAME",
    "UD_NAME",
    "ST_NAME",
    "RU_NAME",
]
