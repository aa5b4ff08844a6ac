"""Text substrate: intervals, spans, pages, matched regions."""

from .document import Page
from .regions import MatchSegment, select_p_disjoint
from .span import (
    Interval,
    Span,
    complement_intervals,
    intersect_interval_sets,
    merge_intervals,
    total_length,
)

__all__ = [
    "Interval",
    "Span",
    "Page",
    "MatchSegment",
    "merge_intervals",
    "complement_intervals",
    "intersect_interval_sets",
    "total_length",
    "select_p_disjoint",
]
