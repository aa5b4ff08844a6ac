"""The cost model: formulas (1)–(4) of Section 6.3.

A plan's estimated cost is the sum of per-IE-unit costs; each unit's
cost has four components:

1. identifying matching input tuples (read ``I_U^n`` + c-comparisons);
2. matching the identified regions (read prev pages + matcher CPU);
3. re-extracting the derived extraction regions;
4. reusing output tuples for copy regions (read ``O_U^n`` + probes).

Paired input whose text the unit already recorded replays before any
matcher runs (:mod:`repro.reuse.replay`), and a split the unit's key
does not select is skipped, so steps 2–4 price only the rest
(``UnitEstimates.r``); a split-declared unit extracts that rest
without a matcher, whatever matcher the plan assigns it.

RU units need a *donor*: an earlier-executed unit assigned ST or UD
whose recorded segments RU recycles. Without a donor RU degenerates to
DN (g = 1, nothing copied), which the model prices accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..matchers.base import DN_NAME, RU_NAME, ST_NAME, UD_NAME
from ..plan.units import IEUnit
from ..reuse.engine import PlanAssignment
from .params import Statistics


def resolve_ru_donor(unit: IEUnit, units: Sequence[IEUnit],
                     assignment: PlanAssignment) -> Optional[IEUnit]:
    """The earlier-executed ST/UD unit whose matches RU would recycle.

    Units execute in topological (list) order; the engine's match cache
    is global per page pair, so any earlier ST/UD unit is a donor. The
    closest earlier one dominates the recorded segments, so we price
    against it.
    """
    donor: Optional[IEUnit] = None
    for candidate in units:
        if candidate.index >= unit.index:
            break
        if assignment.matchers.get(candidate.uid) in (ST_NAME, UD_NAME):
            donor = candidate
    return donor


def unit_cost(unit: IEUnit, matcher: str, stats: Statistics,
              donor_matcher: Optional[str]) -> float:
    """Estimated seconds to execute ``unit`` with ``matcher``."""
    est = stats.units[unit.uid]
    w = stats.weights
    f = stats.f
    m = stats.m
    a_n, a_n1 = est.a_prev, est.a
    length = est.l

    # Paired chars: those that replay or are skipped cost nothing under
    # any matcher; a split-declared unit extracts the rest split by
    # split and runs no matcher, every other unit matches it.
    paired = a_n1 * m * f * length * (1.0 - est.r)
    matched = matcher != DN_NAME and not est.split

    # (1) identify matching input tuples.
    cost = w.io_per_block * est.b_blocks
    if matcher != DN_NAME:
        cost += w.find_per_comparison * a_n * a_n1 * m * f

    # (2) match the regions.
    if matcher != DN_NAME:
        cost += w.io_per_block * stats.d_blocks * f
    if matched:
        cost += w.rate_of(matcher) * paired * est.s_of(matcher)

    # (3) extract over extraction regions.
    g = est.g_of(matcher, donor_matcher) if matched else 1.0
    cost += est.extract_rate * (a_n1 * m * (1.0 - f) * length
                                + paired * g)

    # (4) reuse output tuples for copy regions.
    if matcher != DN_NAME:
        cost += w.io_per_block * est.c_blocks
    if matched:
        h = est.h_of(matcher, donor_matcher)
        cost += (w.copy_per_probe * a_n * m
                 * (a_n1 * m * f * h) / stats.v)
    return cost


def plan_cost(units: Sequence[IEUnit], assignment: PlanAssignment,
              stats: Statistics) -> float:
    """Estimated cost of a full matcher assignment."""
    total = 0.0
    for unit in units:
        matcher = assignment.of(unit)
        donor_matcher: Optional[str] = None
        if matcher == RU_NAME:
            donor = resolve_ru_donor(unit, units, assignment)
            if donor is not None:
                donor_matcher = assignment.matchers[donor.uid]
        total += unit_cost(unit, matcher, stats, donor_matcher)
    return total


def from_scratch_cost(units: Sequence[IEUnit],
                      stats: Statistics) -> float:
    """Cost of running every unit with DN (pure extraction)."""
    assignment = PlanAssignment({u.uid: DN_NAME for u in units})
    return plan_cost(units, assignment, stats)


@dataclass(frozen=True)
class RankedPlan:
    assignment: PlanAssignment
    cost: float


def rank_plans(units: Sequence[IEUnit],
               assignments: Sequence[PlanAssignment],
               stats: Statistics) -> List[RankedPlan]:
    ranked = [RankedPlan(a, plan_cost(units, a, stats))
              for a in assignments]
    ranked.sort(key=lambda r: r.cost)
    return ranked
