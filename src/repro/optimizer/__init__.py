"""Cost-based plan selection: parameters, statistics, model, search."""

from .cost import (
    RankedPlan,
    from_scratch_cost,
    plan_cost,
    rank_plans,
    resolve_ru_donor,
    unit_cost,
)
from .enumerate import canonical_plans, count_assignments, enumerate_assignments
from .params import CostWeights, Statistics, UnitEstimates, probe_io_weight
from .search import SearchResult, search_plan
from .stats import UnitProfile, collect_statistics, profile_page

__all__ = [
    "CostWeights",
    "UnitEstimates",
    "Statistics",
    "probe_io_weight",
    "collect_statistics",
    "profile_page",
    "UnitProfile",
    "unit_cost",
    "plan_cost",
    "from_scratch_cost",
    "rank_plans",
    "RankedPlan",
    "resolve_ru_donor",
    "search_plan",
    "SearchResult",
    "enumerate_assignments",
    "canonical_plans",
    "count_assignments",
]
