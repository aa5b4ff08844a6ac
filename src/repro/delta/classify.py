"""The safe/unsafe update classifier.

Kassaie & Tompa's question, asked per arriving page: is in-place
differential maintenance *provably sufficient* for this update, or
must the page fall back to re-derivation? Only the plan's selection
properties decide it, and they are static (computed once):

Delta propagation keeps every row the edit's retract/add cancellation
did not touch, *including its recorded σ verdicts*. That is sound only
if every selection in the plan is row-determined
(:class:`~repro.xlog.registry.PFunctionEntry.row_determined`): its
verdict reads nothing but the argument values. ``immBefore`` reads the
page text *between* its spans — a gap an edit can rewrite without
touching either span — so any plan using it makes every changed page
unsafe for delta propagation.

The edit's size never decides: the IE memo is keyed on region text, so
delta propagation and the fallback call the extractor on exactly the
same (new) region texts, however much of the page the edit rewrote.

Deleted and new (including resurrected) pages are always safe: a pure
retraction is served entirely from recorded state (no extractor, no σ
re-evaluation — even ``immBefore`` verdicts are only *replayed*, never
recomputed), and a pure addition evaluates everything fresh against
the new page.

The classifier only decides; :mod:`repro.delta.maintain` executes the
decisions and :mod:`repro.obs` gets the per-decision counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..plan.compile import CompiledPlan
from ..plan.operators import SelectNode

#: Every decision the classifier can make about one page of one
#: arriving snapshot. ``delta`` and ``fallback`` apply to changed
#: pages only; the rest restate the diff category, so the obs counters
#: cover the whole snapshot (an unchanged page is counted, not given a
#: per-page record).
DECISIONS = ("unchanged", "new", "resurrected", "deleted", "delta",
             "fallback")


@dataclass(frozen=True)
class PageDecision:
    """One page's classification for one snapshot apply."""

    did: str
    decision: str
    reason: str

    def __post_init__(self) -> None:
        if self.decision not in DECISIONS:
            raise ValueError(f"unknown decision {self.decision!r}")


def plan_delta_blockers(plan: CompiledPlan) -> Tuple[str, ...]:
    """Names of the plan's non-row-determined selections.

    A non-empty result means *every* changed page of this plan is
    unsafe for in-place delta propagation (retained rows could carry
    stale verdicts); new and deleted pages stay safe regardless.
    """
    blockers = {node.entry.name for node in plan.all_nodes()
                if isinstance(node, SelectNode)
                and not node.entry.row_determined}
    return tuple(sorted(blockers))


class UpdateClassifier:
    """Per-page delta-vs-fallback decisions for one compiled plan."""

    def __init__(self, plan: CompiledPlan) -> None:
        self.blockers = plan_delta_blockers(plan)

    def classify_changed(self, did: str) -> PageDecision:
        """Decide one changed page: propagate the delta, or fall back."""
        if self.blockers:
            return PageDecision(
                did=did, decision="fallback",
                reason=("non-row-determined selection(s): "
                        + ", ".join(self.blockers)))
        return PageDecision(did=did, decision="delta",
                            reason="all selections row-determined")
