"""DeltaMaintainer: one snapshot diff in, one store delta out.

Owns everything the delta rules accumulate across generations — one
:class:`~repro.delta.rules.PageState` per live page plus, per head
relation, the *cross-page* layer the per-page rules cannot see:

* a :class:`~repro.delta.deltaset.Multiset` counting, per canonical
  tuple, how many pages currently produce it. Pages contribute their
  root supports (deduplicated per page), so the count is a page count
  and a tuple survives one producer's retraction while another page
  still yields it — the relation-level face of multiplicity-zero
  cancellation;
* the published sorted index, maintained by merging each apply's
  appeared/vanished support transitions into the previous sorted
  tuple — O(index + delta) per apply instead of the store's
  O(corpus-wide dedupe + sort) rebuild. Ordering matches
  :func:`repro.serve.store._sort_key` exactly, so a delta-maintained
  generation is byte-identical to a batch-built one.

``apply`` executes the :class:`~repro.delta.classify.UpdateClassifier`
decisions: deletions drain through the rules (pure retractions, zero
extractor calls), new/resurrected pages flow as pure additions,
changed pages propagate their edit in place, and changed pages of a
plan with a non-row-determined selection take the fallback — the old
state's recorded rows and verdicts discarded, the page re-derived
through a fresh state that keeps only the old IE memos (keyed on
region text, so a region whose text survived the edit replays its
extractions there too), the two root supports differenced. The
fallback is page-*granular* but still tuple-*granular* at the store:
only the rows that actually changed reach the relation index.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..plan.compile import CompiledPlan
from .classify import PageDecision, UpdateClassifier
from .deltaset import DeltaSet, Multiset
from .rows import FrozenRow
from .rules import DeltaCounters, PagePlanDelta, PageState


def _sort_key(tup: tuple) -> str:
    """Must order exactly like :func:`repro.serve.store._sort_key`
    (kept local — serve imports delta, not the other way around)."""
    return repr(tup)


class DeltaStateError(RuntimeError):
    """Maintained delta state violated an invariant (e.g. a deleted
    page's state did not drain to empty)."""


@dataclass
class DeltaApplyResult:
    """Everything one differential apply produced.

    ``upserts``/``deletes`` feed :meth:`TupleStore.apply_delta`
    unchanged; ``relations`` is the pre-sorted index the store can
    adopt verbatim instead of rebuilding. ``decisions`` holds one
    record per deleted, new and changed page; unchanged pages are only
    counted, in ``unchanged``.
    """

    upserts: Dict[str, Dict[str, List[FrozenRow]]]
    deletes: Tuple[str, ...]
    relations: Dict[str, Tuple[FrozenRow, ...]]
    decisions: Dict[str, PageDecision]
    counters: DeltaCounters
    #: Total absolute tuple multiplicity that crossed the relation
    #: layer — the true "size" of this generation's change.
    delta_weight: int = 0
    #: Pages whose text did not change.
    unchanged: int = 0
    _counts: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        counts: Dict[str, int] = {}
        for decision in self.decisions.values():
            counts[decision.decision] = counts.get(decision.decision, 0) + 1
        if self.unchanged:
            counts["unchanged"] = self.unchanged
        self._counts = counts

    def decision_counts(self) -> Dict[str, int]:
        """Pages per decision, in the order the apply decided them."""
        return dict(self._counts)

    @property
    def fallback_ratio(self) -> float:
        """Share of *changed* pages that fell back to re-extraction."""
        counts = self._counts
        changed = counts.get("delta", 0) + counts.get("fallback", 0)
        if changed == 0:
            return 0.0
        return counts.get("fallback", 0) / changed

    def to_dict(self) -> Dict[str, object]:
        return {
            "decisions": self.decision_counts(),
            "fallback_ratio": self.fallback_ratio,
            "delta_weight": self.delta_weight,
            **self.counters.to_dict(),
        }


def merge_sorted_index(old: Tuple[tuple, ...], appeared: Sequence[tuple],
                       vanished: Sequence[tuple],
                       keys: Optional[List[str]] = None
                       ) -> Tuple[tuple, ...]:
    """Fold support transitions into a sorted index in one pass.

    ``keys`` are the sort keys of ``old``, position for position. When
    given they are brought up to date in place, so a maintained index
    never recomputes the key of a row it already holds: the changed
    rows are placed by bisection and the rest are copied in slices.
    """
    if not appeared and not vanished:
        return old
    if keys is None:
        keys = [_sort_key(tup) for tup in old]
    # (position in old, 0 = insert before it / 1 = drop it, key, row);
    # keys are unique, so sorting never compares two rows.
    cuts = [(bisect_left(keys, key), 0, key, tup)
            for key, tup in ((_sort_key(tup), tup) for tup in appeared)]
    cuts += [(bisect_left(keys, key), 1, key, tup)
             for key, tup in ((_sort_key(tup), tup) for tup in vanished)]
    rows: List[tuple] = []
    new_keys: List[str] = []
    start = 0
    for at, drop, key, tup in sorted(cuts):
        rows += old[start:at]
        new_keys += keys[start:at]
        if not drop:
            rows.append(tup)
            new_keys.append(key)
            start = at
        elif at < len(keys) and keys[at] == key:
            start = at + 1
        else:
            raise DeltaStateError(f"vanished row {tup!r} is not indexed")
    keys[:] = new_keys + keys[start:]
    return tuple(rows + list(old[start:]))


class DeltaMaintainer:
    """Differential maintenance of one compiled plan over a corpus."""

    def __init__(self, plan: CompiledPlan,
                 classifier: Optional[UpdateClassifier] = None) -> None:
        self.plan_delta = PagePlanDelta(plan)
        self.classifier = classifier or UpdateClassifier(plan)
        self.states: Dict[str, PageState] = {}
        self.relations: Dict[str, Multiset] = {
            rel: Multiset() for rel in self.plan_delta.root_index}
        self.index: Dict[str, Tuple[tuple, ...]] = {
            rel: () for rel in self.plan_delta.root_index}
        #: Each index's sort keys, position for position.
        self.keys: Dict[str, List[str]] = {
            rel: [] for rel in self.plan_delta.root_index}

    def apply(self, snapshot, diff, check: bool = False
              ) -> DeltaApplyResult:
        """Run one snapshot diff through the delta rules.

        ``snapshot`` is a :class:`~repro.corpus.snapshot.Snapshot`,
        ``diff`` a :class:`~repro.serve.views.SnapshotDiff` (duck-typed
        to avoid importing the serving layer). With ``check`` on,
        deleted pages' states are verified to drain to empty — the
        cheap structural half of the ``--check on`` guard; the
        expensive half (the batch oracle) lives in the view.
        """
        counters = DeltaCounters()
        decisions: Dict[str, PageDecision] = {}
        rel_delta: Dict[str, DeltaSet] = {
            rel: DeltaSet() for rel in self.relations}
        upserts: Dict[str, Dict[str, List[FrozenRow]]] = {}
        new_texts = {p.did: p.text for p in snapshot.canonical_pages()}
        resurrected = set(getattr(diff, "resurrected", ()))

        def collect(page_delta: Dict[str, DeltaSet]) -> None:
            for rel, delta in page_delta.items():
                rel_delta[rel].update(delta)

        for did in diff.deleted:
            state = self.states.pop(did)
            collect(self.plan_delta.apply_page_text(state, None, counters))
            if check and not state.is_drained():
                raise DeltaStateError(
                    f"deleted page {did!r}: delta state did not drain "
                    "to empty")
            decisions[did] = PageDecision(
                did=did, decision="deleted",
                reason="pure retraction from recorded state")
        for did in diff.new:
            state = self.plan_delta.new_page_state(did)
            collect(self.plan_delta.apply_page_text(
                state, new_texts[did], counters))
            self.states[did] = state
            upserts[did] = self.plan_delta.page_rows(state)
            kind = "resurrected" if did in resurrected else "new"
            decisions[did] = PageDecision(
                did=did, decision=kind,
                reason=("returned after deletion; prior state was "
                        "retracted, re-adding fresh" if kind ==
                        "resurrected" else "pure addition"))
        for did in diff.changed:
            state = self.states[did]
            decision = self.classifier.classify_changed(did)
            decisions[did] = decision
            if decision.decision == "delta":
                collect(self.plan_delta.apply_page_text(
                    state, new_texts[did], counters))
            else:
                old_rows = self.plan_delta.page_rows(state)
                fresh = state.fresh()
                page_delta = self.plan_delta.apply_page_text(
                    fresh, new_texts[did], counters)
                for rel, rows in old_rows.items():
                    page_delta[rel].update(DeltaSet.from_rows(rows, -1))
                collect(page_delta)
                self.states[did] = fresh
            upserts[did] = self.plan_delta.page_rows(self.states[did])

        delta_weight = 0
        relations: Dict[str, Tuple[tuple, ...]] = {}
        for rel, delta in rel_delta.items():
            delta_weight += delta.weight()
            appeared, vanished = self.relations[rel].apply(
                delta, where=f"relation:{rel}")
            self.index[rel] = merge_sorted_index(
                self.index[rel], appeared, vanished, self.keys[rel])
            relations[rel] = self.index[rel]
        return DeltaApplyResult(
            upserts=upserts, deletes=tuple(diff.deleted),
            relations=relations, decisions=decisions,
            counters=counters, delta_weight=delta_weight,
            unchanged=len(diff.unchanged))
