"""Per-operator delta rules over the compiled plan DAG.

One :class:`PagePlanDelta` drives a page-scoped delta through the plan
in topological order (children before parents, shared CSE nodes
processed exactly once). Each node kind has a rule mapping its
children's emitted deltas to its own, against per-node maintained
state held in a :class:`PageState`:

* **Scan** — the page event itself: retract the old whole-page row,
  add the new one. For an unedited page the two cancel and nothing
  flows at all.
* **IE** — memoized on the input region's *text* alone: an
  extraction depends on nothing else, so the memo stores it with
  region-relative offsets and places it at the input region's start
  when merging it onto the input row. An extractor that declares a
  splitter (:mod:`repro.extractors.splitters`) is memoized per split
  instead, each split's extractions placed at the split's start: its
  output on a region is the union over the region's splits, so only
  the splits whose text is new are extracted. A split the extractor's
  key does not select yields nothing and is skipped: no memo entry, no
  extractor call, no reference. Added rows whose region
  (or split) text the extractor has already seen — unedited, or
  shifted by an edit before it — reuse the memoized extractions (zero
  extractor calls: this is what makes a small edit's delta small even
  though the page-level scan row changed); retractions replay the memo
  with negative multiplicity and never touch the extractor. Reference
  counts are keyed on the same texts, and at the end of every page
  event the memo drops each entry no live region or split references,
  so it holds exactly the page's live region and selected split
  texts.
* **σ (Select)** — linear. Added rows are evaluated against the *new*
  page context; retracted rows consult the node's output state — the
  recorded old verdict — so retraction never needs the old page text.
* **π (Project) / ∪ (Union)** — plain evaluation dedupes these, so
  their state counts *derivations* and they emit only support
  transitions: a row loses its tuple only when the last derivation
  retracts (multiplicity-zero cancellation).
* **⋈ (Join)** — maintains per-side hash indexes keyed by the join
  variables and emits ``ΔL ⋈ R_new + L_old ⋈ ΔR`` (algebraically
  ``ΔL⋈R + L⋈ΔR + ΔL⋈ΔR``), multiplicities multiplying.

Soundness of retained (non-delta) rows on an edited page rests on two
facts the classifier (:mod:`repro.delta.classify`) enforces: frozen
equality embeds span *content*, so a cancelled IE output is truly the
same extraction; and retained σ verdicts are only kept when every
selection in the plan is row-determined (see
:class:`repro.xlog.registry.PFunctionEntry`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..extractors.splitters import split_bounds, split_selected
from ..plan.compile import CompiledPlan
from ..plan.operators import (
    IENode,
    JoinNode,
    Node,
    ProjectNode,
    ScanNode,
    SelectNode,
    UnionNode,
)
from ..text.span import Span
from ..xlog.registry import EvalContext
from .deltaset import DeltaSet, Multiset
from .rows import FrozenRow, is_span_value, merge_frozen, thaw_row

#: One memoized extraction: its span fields as region-relative
#: ``(var, start, end, text)`` and its scalar fields as ``(var, value)``.
MemoExtraction = Tuple[Tuple[Tuple[str, int, int, str], ...],
                       Tuple[Tuple[str, object], ...]]

#: Region-text memo entry: the extractor's output on one region (or
#: split) text, valid wherever (and on whichever page version) that
#: text sits.
MemoFields = Tuple[MemoExtraction, ...]


@dataclass
class DeltaCounters:
    """Work accounting of one page event (telemetry + benchmarks)."""

    extractor_calls: int = 0
    memo_hits: int = 0
    rows_added: int = 0
    rows_retracted: int = 0

    def merge(self, other: "DeltaCounters") -> None:
        self.extractor_calls += other.extractor_calls
        self.memo_hits += other.memo_hits
        self.rows_added += other.rows_added
        self.rows_retracted += other.rows_retracted

    def to_dict(self) -> Dict[str, int]:
        return {
            "extractor_calls": self.extractor_calls,
            "memo_hits": self.memo_hits,
            "rows_added": self.rows_added,
            "rows_retracted": self.rows_retracted,
        }


@dataclass
class _IEState:
    """Memo + region reference counts of one IE node on one page,
    both keyed on region text (split text for a split-declared
    extractor)."""

    memo: Dict[str, MemoFields] = field(default_factory=dict)
    region_refs: Multiset = field(default_factory=Multiset)


@dataclass
class _JoinState:
    """Per-side hash-indexed input states of one join on one page."""

    left: Dict[tuple, Dict[FrozenRow, int]] = field(default_factory=dict)
    right: Dict[tuple, Dict[FrozenRow, int]] = field(default_factory=dict)


class PageState:
    """All delta state one page accumulates across generations.

    Indexed positionally by the plan's topological node order; an
    empty ``PageState`` is a page the view has never seen (or has
    fully retracted), which is what makes new pages, deletions, and
    resurrections all run through the same rules.
    """

    def __init__(self, did: str, n_nodes: int) -> None:
        self.did = did
        self.scan_rows: Dict[int, FrozenRow] = {}
        self.out: List[Optional[Multiset]] = [None] * n_nodes
        self.ie: Dict[int, _IEState] = {}
        self.joins: Dict[int, _JoinState] = {}

    def out_state(self, index: int) -> Multiset:
        state = self.out[index]
        if state is None:
            state = self.out[index] = Multiset()
        return state

    def ie_state(self, index: int) -> _IEState:
        state = self.ie.get(index)
        if state is None:
            state = self.ie[index] = _IEState()
        return state

    def join_state(self, index: int) -> _JoinState:
        state = self.joins.get(index)
        if state is None:
            state = self.joins[index] = _JoinState()
        return state

    def fresh(self) -> "PageState":
        """An empty state for the same page that keeps this one's IE
        memos: they are keyed on region text, so they hold for any
        version of the page (the fallback re-derives through it)."""
        state = PageState(self.did, len(self.out))
        state.ie = {index: _IEState(memo=dict(ie_state.memo))
                    for index, ie_state in self.ie.items()}
        return state

    def drop_unreferenced(self) -> None:
        """Drop every memo entry no live region references."""
        for ie_state in self.ie.values():
            if len(ie_state.memo) != len(ie_state.region_refs):
                refs = ie_state.region_refs
                ie_state.memo = {text: fields for text, fields
                                 in ie_state.memo.items() if text in refs}

    def is_drained(self) -> bool:
        """True iff every maintained multiset is empty (a fully
        retracted page — checked after deletions under ``check``)."""
        if self.scan_rows:
            return False
        for state in self.out:
            if state is not None and not state.is_empty():
                return False
        for ie_state in self.ie.values():
            if ie_state.memo or not ie_state.region_refs.is_empty():
                return False
        for join_state in self.joins.values():
            for side in (join_state.left, join_state.right):
                if any(side.values()):
                    return False
        return True


def _index_update(index: Dict[tuple, Dict[FrozenRow, int]],
                  key: tuple, row: FrozenRow, count: int) -> None:
    bucket = index.setdefault(key, {})
    new = bucket.get(row, 0) + count
    if new == 0:
        del bucket[row]
        if not bucket:
            del index[key]
    else:
        bucket[row] = new


class PagePlanDelta:
    """Delta evaluation of one compiled plan, one page at a time."""

    def __init__(self, plan: CompiledPlan) -> None:
        self.plan = plan
        self.nodes: List[Node] = plan.all_nodes()
        self._index_of: Dict[int, int] = {
            id(node): i for i, node in enumerate(self.nodes)}
        self.root_index: Dict[str, int] = {
            rel: self._index_of[id(plan.roots[rel])]
            for rel in plan.program.head_relations()}

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def new_page_state(self, did: str) -> PageState:
        return PageState(did, len(self.nodes))

    # -- page events ------------------------------------------------------

    def apply_page_text(self, state: PageState, new_text: Optional[str],
                        counters: Optional[DeltaCounters] = None
                        ) -> Dict[str, DeltaSet]:
        """Move one page to ``new_text`` (None = page deleted).

        Emits the per-relation delta of the page's contribution. The
        scan delta is retract-old + add-new; everything else follows
        from the operator rules. Covers all four page events:

        * new page / resurrection — no old scan row, pure adds;
        * deletion — no new row, pure retractions, zero extractor
          calls (memo + recorded verdicts supply every retraction);
        * edit — old and new flow together, identical extractions
          cancel before they ever reach the relational operators.
        """
        counters = counters if counters is not None else DeltaCounters()
        ctx = (EvalContext(new_text, state.did)
               if new_text is not None else None)
        deltas: List[Optional[DeltaSet]] = [None] * len(self.nodes)
        for i, node in enumerate(self.nodes):
            if isinstance(node, ScanNode):
                deltas[i] = self._scan_delta(state, i, node, new_text)
            elif isinstance(node, IENode):
                child = deltas[self._index_of[id(node.child)]]
                deltas[i] = self._ie_delta(state, i, node, child, counters)
            elif isinstance(node, SelectNode):
                child = deltas[self._index_of[id(node.child)]]
                deltas[i] = self._select_delta(state, i, node, child, ctx)
            elif isinstance(node, ProjectNode):
                child = deltas[self._index_of[id(node.child)]]
                deltas[i] = self._project_delta(state, i, node, child)
            elif isinstance(node, UnionNode):
                children = [deltas[self._index_of[id(c)]]
                            for c in node.children]
                deltas[i] = self._union_delta(state, i, children)
            elif isinstance(node, JoinNode):
                left = deltas[self._index_of[id(node.left)]]
                right = deltas[self._index_of[id(node.right)]]
                deltas[i] = self._join_delta(state, i, node, left, right)
            else:
                raise TypeError(
                    f"delta rules do not cover {type(node).__name__}")
        state.drop_unreferenced()
        out: Dict[str, DeltaSet] = {}
        for rel, root_idx in self.root_index.items():
            delta = deltas[root_idx]
            out[rel] = delta if delta is not None else DeltaSet()
            counters.rows_added += sum(1 for _, c in out[rel].items()
                                       if c > 0)
            counters.rows_retracted += sum(1 for _, c in out[rel].items()
                                           if c < 0)
        return out

    def page_rows(self, state: PageState) -> Dict[str, List[FrozenRow]]:
        """The page's current per-relation rows (root supports)."""
        out: Dict[str, List[FrozenRow]] = {}
        for rel, root_idx in self.root_index.items():
            root_state = state.out[root_idx]
            rows = root_state.support() if root_state is not None else []
            rows.sort(key=repr)
            out[rel] = rows
        return out

    # -- operator rules ---------------------------------------------------

    def _scan_delta(self, state: PageState, index: int, node: ScanNode,
                    new_text: Optional[str]) -> DeltaSet:
        delta = DeltaSet()
        old_row = state.scan_rows.pop(index, None)
        if old_row is not None:
            delta.add(old_row, -1)
        if new_text is not None:
            new_row: FrozenRow = ((node.var, (0, len(new_text), new_text)),)
            state.scan_rows[index] = new_row
            delta.add(new_row, +1)
        return delta

    def _ie_delta(self, state: PageState, index: int, node: IENode,
                  child: Optional[DeltaSet],
                  counters: DeltaCounters) -> DeltaSet:
        delta = DeltaSet()
        if child is None or child.is_empty():
            return delta
        ie_state = state.ie_state(index)
        memo = ie_state.memo
        splitter = node.extractor.splitter
        key = node.extractor.split_key
        region_delta = DeltaSet()
        for in_row, count in child.items():
            values = dict(in_row)
            region = values.get(node.in_var)
            if not is_span_value(region):
                raise TypeError(
                    f"{node.extractor.name}: input {node.in_var!r} is "
                    "not a span")
            start, _end, text = region
            for lo, hi in (split_bounds(splitter, text) if splitter
                           else ((0, len(text)),)):
                piece = text[lo:hi] if splitter else text
                if splitter and not split_selected(splitter, key, piece):
                    continue
                fields = memo.get(piece)
                if fields is None:
                    if count < 0:
                        raise RuntimeError(
                            f"{node.extractor.name}: retraction of a "
                            "region never extracted (delta state out of "
                            "sync)")
                    fields = memo[piece] = self._run_extractor(
                        node, state.did, piece)
                    counters.extractor_calls += 1
                else:
                    counters.memo_hits += 1
                region_delta.add(piece, count)
                at = start + lo
                for spans, scalars in fields:
                    out_row = values.copy()
                    for var, rel_start, rel_end, span_text in spans:
                        out_row[var] = (at + rel_start, at + rel_end,
                                        span_text)
                    out_row.update(scalars)
                    delta.add(tuple(sorted(out_row.items())), count)
        ie_state.region_refs.apply(
            region_delta, where=f"ie:{node.extractor.name}")
        return delta

    @staticmethod
    def _run_extractor(node: IENode, did: str, text: str) -> MemoFields:
        # Extracting against a region at offset 0 leaves every span
        # region-relative.
        region_span = Span(did, 0, len(text))
        out: List[MemoExtraction] = []
        for extraction in node.extractor.extract(text):
            spans: List[Tuple[str, int, int, str]] = []
            scalars: List[Tuple[str, object]] = []
            for var, value in node.extension_fields(
                    extraction, region_span).items():
                if isinstance(value, Span):
                    spans.append((var, value.start, value.end,
                                  text[value.start:value.end]))
                else:
                    scalars.append((var, value))
            out.append((tuple(spans), tuple(scalars)))
        return tuple(out)

    def _select_delta(self, state: PageState, index: int,
                      node: SelectNode, child: Optional[DeltaSet],
                      ctx: Optional[EvalContext]) -> DeltaSet:
        delta = DeltaSet()
        if child is None or child.is_empty():
            return delta
        out_state = state.out_state(index)
        for row, count in child.items():
            if count > 0:
                if ctx is None:
                    raise RuntimeError(
                        f"select {node.entry.name}: row added without "
                        "page context (deletion emitted an add?)")
                if node.passes(thaw_row(row, state.did), ctx):
                    delta.add(row, count)
            else:
                # The recorded old verdict: the row passed iff it is
                # in the output state.
                if row in out_state:
                    delta.add(row, count)
        out_state.apply(delta, where=f"select:{node.entry.name}")
        return delta

    def _project_delta(self, state: PageState, index: int,
                       node: ProjectNode,
                       child: Optional[DeltaSet]) -> DeltaSet:
        if child is None or child.is_empty():
            return DeltaSet()
        derivations = DeltaSet()
        for row, count in child.items():
            values = dict(row)
            projected = tuple(sorted(
                (out, values[src]) for out, src in node.mappings))
            derivations.add(projected, count)
        appeared, vanished = state.out_state(index).apply(
            derivations, where="project")
        delta = DeltaSet()
        for row in appeared:
            delta.add(row, +1)
        for row in vanished:
            delta.add(row, -1)
        return delta

    def _union_delta(self, state: PageState, index: int,
                     children: List[Optional[DeltaSet]]) -> DeltaSet:
        combined = DeltaSet()
        for child in children:
            if child is not None:
                combined.update(child)
        if combined.is_empty():
            return DeltaSet()
        appeared, vanished = state.out_state(index).apply(
            combined, where="union")
        delta = DeltaSet()
        for row in appeared:
            delta.add(row, +1)
        for row in vanished:
            delta.add(row, -1)
        return delta

    def _join_delta(self, state: PageState, index: int, node: JoinNode,
                    left: Optional[DeltaSet],
                    right: Optional[DeltaSet]) -> DeltaSet:
        left = left if left is not None else DeltaSet()
        right = right if right is not None else DeltaSet()
        delta = DeltaSet()
        if left.is_empty() and right.is_empty():
            return delta
        join_state = state.join_state(index)
        on = node.on

        def key_of(row: FrozenRow) -> tuple:
            values = dict(row)
            return tuple(values[v] for v in on)

        # ΔR folds into the right index first, so ΔL joins R_new and
        # ΔR joins L_old: ΔL⋈R_new + L_old⋈ΔR == ΔL⋈R + L⋈ΔR + ΔL⋈ΔR.
        for r_row, r_count in right.items():
            _index_update(join_state.right, key_of(r_row), r_row, r_count)
        for l_row, l_count in left.items():
            for r_row, r_count in join_state.right.get(
                    key_of(l_row), {}).items():
                delta.add(merge_frozen(l_row, r_row), l_count * r_count)
        for r_row, r_count in right.items():
            for l_row, l_count in join_state.left.get(
                    key_of(r_row), {}).items():
                delta.add(merge_frozen(l_row, r_row), l_count * r_count)
        for l_row, l_count in left.items():
            _index_update(join_state.left, key_of(l_row), l_row, l_count)
        return delta
