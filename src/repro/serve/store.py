"""Generation-versioned tuple store for materialized extracted views.

The serving problem has a classic consistency hazard: a snapshot apply
replaces some pages' tuples while query threads are mid-read, and a
naive shared dict would let one response mix generation *n* rows for
page A with generation *n+1* rows for page B. The store solves it the
database way — multi-version concurrency with a single atomic swap:

* every applied snapshot builds a fresh, immutable
  :class:`Generation`: the per-page row map (``did -> relation ->
  rows``) plus a prebuilt sorted relation index for pagination;
* unchanged pages' row lists are *shared by reference* with the
  previous generation (applying a snapshot is O(changed pages +
  total relation size for the index), never O(corpus text));
* publication is one reference assignment under a lock
  (:meth:`TupleStore.apply_delta`); readers take the current reference
  once (:meth:`TupleStore.current`) and do the entire query off that
  frozen object. A reader therefore always sees exactly one
  generation, even while the writer publishes the next one.

The writer side is single-writer by contract — the ingest loop
(:mod:`repro.serve.ingest`) is the only caller of ``apply_delta`` —
which keeps the generation sequence linear without any writer-side
coordination.
"""

from __future__ import annotations

import heapq
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple


def _sort_key(tup: tuple) -> str:
    """Total, deterministic order for canonical tuples.

    Canonical tuples are nested (var, value) pairs whose values mix
    strings, numbers, and span triples; ``repr`` gives a total order
    that is stable across processes (no hash randomization) — which is
    all pagination needs.
    """
    return repr(tup)


def tuple_to_json(tup: tuple) -> Dict[str, object]:
    """One canonical tuple as a JSON-friendly field map.

    Span values ``(start, end, text)`` become ``{"start", "end",
    "text"}`` objects; scalars pass through. The inverse is not needed
    anywhere — responses are for consumption, the store itself always
    holds canonical tuples.
    """
    out: Dict[str, object] = {}
    for var, value in tup:
        if (isinstance(value, tuple) and len(value) == 3
                and isinstance(value[0], int) and isinstance(value[1], int)
                and isinstance(value[2], str)):
            out[var] = {"start": value[0], "end": value[1],
                        "text": value[2]}
        else:
            out[var] = value
    return out


def _tuple_text(tup: tuple) -> str:
    """All text content of a tuple, for substring filtering."""
    parts: List[str] = []
    for _var, value in tup:
        if isinstance(value, tuple) and len(value) == 3:
            parts.append(str(value[2]))
        else:
            parts.append(str(value))
    return " ".join(parts)


def _field_value(tup: tuple, var: str) -> Optional[str]:
    """The textual value of one field (span text for spans)."""
    for name, value in tup:
        if name != var:
            continue
        if isinstance(value, tuple) and len(value) == 3:
            return str(value[2])
        return str(value)
    return None


def filter_rows(rows: Sequence[tuple],
                contains: Optional[str] = None,
                field_filters: Optional[Mapping[str, str]] = None
                ) -> Sequence[tuple]:
    """Apply the ``/query`` filter semantics to a row sequence.

    Shared between :meth:`TupleStore.query` and the scatter-gather
    router (:mod:`repro.shard.router`) so a sharded deployment answers
    filtered queries byte-identically to the single store.
    """
    if contains:
        needle = contains.lower()
        rows = [t for t in rows if needle in _tuple_text(t).lower()]
    if field_filters:
        for var, want in field_filters.items():
            rows = [t for t in rows if _field_value(t, var) == want]
    return rows


def build_relation_index(page_rows: Mapping[str, Mapping[str, Sequence[tuple]]],
                         relation: str) -> Tuple[tuple, ...]:
    """The canonical relation index: cross-page dedupe + total sort.

    This is the single definition of pagination order for one
    relation; the eager store builds it at apply time, the lazy store
    (sharded serving) on first read.
    """
    seen = set()
    merged: List[tuple] = []
    for did in page_rows:
        for tup in page_rows[did].get(relation, ()):
            if tup not in seen:
                seen.add(tup)
                merged.append(tup)
    merged.sort(key=_sort_key)
    return tuple(merged)


def merge_relation_indexes(indexes: Sequence[Sequence[tuple]]
                           ) -> Tuple[tuple, ...]:
    """K-way merge of per-shard sorted relation indexes, deduplicated.

    Each input is already sorted by :func:`_sort_key` and internally
    deduplicated (a shard's own index); the same tuple may still
    appear in several shards when different pages emit it. The merge
    is byte-identical to :func:`build_relation_index` over the union
    of the shards' page maps: equal sort keys imply equal tuples for
    canonical values, so set-dedup during a stable heap merge yields
    exactly the global dedupe-then-sort order.
    """
    seen = set()
    merged: List[tuple] = []
    for tup in heapq.merge(*indexes, key=_sort_key):
        if tup not in seen:
            seen.add(tup)
            merged.append(tup)
    return tuple(merged)


class LazyRelationIndex(Mapping):
    """A relation index built per relation on first read.

    The sharded serving tier moves index assembly off the writer path:
    a shard's apply only replaces per-page row maps, and the sorted,
    deduplicated index materializes lazily — on a *reader* thread, at
    most once per (generation, relation), behind a double-checked
    lock. The mapping is immutable from the outside: same keys, same
    values, forever — readers can treat it exactly like the eager
    ``dict`` index.
    """

    def __init__(self, page_rows: Mapping[str, Mapping[str, Sequence[tuple]]],
                 schema: Sequence[str]) -> None:
        self._page_rows = page_rows
        self._schema = tuple(schema)
        self._built: Dict[str, Tuple[tuple, ...]] = {}
        self._lock = threading.Lock()

    @property
    def built(self) -> bool:
        """True once every relation's index has materialized."""
        return len(self._built) == len(self._schema)

    def __getitem__(self, relation: str) -> Tuple[tuple, ...]:
        if relation not in self._schema:
            raise KeyError(relation)
        index = self._built.get(relation)
        if index is None:
            with self._lock:
                index = self._built.get(relation)
                if index is None:
                    index = build_relation_index(self._page_rows, relation)
                    self._built[relation] = index
        return index

    def get(self, relation: str, default=None):
        try:
            return self[relation]
        except KeyError:
            return default

    def __iter__(self) -> Iterator[str]:
        return iter(self._schema)

    def __len__(self) -> int:
        return len(self._schema)


@dataclass(frozen=True)
class Generation:
    """One immutable published state of a view.

    ``gen_id`` increases by one per successful apply (independent of
    snapshot indexes, which may skip after a quarantine).
    ``page_rows`` maps ``did -> relation -> rows`` with rows in the
    producing run's emission order; ``relations`` is the deduplicated,
    deterministically sorted union per relation — the pagination
    index. Both are frozen at build time and never mutated.
    """

    gen_id: int
    snapshot_index: int
    page_rows: Mapping[str, Mapping[str, Tuple[tuple, ...]]]
    relations: Mapping[str, Tuple[tuple, ...]]
    created_at: float
    pages_total: int
    pages_replaced: int
    pages_deleted: int
    pages_kept: int

    def total_tuples(self) -> int:
        return sum(len(rows) for rows in self.relations.values())

    def tuples_estimate(self) -> int:
        """Deduplicated tuple count when cheap, raw row count otherwise.

        A lazy-index generation (sharded serving) must not pay the
        cross-page dedupe on the writer path just to report a metric;
        until a reader materializes the index this returns the raw
        per-page row count (an upper bound). Eager generations — and
        lazy ones once built — report the exact deduplicated total.
        """
        relations = self.relations
        if isinstance(relations, LazyRelationIndex) and not relations.built:
            return sum(len(rows)
                       for rels in self.page_rows.values()
                       for rows in rels.values())
        return self.total_tuples()

    def canonical(self) -> Dict[str, frozenset]:
        """Order-insensitive relation view (the Theorem 1 shape)."""
        return {rel: frozenset(rows)
                for rel, rows in self.relations.items()}

    def describe(self) -> Dict[str, object]:
        return {
            "generation": self.gen_id,
            "snapshot_index": self.snapshot_index,
            "created_at": self.created_at,
            "pages": self.pages_total,
            "pages_replaced": self.pages_replaced,
            "pages_deleted": self.pages_deleted,
            "pages_kept": self.pages_kept,
            "tuples": self.total_tuples(),
            "relations": {rel: len(rows)
                          for rel, rows in sorted(self.relations.items())},
        }


@dataclass
class QueryResult:
    """One consistent read: everything comes from a single generation."""

    view: str
    generation: int
    snapshot_index: int
    relation: str
    total: int
    offset: int
    limit: int
    tuples: List[tuple] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        return {
            "view": self.view,
            "generation": self.generation,
            "snapshot_index": self.snapshot_index,
            "relation": self.relation,
            "total": self.total,
            "offset": self.offset,
            "limit": self.limit,
            "count": len(self.tuples),
            "tuples": [tuple_to_json(t) for t in self.tuples],
        }


class EmptyViewError(LookupError):
    """Query against a view with no published generation yet."""


class UnknownRelationError(KeyError):
    """Query names a relation the view's program does not define."""


class TupleStore:
    """Holds the current :class:`Generation` of one view.

    Thread-safety contract: any number of reader threads may call
    :meth:`current`/:meth:`query` concurrently with one writer thread
    calling :meth:`apply_delta`. Readers are wait-free after the one
    reference read; the writer builds the next generation entirely
    off-line and publishes it with a single swap.
    """

    def __init__(self, view: str, relations: Sequence[str],
                 lazy_index: bool = False) -> None:
        self.view = view
        #: The program's head relations — the query schema, fixed at
        #: registration so an empty view still rejects bad relation
        #: names precisely.
        self.schema = tuple(relations)
        #: Lazy mode (the sharded serving tier): ``apply_delta`` skips
        #: the relation-index rebuild entirely and publishes a
        #: :class:`LazyRelationIndex` instead, moving the dedupe+sort
        #: from the writer path to the first reader that needs it.
        #: Results are byte-identical either way.
        self.lazy_index = lazy_index
        self._lock = threading.Lock()
        self._current: Optional[Generation] = None
        self._gen_counter = 0

    # -- reader side ------------------------------------------------------

    def current(self) -> Optional[Generation]:
        """The published generation (None before the first apply)."""
        with self._lock:
            return self._current

    def query(self, relation: str, offset: int = 0, limit: int = 50,
              contains: Optional[str] = None,
              field_filters: Optional[Mapping[str, str]] = None
              ) -> QueryResult:
        """Paginated, filtered read of one relation.

        ``contains`` keeps tuples whose concatenated text contains the
        substring (case-insensitive); ``field_filters`` keeps tuples
        whose named field's text equals the given value exactly.
        Filters run over the generation's prebuilt sorted index, so
        two queries with the same parameters against the same
        generation return identical pages.
        """
        generation = self.current()
        if generation is None:
            raise EmptyViewError(
                f"view {self.view!r} has no generation yet")
        if relation not in self.schema:
            raise UnknownRelationError(
                f"view {self.view!r} has no relation {relation!r}; "
                f"schema is {self.schema}")
        rows: Sequence[tuple] = generation.relations.get(relation, ())
        rows = filter_rows(rows, contains, field_filters)
        offset = max(0, offset)
        limit = max(0, limit)
        return QueryResult(
            view=self.view, generation=generation.gen_id,
            snapshot_index=generation.snapshot_index, relation=relation,
            total=len(rows), offset=offset, limit=limit,
            tuples=list(rows[offset:offset + limit]))

    # -- writer side (single writer: the ingest loop) --------------------

    def apply_delta(self, snapshot_index: int,
                    upserts: Mapping[str, Mapping[str, Sequence[tuple]]],
                    deletes: Iterable[str] = (),
                    relations: Optional[Mapping[str, Sequence[tuple]]]
                    = None) -> Generation:
        """Build and atomically publish the next generation.

        ``upserts`` maps changed/new page dids to their new per-
        relation rows (:mod:`repro.reuse.attribution` shape);
        ``deletes`` lists dids that left the corpus. Every other
        page's rows are carried over *by reference* from the current
        generation. The swap is the last statement — on any exception
        before it the store still serves the previous generation
        untouched, which is what makes the ingest loop's quarantine
        path safe.

        ``relations``, when given, is a prebuilt sorted relation index
        adopted verbatim — the differential maintenance mode
        (:mod:`repro.delta`) merges each generation's support
        transitions into the previous index incrementally, replacing
        this method's O(total relation size) dedupe-and-sort rebuild
        with work proportional to the delta. The caller owns the
        equivalence (the ``--check on`` guard cross-checks it).
        """
        previous = self.current()
        page_rows: Dict[str, Mapping[str, Tuple[tuple, ...]]] = (
            dict(previous.page_rows) if previous is not None else {})
        deleted = 0
        for did in deletes:
            if page_rows.pop(did, None) is not None:
                deleted += 1
        replaced = 0
        for did, rels in upserts.items():
            page_rows[did] = {rel: tuple(rows)
                              for rel, rows in rels.items()}
            replaced += 1
        index: Mapping[str, Tuple[tuple, ...]]
        if relations is not None:
            index = {rel: tuple(relations.get(rel, ()))
                     for rel in self.schema}
        elif self.lazy_index:
            if previous is not None and not replaced and not deleted:
                # No-op delta: the page map is content-identical, so
                # the previous generation's index (and any relation a
                # reader already materialized in it) carries forward.
                index = previous.relations
            else:
                index = LazyRelationIndex(page_rows, self.schema)
        else:
            index = {rel: build_relation_index(page_rows, rel)
                     for rel in self.schema}
        generation = Generation(
            gen_id=self._gen_counter + 1,
            snapshot_index=snapshot_index,
            page_rows=page_rows,
            relations=index,
            created_at=time.time(),
            pages_total=len(page_rows),
            pages_replaced=replaced,
            pages_deleted=deleted,
            pages_kept=len(page_rows) - replaced,
        )
        with self._lock:
            self._gen_counter = generation.gen_id
            self._current = generation
        return generation
