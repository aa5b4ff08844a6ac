"""Scatter-gather query routing under the generation-vector barrier.

The router is the sharded tier's consistency authority. Each shard's
ingest loop reports every apply outcome through its ``on_applied``
hook into :meth:`ShardRouter.record`; the router keeps, per view and
per shard, a bounded history of ``snapshot index -> published
generation`` plus a per-shard high-water mark, and publishes a new
:class:`~repro.shard.genvec.ShardVector` only when **every** shard has
applied the same snapshot index — the snapshot-scoped barrier. The
published vector is a single atomic reference swap, so readers get
the same epoch discipline the single store gives them: take the
current vector once, answer the whole query off it, and it is
impossible to observe shard A at snapshot *k* mixed with shard B at
*k-1*.

Failure modes, by construction:

* a shard **quarantines** snapshot *k* → its high-water mark stays at
  *k-1*, the barrier never fires for *k*, the view keeps serving the
  last consistent vector (degraded, visible in :meth:`healthz`) — a
  torn read is not representable;
* the shard later applies *k+1* cleanly → the barrier fires at *k+1*
  the moment every shard has it, and the view **heals without
  intervention** (vector indexes may skip, like generation ids after
  a quarantine);
* a shard's loop **dies or stalls** → same freeze, plus the front
  door's admission tokens stop coming back, so producers see
  backpressure instead of unbounded queue growth.

Query answering is scatter-gather with the scatter done at publish
time: the vector pins one generation per shard, the cross-shard
merged relation index materializes lazily on the vector
(:meth:`ShardVector.relation`), and every row of a response comes from
the generations that one vector pins. Results are byte-identical to a
single :class:`~repro.serve.store.TupleStore` over the whole corpus —
pinned by ``tests/test_shard.py``.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Deque, Dict, List, Mapping, Optional, Sequence

from ..corpus.snapshot import Snapshot
from ..obs import registry as _oreg
from ..serve.store import (EmptyViewError, Generation, QueryResult,
                           RowCodec, UnknownRelationError, filter_rows)
from .genvec import ShardVector

#: Per (view, shard) bound on retained ``snapshot -> generation``
#: entries awaiting the barrier. 32 spans far more in-flight skew
#: than a queue of capacity 8 can create.
VECTOR_HISTORY = 32

#: Published vectors retained per view for lag reporting.
PUBLISH_HISTORY = 64


class _ViewVectorState:
    """Barrier bookkeeping for one view (all under the router lock)."""

    def __init__(self, name: str, schema: Sequence[str],
                 n_shards: int) -> None:
        self.name = name
        self.schema = tuple(schema)
        #: Per shard: snapshot index -> the Generation that shard
        #: published for it (bounded, oldest evicts first).
        self.histories: List["OrderedDict[int, Generation]"] = [
            OrderedDict() for _ in range(n_shards)]
        #: Per shard: highest snapshot index applied cleanly.
        self.last_ok: List[Optional[int]] = [None] * n_shards
        #: Per shard: snapshot indexes this shard quarantined.
        self.quarantined: List[List[int]] = [[] for _ in range(n_shards)]
        #: Earliest front-door enqueue mono seen per snapshot index —
        #: vector lag is publish minus this.
        self.enqueued_mono: Dict[int, float] = {}
        self.current: Optional[ShardVector] = None
        self.vector_counter = 0
        #: Per relation, the merged rows' encodings; readers fill them.
        self.codecs = {rel: RowCodec() for rel in self.schema}
        self.publishes: Deque[Dict[str, object]] = deque(
            maxlen=PUBLISH_HISTORY)


class ShardRouter:
    """Assembles consistent cross-shard reads for every view."""

    def __init__(self, n_shards: int) -> None:
        self.n_shards = n_shards
        self._lock = threading.Lock()
        self._views: Dict[str, _ViewVectorState] = {}
        self.queries_served = 0
        self.vectors_published = 0
        self.records_seen = 0

    # -- registration ------------------------------------------------------

    def register_view(self, name: str, schema: Sequence[str]) -> None:
        with self._lock:
            if name in self._views:
                raise ValueError(f"view {name!r} already routed")
            self._views[name] = _ViewVectorState(
                name, schema, self.n_shards)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._views)

    def _state(self, view: str) -> _ViewVectorState:
        with self._lock:
            if view not in self._views:
                raise KeyError(f"no view {view!r}; routed: "
                               f"{sorted(self._views)}")
            return self._views[view]

    # -- the barrier (called from shard ingest threads) --------------------

    def record(self, shard_id: int, snapshot: Snapshot,
               outcomes: Mapping[str, Optional[Generation]],
               enqueued_mono: Optional[float], skipped: bool) -> None:
        """Fold one shard's apply outcome into every view's barrier.

        ``outcomes[view]`` is the generation shard ``shard_id``
        published for this snapshot, or None when that view
        quarantined it there. A stale idempotent skip (``skipped``)
        changes no barrier state — the shard already counted that
        index. Publishes happen inside the router lock; the swap of
        ``state.current`` is the only thing readers race with, and
        they only ever read the reference.
        """
        with self._lock:
            self.records_seen += 1
            if skipped:
                return
            for state in self._views.values():
                self._record_view(state, shard_id, snapshot.index,
                                  outcomes.get(state.name),
                                  enqueued_mono)

    def _record_view(self, state: _ViewVectorState, shard_id: int,
                     index: int, generation: Optional[Generation],
                     enqueued_mono: Optional[float]) -> None:
        if enqueued_mono is not None:
            known = state.enqueued_mono.get(index)
            if known is None or enqueued_mono < known:
                state.enqueued_mono[index] = enqueued_mono
        if generation is None:
            state.quarantined[shard_id].append(index)
            return
        history = state.histories[shard_id]
        history[index] = generation
        while len(history) > VECTOR_HISTORY:
            history.popitem(last=False)
        last = state.last_ok[shard_id]
        if last is None or index > last:
            state.last_ok[shard_id] = index
        self._try_publish(state)

    def _try_publish(self, state: _ViewVectorState) -> None:
        """Fire the barrier if every shard has a common new index."""
        if any(last is None for last in state.last_ok):
            return
        frontier = min(last for last in state.last_ok
                       if last is not None)
        current = state.current
        if current is not None and frontier <= current.snapshot_index:
            return
        # Publish the *highest* index <= frontier that every shard
        # holds: a shard that quarantined the frontier index on its
        # own timeline keeps the barrier at the last common one.
        candidates = set(state.histories[0])
        for history in state.histories[1:]:
            candidates &= set(history)
        if current is not None:
            candidates = {c for c in candidates
                          if c > current.snapshot_index}
        if not candidates:
            return
        index = max(c for c in candidates if c <= frontier) \
            if any(c <= frontier for c in candidates) else None
        if index is None:
            return
        generations = [state.histories[s][index]
                       for s in range(self.n_shards)]
        now_mono = time.monotonic()
        enq = state.enqueued_mono.get(index)
        lag = max(0.0, now_mono - enq) if enq is not None else None
        state.vector_counter += 1
        vector = ShardVector(
            view=state.name, vector_id=state.vector_counter,
            snapshot_index=index, generations=generations,
            published_mono=now_mono, lag_seconds=lag)
        state.current = vector
        state.publishes.append({
            "snapshot_index": index,
            "vector_id": vector.vector_id,
            "shard_generations": list(vector.gen_ids()),
            "lag_seconds": lag,
        })
        # Old enqueue stamps can never publish again; drop them.
        for stale in [k for k in state.enqueued_mono if k <= index]:
            del state.enqueued_mono[stale]
        self.vectors_published += 1
        if _oreg.ENABLED:
            _oreg.REGISTRY.inc(
                "repro_shard_vectors_published_total",
                help="consistent generation vectors published per view",
                view=state.name)
            if lag is not None:
                _oreg.REGISTRY.observe(
                    "repro_shard_vector_lag_seconds", lag,
                    help="front-door enqueue to consistent-vector "
                         "publish (monotonic clock)", view=state.name)

    # -- reads (any thread) ------------------------------------------------

    def vector(self, view: str) -> Optional[ShardVector]:
        """The current consistent vector (None before the first)."""
        return self._state(view).current

    def query(self, view: str, relation: str, offset: int = 0,
              limit: int = 50, contains: Optional[str] = None,
              field_filters: Optional[Mapping[str, str]] = None
              ) -> QueryResult:
        """One consistent scatter-gather read.

        Same request surface and same semantics as
        :meth:`TupleStore.query`; ``generation`` in the result is the
        vector id and ``snapshot_index`` the barrier index — every
        tuple comes from that one epoch.
        """
        state = self._state(view)
        vector = state.current
        if vector is None:
            raise EmptyViewError(
                f"view {view!r} has no consistent vector yet")
        if relation not in state.schema:
            raise UnknownRelationError(
                f"view {view!r} has no relation {relation!r}; "
                f"schema is {state.schema}")
        codec = state.codecs[relation]
        rows: Sequence[tuple] = vector.relation(relation)
        rows = filter_rows(rows, codec, contains, field_filters)
        offset = max(0, offset)
        limit = max(0, limit)
        with self._lock:
            self.queries_served += 1
        if _oreg.ENABLED:
            _oreg.REGISTRY.inc(
                "repro_shard_queries_total",
                help="scatter-gather queries answered per view",
                view=view)
        return QueryResult(
            view=view, generation=vector.vector_id,
            snapshot_index=vector.snapshot_index, relation=relation,
            total=len(rows), offset=offset, limit=limit,
            tuples=list(rows[offset:offset + limit]), codec=codec)

    # -- status ------------------------------------------------------------

    def lagging_shards(self, view: str) -> List[int]:
        """Shards whose high-water mark trails the most advanced one."""
        state = self._state(view)
        with self._lock:
            marks = [(-1 if last is None else last)
                     for last in state.last_ok]
        head = max(marks) if marks else -1
        return [s for s, mark in enumerate(marks) if mark < head]

    def healthz(self) -> Dict[str, object]:
        views: Dict[str, object] = {}
        ok = True
        with self._lock:
            states = list(self._views.values())
        for state in states:
            lagging = self.lagging_shards(state.name)
            quarantines = sum(len(q) for q in state.quarantined)
            vector = state.current
            healthy = not lagging and not quarantines
            ok = ok and healthy
            views[state.name] = {
                "healthy": healthy,
                "lagging_shards": lagging,
                "quarantined": quarantines,
                "last_ok": list(state.last_ok),
                "vector": (vector.describe()
                           if vector is not None else None),
            }
        return {"consistent": True, "ok": ok, "views": views}

    def publishes(self, view: str) -> List[Dict[str, object]]:
        """Per-publish records (vector id, barrier index, lag)."""
        return list(self._state(view).publishes)

    def describe(self) -> Dict[str, object]:
        with self._lock:
            states = list(self._views.values())
            summary: Dict[str, object] = {
                "n_shards": self.n_shards,
                "queries_served": self.queries_served,
                "vectors_published": self.vectors_published,
                "records_seen": self.records_seen,
            }
        summary["views"] = {
            state.name: {
                "schema": list(state.schema),
                "last_ok": list(state.last_ok),
                "vector": (state.current.describe()
                           if state.current is not None else None),
                "publishes": len(state.publishes),
            }
            for state in states
        }
        return summary
