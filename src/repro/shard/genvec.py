"""The generation vector: one consistent cross-shard read epoch.

A sharded view publishes per shard — shard *s* swaps in its own
:class:`~repro.serve.store.Generation` when its sub-snapshot applies —
so "the current state of the view" is no longer one reference but a
*vector* of per-shard generations. The consistency hazard is mixing
vector positions from different snapshots: generation *g* of shard A
(which already applied snapshot *k*) merged with generation *g-1* of
shard B (still at *k-1*) is a torn read that no single corpus state
ever produced.

:class:`ShardVector` is the fix, shaped exactly like the single-store
answer: an immutable value holding one generation per shard, all
published by the *same* snapshot index, put together by the router's
barrier (:mod:`repro.shard.router`) only once every shard has applied
that snapshot. Readers take the current vector reference once and run
the whole query off it — the same epoch discipline as
``TupleStore.current()``, lifted from one generation to N.

The vector also owns the read-side index cache: per-shard stores run
lazy (:class:`~repro.serve.store.LazyRelationIndex` — apply does not
sort), and the cross-shard merged relation index materializes here on
first read, at most once per (vector, relation). That is the sharded
tier's structural lag win: dedupe+sort leaves the writer path
entirely, and the merge cost is amortized across every query served
from the same vector.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..serve.store import Generation, merge_relation_indexes


class ShardVector:
    """One immutable consistent epoch of a sharded view.

    ``generations[s]`` is shard *s*'s generation as published for
    ``snapshot_index``; ``vector_id`` increases by one per published
    vector (the cross-shard analogue of ``gen_id``). The merged
    relation cache is internally mutable but write-once per relation
    and lock-guarded, so the object is safe to share across any
    number of reader threads.
    """

    __slots__ = ("view", "vector_id", "snapshot_index", "generations",
                 "published_mono", "lag_seconds", "_merged", "_lock")

    def __init__(self, view: str, vector_id: int, snapshot_index: int,
                 generations: Sequence[Generation],
                 published_mono: float,
                 lag_seconds: Optional[float]) -> None:
        self.view = view
        self.vector_id = vector_id
        self.snapshot_index = snapshot_index
        self.generations: Tuple[Generation, ...] = tuple(generations)
        self.published_mono = published_mono
        self.lag_seconds = lag_seconds
        self._merged: Dict[str, Tuple[tuple, ...]] = {}
        self._lock = threading.Lock()

    def relation(self, relation: str) -> Tuple[tuple, ...]:
        """The merged cross-shard relation index, built on first read.

        Byte-identical to the single store's eager index: each shard's
        index is already in canonical order, and
        :func:`~repro.serve.store.merge_relation_indexes` is exactly
        the global dedupe-then-sort over the union of the shards'
        pages. Double-checked lock: concurrent first readers build at
        most once.
        """
        merged = self._merged.get(relation)
        if merged is None:
            with self._lock:
                merged = self._merged.get(relation)
                if merged is None:
                    merged = merge_relation_indexes(
                        [gen.relations.get(relation, ())
                         for gen in self.generations])
                    self._merged[relation] = merged
        return merged

    def gen_ids(self) -> Tuple[int, ...]:
        """Per-shard generation ids, in shard order."""
        return tuple(gen.gen_id for gen in self.generations)

    def total_tuples(self, schema: Sequence[str]) -> int:
        return sum(len(self.relation(rel)) for rel in schema)

    def describe(self) -> Mapping[str, object]:
        return {
            "view": self.view,
            "vector_id": self.vector_id,
            "snapshot_index": self.snapshot_index,
            "shard_generations": list(self.gen_ids()),
            "lag_seconds": self.lag_seconds,
            "merged_relations": sorted(self._merged),
        }
