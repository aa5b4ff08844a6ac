"""The one content-keyed store of matcher results.

Every memoized matcher call (:class:`~repro.fastpath.memo.MatchMemo`)
looks its answer up here, whether the same region content was matched
by a sibling unit on the same page pair, on another page, or on an
earlier snapshot: the store is carried across the whole snapshot series
by :class:`~repro.core.delex.DelexSystem` (and by ``repro.serve`` views
across ``apply()`` calls). Keys are ``(matcher config,
fp(p_text[p_region]), fp(q_text[q_region]))`` — pure content, no
offsets. Values are *relative* segment triples ``(dp, dq, length)``;
the memo rebases them onto the current region offsets and retags itids
on replay.

The store is an LRU bounded by both entry count and an estimate of
retained bytes. Hits and misses are counted once, by the caller, in
:class:`~repro.fastpath.stats.FastPathStats`; the store reports only
what only it knows — occupancy and evictions — via :meth:`counters`
(the ``repro_matchcache_*`` metric families). A lock makes it safe
under the runtime's thread backend, where all workers share one store;
process workers get a private per-worker store instead (the engine's
pickle whitelist drops it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Optional, Tuple

#: Key: (matcher config key, p-region fingerprint, q-region fingerprint).
CacheKey = Tuple[tuple, bytes, bytes]

#: Value: ((dp, dq, length), ...) region-relative segments.
CacheValue = Tuple[Tuple[int, int, int], ...]

#: Rough per-entry overhead: key tuples + fingerprints + dict slot.
_ENTRY_BASE_BYTES = 200
#: Rough bytes per stored (dp, dq, length) triple.
_SEGMENT_BYTES = 120


def _entry_bytes(segments: CacheValue) -> int:
    return _ENTRY_BASE_BYTES + _SEGMENT_BYTES * len(segments)


class CrossSnapshotMatchCache:
    """Bounded LRU of content-keyed match results.

    Thread-safe; shared across page pairs and snapshots. ``evictions``
    is a lifetime total since construction.
    """

    def __init__(self, max_entries: int = 65536,
                 max_bytes: int = 32 * 1024 * 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be >= 1")
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self._data: "OrderedDict[CacheKey, Tuple[CacheValue, int]]" = \
            OrderedDict()
        self._lock = threading.Lock()
        self._bytes = 0
        self.evictions = 0

    def get(self, key: CacheKey) -> Optional[CacheValue]:
        """The cached segments for ``key``, refreshing its LRU
        position, or None."""
        with self._lock:
            hit = self._data.get(key)
            if hit is None:
                return None
            self._data.move_to_end(key)
            return hit[0]

    def put(self, key: CacheKey, segments: CacheValue) -> int:
        """Insert (or refresh) an entry; returns how many entries were
        evicted to make room."""
        nbytes = _entry_bytes(segments)
        evicted = 0
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._data[key] = (segments, nbytes)
            self._bytes += nbytes
            while self._data and (len(self._data) > self.max_entries
                                  or self._bytes > self.max_bytes):
                _, (_, freed) = self._data.popitem(last=False)
                self._bytes -= freed
                self.evictions += 1
                evicted += 1
        return evicted

    def __len__(self) -> int:
        return len(self._data)

    @property
    def bytes(self) -> int:
        return self._bytes

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self._bytes = 0

    def counters(self) -> Dict[str, int]:
        """Occupancy and lifetime evictions, for /metrics and reports."""
        with self._lock:
            return {
                "entries": len(self._data),
                "bytes": self._bytes,
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "evictions": self.evictions,
            }

    def describe(self) -> str:
        c = self.counters()
        return (f"matchcache entries={c['entries']} bytes={c['bytes']} "
                f"evictions={c['evictions']}")
