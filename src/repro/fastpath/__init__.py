"""Snapshot-delta fast paths (extension).

Delex's per-snapshot cost is dominated by region matching and blackbox
re-extraction, yet slowly-evolving corpora are mostly *unchanged*
pages: the opportunity that differential view-maintenance work
formalizes. This package adds behaviour-preserving shortcuts threaded
through matchers, reuse engine, runtime, and timing, all behind one
switch (:func:`.config.fastpath_enabled`):

* **Page identity** (:mod:`.fingerprint`) — :func:`pages_identical`
  is the one page-identity test: an exact text comparison, which
  rejects a length change in O(1). The reuse engine recycles an identical page whole
  (:func:`repro.reuse.engine._recycle_page`), as Shortcut does in the
  paper, under any matcher plan.
* **One match store** (:class:`.memo.MatchMemo` over
  :class:`.matchcache.CrossSnapshotMatchCache`) — matcher results
  keyed by (matcher config, p-region fingerprint, q-region
  fingerprint), so every IE unit matching the same region *content*
  pays the diff exactly once, on any page and in any later snapshot.
  Content-equal regions are answered in O(1) without a store entry.
  Distinct from the RU :class:`~repro.matchers.base.MatchCache`, which
  stores *found segments* for recycling by a different matcher; the
  store holds the full match result for a content-equal repeat of the
  same call.
* **Suffix-automaton cache** (:class:`.memo.AutomatonCache`) — the ST
  matcher's automaton per q-region content is built once per page pair
  and reused across input rows and units.

With the switch off the engine takes none of them; it produces
byte-identical reuse files and identical extraction results either way
(the same bar as the runtime's serial/parallel parity). Hit/miss
counters are reported through :class:`.stats.FastPathStats` on
:class:`~repro.timing.Timings.fastpath`.
"""

from .config import fastpath_enabled
from .fingerprint import content_fingerprint, pages_identical
from .matchcache import CrossSnapshotMatchCache
from .memo import AutomatonCache, MatchMemo, RegionFingerprints
from .stats import FastPathStats

__all__ = [
    "AutomatonCache",
    "CrossSnapshotMatchCache",
    "FastPathStats",
    "MatchMemo",
    "RegionFingerprints",
    "content_fingerprint",
    "fastpath_enabled",
    "pages_identical",
]
