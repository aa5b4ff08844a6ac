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
* **Content-addressed replay** (:mod:`repro.reuse.replay`) — an input
  region, or a declared split of one, whose text the unit recorded on
  the previous page replays the recorded outputs, shifted, before any
  matcher runs; every other region takes the unit's matcher
  (:class:`.memo.MatchMemo` is that call's entry point).

There is no match store: no object carries match results across page
pairs or snapshots, and the ST matcher builds its suffix automaton per
call. The RU :class:`~repro.matchers.base.MatchCache` is a different
thing: it holds the segments one page pair's ST/UD units found, for RU
units of the same pair to recycle.

With the switch off the engine takes none of them; it produces
byte-identical reuse files and identical extraction results either way
(the same bar as the runtime's serial/parallel parity). Hit/miss
counters are reported through :class:`.stats.FastPathStats` on
:class:`~repro.timing.Timings.fastpath`.
"""

from .config import fastpath_enabled
from .fingerprint import content_fingerprint, pages_identical
from .memo import MatchMemo
from .stats import FastPathStats

__all__ = [
    "FastPathStats",
    "MatchMemo",
    "content_fingerprint",
    "fastpath_enabled",
    "pages_identical",
]
