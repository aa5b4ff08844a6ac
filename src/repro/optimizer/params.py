"""Cost-model parameters (Figure 7).

Three parameter families:

* meta-data statistics (Figure 7a): per-unit input tuple counts ``a``,
  region lengths ``l``, reuse-file sizes ``b``/``c`` in blocks, corpus
  size ``d``/``m``, hash-bucket count ``v``;
* selectivity statistics (Figure 7b): fraction of pages with a previous
  version ``f``, matcher invocations ``s``, post-match extraction
  fraction ``g``, copy regions per region ``h``;
* cost weights ``w``: seconds per block of I/O, per matched character,
  per extracted character, per comparison/probe.

Estimated quantities carry hats in the paper; here everything in
:class:`Statistics` is an estimate produced by
:mod:`repro.optimizer.stats` from a small page sample and the last few
snapshots.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..matchers.base import DN_NAME, RU_NAME, ST_NAME, UD_NAME

DEFAULT_HASH_BUCKETS = 1024


@dataclass
class CostWeights:
    """Environment-dependent cost weights (seconds per unit of work)."""

    io_per_block: float = 2e-5
    find_per_comparison: float = 2e-7
    copy_per_probe: float = 5e-7
    match_rate: Dict[str, float] = field(default_factory=dict)
    """Seconds per character matched, per matcher name."""

    def rate_of(self, matcher: str) -> float:
        if matcher == DN_NAME:
            return 0.0
        if matcher == RU_NAME:
            # RU touches recorded segments, not text; per-character cost
            # is negligible (Section 6.2 relies on this).
            return self.match_rate.get(RU_NAME, 1e-9)
        return self.match_rate.get(matcher, 1e-6)

    def to_dict(self) -> Dict[str, object]:
        return {
            "io_per_block": self.io_per_block,
            "find_per_comparison": self.find_per_comparison,
            "copy_per_probe": self.copy_per_probe,
            "match_rate": dict(sorted(self.match_rate.items())),
        }


def probe_io_weight(block_size: int = 4096, blocks: int = 256) -> float:
    """Measure sequential I/O seconds per block on this machine."""
    payload = b"x" * block_size
    with tempfile.NamedTemporaryFile(delete=False) as f:
        path = f.name
        start = time.perf_counter()
        for _ in range(blocks):
            f.write(payload)
        f.flush()
        os.fsync(f.fileno())
        write_time = time.perf_counter() - start
    try:
        start = time.perf_counter()
        with open(path, "rb") as f:
            while f.read(block_size):
                pass
        read_time = time.perf_counter() - start
    finally:
        os.unlink(path)
    return (write_time + read_time) / (2 * blocks)


@dataclass
class UnitEstimates:
    """Per-IE-unit statistics feeding the cost formulas."""

    a: float = 1.0
    """Average input tuples per page (current snapshot)."""

    a_prev: float = 1.0
    """Average input tuples per page recorded on the previous snapshot."""

    l: float = 0.0
    """Average region length (characters) per input tuple."""

    extract_rate: float = 0.0
    """Extractor seconds per character."""

    b_blocks: float = 0.0
    """Size of I_U on disk (blocks), previous snapshot."""

    c_blocks: float = 0.0
    """Size of O_U on disk (blocks), previous snapshot."""

    s: Dict[str, float] = field(default_factory=dict)
    """Matcher invocations per input tuple, per matcher."""

    g: Dict[str, float] = field(default_factory=dict)
    """Post-match extraction fraction, per matcher (1.0 for DN)."""

    h: Dict[str, float] = field(default_factory=dict)
    """Copy regions per matched input region, per matcher."""

    g_ru: Dict[str, float] = field(default_factory=dict)
    """RU extraction fraction when recycling a donor of each kind."""

    h_ru: Dict[str, float] = field(default_factory=dict)
    """RU copy regions when recycling a donor of each kind."""

    r: float = 0.0
    """Fraction of the input chars on paired pages that cost nothing
    under any matcher, no matcher and no extraction: they replay (their
    region, or declared split, has text the unit recorded on the
    previous page), or they sit in a split the unit's key does not
    select. ``s``, ``g`` and ``h`` describe the rest."""

    split: bool = False
    """The unit declares a splitter, so what does not replay is
    extracted split by split, without a matcher."""

    def g_of(self, matcher: str,
             donor_matcher: Optional[str] = None) -> float:
        if matcher == DN_NAME:
            return 1.0
        if matcher == RU_NAME:
            if donor_matcher is None:
                return 1.0  # no donor: RU degenerates to DN
            return self.g_ru.get(donor_matcher, 1.0)
        return self.g.get(matcher, 1.0)

    def h_of(self, matcher: str,
             donor_matcher: Optional[str] = None) -> float:
        if matcher == DN_NAME:
            return 0.0
        if matcher == RU_NAME:
            if donor_matcher is None:
                return 0.0
            return self.h_ru.get(donor_matcher, 0.0)
        return self.h.get(matcher, 0.0)

    def s_of(self, matcher: str) -> float:
        if matcher == DN_NAME:
            return 0.0
        return self.s.get(matcher, 1.0)

    def to_dict(self) -> Dict[str, object]:
        return {
            "a": self.a, "a_prev": self.a_prev, "l": self.l,
            "extract_rate": self.extract_rate,
            "b_blocks": self.b_blocks, "c_blocks": self.c_blocks,
            "s": dict(sorted(self.s.items())),
            "g": dict(sorted(self.g.items())),
            "h": dict(sorted(self.h.items())),
            "g_ru": dict(sorted(self.g_ru.items())),
            "h_ru": dict(sorted(self.h_ru.items())),
            "r": self.r, "split": self.split,
        }


@dataclass
class Statistics:
    """Everything the cost model needs to price a plan."""

    f: float
    """Fraction of pages with an earlier version (Figure 7b)."""

    m: int
    """Number of pages in the snapshot to be processed."""

    d_blocks: float
    """Raw page data size in blocks (previous snapshot)."""

    units: Dict[str, UnitEstimates]
    weights: CostWeights
    v: int = DEFAULT_HASH_BUCKETS
    sample_pages: int = 0
    snapshots_used: int = 0

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (the shared ``to_dict`` contract).

        Emitted per snapshot by ``repro run --metrics-json`` so the
        optimizer's sampled inputs — and therefore every plan/replan
        decision derived from them — are auditable offline.
        """
        return {
            "f": self.f, "m": self.m, "d_blocks": self.d_blocks,
            "v": self.v, "sample_pages": self.sample_pages,
            "snapshots_used": self.snapshots_used,
            "weights": self.weights.to_dict(),
            "units": {uid: est.to_dict()
                      for uid, est in sorted(self.units.items())},
        }


__all__ = [
    "CostWeights",
    "UnitEstimates",
    "Statistics",
    "probe_io_weight",
    "DEFAULT_HASH_BUCKETS",
    "DN_NAME",
    "UD_NAME",
    "ST_NAME",
    "RU_NAME",
]
