"""Online drift detection over per-snapshot run telemetry.

Every processed snapshot yields one :class:`AdaptObservation` — a small
vector of rates and costs gathered from what the runtime already
measures for free: the observed change rate (``pages_with_previous``),
the identical-page recycle and memo hit rates
(:class:`~repro.fastpath.stats.FastPathStats`), wall seconds per page
from the :class:`~repro.timing.Timings` decomposition, and the
cost-model residual (observed seconds vs the search's estimated plan
cost). Each channel feeds a two-sided :class:`PageHinkley` mean-shift
test; :class:`DriftDetector` aggregates them and raises a
:class:`DriftSignal` when any channel's cumulative deviation clears its
threshold.

Channel tuning: deterministic rate channels (change rate, hit rates)
use absolute deviations with tight thresholds; wall-clock channels are
normalized by their running mean (machine noise scales with magnitude);
the cost residual works on a log-ratio, so it is unit-free — a mean
shift there means the cost model stopped fitting reality, whichever
direction the regime moved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..reuse.engine import SnapshotRunResult


@dataclass(frozen=True)
class AdaptObservation:
    """One snapshot's telemetry as seen by the drift detector."""

    snapshot_index: int
    pages: int
    f_obs: float
    """Observed fraction of pages with a previous version."""

    unchanged_fraction: float
    """Fraction of paired pages recycled whole."""

    combined_hit_rate: float
    """Match-store hits + equal-region shortcuts over all lookups."""

    seconds_per_page: float
    match_seconds_per_page: float
    extract_seconds_per_page: float
    observed_seconds: float
    predicted_seconds: Optional[float] = None
    """The cost model's estimate for the plan that ran, if any."""

    fallback_ratio: Optional[float] = None
    """Delta-view fallback ratio, when a delta layer is in play."""

    @classmethod
    def from_run(cls, snapshot_index: int, result: SnapshotRunResult,
                 predicted_seconds: Optional[float] = None,
                 fallback_ratio: Optional[float] = None
                 ) -> "AdaptObservation":
        timings = result.timings
        pages = max(1, result.pages)
        fp = timings.fastpath
        return cls(
            snapshot_index=snapshot_index,
            pages=result.pages,
            f_obs=result.pages_with_previous / pages,
            unchanged_fraction=(fp.unchanged_fraction
                                if fp is not None else 0.0),
            combined_hit_rate=(fp.combined_hit_rate
                               if fp is not None else 0.0),
            seconds_per_page=timings.total / pages,
            match_seconds_per_page=timings.get("match") / pages,
            extract_seconds_per_page=timings.get("extract") / pages,
            observed_seconds=timings.total,
            predicted_seconds=predicted_seconds,
            fallback_ratio=fallback_ratio,
        )

    def channel_values(self) -> Dict[str, float]:
        """The detector's input vector; ``None``-valued channels omitted."""
        values = {
            "f": self.f_obs,
            "unchanged_fraction": self.unchanged_fraction,
            "combined_hit_rate": self.combined_hit_rate,
            "seconds_per_page": self.seconds_per_page,
        }
        if (self.predicted_seconds is not None
                and self.predicted_seconds > 0.0
                and self.observed_seconds > 0.0):
            values["cost_residual"] = math.log(
                self.observed_seconds / self.predicted_seconds)
        if self.fallback_ratio is not None:
            values["fallback_ratio"] = self.fallback_ratio
        return values


class PageHinkley:
    """Two-sided Page–Hinkley mean-shift test.

    Tracks the cumulative deviation of the stream from its running mean
    (minus a tolerance ``delta``) in both directions; fires when the
    excursion from the running extremum exceeds ``threshold``. With
    ``relative=True`` deviations are normalized by the running mean's
    magnitude, making the test scale-free for wall-clock channels.
    """

    def __init__(self, delta: float = 0.005, threshold: float = 0.5,
                 min_obs: int = 2, relative: bool = False) -> None:
        if threshold <= 0.0:
            raise ValueError("threshold must be positive")
        self.delta = delta
        self.threshold = threshold
        self.min_obs = min_obs
        self.relative = relative
        self.reset()

    def reset(self) -> None:
        self.n = 0
        self.mean = 0.0
        self._mt_up = 0.0
        self._min_up = 0.0
        self._mt_dn = 0.0
        self._max_dn = 0.0

    @property
    def score(self) -> float:
        """Normalized drift score; fires at >= 1.0."""
        excursion = max(self._mt_up - self._min_up,
                        self._max_dn - self._mt_dn)
        return excursion / self.threshold

    def update(self, x: float) -> bool:
        self.n += 1
        self.mean += (x - self.mean) / self.n
        scale = (max(abs(self.mean), 1e-12) if self.relative else 1.0)
        deviation = (x - self.mean) / scale
        self._mt_up += deviation - self.delta
        self._min_up = min(self._min_up, self._mt_up)
        self._mt_dn += deviation + self.delta
        self._max_dn = max(self._max_dn, self._mt_dn)
        if self.n < self.min_obs:
            return False
        return self.score >= 1.0


@dataclass(frozen=True)
class ChannelSpec:
    """Page–Hinkley parameters for one observation channel."""

    delta: float
    threshold: float
    relative: bool = False


#: Default channel tuning. Rate channels are deterministic given the
#: corpus, so tight absolute thresholds hold without false positives;
#: wall-clock channels are relative (machine-noise tolerant) and
#: slower to fire.
DEFAULT_CHANNELS: Mapping[str, ChannelSpec] = {
    "f": ChannelSpec(delta=0.01, threshold=0.35),
    "unchanged_fraction": ChannelSpec(delta=0.02, threshold=0.45),
    "combined_hit_rate": ChannelSpec(delta=0.02, threshold=0.45),
    "seconds_per_page": ChannelSpec(delta=0.15, threshold=1.6,
                                    relative=True),
    "cost_residual": ChannelSpec(delta=0.15, threshold=1.6),
    "fallback_ratio": ChannelSpec(delta=0.02, threshold=0.45),
}


@dataclass(frozen=True)
class DriftSignal:
    """Raised (returned) by the detector when a mean shift clears."""

    snapshot_index: int
    score: float
    channels: Tuple[str, ...]
    """Channels whose tests fired, strongest first."""

    values: Dict[str, float] = field(default_factory=dict)
    """The observation's channel values at firing time."""

    def to_dict(self) -> Dict[str, object]:
        return {
            "snapshot_index": self.snapshot_index,
            "score": round(self.score, 4),
            "channels": list(self.channels),
            "values": {k: round(v, 6) for k, v in self.values.items()},
        }


class DriftDetector:
    """Aggregates per-channel Page–Hinkley tests over observations.

    ``warmup`` observations must be seen before any signal is raised —
    the first few snapshots establish the baseline mean. ``reset()``
    restarts every channel (called after a replan so the new regime
    becomes the new baseline).
    """

    def __init__(self, warmup: int = 2,
                 channels: Optional[Mapping[str, ChannelSpec]] = None
                 ) -> None:
        self.warmup = warmup
        self.specs: Dict[str, ChannelSpec] = dict(channels
                                                  if channels is not None
                                                  else DEFAULT_CHANNELS)
        self._tests: Dict[str, PageHinkley] = {}
        self.seen = 0
        self.last_scores: Dict[str, float] = {}

    def reset(self) -> None:
        for test in self._tests.values():
            test.reset()
        self.seen = 0
        self.last_scores = {}

    @property
    def drift_score(self) -> float:
        """Strongest channel score from the last observation (>= 0)."""
        return max(self.last_scores.values(), default=0.0)

    def observe(self, obs: AdaptObservation) -> Optional[DriftSignal]:
        self.seen += 1
        values = obs.channel_values()
        fired = []
        scores: Dict[str, float] = {}
        for channel, value in values.items():
            spec = self.specs.get(channel)
            if spec is None:
                continue
            test = self._tests.get(channel)
            if test is None:
                test = PageHinkley(delta=spec.delta,
                                   threshold=spec.threshold,
                                   relative=spec.relative)
                self._tests[channel] = test
            if test.update(value):
                fired.append((test.score, channel))
            scores[channel] = test.score
        self.last_scores = scores
        if not fired or self.seen <= self.warmup:
            return None
        fired.sort(reverse=True)
        return DriftSignal(
            snapshot_index=obs.snapshot_index,
            score=fired[0][0],
            channels=tuple(channel for _score, channel in fired),
            values=values,
        )
