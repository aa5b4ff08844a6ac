"""Mid-series re-optimization behind a hysteresis guard.

:class:`AdaptiveDelexSystem` changes the optimizer's *economics*, not
its mechanics. The base :class:`~repro.core.delex.DelexSystem` already
plans once and pays the §6.3 sampling cost again only when the last
run's page counts drift (:class:`~repro.core.delex.PageMix`); the
adaptive system also pins the winning
:class:`~repro.reuse.engine.PlanAssignment`, but re-enters the
optimizer when the :class:`~repro.adapt.detect` layer reports a mean
shift in the run telemetry, and switches only behind a guard. On a drift signal it
re-runs the statistics collector on a fresh sample (with the
recency-weighted ``f`` estimator, so the new regime's change rate
dominates) plus the Algorithm-1 search, then applies the new plan only
if the hysteresis guard agrees:

* the new plan's estimated cost must undercut the *current* plan priced
  under the fresh statistics by at least ``switch_margin``;
* the estimated per-snapshot win must repay the sampling cost within
  ``payback_snapshots`` snapshots (the safe/unsafe-update economics of
  Kassaie & Tompa: re-planning is itself a cost);
* a ``cooldown`` of snapshots follows every replan, preventing A/B
  thrash when two plans price within noise of each other.

Theorem 1 guarantees any assignment produces identical results, so a
switch can never change output — every post-switch generation remains
byte-comparable against the batch oracle, which is exactly what
``repro check`` and the adaptive benchmark assert.

Modes: ``static`` plans once and never looks again (the benchmark
baseline; it differs from the base system only by the count
trigger); ``shadow`` detects, samples and logs the would-be decision
without ever switching; ``on`` closes the loop. ``force_replan_at``
injects ground-truth regime boundaries for the oracle-best-per-regime
baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

from ..corpus.snapshot import Snapshot
from ..obs import registry as _oreg
from ..optimizer.cost import plan_cost
from ..reuse.engine import PlanAssignment, SnapshotRunResult
from ..timing import Timer
from ..core.delex import DelexSystem
from .detect import AdaptObservation, DriftDetector, DriftSignal

ADAPT_MODES = ("static", "shadow", "on")


@dataclass(frozen=True)
class AdaptConfig:
    """Controller policy knobs."""

    mode: str = "on"
    warmup: int = 2
    """Observations the detector needs before it may fire."""

    cooldown: int = 2
    """Snapshots after a replan during which no new replan starts."""

    switch_margin: float = 0.05
    """Minimum relative cost win required to adopt a new plan."""

    payback_snapshots: float = 4.0
    """Horizon (snapshots) within which the estimated win must repay
    the sampling seconds spent to find it."""

    eval_window: int = 2
    """Snapshots on each side of a switch compared to score win/loss."""

    detect: bool = True
    """Run the drift detector; the oracle baseline disables it and
    relies on ``force_replan_at`` alone."""

    force_replan_at: FrozenSet[int] = frozenset()
    """Snapshot indexes at which to replan unconditionally (oracle)."""

    def __post_init__(self) -> None:
        if self.mode not in ADAPT_MODES:
            raise ValueError(f"adapt mode must be one of {ADAPT_MODES}")

    @classmethod
    def from_flag(cls, flag: object) -> Optional["AdaptConfig"]:
        """CLI flag → config; ``off``/``None`` mean no adaptive layer."""
        if flag is None or flag == "off":
            return None
        if isinstance(flag, cls):
            return flag
        if isinstance(flag, str) and flag in ADAPT_MODES:
            return cls(mode=flag)
        raise ValueError(f"unknown --adapt value: {flag!r}")


def should_switch(stay_cost: float, new_cost: float,
                  sampling_seconds: float, margin: float,
                  payback_snapshots: float, differs: bool = True) -> bool:
    """The hysteresis guard, as a pure function (unit-testable).

    ``stay_cost`` is the incumbent plan priced under the *fresh*
    statistics; ``new_cost`` the search winner's estimate under the
    same statistics — comparable by construction.
    """
    if not differs:
        return False
    if not new_cost < stay_cost * (1.0 - margin):
        return False
    return (stay_cost - new_cost) * payback_snapshots >= sampling_seconds


@dataclass
class AdaptDecision:
    """One snapshot's controller decision, for offline audit."""

    snapshot_index: int
    action: str
    """``bootstrap`` | ``initial_plan`` | ``keep`` | ``replan_keep`` |
    ``replan_switch`` | ``shadow_replan`` | ``forced_replan``."""

    assignment: Dict[str, str] = field(default_factory=dict)
    drift_score: float = 0.0
    signal: Optional[DriftSignal] = None
    sampling_seconds: float = 0.0
    stay_cost: Optional[float] = None
    new_cost: Optional[float] = None
    would_switch: bool = False
    """What the guard decided — applied only in ``on`` mode."""

    def to_dict(self) -> Dict[str, object]:
        doc: Dict[str, object] = {
            "snapshot_index": self.snapshot_index,
            "action": self.action,
            "assignment": dict(self.assignment),
            "drift_score": round(self.drift_score, 4),
            "sampling_seconds": round(self.sampling_seconds, 6),
            "would_switch": self.would_switch,
        }
        if self.signal is not None:
            doc["signal"] = self.signal.to_dict()
        if self.stay_cost is not None:
            doc["stay_cost"] = self.stay_cost
        if self.new_cost is not None:
            doc["new_cost"] = self.new_cost
        return doc


class AdaptiveDelexSystem(DelexSystem):
    """Delex that plans once and re-plans only on detected drift."""

    def __init__(self, task, workdir: str,
                 adapt: Optional[AdaptConfig] = None,
                 detector: Optional[DriftDetector] = None,
                 metrics_label: Optional[str] = None,
                 **kwargs) -> None:
        super().__init__(task, workdir, **kwargs)
        self.adapt = adapt if adapt is not None else AdaptConfig()
        self.detector = (detector if detector is not None
                         else DriftDetector(warmup=self.adapt.warmup))
        self.metrics_label = metrics_label or self.name
        # Fresh samples after a drift signal should price reuse at the
        # *new* regime's change rate, not the window average.
        self.f_mode = "recency"
        self._pending: Optional[DriftSignal] = None
        self._cooldown_left = 0
        self._spp_history: List[float] = []
        self._switch_evals: List[Dict[str, object]] = []
        self.decisions: List[AdaptDecision] = []
        self.detections = 0
        self.replans = 0
        self.switches = 0
        self.shadow_switches = 0
        self.sampling_seconds = 0.0
        self.switch_wins = 0
        self.switch_losses = 0

    # -- planning ------------------------------------------------------

    def _choose_assignment(self, snapshot: Snapshot,
                           timer: Timer) -> PlanAssignment:
        if not self._history or self._prev_dir is None:
            self._decide(AdaptDecision(snapshot.index, "bootstrap"))
            return self.fixed_assignment or PlanAssignment.all_dn(self.units)
        if self.fixed_assignment is not None:
            return self.fixed_assignment
        if self.last_search is None:
            search, _stats, seconds = self._sample_and_search(snapshot,
                                                              timer)
            self.sampling_seconds += seconds
            self._decide(AdaptDecision(
                snapshot.index, "initial_plan",
                assignment=dict(search.assignment.matchers),
                sampling_seconds=seconds))
            return search.assignment
        forced = snapshot.index in self.adapt.force_replan_at
        triggered = self._pending is not None and self._cooldown_left <= 0
        if (forced or triggered) and self.adapt.mode != "static":
            return self._replan(snapshot, timer, forced=forced)
        self._decide(AdaptDecision(
            snapshot.index, "keep",
            assignment=dict(self.last_search.assignment.matchers),
            drift_score=self.detector.drift_score))
        return self.last_search.assignment

    def _replan(self, snapshot: Snapshot, timer: Timer,
                forced: bool) -> PlanAssignment:
        incumbent = self.last_search
        signal = self._pending
        search, stats, seconds = self._sample_and_search(snapshot, timer)
        self.replans += 1
        self.sampling_seconds += seconds
        stay_cost = plan_cost(self.units, incumbent.assignment, stats)
        new_cost = search.estimated_cost
        differs = search.assignment.matchers != incumbent.assignment.matchers
        would = forced or should_switch(
            stay_cost, new_cost, seconds,
            self.adapt.switch_margin, self.adapt.payback_snapshots,
            differs=differs)
        apply = would and differs and self.adapt.mode == "on"
        if apply:
            action = "forced_replan" if forced else "replan_switch"
            chosen = search
            self.switches += 1
            self._begin_switch_eval(snapshot.index)
        else:
            action = ("shadow_replan" if self.adapt.mode == "shadow"
                      else "replan_keep")
            if would and differs:
                self.shadow_switches += 1
            chosen = incumbent
            # keep last_search/last_stats honest: the incumbent plan
            # stays in force even though the sampler just ran
            self.last_search = incumbent
        self._pending = None
        self._cooldown_left = self.adapt.cooldown
        self.detector.reset()
        self._publish_replan(action, seconds)
        self._decide(AdaptDecision(
            snapshot.index, action,
            assignment=dict(chosen.assignment.matchers),
            drift_score=signal.score if signal is not None else 0.0,
            signal=signal, sampling_seconds=seconds,
            stay_cost=stay_cost, new_cost=new_cost,
            would_switch=would and differs))
        return chosen.assignment

    # -- observation ---------------------------------------------------

    def process(self, snapshot: Snapshot,
                prev_snapshot: Optional[Snapshot] = None
                ) -> SnapshotRunResult:
        was_bootstrap = not self._history or self._prev_dir is None
        result = super().process(snapshot, prev_snapshot)
        if not was_bootstrap and self.adapt.mode != "static":
            self._observe(snapshot, result)
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
        return result

    def _observe(self, snapshot: Snapshot,
                 result: SnapshotRunResult) -> None:
        predicted = (self.last_search.estimated_cost
                     if self.last_search is not None else None)
        obs = AdaptObservation.from_run(snapshot.index, result,
                                        predicted_seconds=predicted)
        self._spp_history.append(obs.seconds_per_page)
        self._settle_switch_evals(obs)
        signal = (self.detector.observe(obs)
                  if self.adapt.detect else None)
        if signal is not None and self._pending is None:
            self._pending = signal
            self.detections += 1
            if _oreg.ENABLED:
                _oreg.REGISTRY.inc(
                    "repro_adapt_detections_total",
                    help="Drift signals raised by the online detector.",
                    system=self.metrics_label,
                    channel=signal.channels[0])
        if _oreg.ENABLED:
            _oreg.REGISTRY.set(
                "repro_adapt_drift_score", self.detector.drift_score,
                help="Strongest normalized Page-Hinkley score "
                     "(fires at >= 1).",
                system=self.metrics_label)

    def _begin_switch_eval(self, index: int) -> None:
        window = self.adapt.eval_window
        pre = self._spp_history[-window:]
        if pre:
            self._switch_evals.append(
                {"at": index, "pre": sum(pre) / len(pre), "post": []})

    def _settle_switch_evals(self, obs: AdaptObservation) -> None:
        window = self.adapt.eval_window
        for ev in self._switch_evals:
            if ev.get("settled"):
                continue
            post: List[float] = ev["post"]  # type: ignore[assignment]
            post.append(obs.seconds_per_page)
            if len(post) < window:
                continue
            ev["settled"] = True
            win = (sum(post) / len(post)) < ev["pre"]
            if win:
                self.switch_wins += 1
            else:
                self.switch_losses += 1
            if _oreg.ENABLED:
                _oreg.REGISTRY.inc(
                    "repro_adapt_switch_results_total",
                    help="Plan switches scored by observed seconds/page "
                         "before vs after.",
                    system=self.metrics_label,
                    result="win" if win else "loss")

    # -- bookkeeping ---------------------------------------------------

    def _decide(self, decision: AdaptDecision) -> None:
        self.decisions.append(decision)

    def _publish_replan(self, action: str, seconds: float) -> None:
        if not _oreg.ENABLED:
            return
        _oreg.REGISTRY.inc(
            "repro_adapt_replans_total",
            help="Statistics re-samples triggered by drift or force.",
            system=self.metrics_label)
        _oreg.REGISTRY.inc(
            "repro_adapt_sampling_seconds_total", seconds,
            help="Wall seconds spent re-sampling statistics.",
            system=self.metrics_label)
        if action in ("replan_switch", "forced_replan"):
            _oreg.REGISTRY.inc(
                "repro_adapt_switches_total",
                help="Plan switches actually applied.",
                system=self.metrics_label, action=action)

    def summary(self) -> Dict[str, object]:
        """Controller counters for ``/metrics`` and run footers."""
        return {
            "mode": self.adapt.mode,
            "detections": self.detections,
            "replans": self.replans,
            "switches": self.switches,
            "shadow_switches": self.shadow_switches,
            "switch_wins": self.switch_wins,
            "switch_losses": self.switch_losses,
            "sampling_seconds": round(self.sampling_seconds, 6),
            "drift_score": round(self.detector.drift_score, 4),
        }
