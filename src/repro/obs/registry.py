"""Process-wide metrics registry with a Prometheus text exporter.

One :data:`REGISTRY` per process. Counters, gauges, and fixed-bucket
histograms live in named *families*; a family optionally carries label
names and hands out one child metric per label-value combination —
exactly the Prometheus data model, sized down to the stdlib.

Publishing is **pull-shaped and snapshot-granular**: the hot paths keep
mutating the cheap in-band counter bundles they always had
(:class:`~repro.timing.Timings`, ``RuntimeMetrics``, ``FastPathStats``,
``UnitRunStats``), and the *publish points* — once per snapshot in
:func:`repro.core.runner.run_series`, once per apply in
:mod:`repro.serve.views`, at render time in ``/metrics`` — fold those
aggregates into the registry behind a single ``if registry.ENABLED:``
module-attribute check. A disabled run therefore pays one attribute
load per snapshot, not per page or per matcher call, and extraction
output is byte-identical either way (the registry only ever *reads*
the run's telemetry).

Two exports:

* :meth:`MetricsRegistry.render_prometheus` — the text exposition
  format (``text/plain; version=0.0.4``), served by ``repro serve``'s
  ``/metrics?format=prometheus`` endpoint. Non-finite samples are
  dropped at observation time (and counted in
  ``repro_obs_dropped_samples_total``), so the exposition never
  contains ``nan``/``inf`` and counters never decrease.
* :meth:`MetricsRegistry.to_dict` — a JSON superset (per-family kind,
  help, label sets, bucket counts) embedded in
  ``repro run --metrics-json`` output under ``obs.registry``.
"""

from __future__ import annotations

import math
import re
import threading
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .util import safe_rate

#: Master publish switch. Publish sites guard with
#: ``if registry.ENABLED:`` — one module-attribute load when disabled.
ENABLED = False

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets, tuned for per-snapshot seconds.
DEFAULT_SECONDS_BUCKETS = (0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                           0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)


def enable(on: bool = True) -> None:
    """Turn registry publishing on (or off)."""
    global ENABLED
    ENABLED = bool(on)


def disable() -> None:
    enable(False)


class Counter:
    """Monotonically non-decreasing sample."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> bool:
        """Add ``amount``; negative/non-finite increments are dropped.

        Returns False when the sample was dropped (the registry counts
        drops so mis-measured negatives surface instead of corrupting
        the series).
        """
        if not isinstance(amount, (int, float)) or not math.isfinite(amount):
            return False
        if amount < 0:
            return False
        self.value += amount
        return True


class Gauge:
    """Point-in-time sample; may go up or down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> bool:
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
        self.value = float(value)
        return True


class Histogram:
    """Fixed-bucket histogram (cumulative buckets + sum + count)."""

    __slots__ = ("buckets", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Sequence[float]) -> None:
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        # One slot per finite bucket + the implicit +Inf bucket.
        self.bucket_counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> bool:
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return False
        for i, upper in enumerate(self.buckets):
            if value <= upper:
                self.bucket_counts[i] += 1
                break
        else:
            self.bucket_counts[-1] += 1
        self.sum += value
        self.count += 1
        return True

    @property
    def mean(self) -> float:
        return safe_rate(self.sum, self.count)


class MetricFamily:
    """All children of one metric name (one per label-value combo)."""

    def __init__(self, name: str, kind: str, help: str,  # noqa: A002
                 label_names: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help
        self.label_names = label_names
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: Dict[Tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _make_child(self):
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_SECONDS_BUCKETS)

    def labels(self, **labels: str):
        """The child metric for this label-value combination."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels "
                f"{self.label_names}, got {tuple(sorted(labels))}")
        key = tuple(str(labels[n]) for n in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def child(self):
        """The single unlabeled child (only for label-free families)."""
        if self.label_names:
            raise ValueError(f"metric {self.name!r} requires labels "
                             f"{self.label_names}")
        return self.labels()

    def samples(self) -> List[Tuple[Tuple[str, ...], object]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """A process's metric families, by name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, MetricFamily] = {}

    # -- family registration (idempotent) ---------------------------------

    def _family(self, name: str, kind: str, help: str,  # noqa: A002
                labels: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        label_names = tuple(labels)
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(name, kind, help, label_names,
                                      buckets=buckets)
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} re-registered as {kind} with labels "
                    f"{label_names}; existing is {family.kind} with "
                    f"{family.label_names}")
            return family

    def counter(self, name: str, help: str = "",  # noqa: A002
                labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",  # noqa: A002
              labels: Sequence[str] = ()) -> MetricFamily:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  labels: Sequence[str] = (),
                  buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS
                  ) -> MetricFamily:
        return self._family(name, "histogram", help, labels,
                            buckets=buckets)

    # -- one-line write API -----------------------------------------------

    def _dropped(self) -> None:
        family = self.counter("repro_obs_dropped_samples_total",
                              "samples rejected for being negative or "
                              "non-finite")
        family.child().value += 1.0

    def inc(self, name: str, amount: float = 1.0, help: str = "",  # noqa: A002
            **labels: str) -> None:
        family = self.counter(name, help, labels=tuple(sorted(labels)))
        if not family.labels(**labels).inc(amount):
            self._dropped()

    def set(self, name: str, value: float, help: str = "",  # noqa: A002
            **labels: str) -> None:
        family = self.gauge(name, help, labels=tuple(sorted(labels)))
        if not family.labels(**labels).set(value):
            self._dropped()

    def observe(self, name: str, value: float, help: str = "",  # noqa: A002
                buckets: Sequence[float] = DEFAULT_SECONDS_BUCKETS,
                **labels: str) -> None:
        family = self.histogram(name, help, labels=tuple(sorted(labels)),
                                buckets=buckets)
        if not family.labels(**labels).observe(value):
            self._dropped()

    # -- export ------------------------------------------------------------

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    @staticmethod
    def _label_str(names: Iterable[str], values: Iterable[str],
                   extra: str = "") -> str:
        parts = [f'{n}="{_escape(v)}"' for n, v in zip(names, values)]
        if extra:
            parts.append(extra)
        return "{" + ",".join(parts) + "}" if parts else ""

    def render_prometheus(self) -> str:
        """The Prometheus text exposition (version 0.0.4) of everything."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {family.help}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.samples():
                labels = self._label_str(family.label_names, values)
                if isinstance(child, Histogram):
                    cumulative = 0
                    for upper, n in zip(child.buckets,
                                        child.bucket_counts):
                        cumulative += n
                        le = self._label_str(
                            family.label_names, values,
                            extra=f'le="{_format(upper)}"')
                        lines.append(
                            f"{family.name}_bucket{le} {cumulative}")
                    cumulative += child.bucket_counts[-1]
                    le = self._label_str(family.label_names, values,
                                         extra='le="+Inf"')
                    lines.append(f"{family.name}_bucket{le} {cumulative}")
                    lines.append(f"{family.name}_sum{labels} "
                                 f"{_format(child.sum)}")
                    lines.append(f"{family.name}_count{labels} "
                                 f"{child.count}")
                else:
                    lines.append(f"{family.name}{labels} "
                                 f"{_format(child.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_dict(self) -> Dict[str, object]:
        """JSON superset of the exposition (per-family structure)."""
        out: Dict[str, object] = {}
        for family in self.families():
            samples = []
            for values, child in family.samples():
                labels = dict(zip(family.label_names, values))
                if isinstance(child, Histogram):
                    samples.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.sum,
                        "mean": child.mean,
                        "buckets": {
                            _format(u): n for u, n in
                            zip(child.buckets, child.bucket_counts)},
                        "inf": child.bucket_counts[-1],
                    })
                else:
                    samples.append({"labels": labels,
                                    "value": child.value})
            out[family.name] = {"kind": family.kind, "help": family.help,
                                "samples": samples}
        return out

    def reset(self) -> None:
        """Drop every family (test isolation)."""
        with self._lock:
            self._families.clear()


def _escape(value: str) -> str:
    return (value.replace("\\", r"\\").replace('"', r'\"')
            .replace("\n", r"\n"))


def _format(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


#: The process-wide registry every publisher writes into.
REGISTRY = MetricsRegistry()


# -- publish points ---------------------------------------------------------
#
# Duck-typed on purpose: the registry must not import the timing /
# runtime / fastpath layers (they sit below it in the import graph).

def publish_timings(system: str, timings) -> None:
    """Fold one snapshot's :class:`~repro.timing.Timings` in.

    Publishes the Figure 11 decomposition as
    ``repro_timing_seconds_total{system,category}``, the explicit
    parallel ``overlap_seconds`` counter, the per-snapshot wall
    histogram, and — when attached — the runtime and fast-path
    telemetry.
    """
    row = timings.as_row()
    timing = REGISTRY.counter(
        "repro_timing_seconds_total",
        "figure-11 runtime decomposition, seconds by category",
        labels=("system", "category"))
    for category in ("match", "extraction", "copy", "opt", "io",
                     "others"):
        timing.labels(system=system, category=category).inc(row[category])
    REGISTRY.counter(
        "repro_timing_overlap_seconds_total",
        "summed per-worker category seconds in excess of wall total "
        "(parallel overlap; the amount the clamp kept out of Others)",
        labels=("system",)).labels(system=system).inc(
            timings.overlap_seconds)
    REGISTRY.histogram(
        "repro_snapshot_seconds",
        "wall seconds per snapshot run",
        labels=("system",)).labels(system=system).observe(timings.total)
    runtime = getattr(timings, "runtime", None)
    if runtime is not None:
        publish_runtime(system, runtime)
    fastpath = getattr(timings, "fastpath", None)
    if fastpath is not None:
        publish_fastpath(system, fastpath)


def publish_runtime(system: str, metrics) -> None:
    """Fold a run's ``RuntimeMetrics`` in (gauges: latest run wins)."""
    labels = {"system": system}
    REGISTRY.set("repro_runtime_pages_per_second",
                 metrics.pages_per_second,
                 help="pages/sec of the latest parallel run", **labels)
    REGISTRY.set("repro_runtime_worker_utilization",
                 metrics.worker_utilization,
                 help="busy/available worker time of the latest run",
                 **labels)
    REGISTRY.set("repro_runtime_jobs", metrics.jobs,
                 help="worker count of the latest run", **labels)
    REGISTRY.inc("repro_runtime_busy_seconds_total",
                 max(0.0, metrics.busy_seconds),
                 help="summed worker-side batch seconds", **labels)


def publish_fastpath(system: str, stats) -> None:
    """Fold a run's ``FastPathStats`` counters in."""
    fp = REGISTRY.counter(
        "repro_fastpath_events_total",
        "snapshot-delta fast-path events by kind",
        labels=("system", "kind"))
    for kind in ("pages_paired", "pages_short_circuited",
                 "tuples_recycled", "memo_misses",
                 "region_short_circuits"):
        fp.labels(system=system, kind=kind).inc(
            float(getattr(stats, kind, 0) or 0))
    REGISTRY.inc("repro_fastpath_pages_recycled_total",
                 float(getattr(stats, "pages_recycled", 0) or 0),
                 help="identical pages recycled whole: page-table row "
                      "copied, previous rows reused", system=system)
    REGISTRY.set("repro_fastpath_combined_hit_rate",
                 getattr(stats, "combined_hit_rate", 0.0),
                 help="replayed regions and splits over those plus "
                      "the ST/UD candidates matched, latest run",
                 system=system)

