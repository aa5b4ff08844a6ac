"""repro.obs — unified observability: metrics and tracing.

The measurement substrate for everything the paper's evaluation (and
the ROADMAP's production north star) needs to *see*:

* :mod:`.registry` — a process-wide metrics registry (counters,
  gauges, fixed-bucket histograms, optional labels) that the timing
  decomposition, the execution runtime, the fast-path layer, and the
  serving stack all publish into; exported as Prometheus text
  (``repro serve`` → ``/metrics?format=prometheus``) and as a JSON
  superset (``repro run --metrics-json``).
* :mod:`.trace` — hierarchical span tracing (snapshot → batch → page
  → IE unit → matcher call) with sampling, a bounded ring buffer that
  counts its evictions, per-span attribute bags (each unit and matcher
  event carries its wall and CPU seconds), and Chrome ``trace_event``
  export (``repro run --trace-out``). It is the one per-page,
  per-unit and per-matcher cost recorder.
* :mod:`.report` — ``repro obs report``: render the Figure 11
  decomposition table and the reuse funnel from a metrics-json file,
  or the slowest pages and the per-unit and per-matcher cost tables
  from a trace file.
* :mod:`.util` — :func:`~repro.obs.util.safe_rate`, the shared guard
  every derived rate (pages/sec, qps, hit rates, utilization) routes
  through so zero/empty denominators yield 0.0 instead of raising or
  emitting ``nan``.

Zero-cost contract (the :mod:`repro.check.invariants` pattern): every
instrumentation site guards on one module attribute
(``registry.ENABLED`` / ``trace.ENABLED``), both off by default;
none of the recorded numbers feed back into execution, so extraction
output is byte-identical with observability on or off (pinned by the obs test suite via the same canonical-result
comparison the ``repro.check`` oracle uses).
"""

from . import registry, trace
from .registry import REGISTRY, MetricsRegistry
from .util import safe_rate

__all__ = [
    "registry",
    "trace",
    "REGISTRY",
    "MetricsRegistry",
    "safe_rate",
]


def disable_all() -> None:
    """Switch every obs layer off (test/CLI cleanup)."""
    registry.disable()
    trace.uninstall()
