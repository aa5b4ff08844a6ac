"""Apply the benchmark's own bounds to two result files.

    python3 benchmarks/harness/compare.py A.json B.json

``A`` is the baseline, ``B`` the candidate; both come from ``run.py --out``
(use ``--reps`` of at least 3 so that each side has a run-to-run spread).
One row per workload x end-to-end metric, plus the metrics the registry gates
from the same untraced half (``pages_per_s``; the reader latencies and the
ingest lag of ``serve_http``):

* ``unresolved`` — either side's interquartile range over its repetitions,
  as a share of its median, is wider than the bound: the runs cannot tell a
  regression of that size from noise, so both sides' quartiles are listed;
* ``worse`` — B's median is worse than A's by more than the bound;
* ``ok`` — otherwise.

Corpus digests and count metrics must be identical between the two files
(plan-dependent counts only when the optimizer chose the same plans). Counts
come from the layers half of a run: files made with ``--trace 0`` have none,
and the ``counts`` row then says that only digests were compared.
Exit code 1 when any row is ``worse`` or a count differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import List, Optional, Tuple

from metrics import END_TO_END, GATED, PER_LAYER

#: Counts that depend on the inputs only and so must repeat exactly ...
INPUT_COUNTS = ("delta.decisions.delta", "delta.decisions.fallback",
                "delta.decisions.unchanged")
#: ... and counts that also depend on which matcher plans the optimizer chose.
#: It chooses from measured seconds, so these repeat only when the recorded
#: plan sequences are the same.
PLAN_COUNTS = ("matchers.calls", "reuse.copied_tuples",
               "extractors.extracted_chars_frac")


def differing_counts(workloads: List[dict]) -> Tuple[List[str], str]:
    """Names whose values differ between runs, and what was compared."""
    runs = [run for w in workloads for run in w["runs"]]
    digests = {run[half]["corpus_digest"] for run in runs
               for half in ("end_to_end", "layers") if half in run}
    differing = ["corpus_digest"] if len(digests) > 1 else []
    layers = [run["layers"] for run in runs if "layers" in run]
    if not layers:
        return differing, "digests only; counts NOT compared, no layers half"
    plans = {json.dumps(half["samples"].get("optimizer.plan_sequence"))
             for half in layers}
    if len(plans) <= 1:
        names, compared = INPUT_COUNTS + PLAN_COUNTS, "digests, all counts"
    else:
        names, compared = INPUT_COUNTS, (
            "digests, input counts; optimizer chose different plans, so "
            "plan-dependent counts NOT compared")
    differing += [name for name in names
                  if len({half["metrics"].get(name) for half in layers}) > 1]
    return differing, compared


def values(workload: dict, metric: str) -> List[float]:
    return [run["end_to_end"]["metrics"][metric] for run in workload["runs"]
            if "end_to_end" in run]


def side(vals: List[float]) -> Tuple[float, Optional[Tuple[float, float]]]:
    """Median, and the quartiles when there are repetitions to take them of."""
    median = statistics.median(vals)
    if len(vals) < 3:
        return median, None
    q1, _q2, q3 = statistics.quantiles(vals, n=4)
    return median, (q1, q3)


def verdict(a: List[float], b: List[float], better: str, bound: float
            ) -> Tuple[str, str]:
    med_a, iqr_a = side(a)
    med_b, iqr_b = side(b)
    change = (med_b - med_a) / med_a if med_a else 0.0
    worse_by = change if better == "lower" else -change
    spreads = [(q[1] - q[0]) / med for med, q in ((med_a, iqr_a), (med_b, iqr_b))
               if q is not None and med]
    detail = f"A {med_a:.6g} B {med_b:.6g} ({change:+.1%})"
    if spreads and max(spreads) > bound:
        return "unresolved", (detail + f" | IQR A {iqr_a} B {iqr_b}, spread "
                              f"{max(spreads):.1%} > bound {bound:.0%}")
    if not spreads:
        detail += " | n<3: no spread"
    return ("worse" if worse_by > bound else "ok"), detail


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as f:
            docs.append(json.load(f))
    a_doc, b_doc = docs
    for key in ("cpu_count", "python", "numpy_kernels_on", "seed", "scale",
                "seconds"):
        if a_doc["environment"][key] != b_doc["environment"][key]:
            print(f"note: environment differs on {key}: "
                  f"{a_doc['environment'][key]} vs {b_doc['environment'][key]}")
    better_of = {m.name: m.better for m in PER_LAYER}
    bad = 0
    for name in a_doc["workloads"]:
        if name not in b_doc["workloads"]:
            continue
        wa, wb = a_doc["workloads"][name], b_doc["workloads"][name]
        rows = [(m.name, m.better, m.bound) for m in END_TO_END]
        rows += [(g.name, better_of[g.name], g.bound)
                 for g in GATED if name in g.workloads]
        for metric, better, bound in rows:
            va, vb = values(wa, metric), values(wb, metric)
            if not va or not vb:
                print(f"{name:<22} {metric:<22} not compared (no end-to-end "
                      "half)")
                continue
            status, detail = verdict(va, vb, better, bound)
            bad += status == "worse"
            print(f"{name:<22} {metric:<22} {status:<10} {detail}")
        differing, compared = differing_counts([wa, wb])
        bad += bool(differing)
        print(f"{name:<22} {'digests and counts':<22} "
              + (f"DIFFER: {differing}" if differing else "identical")
              + f" | compared: {compared}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
