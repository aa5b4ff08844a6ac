"""Matcher-kernel microbenchmark (extension).

Isolates the two raw-speed layers the snapshot-delta fast paths stand
on, away from the engine and its caches:

* **Interned-token kernels** — each matcher is timed on the same
  region pairs with its vectorized kernel forced on and forced off
  (ST: k-gram anchor kernel vs. suffix-automaton probe; UD:
  interned-line Myers + vectorized run detection vs. str-comparing
  Myers; WS: vectorized winnowing vs. the reference loop). The two
  paths are parity-pinned, so the benchmark asserts byte-identical
  segments on every pair before it trusts the clocks.

* **Cross-snapshot match cache** — a Delex series is run fast-paths-on
  at several churn levels and the combined content-keyed hit rate
  (memo + cross-snapshot cache + equal-region short circuit) is
  recorded per level: the curve should rise toward low churn, where
  the cache carries almost all match work.

Emits ``BENCH_matchcore.json`` at the repo root (consumed by the CI
smoke job next to ``BENCH_fastpath.json``). Kernel speedup floors are
asserted only when numpy is importable; parity is asserted always —
without numpy both "paths" are the pure-Python fallback and must agree
trivially.

Intentionally free of the pytest-benchmark fixture so it runs under a
plain ``pytest``/``hypothesis`` install (the CI smoke job).
"""

import gc
import json
import os
import time

from conftest import save_table

from repro.core.runner import make_system
from repro.corpus import dblife_corpus
from repro.extractors import make_task
from repro.matchers.base import ST_NAME, UD_NAME
from repro.matchers.st import STMatcher
from repro.matchers.ud import UDMatcher
from repro.matchers.ws import WS_NAME, WinnowingMatcher
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment
from repro.text import tokens as _tokens
from repro.text.span import Interval

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_JSON = os.path.join(REPO_ROOT, "BENCH_matchcore.json")

PAIRS = int(os.environ.get("REPRO_BENCH_KERNEL_PAIRS", "24"))
REPS = int(os.environ.get("REPRO_BENCH_KERNEL_REPS", "5"))
#: Churn levels for the cache hit-rate curve (fraction of pages left
#: unchanged between snapshots), low churn last.
CHURN_LEVELS = (0.5, 0.7, 0.9, 0.95)
CURVE_PAGES = int(os.environ.get("REPRO_BENCH_KERNEL_PAGES", "24"))
CURVE_SNAPSHOTS = int(os.environ.get("REPRO_BENCH_KERNEL_SNAPSHOTS", "5"))
#: Kernel-on vs kernel-off wall-time floors, asserted when numpy is
#: present. Deliberately below typical measurements (see
#: ``BENCH_matchcore.json``) to absorb scheduler noise.
MIN_KERNEL_SPEEDUP = {ST_NAME: 2.0, UD_NAME: 1.3, WS_NAME: 1.5}


def _page_pairs():
    """(q_text, p_text) pairs: each URL's body in two consecutive
    snapshots of an everything-churns corpus, so the matchers face
    genuinely evolved text rather than identical regions."""
    corpus = dblife_corpus(n_pages=PAIRS, seed=7, p_unchanged=0.0)
    old, new = corpus.snapshots(2)
    q_by_url = {page.url: page.text for page in old.pages}
    return [(q_by_url[page.url], page.text) for page in new.pages
            if page.url in q_by_url]


def _doc_pairs(pairs):
    """Two large line-diff workloads from the page pairs: the aligned
    concatenation (small edit distance — UD's common case, where the
    kernel must at least break even) and a half-rotated one (moved
    blocks, edit distance ~ the whole document — where the vectorized
    Myers band sweep is the win)."""
    q_doc = "\n".join(q for q, _ in pairs)
    p_bodies = [p for _, p in pairs]
    p_aligned = "\n".join(p_bodies)
    half = len(p_bodies) // 2
    p_rotated = "\n".join(p_bodies[half:] + p_bodies[:half])
    return [(q_doc, p_aligned), (q_doc, p_rotated)]


def _run_matcher(matcher, pairs):
    """Segments per pair plus the best-of-``REPS`` total seconds."""
    outputs = []
    for q_text, p_text in pairs:
        outputs.append(matcher.match(
            p_text, Interval(0, len(p_text)),
            q_text, Interval(0, len(q_text))))
    best = None
    gc.collect()
    gc.disable()
    try:
        for _ in range(REPS):
            start = time.perf_counter()
            for q_text, p_text in pairs:
                matcher.match(p_text, Interval(0, len(p_text)),
                              q_text, Interval(0, len(q_text)))
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
    finally:
        gc.enable()
    return outputs, best


def _kernel_rows():
    """Per-matcher kernel-off vs kernel-on timings at pinned parity."""
    pairs = _page_pairs()
    doc_pairs = _doc_pairs(pairs)
    configs = [
        (ST_NAME, pairs,
         STMatcher(min_length=12, kernel="off"),
         STMatcher(min_length=12, tokens=_tokens.TokenCache(),
                   kernel="force")),
        (UD_NAME, doc_pairs,
         UDMatcher(kernel="off"), UDMatcher(kernel="force")),
        (WS_NAME, pairs,
         WinnowingMatcher(kernel="off"), WinnowingMatcher(kernel="force")),
    ]
    rows = {}
    for name, workload, slow, fast in configs:
        slow_out, slow_s = _run_matcher(slow, workload)
        fast_out, fast_s = _run_matcher(fast, workload)
        assert fast_out == slow_out, f"{name}: kernel changed the segments"
        rows[name] = {
            "calls": len(workload),
            "seconds_off": slow_s,
            "seconds_on": fast_s,
            "speedup": slow_s / fast_s if fast_s > 0 else float("inf"),
        }
    return rows


def _hit_curve(tmp_root):
    """Combined content-keyed hit rate of a fast-paths-on ST series,
    one point per churn level."""
    task = make_task("chair", work_scale=0.2)
    plan = compile_program(task.program, task.registry)
    assignment = PlanAssignment.uniform(find_units(plan), ST_NAME)
    curve = []
    for p_unchanged in CHURN_LEVELS:
        snapshots = list(dblife_corpus(
            n_pages=CURVE_PAGES, seed=83,
            p_unchanged=p_unchanged).snapshots(CURVE_SNAPSHOTS))
        system = make_system(
            "delex", task, os.path.join(tmp_root, f"churn{p_unchanged}"),
            fastpath="on", fixed_assignment=assignment)
        hits = 0
        lookups = 0
        match_seconds = 0.0
        prev = None
        for i, snapshot in enumerate(snapshots):
            result = system.process(snapshot, prev)
            if i > 0 and result.timings.fastpath is not None:
                fp = result.timings.fastpath.to_dict()
                match_seconds += result.timings.get("match")
                got = (fp.get("memo_hits", 0)
                       + fp.get("region_short_circuits", 0))
                hits += got
                lookups += got + fp.get("memo_misses", 0)
            prev = snapshot
        curve.append({
            "p_unchanged": p_unchanged,
            "combined_hit_rate": hits / lookups if lookups else 0.0,
            "match_seconds": match_seconds,
        })
    return curve


def run_matcher_kernels(tmp_root):
    return {
        "pairs": PAIRS,
        "reps": REPS,
        "numpy": _tokens.numpy_enabled(),
        "min_kernel_speedup": dict(MIN_KERNEL_SPEEDUP),
        "kernels": _kernel_rows(),
        "hit_curve": _hit_curve(tmp_root),
        "curve_pages": CURVE_PAGES,
        "curve_snapshots": CURVE_SNAPSHOTS,
        "cpu_count": os.cpu_count(),
    }


def _render(data):
    lines = [f"Matcher kernels ({data['pairs']} page pairs, best of "
             f"{data['reps']}, numpy={'yes' if data['numpy'] else 'no'})",
             f"{'matcher':<9}{'kernel off':>12}{'kernel on':>12}"
             f"{'speedup':>9}"]
    for name, row in data["kernels"].items():
        lines.append(f"{name:<9}{row['seconds_off'] * 1e3:>10.2f}ms"
                     f"{row['seconds_on'] * 1e3:>10.2f}ms"
                     f"{row['speedup']:>8.1f}x")
    lines.append("")
    lines.append(f"Content-keyed hit rate vs churn ('chair', "
                 f"{data['curve_pages']} pages, "
                 f"{data['curve_snapshots']} snapshots)")
    lines.append(f"{'p_unchanged':>12}{'hit rate':>10}{'match s':>9}")
    for point in data["hit_curve"]:
        lines.append(f"{point['p_unchanged']:>12.2f}"
                     f"{point['combined_hit_rate']:>10.2f}"
                     f"{point['match_seconds']:>9.3f}")
    return "\n".join(lines) + "\n"


def test_matcher_kernels(tmp_path):
    data = run_matcher_kernels(str(tmp_path))
    with open(BENCH_JSON, "w", encoding="utf-8") as f:
        json.dump(data, f, indent=2, sort_keys=True)
        f.write("\n")
    save_table("matcher_kernels.txt", _render(data))

    if data["numpy"]:
        for name, floor in MIN_KERNEL_SPEEDUP.items():
            row = data["kernels"][name]
            assert row["speedup"] >= floor, \
                f"{name} kernel speedup {row['speedup']:.2f} < {floor}"
    curve = data["hit_curve"]
    # The cache layers must carry more of the work as churn falls;
    # at DBLife-like churn they must clear the headline floor.
    assert curve[-1]["combined_hit_rate"] >= curve[0]["combined_hit_rate"]
    assert curve[-1]["combined_hit_rate"] >= 0.30, curve[-1]
