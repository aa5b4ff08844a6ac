"""Shared benchmark infrastructure.

Every benchmark file regenerates one table or figure of the paper's
evaluation (Section 8). Scales are laptop-sized; the *shape* of the
results (system ordering, relative factors, crossovers) is the target,
not the authors' absolute testbed numbers. Scale knobs:

* ``REPRO_BENCH_PAGES_DBLIFE`` (default 60)
* ``REPRO_BENCH_PAGES_WIKI`` (default 40)
* ``REPRO_BENCH_SNAPSHOTS`` (default 5)
* ``REPRO_BENCH_WORK_SCALE`` (default 1.0)
* ``REPRO_BENCH_JOBS`` (default 1) — execution-runtime workers; results
  are backend-independent, only the wall clock changes

Rendered result tables are written to ``benchmarks/results/*.txt`` so
they survive pytest's stdout capture; EXPERIMENTS.md records them.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Sequence

import pytest

# ``repro`` is imported at module load: make the checkout's own source
# importable so ``python3 -m pytest benchmarks/...`` needs no PYTHONPATH.
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.corpus import dblife_corpus, wikipedia_corpus  # noqa: E402
from repro.core.runner import (  # noqa: E402
    SeriesReport,
    run_series,
    verify_agreement,
)
from repro.extractors import make_task  # noqa: E402

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

PAGES_DBLIFE = int(os.environ.get("REPRO_BENCH_PAGES_DBLIFE", "60"))
PAGES_WIKI = int(os.environ.get("REPRO_BENCH_PAGES_WIKI", "40"))
N_SNAPSHOTS = int(os.environ.get("REPRO_BENCH_SNAPSHOTS", "5"))
WORK_SCALE = float(os.environ.get("REPRO_BENCH_WORK_SCALE", "1.0"))
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))
#: Repetitions pooled for the Figure 10 comparison of two nearly tied
#: systems (Shortcut vs No-reuse).
FIG10_REPS = 3

TASK_SEEDS = {"talk": 101, "chair": 102, "advise": 103,
              "blockbuster": 104, "play": 105, "award": 106,
              "infobox": 107}


def corpus_snapshots(task_name: str, corpus_kind: str,
                     n_snapshots: int = 0, pages: int = 0):
    """Deterministic snapshots for a task's corpus."""
    seed = TASK_SEEDS.get(task_name, 999)
    n = n_snapshots or N_SNAPSHOTS
    if corpus_kind == "dblife":
        corpus = dblife_corpus(n_pages=pages or PAGES_DBLIFE, seed=seed)
    else:
        corpus = wikipedia_corpus(n_pages=pages or PAGES_WIKI, seed=seed)
    return list(corpus.snapshots(n))


def save_table(name: str, text: str) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)
    print(text)
    return path


def format_runtime_table(title: str,
                         reports: Dict[str, SeriesReport]) -> str:
    lines = [title]
    systems = list(reports)
    header = "snapshot  " + "".join(f"{s:>10}" for s in systems)
    lines.append(header)
    n = len(next(iter(reports.values())).snapshots)
    for i in range(1, n):  # skip the bootstrap snapshot
        row = f"{i:>8}  " + "".join(
            f"{reports[s].snapshots[i].seconds:>10.3f}" for s in systems)
        lines.append(row)
    totals = "   total  " + "".join(
        f"{reports[s].total_seconds():>10.3f}" for s in systems)
    lines.append(totals)
    return "\n".join(lines) + "\n"


class Fig10Cache:
    """Runs each task's 4-system series once; Figures 10 and 11 share it."""

    def __init__(self) -> None:
        self._cache: Dict[str, Dict[str, SeriesReport]] = {}

    def reports(self, task_name: str) -> Dict[str, SeriesReport]:
        if task_name not in self._cache:
            task = make_task(task_name, work_scale=WORK_SCALE)
            snaps = corpus_snapshots(task_name, task.corpus)
            reports = run_series(task, snaps, jobs=BENCH_JOBS)
            problems = verify_agreement(reports)
            assert not problems, problems[:3]
            self._cache[task_name] = reports
        return self._cache[task_name]

    def totals(self, task_name: str,
               systems: Sequence[str]) -> Dict[str, List[float]]:
        """Each system's reuse-snapshot total over ``FIG10_REPS``
        repetitions.

        The first is the cached series; the others re-run the systems
        one after another, in turn, so that drift on the host falls on
        both sides alike. One 4-snapshot total swings by about 30 % between
        runs, too much to decide between two nearly tied systems.
        """
        reports = self.reports(task_name)
        out = {name: [reports[name].total_seconds()] for name in systems}
        task = make_task(task_name, work_scale=WORK_SCALE)
        snaps = corpus_snapshots(task_name, task.corpus)
        for _ in range(FIG10_REPS - 1):
            for name in systems:
                rerun = run_series(task, snaps, systems=(name,),
                                   jobs=BENCH_JOBS)
                out[name].append(rerun[name].total_seconds())
        return out


@pytest.fixture(scope="session")
def fig10_cache() -> Fig10Cache:
    return Fig10Cache()


@pytest.fixture(scope="session")
def bench_jobs() -> int:
    """Execution-runtime worker count (``REPRO_BENCH_JOBS``)."""
    return BENCH_JOBS


def delex_vs(reports: Dict[str, SeriesReport], other: str,
             skip: int = 1) -> float:
    """Fractional runtime cut of Delex relative to another system.

    ``skip`` drops leading snapshots: 1 skips only the bootstrap, 2
    also skips Delex's first reuse snapshot (where one-time calibration
    probes run). The paper averages over 14 reuse snapshots, so the
    steady state is the comparable quantity.
    """
    delex = sum(r.seconds for r in reports["delex"].snapshots[skip:])
    base = sum(r.seconds for r in reports[other].snapshots[skip:])
    if base == 0:
        return 0.0
    return 1.0 - delex / base
