"""The four workloads: sizes, corpus generation, digests.

Sizes are the ISSUE's shapes shrunk in page count only, so that one run
(three set-ups plus the measured series) fits the driver's time cap on a
2-core box; churn, task, work scale and engine configuration are untouched.
``--scale`` multiplies page counts; ``--seconds`` sets how many snapshots the
measured window holds (``RUN_SECONDS`` gives the counts listed here).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import List

#: ``run_seconds`` of BENCHMARK.json: the window the listed counts fill.
RUN_SECONDS = 8

#: Fewest snapshots a shortened window (tests, smoke runs) may hold.
MIN_SNAPSHOTS = 4

#: ``serve_http``: seconds between spool drops (open loop), and the spool
#: watcher's poll (the CLI's fixed 0.5 s would floor spool-to-query latency).
DROP_INTERVAL_S = 0.4
SPOOL_POLL_S = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "batch" | "serve"
    corpus: str          # "dblife" | "wikipedia"
    pages: int
    p_unchanged: float
    task: str
    work_scale: float
    reuse_snapshots: int  # snapshots after snapshot 0
    why: str
    jobs: int = 1
    backend: str = "serial"

    def jobs_used(self) -> int:
        return min(self.jobs, os.cpu_count() or 1)

    def sizes(self) -> dict:
        doc = {"corpus": self.corpus, "pages": self.pages,
               "p_unchanged": self.p_unchanged, "task": self.task,
               "work_scale": self.work_scale,
               "snapshots": 1 + self.reuse_snapshots,
               "jobs": self.jobs_used(), "backend": self.backend}
        if self.kind == "serve":
            doc.update(system="delta", drop_interval_s=DROP_INTERVAL_S,
                       spool_poll_s=SPOOL_POLL_S)
        return doc


WORKLOADS = {w.name: w for w in (
    Workload(
        "dblife_lowchurn", "batch", "dblife", 600, 0.97, "chair", 0.1, 24,
        "DBLife-like, 600 pages, 97% identical per snapshot, Delex serial, "
        "1+24 snapshots: time goes to short-circuit, reuse-file I/O, copy "
        "and per-page bookkeeping, not to extractors or matchers"),
    Workload(
        "wiki_highchurn", "batch", "wikipedia", 160, 0.15, "play", 0.2, 30,
        "Wikipedia-like, 160 pages, 15% identical, local edits, Delex "
        "serial, 1+30 snapshots: UD/ST matching, copy-region derivation, "
        "memo/cache and re-extraction do the work"),
    Workload(
        "wiki_highchurn_jobs2", "batch", "wikipedia", 160, 0.15, "play", 0.2,
        30,
        "Byte-for-byte the inputs of wiki_highchurn on the process backend "
        "with min(2, nproc) workers: a gain for serial that costs parallel, "
        "or the reverse, shows as a split between the two",
        jobs=2, backend="process"),
    Workload(
        "serve_http", "serve", "dblife", 600, 0.9, "chair", 0.1, 20,
        "Server subprocess, delta view, DBLife-like 600 pages 90% identical: "
        "20 spool drops every 0.4 s (open loop) beside a closed-loop 4 page "
        ": 1 scan HTTP reader on one keep-alive connection"),
)}


def sized(workload: Workload, scale: float, seconds: float) -> Workload:
    """The workload at a page scale and a measuring window."""
    snapshots = max(MIN_SNAPSHOTS,
                    round(workload.reuse_snapshots * seconds / RUN_SECONDS))
    return replace(workload, pages=max(8, round(workload.pages * scale)),
                   reuse_snapshots=snapshots)


#: Independent corpora per end-to-end run of a batch workload.
CORPORA = 3


def generate(workload: Workload, seed: int, part: int = 0) -> list:
    """Snapshot 0 plus the reuse snapshots of corpus ``part`` of ``seed``.

    A batch run's inputs are ``CORPORA`` independent evolving corpora, a
    function of ``seed`` only. One corpus is not enough: which matcher plan
    the optimizer picks on a snapshot swings its cost by 2-3x and differs
    from corpus to corpus, so the median of one 30-snapshot series spreads
    11-15 % over ten seeds with the code unchanged, against 6-8 % for three
    corpora pooled. The traced run and ``serve_http`` use part 0.
    """
    from repro.corpus import dblife_corpus, wikipedia_corpus

    factory = dblife_corpus if workload.corpus == "dblife" else wikipedia_corpus
    corpus = factory(n_pages=workload.pages, seed=seed * CORPORA + part,
                     p_unchanged=workload.p_unchanged)
    return list(corpus.snapshots(1 + workload.reuse_snapshots))


def corpus_digest(snapshots: List) -> str:
    """One digest over every page of every snapshot, in order."""
    h = hashlib.blake2b(digest_size=16)
    for snapshot in snapshots:
        h.update(f"#{snapshot.index}:{len(snapshot)}\n".encode())
        for page in snapshot.pages:
            h.update(page.did.encode("utf-8"))
            h.update(b"\0")
            h.update(page.text.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()
