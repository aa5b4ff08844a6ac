"""Matcher trade-off microbenchmark (extension).

Section 5.4 characterizes the matchers qualitatively: DN is free and
finds nothing; UD is fast but misses moved text; ST is complete but
expensive; RU is nearly free given a donor. This benchmark measures
the actual trade-off — per-pair matching time vs. the fraction of the
changed pages' text covered by (p-disjoint) match segments — on real
evolved page pairs, including the pluggable WS (winnowing) matcher.
"""

import time

import pytest

from conftest import save_table

from repro.corpus import wikipedia_corpus
from repro.fastpath import pages_identical
from repro.matchers import MatchCache, make_matcher
from repro.text.regions import select_p_disjoint


def collect_pairs(n_pages=40, seed=77):
    snaps = list(wikipedia_corpus(n_pages=n_pages, seed=seed).snapshots(2))
    pairs = []
    for page in snaps[1]:
        old = snaps[0].get(page.url)
        if old is not None and not pages_identical(page, old):
            pairs.append((page, old))
    return pairs


def measure(name, pairs):
    matcher = make_matcher(name, MatchCache(), min_length=12)
    seconds = 0.0
    covered = 0
    total = 0
    for page, old in pairs:
        start = time.perf_counter()
        segments = matcher.match(page.text, page.whole,
                                 old.text, old.whole)
        seconds += time.perf_counter() - start
        disjoint = select_p_disjoint(segments)
        for seg in disjoint:
            assert seg.verify(page.text, old.text)
        covered += sum(s.length for s in disjoint)
        total += len(page.text)
    return {"seconds": seconds, "coverage": covered / max(1, total)}


def test_matcher_tradeoffs(benchmark):
    pairs = collect_pairs()
    assert pairs, "need changed page pairs"

    def sweep():
        return {name: measure(name, pairs)
                for name in ("DN", "UD", "ST", "WS")}

    data = benchmark.pedantic(sweep, rounds=1, iterations=1)
    lines = [f"Matcher trade-offs over {len(pairs)} changed page pairs",
             f"{'matcher':<9}{'seconds':>9}{'coverage':>10}"]
    for name, row in data.items():
        lines.append(f"{name:<9}{row['seconds']:>9.4f}"
                     f"{row['coverage']:>10.2%}")
    save_table("matcher_tradeoffs.txt", "\n".join(lines) + "\n")

    # The qualitative claims of Section 5.4, measured:
    assert data["DN"]["coverage"] == 0.0
    # ST is the most complete matcher...
    assert data["ST"]["coverage"] >= data["UD"]["coverage"]
    assert data["ST"]["coverage"] >= data["WS"]["coverage"]
    # ...and costs more than the diff-based matcher.
    assert data["ST"]["seconds"] > data["UD"]["seconds"]
    # Every matcher recovers most of a lightly edited page.
    for name in ("UD", "ST", "WS"):
        assert data[name]["coverage"] > 0.5
