"""Definition 3 as a property: every IE blackbox honours its context β.

An extractor's output on a window of a text, restricted to extractions
whose extent lies at least β inside the window, equals its output on
the whole text under the same restriction. This is the
split-correctness question of Doleschal et al. (does P(d) equal the
union of P over the splits?), and it is what lets the reuse engine copy
a mention whose extent stays β away from every change (Theorem 1).

The regression below is the edit that an under-declared β let through:
``extractGrossFact`` read ``grossed $<n> million`` past its extent, so a
changed amount beyond β of the movie span left a stale row copied.
"""

from __future__ import annotations

import random

import pytest

from repro.core.noreuse import NoReuseSystem
from repro.core.runner import canonical_results, make_system
from repro.corpus import dblife_corpus, wikipedia_corpus
from repro.corpus.snapshot import snapshot_from_texts
from repro.extractors import make_task
from repro.extractors.base import Extraction, RelSpan
from repro.extractors.library import ALL_TASKS
from repro.matchers.base import ST_NAME, UD_NAME
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment

#: Pages per corpus and random windows per page and unit.
PAGES = 12
WINDOWS = 25

CORPORA = {"dblife": dblife_corpus, "wikipedia": wikipedia_corpus}

#: ``(task, unit)`` for every unit of every task: 26 units in 7 tasks.
UNITS = [(name, unit) for name in ALL_TASKS
         for unit in make_task(name, work_scale=0).blackboxes]


@pytest.fixture(scope="module")
def page_texts():
    """Snapshot 0's page texts per corpus kind."""
    out = {}
    for kind, corpus in CORPORA.items():
        snapshot = next(iter(corpus(n_pages=PAGES, seed=3).snapshots(1)))
        out[kind] = [page.text for page in snapshot.canonical_pages()]
    return out


def _placed(extraction: Extraction, offset: int):
    """``(extent, fields)`` in text offsets, scalars kept, for
    comparing extractions made on different windows; None without a
    span field."""
    extent = extraction.extent()
    if extent is None:
        return None
    fields = tuple(
        (name, (value.start + offset, value.end + offset))
        if isinstance(value, RelSpan) else (name, value)
        for name, value in extraction.fields)
    return (extent[0] + offset, extent[1] + offset), fields


def _inside(extractions, offset, start, stop, n, beta):
    """The placed extractions whose extent lies at least ``beta``
    inside ``[start, stop)``; a window edge that is also an edge of
    the text (of length ``n``) counts as inside."""
    out = []
    for extraction in extractions:
        placed = _placed(extraction, offset)
        if placed is None:
            continue
        (lo, hi), fields = placed
        if ((start == 0 or lo - start >= beta)
                and (stop == n or stop - hi >= beta)):
            out.append(fields)
    return sorted(out, key=repr)


def test_every_task_unit_is_listed():
    assert len(ALL_TASKS) == 7 and len(UNITS) == 26


@pytest.mark.parametrize("task_name,uid", UNITS,
                         ids=[uid for _, uid in UNITS])
def test_window_extractions_equal_whole_text(page_texts, task_name, uid):
    task = make_task(task_name, work_scale=0)
    extractor = task.registry.extractor(uid)
    beta = extractor.context
    rng = random.Random(uid)
    checked = 0
    for text in page_texts[task.corpus]:
        n = len(text)
        whole = extractor.extract(text)
        for _ in range(WINDOWS):
            start, stop = sorted(rng.randrange(n + 1) for _ in range(2))
            if rng.random() < 0.2:
                start = 0
            if rng.random() < 0.2:
                stop = n
            want = _inside(whole, 0, start, stop, n, beta)
            got = _inside(extractor.extract(text[start:stop]), start,
                          start, stop, n, beta)
            assert got == want, (uid, beta, start, stop)
            checked += len(want)
    # The windows hit extractions, so the property is not vacuous.
    assert checked > 0


@pytest.mark.parametrize("matcher", [ST_NAME, UD_NAME])
def test_edited_gross_beyond_the_movie_span(tmp_path, matcher):
    snapshot = next(iter(wikipedia_corpus(30, seed=1).snapshots(1)))
    texts = {page.url: page.text for page in snapshot.canonical_pages()}
    url = next(u for u in texts if u.endswith("/page/00002"))
    assert "grossed $180 million" in texts[url]
    s0 = snapshot_from_texts(0, texts)
    s1 = snapshot_from_texts(1, {**texts, url: texts[url].replace(
        "grossed $180 million", "grossed $9 million")})
    task = make_task("blockbuster", work_scale=0)
    plan = compile_program(task.program, task.registry)
    system = make_system(
        "delex", task, str(tmp_path),
        fixed_assignment=PlanAssignment.uniform(find_units(plan), matcher))
    system.process(s0)
    want = canonical_results(NoReuseSystem(plan).process(s1))
    assert sum(len(rows) for rows in want.values()) == 5
    assert canonical_results(system.process(s1, s0)) == want
