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
from repro.extractors.splitters import split_bounds, split_selected
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


# -- split-correctness (declared splitters) ---------------------------------

#: ``(task, unit)`` for every unit whose extractor declares a splitter.
SPLIT_UNITS = [(name, uid) for name, uid in UNITS
               if make_task(name, work_scale=0).registry.extractor(
                   uid).splitter is not None]


def _selected(extractor, split):
    return split_selected(extractor.splitter, extractor.split_key, split)


def _split_union(extractor, text):
    """The extractions on each split of ``text`` the extractor's key
    selects, placed in ``text``."""
    out = []
    for lo, hi in split_bounds(extractor.splitter, text):
        if _selected(extractor, text[lo:hi]):
            out.extend(_placed(e, lo)
                       for e in extractor.extract(text[lo:hi]))
    return sorted(out, key=repr)


def _whole(extractor, text):
    return sorted((_placed(e, 0) for e in extractor.extract(text)),
                  key=repr)


#: Header respellings: the first two name the section once stripped,
#: the others do not (no header at all, another name).
RESPELLINGS = ("== {}  ==", "==  {} ==", "=={}==", "== {} ==X")

#: The keys of the tasks' line extractors.
LINE_KEYS = sorted({
    x.split_key for x in (make_task(name, work_scale=0).registry.extractor(
        uid) for name, uid in SPLIT_UNITS) if x.splitter == "line"})


def _mutations(text, rng, count):
    """Texts made from ``text`` by inserting and deleting whole lines,
    header lines among them, by dropping the trailing newline or every
    header, and by the edits a split key must see through: headers
    respelled or renamed, a header line moved into or out of a
    section, and lines that gain or lose a line key."""
    lines = text.split("\n")
    headers = [i for i, l in enumerate(lines) if l.startswith("== ")]
    out = [text.rstrip("\n"), text + "\n",
           "\n".join(l for l in lines if not l.startswith("== ")),
           text.replace("== Filmography ==", "== Filmography  =="),
           text.replace("== Filmography ==", "==Filmography=="),
           text.replace("== Filmography ==", "== filmography ==")]
    inserts = ["== Filmography ==", "== Service ==", "== Awards ==",
               "== Advising ==", "== Box office ==", "== Other ==",
               "==  Awards ==", "== Service  ==", "", "x",
               lines[rng.randrange(len(lines))]]
    for _ in range(count):
        edited = list(lines)
        for _ in range(rng.randint(1, 3)):
            op = rng.random()
            if edited and op < 0.3:
                del edited[rng.randrange(len(edited))]
            elif op < 0.6:
                edited.insert(rng.randrange(len(edited) + 1),
                              rng.choice(inserts + edited))
            elif op < 0.7 and headers:
                i = rng.choice(headers)
                name = lines[i][3:-3].strip()
                edited = [rng.choice(RESPELLINGS).format(name)
                          if l == lines[i] else l for l in edited]
            elif op < 0.8 and headers:
                moved = lines[rng.choice(headers)]
                if moved in edited:
                    edited.remove(moved)
                edited.insert(rng.randrange(len(edited) + 1), moved)
            elif edited:
                i = rng.randrange(len(edited))
                key = rng.choice(LINE_KEYS)
                edited[i] = (edited[i].replace(key, "", 1)
                             if key in edited[i] else f"{edited[i]} {key}")
        out.append("\n".join(edited))
    return out


def test_split_units_are_listed():
    assert {uid for _, uid in SPLIT_UNITS} == {
        "extractServiceSec", "extractChairSent", "extractAdvisingSec",
        "extractAdviseSent", "extractBoxOfficeSec", "extractFilmSec",
        "extractPlaySent", "extractAwardSec", "extractAwardSent"}


@pytest.mark.parametrize("task_name,uid", SPLIT_UNITS,
                         ids=[uid for _, uid in SPLIT_UNITS])
def test_whole_text_equals_the_union_over_splits(page_texts, task_name,
                                                 uid):
    """Doleschal et al.'s split-correctness for the declared splitter
    and key: on corpus pages, on their sections, on line and header
    insertions and deletions, and on header respellings, header moves
    and key edits, the extractions on the whole text are those on its
    selected splits, each shifted to where its split sits, and every
    unselected split extracts nothing."""
    task = make_task(task_name, work_scale=0)
    extractor = task.registry.extractor(uid)
    assert extractor.split_key is not None
    rng = random.Random(uid)
    checked = skipped = 0
    for text in page_texts[task.corpus]:
        texts = [text, "", "\n", "no header, no newline"]
        texts += _mutations(text, rng, 8)
        # The unit's own inputs: for a line unit, section bodies.
        texts += [text[lo:hi] for lo, hi in split_bounds("header", text)]
        for sample in texts:
            want = _whole(extractor, sample)
            assert _split_union(extractor, sample) == want, (uid, sample)
            checked += len(want)
            for lo, hi in split_bounds(extractor.splitter, sample):
                if not _selected(extractor, sample[lo:hi]):
                    assert extractor.extract(sample[lo:hi]) == [], (
                        uid, sample[lo:hi])
                    skipped += 1
    # The key selects some splits and not others.
    assert checked > 0 and skipped > 0
