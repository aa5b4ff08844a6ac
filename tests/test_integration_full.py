"""Full-breadth integration tests: every task, every system, plus
property tests for cross-URL reuse and the reuse-file layer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.noreuse import NoReuseSystem
from repro.core.runner import canonical_results, run_series, verify_agreement
from repro.corpus import ChangeModel, EvolvingCorpus, dblife_corpus, wikipedia_corpus
from repro.corpus.generators import DBLifeGenerator, WikipediaGenerator
from repro.corpus.snapshot import Snapshot
from repro.extractors import ALL_TASKS, make_task
from repro.plan import compile_program, find_units
from repro.reuse import FingerprintScope, PlanAssignment, ReuseEngine
from repro.reuse.files import (
    CaptureWriter,
    PageCapture,
    PageRecorder,
    ReuseFileReader,
    encode_fields,
    parse_inputs,
    parse_outputs,
)
from repro.text.document import Page
from repro.text.span import Span


@pytest.mark.parametrize("task_name", ALL_TASKS)
def test_all_tasks_all_systems_agree(task_name, tmp_path):
    """Theorem 1 across the full task library and all four systems,
    over four snapshots with meaningful churn."""
    task = make_task(task_name, work_scale=0)
    if task.corpus == "dblife":
        corpus = dblife_corpus(n_pages=12, seed=31, p_unchanged=0.5)
    else:
        corpus = wikipedia_corpus(n_pages=12, seed=31)
    snaps = list(corpus.snapshots(4))
    reports = run_series(task, snaps, workdir=str(tmp_path))
    assert verify_agreement(reports) == [], task_name


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 10_000), rename_rate=st.floats(0.0, 0.8))
def test_fingerprint_scope_correct_under_random_renames(
        tmp_path_factory, seed, rename_rate):
    """Random churn including URL renames: the fingerprint scope must
    stay exactly correct while recycling whatever it can."""
    model = ChangeModel(p_unchanged=0.4, p_removed=0.05, p_added=0.05,
                        p_renamed=rename_rate, mean_edits=2.0)
    corpus = EvolvingCorpus(WikipediaGenerator(), 8, model, seed=seed)
    snaps = list(corpus.snapshots(3))
    task = make_task("play", work_scale=0)
    plan = compile_program(task.program, task.registry)
    units = find_units(plan)
    assignment = PlanAssignment({
        units[0].uid: "UD", **{u.uid: "RU" for u in units[1:]}})
    engine = ReuseEngine(plan, units, assignment,
                         scope=FingerprintScope())
    base = str(tmp_path_factory.mktemp("fp"))
    prev = prev_dir = None
    plain = NoReuseSystem(plan)
    for i, snap in enumerate(snaps):
        out = f"{base}/{i}"
        result = engine.run_snapshot(snap, prev, prev_dir, out)
        assert canonical_results(result) == \
            canonical_results(plain.process(snap))
        prev, prev_dir = snap, out


record_values = st.one_of(st.integers(-10**6, 10**6),
                          st.text(max_size=20), st.booleans(),
                          st.none())


@settings(max_examples=40, deadline=None)
@given(pages=st.lists(
    st.tuples(
        st.lists(st.tuples(st.integers(0, 500), st.integers(0, 500)),
                 max_size=5),
        st.lists(st.dictionaries(
            st.sampled_from(["v", "w", "n"]), record_values,
            min_size=1, max_size=3), max_size=5),
    ), min_size=1, max_size=6))
def test_reuse_file_roundtrip_property(tmp_path_factory, pages):
    """Arbitrary page groups of inputs/outputs survive the write/read
    cycle byte-exactly and in order."""
    base = str(tmp_path_factory.mktemp("rf"))
    writer = CaptureWriter(base, ["u"])
    expected = []
    for idx, (regions, outs) in enumerate(pages):
        did = f"page{idx}"
        recorder = PageRecorder()
        tids = []
        for s, e in regions:
            lo, hi = min(s, e), max(s, e)
            tids.append(recorder.input("u", lo, hi))
        for fields in outs:
            recorder.output("u", tids[0] if tids else 0,
                            encode_fields(fields))
        writer.write_page(did, recorder.groups(), PageCapture(did))
        expected.append((did, regions, outs))
    writer.close()

    reader = ReuseFileReader(base)
    assert reader.table.dids == [did for did, _, _ in expected]
    for did, regions, outs in expected:
        groups = reader.capture(did).get("u")
        got_inputs = parse_inputs(did, groups.i_data)
        assert len(got_inputs) == len(regions)
        for (s, e), tup in zip(regions, got_inputs):
            assert (tup.s, tup.e) == (min(s, e), max(s, e))
        got_outputs = parse_outputs(groups.o_data)
        assert len(got_outputs) == len(outs)
        for fields, out in zip(outs, got_outputs):
            decoded = {name: a for name, kind, a, b in out.fields}
            assert decoded == fields
    reader.close()


def test_three_way_scope_composition(tmp_path):
    """Rename + edit + removal + addition in one transition, engine
    with fingerprint scope against from-scratch."""
    body = ("== Filmography ==\n"
            "Nina Weber starred as Dr. Malone in Crimson Harbor (1999).\n"
            "Ivan Rossi starred as Agent Carter in Paper Kingdom (2001).\n")
    other = ("== Filmography ==\n"
             "Karen Xu starred as Judge Whitfield in Velvet Empire "
             "(1988).\n")
    s0 = Snapshot(0, [Page.from_url("a", body),
                      Page.from_url("b", other),
                      Page.from_url("gone", body.replace("Nina", "Lena"))])
    s1 = Snapshot(1, [
        Page.from_url("a", body.replace("(1999)", "(1998)")),  # edited
        Page.from_url("b-moved", other),                       # renamed
        Page.from_url("new", body.replace("Nina Weber",
                                          "Paula Foster")),    # added
    ])
    task = make_task("play", work_scale=0)
    plan = compile_program(task.program, task.registry)
    units = find_units(plan)
    engine = ReuseEngine(
        plan, units,
        PlanAssignment({units[0].uid: "ST",
                        **{u.uid: "RU" for u in units[1:]}}),
        scope=FingerprintScope())
    d0, d1 = str(tmp_path / "0"), str(tmp_path / "1")
    engine.run_snapshot(s0, None, None, d0)
    result = engine.run_snapshot(s1, s0, d0, d1)
    expected = NoReuseSystem(plan).process(s1)
    assert canonical_results(result) == canonical_results(expected)
    copied = sum(s.copied_tuples for s in result.unit_stats.values())
    assert copied > 0  # both the edited and the renamed page recycle
