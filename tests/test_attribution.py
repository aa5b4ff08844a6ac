"""repro.reuse.attribution — the shared per-page attribution helper.

Regression pins for the PR that factored the oracle's page-attribution
loop out of ``check/oracle.py``: the helper must (a) reproduce the old
inline oracle logic exactly, (b) reproduce a NoReuse run exactly when
collapsed in canonical order, and (c) agree with the per-page rows the
reuse engine collects during a *recycled* run — the property serve's
delta-apply stands on.
"""

from __future__ import annotations

import tempfile

import pytest

from repro.check.oracle import build_reference
from repro.core.runner import canonical_results, make_system
from repro.corpus import dblife_corpus
from repro.extractors import make_task
from repro.plan import compile_program
from repro.reuse.attribution import (
    attributed_pages,
    canonicalize,
    collapse_page_rows,
    extract_page_rows,
    tuple_attribution,
)
from repro.reuse.engine import materialize_rows
from repro.timing import Timer, Timings


@pytest.fixture(scope="module")
def task():
    return make_task("talk", work_scale=0)


@pytest.fixture(scope="module")
def snapshots():
    return list(dblife_corpus(n_pages=10, seed=11,
                              p_unchanged=0.6).snapshots(3))


@pytest.fixture(scope="module")
def plan(task):
    return compile_program(task.program, task.registry)


def _legacy_oracle_attribution(plan, snapshot):
    """The pre-refactor inline loop from check/oracle.py, verbatim."""
    from repro.core.noreuse import run_page_plain

    timer = Timer(Timings())
    attr = {}
    for page in snapshot.canonical_pages():
        page_rows = run_page_plain(plan, page, timer)
        for rel, rows in page_rows.items():
            rel_attr = attr.setdefault(rel, {})
            for tup in materialize_rows(rows, page.text):
                rel_attr.setdefault(tup, [])
                if page.did not in rel_attr[tup]:
                    rel_attr[tup].append(page.did)
    return {rel: {tup: tuple(dids) for tup, dids in tuples.items()}
            for rel, tuples in attr.items()}


class TestAgainstLegacyOracle:
    def test_attribution_identical_to_old_inline_logic(
            self, plan, snapshots):
        for snapshot in snapshots:
            legacy = _legacy_oracle_attribution(plan, snapshot)
            page_rows = extract_page_rows(plan,
                                          snapshot.canonical_pages())
            fresh = tuple_attribution(
                page_rows,
                order=[p.did for p in snapshot.canonical_pages()])
            assert fresh == legacy

    def test_build_reference_still_attributes_identically(
            self, task, snapshots):
        reference = build_reference(task, snapshots)
        for i, snapshot in enumerate(snapshots):
            assert reference.attribution[i] == \
                _legacy_oracle_attribution(
                    compile_program(task.program, task.registry),
                    snapshot)
            assert reference.results[i] == {
                rel: frozenset(tuples)
                for rel, tuples in reference.attribution[i].items()}


class TestAgainstNoReuse:
    def test_canonical_collapse_equals_noreuse_run(self, task, plan,
                                                   snapshots):
        with tempfile.TemporaryDirectory() as workdir:
            system = make_system("noreuse", task, workdir)
            for snapshot in snapshots:
                result = system.process(snapshot)
                page_rows = extract_page_rows(
                    plan, snapshot.canonical_pages())
                collapsed = collapse_page_rows(
                    page_rows,
                    order=[p.did for p in snapshot.canonical_pages()])
                # Exact list equality: same rows, same emission order,
                # duplicates included.
                assert collapsed == {
                    rel: rows for rel, rows in result.results.items()}


class TestAgainstRecycledRun:
    """Serve's foundation: engine per-page rows == oracle attribution."""

    def test_engine_page_rows_match_from_scratch(self, task, plan,
                                                 snapshots):
        with tempfile.TemporaryDirectory() as workdir:
            system = make_system("delex", task, workdir)
            prev = None
            for snapshot in snapshots:
                result = system.process(snapshot, prev)
                engine_rows = system.last_page_rows
                assert engine_rows is not None
                scratch = extract_page_rows(
                    plan, snapshot.canonical_pages())
                # Same pages, same per-page canonical tuples — even
                # though the engine recycled most of the work.
                assert set(engine_rows) == set(scratch)
                assert canonicalize(engine_rows) == \
                    canonicalize(scratch)
                assert tuple_attribution(engine_rows) == \
                    tuple_attribution(scratch)
                # Collapsing the engine's split reproduces its own
                # merged results exactly.
                order = [p.did for p in snapshot.canonical_pages()]
                assert collapse_page_rows(engine_rows, order) == {
                    rel: rows for rel, rows in result.results.items()}
                prev = snapshot

    def test_page_rows_backend_independent(self, task, snapshots):
        collected = {}
        for jobs, backend in ((1, "serial"), (2, "process")):
            with tempfile.TemporaryDirectory() as workdir:
                system = make_system("delex", task, workdir, jobs=jobs,
                                     backend=backend)
                prev = None
                for snapshot in snapshots:
                    system.process(snapshot, prev)
                    prev = snapshot
                collected[(jobs, backend)] = system.last_page_rows
        assert collected[(1, "serial")] == collected[(2, "process")]


class TestHelpers:
    def test_attributed_pages_unknown_tuple(self):
        rel_attr = {("a",): ("p1", "p2")}
        assert attributed_pages([("a",)], rel_attr) == ("p1", "p2")
        assert attributed_pages([("zz",)], rel_attr) == ("?",)
        assert attributed_pages([("a",), ("zz",)], rel_attr) == \
            ("?", "p1", "p2")

    def test_tuple_attribution_orders_pages_deterministically(self):
        page_rows = {
            "b": {"rel": [("t",)]},
            "a": {"rel": [("t",), ("u",)]},
        }
        attr = tuple_attribution(page_rows)
        assert attr == {"rel": {("t",): ("a", "b"), ("u",): ("a",)}}
        attr_rev = tuple_attribution(page_rows, order=["b", "a"])
        assert attr_rev["rel"][("t",)] == ("b", "a")
