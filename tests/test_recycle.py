"""Whole-page recycle: a byte-identical page whose previous rows are
known and whose every unit's capture is readable is re-emitted from the
previous run — its capture groups copied byte for byte, its previous
rows returned — whatever the matcher plan or the URL.

The properties pinned here: the recycle fires on every paired page of
an identical snapshot under every plan (RU, DN and all-DN) and under
Shortcut, serial and parallel, and books nothing in the units' stats;
results always equal No-reuse, also when the plan changes between
snapshots; a page group's bytes do not depend on where the group sits
in the file; a torn line or damaged header is never copied forward; a
renamed page is recycled; and a restart, which recycles nothing, runs
the units without changing a byte.
"""

from __future__ import annotations

import os

import pytest

from repro.core.noreuse import NoReuseSystem
from repro.core.runner import canonical_results, make_system
from repro.corpus.evolve import ChangeModel, EvolvingCorpus
from repro.corpus.generators import DBLifeGenerator
from repro.corpus.snapshot import snapshot_from_texts
from repro.extractors import make_task
from repro.fastpath import FastPathStats
from repro.matchers.base import DN_NAME, RU_NAME, ST_NAME, UD_NAME
from repro.obs import trace as otrace
from repro.plan import compile_program, find_units
from repro.plan.operators import ScanNode
from repro.reuse.engine import PlanAssignment, ReuseEngine
from repro.reuse.files import (
    PAGE_PREFIX,
    iter_all_pages,
    iter_groups,
    page_marker,
)


@pytest.fixture(scope="module")
def chair():
    task = make_task("chair", work_scale=0)
    plan = compile_program(task.program, task.registry)
    return task, plan, find_units(plan)


@pytest.fixture(scope="module")
def frozen_snaps():
    """Three byte-identical snapshots of an 8-page DBLife-like corpus."""
    frozen = ChangeModel(p_unchanged=1.0, p_removed=0.0, p_added=0.0)
    return list(EvolvingCorpus(DBLifeGenerator(), 8, frozen,
                               seed=2).snapshots(3))


def _plan(units, front, rest):
    """``front`` for the page-scan unit, ``rest`` for the chained ones."""
    return PlanAssignment({
        u.uid: front if isinstance(u.ie_node.child, ScanNode) else rest
        for u in units})


def _capture_tree(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in sorted(names):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, root)] = f.read()
    return out


def _run(system, snaps):
    prev, out = None, []
    for snap in snaps:
        result = system.process(snap, prev)
        out.append((canonical_results(result), result.timings.fastpath))
        prev = snap
    return out


class TestIdenticalSnapshotRecycles:
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    @pytest.mark.parametrize("front", [UD_NAME, ST_NAME])
    def test_delex_ru_plans(self, chair, frozen_snaps, tmp_path, front,
                            jobs, backend):
        task, _plan_, units = chair
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, front, RU_NAME),
            jobs=jobs, backend=backend)
        reference = NoReuseSystem(_plan_)
        for snap, (results, fp) in zip(frozen_snaps[1:],
                                       _run(system, frozen_snaps)[1:]):
            assert results == canonical_results(reference.process(snap))
            assert fp.pages_paired == len(snap)
            assert fp.pages_recycled == fp.pages_paired
            assert fp.pages_short_circuited == fp.pages_paired

    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    @pytest.mark.parametrize("rest", [RU_NAME, DN_NAME])
    def test_plans_with_dn_units(self, chair, frozen_snaps, tmp_path,
                                 rest, jobs, backend):
        # A DN unit never matches, yet the page it runs on is as
        # identical as under any other plan: DN->RU and all-DN recycle
        # every paired page, and the units run on nothing.
        task, plan, units = chair
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, DN_NAME, rest),
            jobs=jobs, backend=backend)
        reference = NoReuseSystem(plan)
        prev = None
        for index, snap in enumerate(frozen_snaps):
            result = system.process(snap, prev)
            prev = snap
            assert canonical_results(result) == canonical_results(
                reference.process(snap))
            if index == 0:
                continue
            fp = result.timings.fastpath
            assert fp.pages_recycled == fp.pages_paired == len(snap)
            assert fp.tuples_recycled > 0
            assert all(s.input_tuples == s.output_tuples == 0
                       for s in result.unit_stats.values())

    def test_plan_flip_between_snapshots(self, chair, tmp_path):
        # Identical pages are recycled from capture written under
        # another plan, changed pages run under the new one: every
        # snapshot still equals No-reuse.
        task, plan, units = chair
        churn = ChangeModel(p_unchanged=0.6, p_removed=0.05,
                            p_added=0.05)
        snaps = list(EvolvingCorpus(DBLifeGenerator(), 10, churn,
                                    seed=3).snapshots(5))
        plans = [_plan(units, UD_NAME, RU_NAME),
                 PlanAssignment.all_dn(units),
                 _plan(units, ST_NAME, RU_NAME),
                 _plan(units, DN_NAME, UD_NAME),
                 PlanAssignment.uniform(units, ST_NAME)]
        system = make_system("delex", task, str(tmp_path),
                             fixed_assignment=plans[0])
        reference = NoReuseSystem(plan)
        prev, recycled = None, 0
        for snap, assignment in zip(snaps, plans):
            system.fixed_assignment = assignment
            result = system.process(snap, prev)
            assert canonical_results(result) == canonical_results(
                reference.process(snap))
            if prev is not None:
                identical = sum(
                    1 for page in snap.pages
                    if prev.get(page.url) is not None
                    and prev.get(page.url).text == page.text)
                assert result.timings.fastpath.pages_recycled == identical
                recycled += identical
            prev = snap
        assert recycled > 0

    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_shortcut(self, chair, frozen_snaps, tmp_path, jobs, backend):
        task, plan, _units = chair
        system = make_system("shortcut", task, str(tmp_path), jobs=jobs,
                             backend=backend)
        reference = NoReuseSystem(plan)
        for snap, (results, fp) in zip(frozen_snaps[1:],
                                       _run(system, frozen_snaps)[1:]):
            assert results == canonical_results(reference.process(snap))
            assert fp.pages_recycled == fp.pages_paired == len(snap)


class TestObservability:
    def test_counter_merges_and_exports(self):
        from repro.obs import registry as oreg

        stats = FastPathStats(pages_paired=4, pages_recycled=2)
        stats.merge(FastPathStats(pages_recycled=1))
        assert stats.pages_recycled == stats.pages_short_circuited == 3
        assert stats.to_dict()["pages_recycled"] == 3
        assert "recycled 3/4 pages whole" in stats.describe()
        oreg.REGISTRY.reset()
        try:
            oreg.publish_fastpath("delex", stats)
            doc = oreg.REGISTRY.to_dict()
            sample = doc["repro_fastpath_pages_recycled_total"]["samples"][0]
            assert sample["value"] == 3.0
        finally:
            oreg.REGISTRY.reset()

    def test_page_span_says_recycled(self, chair, frozen_snaps, tmp_path):
        task, _plan_, units = chair
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME))
        system.process(frozen_snaps[0])
        tracer = otrace.install()
        try:
            result = system.process(frozen_snaps[1], frozen_snaps[0])
        finally:
            otrace.uninstall()
        pages = [r for r in tracer.records if r.name == "page"]
        assert len(pages) == len(frozen_snaps[1])
        assert all(r.args["recycled"] for r in pages)
        assert not [r for r in tracer.records if r.name == "unit"]
        snapshot, = [r for r in tracer.records if r.name == "snapshot"]
        assert snapshot.args["recycled"] == \
            result.timings.fastpath.pages_recycled == len(pages)


class TestPageGroupBytes:
    def test_group_bytes_independent_of_earlier_pages(self, chair,
                                                      frozen_snaps,
                                                      tmp_path):
        # Page-local tids: deleting earlier pages leaves a later page's
        # group byte-identical, which is what makes it splicable.
        _task, plan, units = chair
        pages = frozen_snaps[0].canonical_pages()
        full = snapshot_from_texts(0, {p.url: p.text for p in pages})
        tail = snapshot_from_texts(0, {p.url: p.text for p in pages[3:]})
        engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        engine.run_snapshot(full, None, None, str(tmp_path / "full"))
        engine.run_snapshot(tail, None, None, str(tmp_path / "tail"))
        compared = 0
        for name in os.listdir(tmp_path / "full"):
            groups_full = dict(iter_groups(str(tmp_path / "full" / name)))
            groups_tail = dict(iter_groups(str(tmp_path / "tail" / name)))
            assert set(groups_tail) < set(groups_full)
            for did, data in groups_tail.items():
                assert data == groups_full[did], (name, did)
                compared += data.count(b"\n")
        assert compared > 0


def _cut_last_header(data):
    """Cut the file a few bytes into its last page header."""
    return data[:data.rindex(PAGE_PREFIX) + len(PAGE_PREFIX) + 3]


def _break_last_header(data):
    """Turn the last header's closing brace into a bracket."""
    end = data.index(b"\n", data.rindex(PAGE_PREFIX))
    return data[:end - 1] + b"]" + data[end:]


#: Damaged reuse files: ``id -> (file, mutation, whether every page but
#: the last is still recycled)``. The page-scan unit has a record on
#: every page, so cutting its I file's last 7 bytes lands mid-record.
DAMAGES = {
    "tail-mid-record": ("extractServiceSec.I.reuse",
                        lambda data: data[:-7], True),
    "truncated-header": ("extractChairFact.O.reuse", _cut_last_header,
                         False),
    "broken-header-json": ("extractChairFact.O.reuse", _break_last_header,
                           False),
    "garbage-before-first-header": ("extractChairFact.O.reuse",
                                    lambda data: b"garbage\n" + data,
                                    False),
}


def _assert_only_records(directory):
    """Every byte of every capture file is a writer's page header or a
    record line that parses."""
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path, "rb") as f:
            data = f.read()
        assert data == b"".join(page_marker(did) + group
                                for did, group in iter_groups(path)), name
        list(iter_all_pages(path))  # ValueError on a record that is not one


class TestTornGroupNeverSpliced:
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_garbage_line_in_identical_page_o_group(self, chair,
                                                    frozen_snaps, tmp_path,
                                                    jobs, backend):
        task, plan, units = chair
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME),
            jobs=jobs, backend=backend, capture_history=10)
        system.process(frozen_snaps[0])
        garbage = b"garbage: not a record\n"
        o_path = os.path.join(system._prev_dir, "extractChairFact.O.reuse")
        with open(o_path, "rb") as f:
            lines = f.readlines()
        # Inside the last page's group: after its header.
        header = max(i for i, line in enumerate(lines)
                     if line.startswith(b'{"@page":'))
        lines.insert(header + 1, garbage)
        with open(o_path, "wb") as f:
            f.writelines(lines)

        result = system.process(frozen_snaps[1], frozen_snaps[0])
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(frozen_snaps[1]))
        # The unit is dropped as torn on reaching that group; only the
        # pages read before it were recycled.
        fp = result.timings.fastpath
        assert fp.pages_recycled == fp.pages_paired - 1
        for data in _capture_tree(system._prev_dir).values():
            assert garbage not in data

    @pytest.mark.parametrize("bad", [b'{"t":0,"i":0}\n',
                                     b'{"t":0,"i":0,"f":[[\n'])
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_malformed_framed_line_in_changed_page_o_group(
            self, chair, frozen_snaps, tmp_path, bad, jobs, backend):
        # Framed, so the read accepts it; parsing it fails when the
        # changed page's units copy from the group. They run from
        # scratch on that page instead.
        task, plan, units = chair
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME),
            jobs=jobs, backend=backend, capture_history=10)
        pages = frozen_snaps[0].canonical_pages()
        s0 = snapshot_from_texts(0, {p.url: p.text for p in pages})
        s1 = snapshot_from_texts(1, {
            p.url: p.text + ("\nA new closing line.\n"
                             if p is pages[-1] else "")
            for p in pages})
        system.process(s0)
        for unit in units:
            o_path = os.path.join(system._prev_dir, f"{unit.uid}.O.reuse")
            with open(o_path, "rb") as f:
                lines = f.readlines()
            header = max(i for i, line in enumerate(lines)
                         if line.startswith(b'{"@page":'))
            lines.insert(header + 1, bad)
            with open(o_path, "wb") as f:
                f.writelines(lines)

        result = system.process(s1, s0)
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(s1))
        assert result.timings.fastpath.pages_recycled == len(pages) - 1
        for data in _capture_tree(system._prev_dir).values():
            assert bad not in data

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_damaged_file_is_never_spliced(self, chair, frozen_snaps,
                                           tmp_path, damage, jobs,
                                           backend):
        # A torn tail only loses the unit from its torn group on; a
        # damaged header loses the whole file, so no page is recycled.
        task, plan, units = chair
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME),
            jobs=jobs, backend=backend, capture_history=10)
        system.process(frozen_snaps[0])
        name, mutate, recycled_all_but_last = DAMAGES[damage]
        path = os.path.join(system._prev_dir, name)
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(mutate(data))

        result = system.process(frozen_snaps[1], frozen_snaps[0])
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(frozen_snaps[1]))
        fp = result.timings.fastpath
        assert fp.pages_recycled == (fp.pages_paired - 1
                                     if recycled_all_but_last else 0)
        _assert_only_records(system._prev_dir)


class TestRenamedPage:
    def test_identical_page_at_new_url_matches_noreuse(self, chair,
                                                       frozen_snaps,
                                                       tmp_path):
        # A fingerprint scope pairs the renamed page with its old URL.
        # Rows and capture records carry no page id, so the old URL's
        # rows and groups are recycled for it like any other page's.
        from repro.reuse.scope import FingerprintScope

        task, plan, units = chair
        pages = frozen_snaps[0].canonical_pages()
        s0 = snapshot_from_texts(0, {p.url: p.text for p in pages})
        moved = pages[2]
        s1 = snapshot_from_texts(1, {
            (p.url + "-moved" if p is moved else p.url): p.text
            for p in pages})
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME),
            scope=FingerprintScope())
        system.process(s0)
        result = system.process(s1, s0)
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(s1))
        fp = result.timings.fastpath
        assert fp.pages_paired == fp.pages_recycled == len(pages)
        assert moved.did not in system.last_page_rows
        assert moved.url + "-moved" in system.last_page_rows


class TestResume:
    def test_resume_then_process_equals_uninterrupted(self, chair,
                                                      frozen_snaps,
                                                      tmp_path):
        task, _plan_, units = chair
        assignment = _plan(units, UD_NAME, RU_NAME)

        def system(name):
            return make_system("delex", task, str(tmp_path / name),
                               fixed_assignment=assignment)

        straight = system("straight")
        expected = _run(straight, frozen_snaps)[-1]
        assert expected[1].pages_recycled == len(frozen_snaps[-1])

        first = system("restarted")
        _run(first, frozen_snaps[:2])
        second = system("restarted")
        second.resume(frozen_snaps[:2], first._prev_dir,
                      first._snapshot_serial)
        result = second.process(frozen_snaps[2], frozen_snaps[1])
        assert canonical_results(result) == expected[0]
        # No rows survive a restart: every page ran its units, and
        # wrote the same capture a recycle would have.
        assert result.timings.fastpath.pages_recycled == 0
        assert _capture_tree(second._prev_dir) == \
            _capture_tree(straight._prev_dir)
