"""Whole-page recycle: a byte-identical page whose previous rows are
known and whose every unit's capture is readable is re-emitted from the
previous run — its page-table entries copied, its previous rows
returned — whatever the matcher plan or the URL.

The properties pinned here: the recycle fires on every paired page of
an identical snapshot under every plan (RU, DN and all-DN) and under
Shortcut, serial and parallel, and books nothing in the units' stats;
results always equal No-reuse, also when the plan changes between
snapshots; a page group's bytes do not depend on where the group sits
in its segment; a damaged segment or page table is never parsed into
copies, whichever way it is damaged; a renamed page is recycled; and a
restart, which recycles nothing, runs the units without changing a
byte.
"""

from __future__ import annotations

import os

import pytest

from repro.core.noreuse import NoReuseSystem
from repro.core.runner import canonical_results, make_system
from repro.corpus.evolve import ChangeModel, EvolvingCorpus
from repro.corpus.generators import DBLifeGenerator
from repro.corpus.snapshot import (
    Snapshot,
    read_snapshot,
    snapshot_from_texts,
    write_snapshot,
)
from repro.extractors import make_task
from repro.fastpath import FastPathStats, content_fingerprint
from repro.matchers.base import DN_NAME, RU_NAME, ST_NAME, UD_NAME
from repro.obs import trace as otrace
from repro.plan import compile_program, find_units
from repro.plan.operators import ScanNode
from repro.reuse.engine import PlanAssignment, ReuseEngine
from repro.reuse.files import (
    TABLE_NAME,
    PageTable,
    iter_unit_groups,
    parse_inputs,
    parse_outputs,
)
from repro.text.document import Page


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

    def test_stale_fp_header_still_recycles(self, chair, frozen_snaps,
                                            tmp_path):
        # Page identity compares text, never the persisted fingerprint:
        # a snapshot file whose "fp" headers are stale still recycles
        # every unchanged page.
        task, plan, _units = chair
        path = str(tmp_path / "snap1.dat")
        write_snapshot(Snapshot(1, [
            Page(p.did, p.url, p.text,
                 fp=content_fingerprint("stale " + p.text))
            for p in frozen_snaps[1].pages]), path)
        loaded = read_snapshot(path)
        assert all(p.fingerprint != q.fingerprint and p.text == q.text
                   for p, q in zip(loaded.pages, frozen_snaps[0].pages))
        system = make_system("delex", task, str(tmp_path / "run"))
        system.process(frozen_snaps[0])
        result = system.process(loaded, frozen_snaps[0])
        fp = result.timings.fastpath
        assert fp.pages_recycled == fp.pages_paired == len(loaded)
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(loaded))

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
        # group byte-identical, which is what lets a table entry stand
        # for it in any later capture.
        _task, plan, units = chair
        pages = frozen_snaps[0].canonical_pages()
        full = snapshot_from_texts(0, {p.url: p.text for p in pages})
        tail = snapshot_from_texts(0, {p.url: p.text for p in pages[3:]})
        engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        engine.run_snapshot(full, None, None, str(tmp_path / "full"))
        engine.run_snapshot(tail, None, None, str(tmp_path / "tail"))
        compared = 0
        for unit in units:
            groups_full = {did: (i, o) for did, i, o in iter_unit_groups(
                str(tmp_path / "full"), unit.uid)}
            groups_tail = {did: (i, o) for did, i, o in iter_unit_groups(
                str(tmp_path / "tail"), unit.uid)}
            assert set(groups_tail) < set(groups_full)
            for did, data in groups_tail.items():
                assert data == groups_full[did], (unit.uid, did)
                compared += data[0].count(b"\n") + data[1].count(b"\n")
        assert compared > 0


def _cut_table(data):
    """Cut the page table inside its JSON line."""
    return data[:data.index(b'"dids"') + 3]


def _break_table_json(data):
    """Turn the JSON line's closing brace into a bracket."""
    end = data.index(b"\n")
    return data[:end - 1] + b"]" + data[end:]


#: Damaged captures: ``id -> (file, mutation, whether every page but
#: the last is still recycled)``. A segment of another size than its
#: table records is unreadable whole, and every page of the snapshot
#: holds its groups; a damaged table is no capture at all. The
#: page-scan unit has a record on every page, so cutting its I
#: segment's last 7 bytes lands mid-record.
DAMAGES = {
    "tail-mid-record": ("extractServiceSec.I.reuse",
                        lambda data: data[:-7], False),
    "truncated-header": (TABLE_NAME, _cut_table, False),
    "broken-header-json": (TABLE_NAME, _break_table_json, False),
    "garbage-before-first-header": ("extractChairFact.O.reuse",
                                    lambda data: b"garbage\n" + data,
                                    False),
}


def _assert_only_records(directory):
    """The capture has a whole page table, and every group it points
    at is record lines that parse."""
    table = PageTable.load(directory)
    for uid in table.units:
        for did, i_data, o_data in iter_unit_groups(directory, uid):
            parse_inputs(did, i_data)
            parse_outputs(o_data)


def _group_range(directory, did, uid, side):
    """``(path, offset, length)`` of ``uid``'s ``side`` group on ``did``
    through the capture's table."""
    table = PageTable.load(directory)
    entry = table.entry(table.page(did), table.units.index(uid))
    offset, length = (entry[1], entry[2]) if side == "I" else (
        entry[3], entry[4])
    path = table.segment_paths(directory)[(entry[0], uid, side)]
    return path, offset, length


def _overwrite_last_line(path, offset, length, line):
    """Replace the last record line of the group at ``offset`` with
    ``line`` (newline-terminated) padded with spaces to the same length;
    returns the padded line without its newline. The segment keeps its
    size, so only parsing the group can tell."""
    with open(path, "rb") as f:
        data = f.read()
    group = data[offset:offset + length]
    start = offset + group.rindex(b"\n", 0, len(group) - 1) + 1 \
        if group.count(b"\n") > 1 else offset
    width = offset + length - start - 1
    assert len(line) <= width
    line = line.rstrip(b"\n").ljust(width)
    with open(path, "wb") as f:
        f.write(data[:start] + line + data[start + width:])
    return line


def _referenced_serials(directory, uid):
    table = PageTable.load(directory)
    return {serial for serial, unit in table.segments if unit == uid}


class TestTornGroupNeverSpliced:
    """A damaged capture is never parsed into copies: the unit runs from
    scratch where it cannot read its groups, and the capture of a page
    that ran holds freshly appended bytes."""

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
        last = frozen_snaps[0].canonical_pages()[-1].did
        path, offset, _length = _group_range(
            system._prev_dir, last, "extractChairFact", "O")
        with open(path, "rb") as f:
            data = f.read()
        with open(path, "wb") as f:
            f.write(data[:offset] + garbage + data[offset:])

        result = system.process(frozen_snaps[1], frozen_snaps[0])
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(frozen_snaps[1]))
        # The segment is no longer the size its table recorded, so the
        # unit is unreadable on every page whose groups it holds (all
        # of them): no page is recycled, and the unit's new groups are
        # all appended afresh.
        fp = result.timings.fastpath
        assert fp.pages_recycled == 0
        assert _referenced_serials(system._prev_dir,
                                   "extractChairFact") == {1}
        for data in _capture_tree(system._prev_dir).values():
            assert garbage not in data
        _assert_only_records(system._prev_dir)

    @pytest.mark.parametrize("bad", [b'{"t":0,"i":0}\n',
                                     b'{"t":0,"i":0,"f":[[\n'])
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_malformed_framed_line_in_changed_page_o_group(
            self, chair, frozen_snaps, tmp_path, bad, jobs, backend):
        # Framed and of the same size, so the read accepts it; parsing
        # it fails when the changed page's units copy from the group.
        # They run from scratch on that page instead.
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
        damaged = []
        for unit in units:
            path, offset, length = _group_range(
                system._prev_dir, pages[-1].did, unit.uid, "O")
            if length:
                damaged.append(_overwrite_last_line(path, offset, length,
                                                    bad))
        assert damaged

        result = system.process(s1, s0)
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(s1))
        assert result.timings.fastpath.pages_recycled == len(pages) - 1
        for data in _capture_tree(system._prev_dir).values():
            assert not any(line in data for line in damaged)
        _assert_only_records(system._prev_dir)

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_damaged_file_is_never_spliced(self, chair, frozen_snaps,
                                           tmp_path, damage, jobs,
                                           backend):
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
        if name != TABLE_NAME:
            uid = name.split(".")[0]
            assert _referenced_serials(system._prev_dir, uid) == {1}


def _scratch_groups(plan, units, snapshot, directory):
    """Every unit's groups on every page of a from-scratch run."""
    engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
    engine.run_snapshot(snapshot, None, None, directory)
    return {(did, u.uid): (i, o) for u in units
            for did, i, o in iter_unit_groups(directory, u.uid)}


class TestSegmentFaults:
    """Faults of the page-table layout. Each degrades to a slower
    correct answer: results equal No-reuse, and the affected unit's new
    groups are those of a from-scratch run."""

    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_segment_truncated_mid_record(self, chair, frozen_snaps,
                                          tmp_path, jobs, backend):
        task, plan, units = chair
        system = make_system(
            "delex", task, str(tmp_path / "run"),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME),
            jobs=jobs, backend=backend, capture_history=10)
        system.process(frozen_snaps[0])
        first = frozen_snaps[0].canonical_pages()[0].did
        path, offset, length = _group_range(
            system._prev_dir, first, "extractChairSent", "I")
        with open(path, "r+b") as f:
            f.truncate(offset + length // 2)

        result = system.process(frozen_snaps[1], frozen_snaps[0])
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(frozen_snaps[1]))
        assert result.timings.fastpath.pages_recycled == 0
        scratch = _scratch_groups(plan, units, frozen_snaps[1],
                                  str(tmp_path / "scratch"))
        for did, i_data, o_data in iter_unit_groups(system._prev_dir,
                                                    "extractChairSent"):
            assert (i_data, o_data) == scratch[(did, "extractChairSent")]

    @pytest.mark.parametrize("damage", [
        lambda data: data[:len(data) // 3],
        lambda data: b"\x00garbage" * 40,
        lambda data: data[:-3] + b"00\n",
    ], ids=["torn", "garbage", "checksum"])
    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_torn_or_garbage_page_table(self, chair, frozen_snaps,
                                        tmp_path, damage, jobs, backend):
        # No readable table is no previous capture: every page runs
        # from scratch, and the new capture appends every group.
        task, plan, units = chair
        system = make_system(
            "delex", task, str(tmp_path / "run"),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME),
            jobs=jobs, backend=backend, capture_history=10)
        system.process(frozen_snaps[0])
        table = os.path.join(system._prev_dir, TABLE_NAME)
        with open(table, "rb") as f:
            data = f.read()
        with open(table, "wb") as f:
            f.write(damage(data))

        result = system.process(frozen_snaps[1], frozen_snaps[0])
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(frozen_snaps[1]))
        assert result.timings.fastpath.pages_recycled == 0
        assert result.capture.appended_bytes == result.capture.live_bytes
        assert all(s.copied_tuples == 0 for s in result.unit_stats.values())
        scratch = _scratch_groups(plan, units, frozen_snaps[1],
                                  str(tmp_path / "scratch"))
        for unit in units:
            for did, i_data, o_data in iter_unit_groups(system._prev_dir,
                                                        unit.uid):
                assert (i_data, o_data) == scratch[(did, unit.uid)]

    @pytest.mark.parametrize("jobs,backend", [(1, "serial"),
                                              (2, "process")])
    def test_recycled_group_corrupted_then_parsed(self, chair,
                                                  frozen_snaps, tmp_path,
                                                  jobs, backend):
        # Snapshot 1 recycles every page by reference: its table points
        # at snapshot 0's segments. A group that then rots on disk (same
        # size) is never read while its page stays identical; once the
        # page changes, the unit parses it, fails, and runs from
        # scratch, and the page's new groups are appended afresh.
        task, plan, units = chair
        pages = frozen_snaps[0].canonical_pages()
        victim = pages[1]
        s2 = snapshot_from_texts(2, {
            p.url: p.text + ("\nA new closing line.\n"
                             if p is victim else "")
            for p in pages})
        system = make_system(
            "delex", task, str(tmp_path / "run"),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME),
            jobs=jobs, backend=backend, capture_history=10)
        system.process(frozen_snaps[0])
        result = system.process(frozen_snaps[1], frozen_snaps[0])
        assert result.timings.fastpath.pages_recycled == len(pages)
        assert result.capture.appended_bytes == 0
        path, offset, length = _group_range(
            system._prev_dir, victim.did, "extractChairFact", "O")
        assert "snap_0000" in path  # recycled by reference
        _overwrite_last_line(path, offset, length, b'{"t":0,"i":0}\n')

        result = system.process(s2, frozen_snaps[1])
        assert canonical_results(result) == canonical_results(
            NoReuseSystem(plan).process(s2))
        assert result.timings.fastpath.pages_recycled == len(pages) - 1
        scratch = _scratch_groups(plan, units, s2, str(tmp_path / "scratch"))
        path, _offset, _length = _group_range(
            system._prev_dir, victim.did, "extractChairFact", "O")
        assert "snap_0002" in path  # appended afresh
        got = {did: (i, o) for did, i, o in iter_unit_groups(
            system._prev_dir, "extractChairFact")}
        assert got[victim.did] == scratch[(victim.did, "extractChairFact")]
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

    @pytest.mark.parametrize("layout", ["crash-before-table", "older"])
    def test_prev_dir_without_table_runs_from_scratch(self, chair,
                                                      tmp_path, layout):
        # A capture directory without a readable page table — a run
        # that died before writing it, or a capture of the older
        # one-file-per-unit layout — is no capture: the next snapshot
        # runs every page from scratch and appends a full capture, and
        # the one after it recycles again.
        task, plan, units = chair
        churn = ChangeModel(p_unchanged=0.7, p_removed=0.05, p_added=0.05)
        snaps = list(EvolvingCorpus(DBLifeGenerator(), 10, churn,
                                    seed=4).snapshots(4))
        assignment = _plan(units, UD_NAME, RU_NAME)

        def system(name):
            return make_system("delex", task, str(tmp_path / name),
                               fixed_assignment=assignment)

        straight = _run(system("straight"), snaps)
        first = system("restarted")
        _run(first, snaps[:2])
        os.unlink(os.path.join(first._prev_dir, TABLE_NAME))
        if layout == "older":
            for name in os.listdir(first._prev_dir):
                os.unlink(os.path.join(first._prev_dir, name))
            for unit in units:
                with open(os.path.join(first._prev_dir,
                                       f"{unit.uid}.I.reuse"), "wb") as f:
                    f.write(b'{"@page":"x"}\n{"t":0,"s":0,"e":1,"c":""}\n')
        second = system("restarted")
        second.resume(snaps[:2], first._prev_dir, first._snapshot_serial)
        reference = NoReuseSystem(plan)
        for index in (2, 3):
            result = second.process(snaps[index], snaps[index - 1])
            assert canonical_results(result) == straight[index][0]
            assert canonical_results(result) == canonical_results(
                reference.process(snaps[index]))
            recycled = result.timings.fastpath.pages_recycled
            if index == 2:
                assert recycled == 0
                assert all(s.copied_tuples == 0
                           for s in result.unit_stats.values())
                assert result.capture.appended_bytes \
                    == result.capture.live_bytes
            else:
                assert recycled == straight[index][1].pages_recycled > 0


class TestCaptureGC:
    def test_thirty_low_churn_snapshots(self, chair, tmp_path):
        # Tables beyond capture_history are deleted, a segment is never
        # deleted while a retained table points into it, and what the
        # newest table keeps alive stays within twice the live bytes of
        # the table before it plus what it appended: past that bound a
        # snapshot appends a full capture.
        task, plan, units = chair
        churn = ChangeModel(p_unchanged=0.9, p_removed=0.02, p_added=0.02)
        snaps = list(EvolvingCorpus(DBLifeGenerator(), 30, churn,
                                    seed=8).snapshots(31))
        system = make_system("delex", task, str(tmp_path),
                             fixed_assignment=_plan(units, UD_NAME, RU_NAME),
                             capture_history=2)
        reference = NoReuseSystem(plan)
        prev, full_captures, live = None, 0, 0
        for index, snap in enumerate(snaps):
            result = system.process(snap, prev)
            prev = snap
            if index % 5 == 0:
                assert canonical_results(result) == canonical_results(
                    reference.process(snap))
            capture = result.capture
            if index and capture.appended_bytes == capture.live_bytes:
                full_captures += 1
            assert capture.segment_bytes <= (2 * live
                                             + capture.appended_bytes)
            tables = [d for d in sorted(os.listdir(tmp_path))
                      if os.path.exists(tmp_path / d / TABLE_NAME)]
            assert len(tables) <= system.capture_history + 1
            for name in tables:
                directory = str(tmp_path / name)
                table = PageTable.load(directory)
                for (serial, uid, side), path in \
                        table.segment_paths(directory).items():
                    sizes = table.segments[(serial, uid)]
                    assert os.path.getsize(path) \
                        == sizes["IO".index(side)], (index, path)
            on_disk = sum(os.path.getsize(os.path.join(base, name))
                          for base, _dirs, names in os.walk(tmp_path)
                          for name in names if name.endswith(".reuse"))
            assert on_disk <= (system.capture_history + 1) * (
                2 * max(live, capture.live_bytes) + capture.appended_bytes)
            live = capture.live_bytes
        assert full_captures >= 1
