"""Whole-page recycle: an identical page whose every IE unit would take
the identity path is re-emitted from the previous run — its capture
groups copied byte for byte, its previous rows returned.

The properties pinned here: the recycle fires on every paired page of
an identical snapshot under RU plans and Shortcut, serial and parallel;
results always equal No-reuse; a page group's bytes do not depend on
where the group sits in the file; a torn line or damaged header is
never copied forward; a restart falls back to the per-unit path without
changing a byte; the memoised recycle verdict is keyed by the plan and
the recorded groups' bytes and holds at most one snapshot; and the
exact RU tie-break guard lets a sentence that follows a longer one take
the identity path.
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
from repro.matchers.base import RU_NAME, ST_NAME, UD_NAME, MatchCache
from repro.matchers.ws import WS_NAME
from repro.obs import trace as otrace
from repro.plan import compile_program, find_units
from repro.plan.operators import ScanNode
from repro.reuse.engine import (
    PageEvaluator,
    PlanAssignment,
    PrevCaptureSource,
    RecycleMemo,
    ReuseEngine,
    UnitRunStats,
)
from repro.reuse.files import (
    PAGE_PREFIX,
    InputTuple,
    PageRecorder,
    iter_all_pages,
    iter_groups,
    page_marker,
)
from repro.text.regions import MatchSegment
from repro.text.span import Span
from repro.timing import Timer, Timings


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
    def test_shortcut(self, chair, frozen_snaps, tmp_path, jobs, backend):
        task, plan, _units = chair
        system = make_system("shortcut", task, str(tmp_path), jobs=jobs,
                             backend=backend)
        reference = NoReuseSystem(plan)
        for snap, (results, fp) in zip(frozen_snaps[1:],
                                       _run(system, frozen_snaps)[1:]):
            assert results == canonical_results(reference.process(snap))
            assert fp.pages_recycled == fp.pages_paired == len(snap)

    def test_recycle_counters_equal_per_unit_path(self, chair,
                                                  frozen_snaps, tmp_path):
        # The per-unit identity path (rows withheld, so nothing can be
        # recycled whole) leaves the same capture bytes and counters.
        task, plan, units = chair
        assignment = _plan(units, UD_NAME, RU_NAME)
        runs = {}
        for keep_rows in (True, False):
            workdir = str(tmp_path / str(keep_rows))
            engine = ReuseEngine(plan, units, assignment)
            rows = {}
            engine.run_snapshot(frozen_snaps[0], None, None,
                                os.path.join(workdir, "0"),
                                page_rows_out=rows)
            result = engine.run_snapshot(
                frozen_snaps[1], frozen_snaps[0],
                os.path.join(workdir, "0"), os.path.join(workdir, "1"),
                prev_page_rows=rows if keep_rows else None)
            fp = result.timings.fastpath
            runs[keep_rows] = (
                result.results, result.unit_stats,
                _capture_tree(os.path.join(workdir, "1")),
                fp.pages_recycled, fp.tuples_recycled,
                fp.matcher_calls_avoided)
        recycled, per_unit = runs[True], runs[False]
        assert recycled[3] == len(frozen_snaps[1]) and per_unit[3] == 0
        assert recycled[:3] == per_unit[:3]
        assert recycled[4:] == per_unit[4:]


class TestObservability:
    def test_counter_merges_and_exports(self):
        from repro.obs import registry as oreg

        stats = FastPathStats(pages_paired=4, pages_short_circuited=3,
                              pages_recycled=2)
        stats.merge(FastPathStats(pages_recycled=1))
        assert stats.pages_recycled == 3
        assert stats.to_dict()["pages_recycled"] == 3
        assert "3 recycled whole" in stats.describe()
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
        # The rows of the old URL are not recycled for it: the page
        # takes the per-unit identity path, which re-tags its spans.
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
        assert fp.pages_paired == fp.pages_short_circuited == len(pages)
        assert fp.pages_recycled == len(pages) - 1
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
        # No rows survive a restart: every page took the per-unit path,
        # and wrote the same capture a recycle would have.
        assert result.timings.fastpath.pages_recycled == 0
        assert result.timings.fastpath.pages_short_circuited == len(
            frozen_snaps[2])
        assert _capture_tree(second._prev_dir) == \
            _capture_tree(straight._prev_dir)


class TestRecycleMemo:
    def test_rewritten_group_misses_the_memo(self, chair, frozen_snaps,
                                             tmp_path, monkeypatch):
        # Between runs, one identical page's scan-unit I group is
        # rewritten into valid records with another ``c``: the memo
        # must not answer for it, and the run must equal both No-reuse
        # and a run with no rows to recycle (the per-unit path).
        task, plan, units = chair
        computed = []
        fresh = PageEvaluator._recycle_verdict
        monkeypatch.setattr(
            PageEvaluator, "_recycle_verdict",
            lambda self, groups: computed.append(1) or fresh(self, groups))
        target = frozen_snaps[1].canonical_pages()[3].did
        runs = {}
        for keep_rows in (True, False):
            system = make_system(
                "delex", task, str(tmp_path / str(keep_rows)),
                fixed_assignment=_plan(units, UD_NAME, RU_NAME))
            _run(system, frozen_snaps[:2])
            path = os.path.join(system._prev_dir,
                                "extractServiceSec.I.reuse")
            with open(path, "rb") as f:
                data = f.read()
            head = data.index(page_marker(target))
            tail = data.index(PAGE_PREFIX, head + 1)
            with open(path, "wb") as f:
                f.write(data[:head]
                        + data[head:tail].replace(b'"c":""', b'"c":"x"')
                        + data[tail:])
            if not keep_rows:
                system.last_page_rows = None
            computed.clear()
            result = system.process(frozen_snaps[2], frozen_snaps[1])
            fp = result.timings.fastpath
            runs[keep_rows] = (canonical_results(result), result.unit_stats,
                               _capture_tree(system._prev_dir),
                               fp.matcher_calls_avoided, fp.pages_recycled,
                               len(computed))
        memo_run, per_unit = runs[True], runs[False]
        assert memo_run[0] == canonical_results(
            NoReuseSystem(plan).process(frozen_snaps[2]))
        assert memo_run[:4] == per_unit[:4]
        # Only the rewritten page was judged afresh, and it failed.
        assert memo_run[4:] == (len(frozen_snaps[2]) - 1, 1)
        assert per_unit[4] == 0

    @pytest.mark.parametrize("first", ["UD-RU", "WS-RU"])
    def test_verdict_is_never_used_under_another_plan(self, chair,
                                                      frozen_snaps,
                                                      tmp_path, first):
        # UD->RU recycles the page; WS->RU never does (WS reports
        # internal repeats that RU units would see). One memo, same
        # groups: each plan gets its own verdict, in either order.
        _task, plan, units = chair
        boot = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        boot.run_snapshot(frozen_snaps[0], None, None, str(tmp_path))
        source = PrevCaptureSource(boot._capture_paths(str(tmp_path)))
        page = frozen_snaps[1].canonical_pages()[0]
        q_page = frozen_snaps[0].canonical_pages()[0]
        prev_capture = source.read(q_page, Timer(Timings()))
        source.close()
        evaluators = {
            "UD-RU": PageEvaluator(plan, units, _plan(units, UD_NAME,
                                                      RU_NAME)),
            "WS-RU": PageEvaluator(plan, units, _plan(units, WS_NAME,
                                                      RU_NAME))}
        fresh = {name: ev.page_recyclable(page, q_page, prev_capture)
                 for name, ev in evaluators.items()}
        assert fresh["UD-RU"] is not None and fresh["WS-RU"] is None
        memo = RecycleMemo()
        order = [first] + [n for n in evaluators if n != first]
        for name in order + order:
            assert evaluators[name].page_recyclable(
                page, q_page, prev_capture, memo) == fresh[name], name
        assert len(memo) == 2

    def test_memo_holds_at_most_one_snapshot(self, chair, tmp_path):
        task, _plan_, units = chair
        churn = ChangeModel(p_unchanged=0.6, p_removed=0.1, p_added=0.1)
        snaps = list(EvolvingCorpus(DBLifeGenerator(), 8, churn,
                                    seed=4).snapshots(11))
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME))
        prev, held = None, []
        for snap in snaps:
            result = system.process(snap, prev)
            prev = snap
            held.append(len(system.recycle_memo))
            assert held[-1] <= result.timings.fastpath.pages_short_circuited
            assert held[-1] <= len(snap)
        assert len(held) == 11 and max(held) > 0

    def test_resume_starts_with_an_empty_memo(self, chair, frozen_snaps,
                                              tmp_path):
        task, _plan_, units = chair
        system = make_system(
            "delex", task, str(tmp_path),
            fixed_assignment=_plan(units, UD_NAME, RU_NAME))
        _run(system, frozen_snaps[:2])
        assert len(system.recycle_memo) == len(frozen_snaps[1])
        system.resume(frozen_snaps[:2], system._prev_dir,
                      system._snapshot_serial)
        assert len(system.recycle_memo) == 0


#: A DBLife-like page whose service section has a chair sentence that
#: follows a longer one.
SERVICE_PAGE = (
    "Frank Foster - Homepage Page\n"
    "== Service ==\n"
    "Xenia Ibrahim serves as industrial chair of CIDR 1986.\n"
    "Bo Xu serves as general chair of ICDE 1992.\n"
    "== News ==\n"
    "The project was announced at a press event in the spring.\n")


class TestExactRUGuard:
    def test_shorter_sentence_after_longer_takes_identity(self, chair,
                                                          tmp_path):
        _task, plan, units = chair
        s0 = snapshot_from_texts(0, {"u": SERVICE_PAGE})
        s1 = snapshot_from_texts(1, {"u": SERVICE_PAGE})
        boot = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        boot.run_snapshot(s0, None, None, str(tmp_path))
        source = PrevCaptureSource(boot._capture_paths(str(tmp_path)))
        timer = Timer(Timings())
        page, q_page = s1.pages[0], s0.pages[0]
        prev_capture = source.read(q_page, timer)
        source.close()
        fact = prev_capture["extractChairFact"].inputs
        assert len(fact) == 2 and fact[0].e - fact[0].s > fact[1].e - \
            fact[1].s

        evaluator = PageEvaluator(plan, units,
                                  _plan(units, UD_NAME, RU_NAME))
        assert evaluator.page_recyclable(page, q_page, prev_capture)
        tracer = otrace.install()
        try:
            evaluator.run_page(page, q_page, prev_capture, PageRecorder(),
                               {u.uid: UnitRunStats() for u in units},
                               timer, cache=MatchCache(),
                               fp_stats=FastPathStats())
        finally:
            otrace.uninstall()
        paths = {r.args["uid"]: r.args["path"] for r in tracer.records
                 if r.name == "unit"}
        assert paths["extractChairFact"] == "identity"

    def test_segment_into_earlier_candidate_still_blocks(self, chair):
        # RU would trim a segment mapping R into the earlier, longer
        # candidate to full length |R|; that candidate wins the
        # tie-break, so the identity path must not run.
        _task, plan, units = chair
        evaluator = PageEvaluator(plan, units,
                                  _plan(units, UD_NAME, RU_NAME))
        earlier = InputTuple(0, "d", 100, 160)
        exact = InputTuple(1, "d", 200, 240)
        region = Span("d", 200, 240)
        cache = MatchCache()
        cache.record([MatchSegment(0, 0, 300, 0)])
        args = (None, RU_NAME, 8, region, [earlier, exact], "", cache)
        assert evaluator._identity_candidate(*args) is exact
        cache.record([MatchSegment(200, 110, 40, 0)])
        assert evaluator._identity_candidate(*args) is None
