"""Capture-file analysis helpers."""

import os

import pytest

from repro.core.runner import canonical_results  # noqa: F401 (API parity)
from repro.corpus.snapshot import snapshot_from_texts
from repro.plan import compile_program, find_units
from repro.reuse.analysis import analyze_capture, mentions_per_page
from repro.reuse.engine import PlanAssignment, ReuseEngine
from repro.extractors import make_task


@pytest.fixture()
def capture(tmp_path):
    task = make_task("play", work_scale=0)
    plan = compile_program(task.program, task.registry)
    units = find_units(plan)
    engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
    text = ("== Filmography ==\n"
            "Nina Weber starred as Dr. Malone in Crimson Harbor (1999).\n"
            "Ivan Rossi starred as Agent Carter in Paper Kingdom (2001).\n")
    snap = snapshot_from_texts(0, {"u1": text, "u2": text, "u3": "empty"})
    out = str(tmp_path / "cap")
    result = engine.run_snapshot(snap, None, None, out)
    return out, units, snap, result


class TestAnalyzeCapture:
    def test_per_unit_stats(self, capture):
        out, units, snap, result = capture
        report = analyze_capture(out, units)
        assert set(report.units) == {u.uid for u in units}
        for uid, stats in report.units.items():
            assert stats.pages == len(snap)
            assert stats.input_tuples == \
                result.unit_stats[uid].input_tuples
            assert stats.output_tuples == \
                result.unit_stats[uid].output_tuples

    def test_totals_and_bound(self, capture):
        out, units, snap, _ = capture
        report = analyze_capture(out, units)
        assert report.total_bytes > 0
        assert report.total_blocks >= len(units) * 2
        assert report.within_paper_bound(snap.total_bytes())

    def test_render(self, capture):
        out, units, _, _ = capture
        text = analyze_capture(out, units).render()
        assert "extractFilmSec" in text
        assert "total:" in text

    def test_missing_directory(self):
        with pytest.raises(FileNotFoundError):
            analyze_capture("/nonexistent/capture/dir")

    def test_unfiltered_scan(self, capture):
        out, units, _, _ = capture
        report = analyze_capture(out)
        assert len(report.units) == len(units)


class TestMentionsPerPage:
    def test_counts_in_page_order(self, capture):
        out, units, snap, _ = capture
        uid = next(u.uid for u in units
                   if u.uid.startswith("extractPlayActor"))
        counts = mentions_per_page(out, uid)
        assert len(counts) == len(snap)
        assert counts[0] == 2  # two starred-as facts on u1
        assert counts[2] == 0  # the empty page


class TestSegmentBytes:
    def test_recycled_snapshot_appends_nothing(self, capture, tmp_path):
        # A snapshot identical to the last one keeps every table entry:
        # its logical capture is the same, it appends no segment
        # bytes, and it keeps the first capture's segments alive.
        _out, _units, snap, _result = capture
        task = make_task("play", work_scale=0)
        plan = compile_program(task.program, task.registry)
        units = find_units(plan)
        engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        rows = {}
        engine.run_snapshot(snap, None, None, str(tmp_path / "warm"),
                            page_rows_out=rows)
        again = str(tmp_path / "again")
        engine.run_snapshot(snap, snap, str(tmp_path / "warm"), again,
                            prev_page_rows=rows)
        before = analyze_capture(str(tmp_path / "warm"), units)
        after = analyze_capture(again, units)
        assert after.total_bytes == before.total_bytes
        assert after.appended_bytes == 0
        assert after.segment_bytes == before.segment_bytes \
            == before.appended_bytes > 0
        assert sorted(os.listdir(again)) == ["pages.table"]
        assert "0 appended" in after.render()
