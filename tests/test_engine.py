"""Reuse-engine tests, including the Theorem 1 property test.

The property test is the heart of the suite: for randomly evolving
pages and arbitrary matcher assignments, the reuse engine must produce
exactly the same extraction results as from-scratch evaluation.
"""

import glob
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.noreuse import NoReuseSystem
from repro.core.runner import canonical_results
from repro.corpus.snapshot import Snapshot
from repro.extractors.rules import LineExtractor, RegexExtractor, SectionExtractor
from repro.matchers.base import MATCHER_NAMES
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment, ReuseEngine
from repro.reuse.scope import FingerprintScope
from repro.runtime import ProcessPoolExecutor
from repro.text.document import Page
from repro.xlog.parser import parse_program
from repro.xlog.registry import Registry


def mini_task():
    """A 3-unit chain task over a tiny synthetic grammar."""
    reg = Registry()
    reg.register_extractor(SectionExtractor(
        "getBody", "sec", "Body", scope=4000, context=16))
    reg.register_extractor(LineExtractor(
        "getFacts", "sent", scope=120, must_contain="likes", context=4))
    reg.register_extractor(RegexExtractor(
        "getWho", r"(?P<w>[A-Z][a-z]+) likes",
        groups={"w": "w"}, scope=30, context=8))
    program = parse_program("""
        who(w) :- docs(d), getBody(d, sec), getFacts(sec, sent),
                  getWho(sent, w).
    """)
    return program, reg


NAMES = ["Ana", "Bob", "Cat", "Dan", "Eve", "Fay"]
THINGS = ["tea", "jazz", "chess", "rain", "maps"]


def render_page(rng):
    lines = [f"header {rng.randint(0, 9)}"]
    lines.append("== Body ==")
    for _ in range(rng.randint(1, 5)):
        lines.append(f"{rng.choice(NAMES)} likes {rng.choice(THINGS)}.")
    if rng.random() < 0.5:
        lines.append("== Tail ==")
        lines.append("closing words")
    return "\n".join(lines) + "\n"


def evolve_text(rng, text):
    lines = text.rstrip("\n").split("\n")
    for _ in range(rng.randint(1, 3)):
        op = rng.random()
        if op < 0.4:
            lines.insert(rng.randint(0, len(lines)),
                         f"{rng.choice(NAMES)} likes {rng.choice(THINGS)}.")
        elif op < 0.6 and len(lines) > 1:
            del lines[rng.randrange(len(lines))]
        else:
            i = rng.randrange(len(lines))
            lines[i] = lines[i] + "!"
    return "\n".join(lines) + "\n"


def build_engine(assignment_names):
    program, reg = mini_task()
    plan = compile_program(program, reg)
    units = find_units(plan)
    assignment = PlanAssignment(dict(zip([u.uid for u in units],
                                         assignment_names)))
    return plan, units, assignment


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000),
       matchers=st.tuples(*([st.sampled_from(MATCHER_NAMES + ("WS",))] * 3)))
def test_theorem1_engine_matches_plain(tmp_path_factory, seed, matchers):
    """Random page evolution + arbitrary matcher assignment ==
    from-scratch results, on both snapshots."""
    rng = random.Random(seed)
    pages0 = {f"u{i}": render_page(rng) for i in range(4)}
    pages1 = {}
    for url, text in pages0.items():
        roll = rng.random()
        if roll < 0.2:
            continue  # page removed
        pages1[url] = text if roll < 0.5 else evolve_text(rng, text)
    if rng.random() < 0.5:
        pages1["new"] = render_page(rng)
    s0 = Snapshot(0, [Page.from_url(u, t) for u, t in pages0.items()])
    s1 = Snapshot(1, [Page.from_url(u, t) for u, t in pages1.items()])

    plan, units, assignment = build_engine(matchers)
    engine = ReuseEngine(plan, units, assignment)
    base = str(tmp_path_factory.mktemp("thm1"))
    r0 = engine.run_snapshot(s0, None, None, os.path.join(base, "0"))
    r1 = engine.run_snapshot(s1, s0, os.path.join(base, "0"),
                             os.path.join(base, "1"))

    plain = NoReuseSystem(plan)
    assert canonical_results(r0) == canonical_results(plain.process(s0))
    assert canonical_results(r1) == canonical_results(plain.process(s1))


class TestEngineMechanics:
    def setup_snapshots(self):
        rng = random.Random(7)
        pages0 = {f"u{i}": render_page(rng) for i in range(5)}
        pages1 = {u: (evolve_text(rng, t) if i % 2 else t)
                  for i, (u, t) in enumerate(pages0.items())}
        s0 = Snapshot(0, [Page.from_url(u, t) for u, t in pages0.items()])
        s1 = Snapshot(1, [Page.from_url(u, t) for u, t in pages1.items()])
        return s0, s1

    def test_capture_files_created_per_unit(self, tmp_path):
        s0, _ = self.setup_snapshots()
        plan, units, assignment = build_engine(["DN"] * 3)
        engine = ReuseEngine(plan, units, assignment)
        out = str(tmp_path / "cap")
        result = engine.run_snapshot(s0, None, None, out)
        files = sorted(os.listdir(out))
        # One page table, and a segment per unit and side that holds
        # groups: 3 units x (I, O) on this corpus.
        assert files == sorted(["pages.table"] + [
            f"{u.uid}.{side}.reuse" for u in units for side in "IO"])
        assert result.capture.appended_bytes == result.capture.live_bytes
        assert result.capture.segment_bytes == sum(
            os.path.getsize(os.path.join(out, f)) for f in files
            if f.endswith(".reuse"))

    def test_copying_happens_with_st(self, tmp_path):
        s0, s1 = self.setup_snapshots()
        plan, units, assignment = build_engine(["ST", "RU", "RU"])
        engine = ReuseEngine(plan, units, assignment)
        engine.run_snapshot(s0, None, None, str(tmp_path / "0"))
        r1 = engine.run_snapshot(s1, s0, str(tmp_path / "0"),
                                 str(tmp_path / "1"))
        copied = sum(s.copied_tuples for s in r1.unit_stats.values())
        assert copied > 0

    def _second_run(self, tmp_path, names, fastpath):
        s0, s1 = self.setup_snapshots()
        plan, units, assignment = build_engine(names)
        engine = ReuseEngine(plan, units, assignment, fastpath=fastpath)
        engine.run_snapshot(s0, None, None, str(tmp_path / "0"))
        return engine.run_snapshot(s1, s0, str(tmp_path / "0"),
                                   str(tmp_path / "1"))

    def test_dn_everywhere_copies_nothing(self, tmp_path):
        # The paper's DN (the reference engine, fast paths off) never
        # copies. With them on, DN copies only what it replays: regions
        # whose text it recorded on the previous page, no matcher run.
        r1 = self._second_run(tmp_path / "off", ["DN"] * 3, "off")
        assert all(s.copied_tuples == 0 for s in r1.unit_stats.values())
        r1 = self._second_run(tmp_path / "on", ["DN"] * 3, "on")
        for stats in r1.unit_stats.values():
            assert stats.matcher_calls == stats.copy_zone_chars == 0
            assert (stats.copied_tuples > 0) <= (stats.replayed_chars > 0)
        assert sum(s.replayed_chars for s in r1.unit_stats.values()) > 0

    def test_ru_without_donor_behaves_like_dn(self, tmp_path):
        r1 = self._second_run(tmp_path / "off", ["RU", "RU", "RU"], "off")
        assert all(s.copied_tuples == 0 for s in r1.unit_stats.values())
        on = self._second_run(tmp_path / "on", ["RU", "RU", "RU"], "on")
        dn = self._second_run(tmp_path / "dn", ["DN"] * 3, "on")
        assert ({uid: s.copied_tuples for uid, s in on.unit_stats.items()}
                == {uid: s.copied_tuples
                    for uid, s in dn.unit_stats.items()})

    def test_ru_with_donor_copies(self, tmp_path):
        s0, s1 = self.setup_snapshots()
        plan, units, assignment = build_engine(["UD", "RU", "RU"])
        engine = ReuseEngine(plan, units, assignment)
        engine.run_snapshot(s0, None, None, str(tmp_path / "0"))
        r1 = engine.run_snapshot(s1, s0, str(tmp_path / "0"),
                                 str(tmp_path / "1"))
        upper = [u for u in units if u.uid != "getBody"]
        assert any(r1.unit_stats[u.uid].copied_tuples > 0 for u in upper)

    def test_identical_snapshot_fully_copied(self, tmp_path):
        s0, _ = self.setup_snapshots()
        s1 = Snapshot(1, list(s0.pages))
        plan, units, assignment = build_engine(["UD", "RU", "RU"])
        engine = ReuseEngine(plan, units, assignment)
        r0 = engine.run_snapshot(s0, None, None, str(tmp_path / "0"))
        r1 = engine.run_snapshot(s1, s0, str(tmp_path / "0"),
                                 str(tmp_path / "1"))
        assert canonical_results(r1) == canonical_results(r0)
        # Nothing should have been re-extracted on identical pages.
        for stats in r1.unit_stats.values():
            assert stats.extracted_chars == 0

    def test_unit_stats_accounting(self, tmp_path):
        s0, s1 = self.setup_snapshots()
        plan, units, assignment = build_engine(["ST", "RU", "RU"])
        engine = ReuseEngine(plan, units, assignment)
        engine.run_snapshot(s0, None, None, str(tmp_path / "0"))
        r1 = engine.run_snapshot(s1, s0, str(tmp_path / "0"),
                                 str(tmp_path / "1"))
        for stats in r1.unit_stats.values():
            assert stats.input_tuples > 0
            assert stats.i_blocks >= 1
            assert stats.o_blocks >= 1
        assert r1.pages == len(s1)
        assert r1.pages_with_previous == len(s1)

    def test_missing_assignment_rejected(self):
        plan, units, _ = build_engine(["DN"] * 3)
        with pytest.raises(ValueError):
            ReuseEngine(plan, units, PlanAssignment({}))

    def test_page_order_follows_previous_snapshot(self, tmp_path):
        s0, s1 = self.setup_snapshots()
        # Shuffle s1's pages; the engine must still process in s0 order.
        shuffled = Snapshot(1, list(reversed(s1.pages)))
        plan, units, assignment = build_engine(["ST", "RU", "RU"])
        engine = ReuseEngine(plan, units, assignment)
        r0 = engine.run_snapshot(s0, None, None, str(tmp_path / "0"))
        r1 = engine.run_snapshot(shuffled, s0, str(tmp_path / "0"),
                                 str(tmp_path / "1"))
        plain = NoReuseSystem(plan)
        assert canonical_results(r1) == canonical_results(
            plain.process(shuffled))
        copied = sum(s.copied_tuples for s in r1.unit_stats.values())
        assert copied > 0  # sequential reuse still worked


class TestAssignmentHelpers:
    def test_uniform_and_all_dn(self):
        _, units, _ = build_engine(["DN"] * 3)
        uniform = PlanAssignment.uniform(units, "ST")
        assert set(uniform.matchers.values()) == {"ST"}
        alldn = PlanAssignment.all_dn(units)
        assert set(alldn.matchers.values()) == {"DN"}

    def test_describe(self):
        _, units, assignment = build_engine(["DN", "ST", "RU"])
        text = assignment.describe()
        assert "getBody=DN" in text or "getBody" in text


class TestCorruptCapture:
    @pytest.mark.parametrize("engine_kwargs", [
        {},
        {"executor": ProcessPoolExecutor(2)},
        {"scope": FingerprintScope()},
        {"scope": FingerprintScope(), "fastpath": "off"},
    ], ids=["serial", "process2", "fingerprint",
            "fingerprint-fastpath-off"])
    def test_corrupt_reuse_file_degrades_to_from_scratch(
            self, tmp_path, engine_kwargs):
        """A corrupt capture (garbage before the first page header) must
        not break the next run — it just loses reuse for that unit,
        whichever scope pairs the pages, with the fast paths on or off
        and on whichever backend."""
        rng = random.Random(11)
        pages = {f"u{i}": render_page(rng) for i in range(4)}
        s0 = Snapshot(0, [Page.from_url(u, t) for u, t in pages.items()])
        s1 = Snapshot(1, list(s0.pages))
        plan, units, assignment = build_engine(["UD", "RU", "RU"])
        engine = ReuseEngine(plan, units, assignment, **engine_kwargs)
        d0, d1 = str(tmp_path / "0"), str(tmp_path / "1")
        engine.run_snapshot(s0, None, None, d0)
        # Corrupt every O file: garbage line at the front.
        for path in glob.glob(os.path.join(d0, "*.O.reuse")):
            body = open(path, "rb").read()
            with open(path, "wb") as f:
                f.write(b"{not json at all\n" + body)
        r1 = engine.run_snapshot(s1, s0, d0, d1)
        expected = NoReuseSystem(plan).process(s1)
        assert canonical_results(r1) == canonical_results(expected)


class TestCorruptCaptureReachesOptimizer:
    """With the optimizer on, the statistics collector reads the sampled
    pages' recorded inputs before the engine runs: a unit whose capture
    is unreadable there is profiled instead, and the run degrades like
    the engine's own torn-file fallback."""

    @staticmethod
    def _run(tmp_path, n_pages, damage):
        from repro.core.runner import make_system
        from repro.corpus import dblife_corpus
        from repro.extractors import make_task

        task = make_task("chair", work_scale=0)
        s0, s1 = dblife_corpus(n_pages=n_pages, seed=3).snapshots(2)
        system = make_system("delex", task, str(tmp_path))
        system.process(s0)
        i_files = glob.glob(os.path.join(system._prev_dir, "*.I.reuse"))
        assert i_files
        for path in i_files:
            with open(path, "rb") as f:
                data = f.read()
            with open(path, "wb") as f:
                f.write(damage(data))
        result = system.process(s1, s0)
        assert system.last_stats is not None  # the collector ran
        return result, NoReuseSystem(system.plan).process(s1)

    def test_torn_i_tail_on_a_sampled_page(self, tmp_path):
        # Four pages: every shared page is sampled, the torn tail too.
        got, want = self._run(tmp_path, 4, lambda data: data[:-7])
        assert canonical_results(got) == canonical_results(want)

    def test_malformed_framed_i_record_in_every_group(self, tmp_path):
        got, want = self._run(
            tmp_path, 30,
            lambda data: data.replace(b"}\n", b'}\n{"t":9}\n'))
        assert canonical_results(got) == canonical_results(want)


def test_unknown_matcher_rejected_at_construction():
    plan, units, _ = build_engine(["DN"] * 3)
    bogus = PlanAssignment({u.uid: "NOPE" for u in units})
    with pytest.raises(ValueError, match="unknown matcher"):
        ReuseEngine(plan, units, bogus)
