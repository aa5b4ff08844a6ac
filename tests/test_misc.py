"""Cross-cutting coverage: probes, baselines under churn, misc APIs."""

import pytest

from repro.core.cyclex import CyclexSystem
from repro.core.noreuse import NoReuseSystem
from repro.core.runner import canonical_results
from repro.core.shortcut import ShortcutSystem
from repro.corpus.evolve import ChangeModel, EvolvingCorpus
from repro.corpus.generators import DBLifeGenerator
from repro.corpus.snapshot import Snapshot, snapshot_from_texts
from repro.extractors import make_task
from repro.optimizer.params import CostWeights, probe_io_weight
from repro.plan import compile_program, find_units
from repro.reuse.engine import PlanAssignment, ReuseEngine
from repro.reuse.files import iter_unit_groups, parse_inputs, parse_outputs


class TestProbes:
    def test_io_weight_positive(self):
        weight = probe_io_weight(blocks=16)
        assert 0 < weight < 0.1

    def test_cost_weights_rate_of(self):
        weights = CostWeights(match_rate={"ST": 1e-6})
        assert weights.rate_of("DN") == 0.0
        assert weights.rate_of("ST") == 1e-6
        assert weights.rate_of("RU") < 1e-6
        assert weights.rate_of("UD") > 0  # default for unprobed


class TestCyclexMatcherChoice:
    def _snaps(self, p_unchanged):
        model = ChangeModel(p_unchanged=p_unchanged, p_removed=0.0,
                            p_added=0.0, mean_edits=2.0)
        corpus = EvolvingCorpus(DBLifeGenerator(), 12, model, seed=2)
        return list(corpus.snapshots(2))

    def _plan_on_identical_corpus(self, tmp_path, fastpath):
        task = make_task("talk", work_scale=0.3)
        plan = compile_program(task.program, task.registry)
        system = CyclexSystem(plan, str(tmp_path), task.program_alpha,
                              task.program_beta, fastpath=fastpath)
        snaps = self._snaps(p_unchanged=1.0)
        system.process(snaps[0])
        system.process(snaps[1], snaps[0])
        return system

    def test_identical_corpus_prefers_matching(self, tmp_path):
        # The paper's cost model (fast paths off): only a matcher
        # reuses, so an identical corpus is priced cheapest under one.
        system = self._plan_on_identical_corpus(tmp_path / "off", "off")
        assert system.describe_plan() in ({"program": "UD"},
                                          {"program": "ST"})
        # With them on, every region of an identical page replays under
        # any matcher (the model's ``r`` is 1), so no matcher is worth
        # its overhead.
        system = self._plan_on_identical_corpus(tmp_path / "on", "on")
        assert system.last_stats.units["program"].r == 1.0
        assert system.describe_plan() == {"program": "DN"}

    def test_results_correct_either_way(self, tmp_path):
        task = make_task("talk", work_scale=0)
        plan = compile_program(task.program, task.registry)
        system = CyclexSystem(plan, str(tmp_path), task.program_alpha,
                              task.program_beta)
        snaps = self._snaps(p_unchanged=0.3)
        prev = None
        for snap in snaps:
            got = system.process(snap, prev)
            want = NoReuseSystem(plan).process(snap)
            assert canonical_results(got) == canonical_results(want)
            prev = snap


class TestBaselinesUnderChurn:
    """Pages removed and added between snapshots must not desync the
    baselines' sequential result files."""

    def _texts(self, keys):
        return {k: f"== Service ==\n{name} serves as demo chair of "
                   f"VLDB 200{i}.\n"
                for i, (k, name) in enumerate(keys.items())}

    def test_shortcut_with_removed_pages(self, tmp_path):
        task = make_task("chair", work_scale=0)
        plan = compile_program(task.program, task.registry)
        system = ShortcutSystem(plan, str(tmp_path), task.program_alpha,
                                task.program_beta)
        s0 = snapshot_from_texts(0, self._texts(
            {"a": "Alice Chen", "b": "Bob Weber", "c": "Cat Kumar"}))
        # b removed, d added, a unchanged, c unchanged.
        s1 = snapshot_from_texts(1, self._texts(
            {"a": "Alice Chen", "c": "Cat Kumar", "d": "Dan Olsen"}))
        system.process(s0)
        got = system.process(s1, s0)
        want = NoReuseSystem(plan).process(s1)
        assert canonical_results(got) == canonical_results(want)

    def test_cyclex_with_removed_pages(self, tmp_path):
        task = make_task("chair", work_scale=0)
        plan = compile_program(task.program, task.registry)
        system = CyclexSystem(plan, str(tmp_path), task.program_alpha,
                              task.program_beta)
        s0 = snapshot_from_texts(0, self._texts(
            {"a": "Alice Chen", "b": "Bob Weber", "c": "Cat Kumar"}))
        s1 = snapshot_from_texts(1, self._texts(
            {"c": "Cat Kumar", "e": "Eve Novak"}))
        system.process(s0)
        got = system.process(s1, s0)
        want = NoReuseSystem(plan).process(s1)
        assert canonical_results(got) == canonical_results(want)


class TestLoadReuseFile:
    def test_roundtrip_matches_streaming(self, tmp_path):
        task = make_task("play", work_scale=0)
        plan = compile_program(task.program, task.registry)
        units = find_units(plan)
        engine = ReuseEngine(plan, units, PlanAssignment.all_dn(units))
        text = ("== Filmography ==\n"
                "Nina Weber starred as Dr. Malone in Crimson Harbor "
                "(1999).\n")
        snap = snapshot_from_texts(0, {"u1": text, "u2": text})
        out = str(tmp_path / "cap")
        result = engine.run_snapshot(snap, None, None, out)
        uid = units[0].uid
        i_loaded = {did: parse_inputs(did, i_data) for did, i_data, _o
                    in iter_unit_groups(out, uid)}
        o_loaded = {did: parse_outputs(o_data) for did, _i, o_data
                    in iter_unit_groups(out, uid)}
        assert set(i_loaded) == {"u1", "u2"}
        assert sum(len(v) for v in i_loaded.values()) == \
            result.unit_stats[uid].input_tuples
        assert sum(len(v) for v in o_loaded.values()) == \
            result.unit_stats[uid].output_tuples


class TestFindUnitsNoAbsorb:
    def test_blackbox_level_equals_unit_level_results(self, tmp_path):
        task = make_task("blockbuster", work_scale=0)
        plan = compile_program(task.program, task.registry)
        text = ("== Box office ==\n"
                "Midnight Horizon grossed $240 million worldwide.\n"
                "Velvet Garden grossed $35 million worldwide.\n")
        s0 = snapshot_from_texts(0, {"u": text})
        s1 = snapshot_from_texts(1, {"u": text.replace("$240", "$250")})
        outputs = []
        for absorb in (True, False):
            units = find_units(plan, absorb=absorb)
            engine = ReuseEngine(plan, units,
                                 PlanAssignment.uniform(units, "UD"))
            d0 = str(tmp_path / f"{absorb}0")
            d1 = str(tmp_path / f"{absorb}1")
            engine.run_snapshot(s0, None, None, d0)
            outputs.append(canonical_results(
                engine.run_snapshot(s1, s0, d0, d1)))
        assert outputs[0] == outputs[1]

    def test_no_absorb_units_have_empty_absorbed(self):
        task = make_task("blockbuster", work_scale=0)
        plan = compile_program(task.program, task.registry)
        for unit in find_units(plan, absorb=False):
            assert unit.absorbed == ()
