"""Statistics estimation from a small sample (Section 6.3, end).

The collector samples pages of the snapshot to be processed, pairs them
with their previous versions, and:

* profiles a plain execution of each sampled *previous* page to learn
  per-unit input-region counts/lengths (``a``, ``l``) and extractor
  speed (seconds/char);
* with the fast paths on, measures, per unit, the share ``r`` of input
  chars that cost nothing: a region, or a declared split of one, whose
  text the unit recorded on the previous page, or a split its key does
  not select (:mod:`repro.reuse.replay`);
* runs each ST/UD matcher over the regions that do not replay, per
  unit without a splitter, on the first sampled pairs that have such
  regions (with the fast paths off: over every region, on the first
  sampled pairs), deriving copy/extraction regions with the unit's
  (α, β) to estimate the matcher's speed and its selectivities ``s``,
  ``g``, ``h``;
* estimates RU's selectivities by replaying whole-page ST/UD segments
  through region intersection — the work RU would recycle;
* estimates ``f`` from the last ``k`` snapshot deltas.

Figure 13 shows Delex needs only ~3 snapshots and ~30 sample pages for
the estimates to be good; ``sample_size`` and ``k_snapshots`` expose
exactly those knobs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..corpus.snapshot import Snapshot
from ..corpus.stats import snapshot_delta
from ..fastpath.fingerprint import pages_identical
from ..matchers.base import RU_NAME, ST_NAME, UD_NAME, MatchCache
from ..matchers.registry import make_matcher
from ..plan.compile import CompiledPlan
from ..plan.operators import Node, TupleRow, plan_walker
from ..plan.units import IEUnit
from ..reuse.engine import PrevCaptureSource, min_match_length
from ..reuse.files import BLOCK_SIZE, InputTuple
from ..reuse.regions import derive_reuse
from ..reuse.replay import ReplayIndex
from ..text.document import Page
from ..text.regions import MatchSegment
from ..text.span import Interval
from ..xlog.registry import EvalContext
from .params import CostWeights, Statistics, UnitEstimates


def estimate_f(deltas: Sequence[object]) -> float:
    """Estimate ``f`` from consecutive snapshot deltas, oldest first:
    the paper's unweighted mean of ``fraction_with_previous`` over the
    window."""
    if not deltas:
        return 0.0
    return sum(d.fraction_with_previous for d in deltas) / len(deltas)


@dataclass
class UnitProfile:
    """Input regions seen by one unit on one page, plus extract cost."""

    regions: List[Interval] = field(default_factory=list)
    extract_seconds: float = 0.0
    extract_chars: int = 0
    output_tuples: int = 0


def profile_page(plan: CompiledPlan, units: Sequence[IEUnit],
                 page: Page) -> Dict[str, UnitProfile]:
    """Plain-execute one page, recording per-unit inputs and timings."""
    profiles = {u.uid: UnitProfile() for u in units}
    unit_of_top = {id(u.top): u for u in units}
    ctx = EvalContext(page.text, page.did)

    def run_unit(unit: IEUnit, rows: List[TupleRow]) -> List[TupleRow]:
        profile = profiles[unit.uid]
        out: List[TupleRow] = []
        for row in rows:
            region = row[unit.in_var]
            profile.regions.append(region.interval)
            text = page.text[region.start:region.end]
            start = time.perf_counter()
            extractions = unit.extractor.extract(text)
            profile.extract_seconds += time.perf_counter() - start
            profile.extract_chars += len(text)
            for extraction in extractions:
                fields = unit.ie_node.extension_fields(extraction, region)
                post = unit.apply_absorbed(fields, ctx)
                if post is None:
                    continue
                profile.output_tuples += 1
                if unit.projects_away_input:
                    out.append(dict(post))
                else:
                    out.append({**row, **post})
        return out

    def step(node: Node, evaluate) -> Optional[List[TupleRow]]:
        unit = unit_of_top.get(id(node))
        if unit is None:
            return None
        return run_unit(unit, evaluate(unit.ie_node.child))

    evaluate = plan_walker(page.text, page.did, {}, step)
    for rel in plan.program.head_relations():
        evaluate(plan.roots[rel])
    return profiles


def _probe_extract_rate(unit: IEUnit,
                        pairs: Sequence[Tuple[Page, Page]]) -> float:
    """Measure the unit's extractor seconds/char on one short probe
    region (with the blackbox work enabled).

    The rate is a property of the extractor and the machine, so callers
    cache it across snapshots (see :class:`~repro.core.delex.DelexSystem`).
    """
    for p_page, _ in pairs:
        text = p_page.text[:512]
        if not text:
            continue
        start = time.perf_counter()
        unit.extractor.extract(text)
        elapsed = time.perf_counter() - start
        return elapsed / len(text)
    return 0.0


def _replayed_chars(splitter: Optional[str], key: Optional[str],
                    p_text: str, p_regions: Sequence[Interval],
                    q_text: str, q_regions: Sequence[Interval]
                    ) -> Tuple[int, List[Interval]]:
    """The chars of ``p_regions`` that the engine answers from
    ``q_regions`` without extracting them, by the engine's own rule
    (:meth:`~repro.reuse.replay.ReplayIndex.answer`): those it replays
    and the splits ``key`` does not select. Also the regions that do
    not replay whole.

    Only the recorded regions are read, not their outputs, so the model
    never sees the engine refuse a split attribution (a recorded output
    across a split edge, which a split-correct extractor never records):
    it prices every split of a split-declared unit as the engine does
    when the splitter is right."""
    index = ReplayIndex(q_text, [InputTuple(i, "", r.start, r.end)
                                 for i, r in enumerate(q_regions)],
                        {}, splitter, key)
    replayed = 0
    rest: List[Interval] = []
    for region in p_regions:
        answer = index.answer(p_text[region.start:region.end])
        if answer is None or answer[0] != "replay":
            rest.append(region)
        if answer is not None:
            # Every stretch but one to extract: replayed or skipped.
            replayed += sum(hi - lo for lo, hi, got in answer[1]
                            if got is not None)
    return replayed, rest


def _sample_pairs(snapshot: Snapshot, prev: Snapshot, sample_size: int,
                  fastpath: bool) -> List[Tuple[Page, Page]]:
    """Deterministic spread sample of pages that have a previous
    version (reuse statistics only make sense on those).

    With the fast paths on, the engine recycles an identical page under
    every plan, so probing one says nothing about any plan's cost: only
    changed pairs are sampled, or every shared pair when none changed.
    With them off, identical pages really run the plan and are sampled
    as well.
    """
    shared = [(p, prev.get(p.url)) for p in snapshot.canonical_pages()
              if prev.get(p.url) is not None]
    if not shared:
        return []
    if fastpath:
        shared = ([(p, q) for p, q in shared if not pages_identical(p, q)]
                  or shared)
    if len(shared) <= sample_size:
        return shared
    step = len(shared) / sample_size
    return [shared[int(i * step)] for i in range(sample_size)]


def load_recorded_regions(capture_dir: str, units: Sequence[IEUnit],
                          dids: Optional[Sequence[str]] = None
                          ) -> Dict[str, Optional[Dict[str, List[Interval]]]]:
    """Read each unit's recorded input regions on pages ``dids`` (by
    default every page) from the capture's I groups, through its page
    table.

    This gives the previous snapshot's per-unit regions *for free* (one
    ranged read per sampled page and unit) instead of re-running
    extraction on sampled previous pages. A unit whose groups on those
    pages cannot all be read and parsed — no readable table, a damaged
    segment, a record that does not parse — maps to None.
    """
    source = PrevCaptureSource(capture_dir, [u.uid for u in units])
    table = source.table
    out: Dict[str, Optional[Dict[str, List[Interval]]]] = {
        u.uid: ({} if table is not None else None) for u in units}
    if dids is None:
        dids = table.dids if table is not None else []
    try:
        for did in dids:
            capture = source.groups(did)
            for uid, per_page in out.items():
                if per_page is None:
                    continue
                try:
                    groups = capture.get(uid)
                    if groups is None:
                        raise ValueError(f"{uid} unreadable on {did!r}")
                    per_page[did] = [t.interval for t in groups.inputs]
                except ValueError:
                    out[uid] = None
    finally:
        source.close()
    return out


def collect_statistics(plan: CompiledPlan, units: Sequence[IEUnit],
                       snapshot: Snapshot,
                       history: Sequence[Snapshot],
                       sample_size: int = 30,
                       k_snapshots: int = 3,
                       weights: Optional[CostWeights] = None,
                       max_match_pairs: int = 6,
                       prev_capture_dir: Optional[str] = None,
                       prev_unit_stats: Optional[Dict[str, object]] = None,
                       known_extract_rates: Optional[Dict[str, float]] = None,
                       known_match_rates: Optional[Dict[str, float]] = None,
                       fastpath: bool = True) -> Statistics:
    """Estimate all cost-model parameters for processing ``snapshot``.

    ``history`` is the list of past snapshots, most recent last (the
    previous snapshot is ``history[-1]``); only the last
    ``k_snapshots`` contribute to the change-rate estimate ``f``.

    When ``prev_capture_dir`` points at the previous run's reuse files,
    the previous snapshot's per-unit regions are read from the I files
    instead of re-profiled; when ``prev_unit_stats`` carries the
    previous run's :class:`~repro.reuse.engine.UnitRunStats`, per-unit
    sizes and extract rates come from there. Both cut the statistics
    collection cost roughly in half, which matters at small corpus
    scales where sampling is proportionally expensive.

    Extractor and matcher speeds are properties of the machine, not of
    the snapshot: ``known_extract_rates`` and ``known_match_rates`` are
    caches filled by the first calibration and read on every later
    call, so a re-plan depends on counts and that one calibration, not
    on the clock. ``fastpath`` says whether the engine that will run
    the plan recycles identical pages (see :func:`_sample_pairs`).
    """
    if not history:
        raise ValueError("need at least the previous snapshot")
    prev = history[-1]
    window = list(history[-k_snapshots:]) + [snapshot]
    deltas = [snapshot_delta(a, b) for a, b in zip(window, window[1:])]
    f = estimate_f(deltas)

    pairs = _sample_pairs(snapshot, prev, sample_size, fastpath)
    weights = weights if weights is not None else CostWeights()
    estimates = {u.uid: UnitEstimates() for u in units}
    if not pairs:
        return Statistics(f=f, m=len(snapshot),
                          d_blocks=prev.total_bytes() / BLOCK_SIZE,
                          units=estimates, weights=weights,
                          sample_pages=0, snapshots_used=len(deltas))

    recorded_q = (load_recorded_regions(
        prev_capture_dir, units, [q_page.did for _, q_page in pairs])
        if prev_capture_dir else {})

    # 1. Profile plain execution of the sampled current pages with the
    #    blackbox work disabled (structure only, nearly free); previous
    #    pages are profiled only for units without a readable capture.
    from ..extractors.base import profiling_mode

    p_profiles: Dict[str, List[UnitProfile]] = {u.uid: [] for u in units}
    q_regions_by_page: Dict[str, List[List[Interval]]] = {
        u.uid: [] for u in units}
    profile_q = any(recorded_q.get(u.uid) is None for u in units)
    with profiling_mode():
        for p_page, q_page in pairs:
            prof_p = profile_page(plan, units, p_page)
            prof_q = (profile_page(plan, units, q_page) if profile_q
                      else None)
            for u in units:
                p_profiles[u.uid].append(prof_p[u.uid])
                recorded = recorded_q.get(u.uid)
                q_regions_by_page[u.uid].append(
                    prof_q[u.uid].regions if recorded is None
                    else recorded.get(q_page.did, []))

    n_pages = len(pairs)
    for u in units:
        est = estimates[u.uid]
        p_profs = p_profiles[u.uid]
        total_regions = sum(len(pr.regions) for pr in p_profs)
        total_chars = sum(sum(len(r) for r in pr.regions) for pr in p_profs)
        est.a = total_regions / n_pages
        est.a_prev = (sum(len(rs) for rs in q_regions_by_page[u.uid])
                      / n_pages)
        est.l = (total_chars / total_regions) if total_regions else 0.0
        if known_extract_rates is not None and u.uid in known_extract_rates:
            est.extract_rate = known_extract_rates[u.uid]
        else:
            est.extract_rate = _probe_extract_rate(u, pairs)
            if known_extract_rates is not None:
                known_extract_rates[u.uid] = est.extract_rate
        prev_stats = (prev_unit_stats or {}).get(u.uid)
        if prev_stats is not None:
            est.b_blocks = float(getattr(prev_stats, "i_blocks", 1.0))
            est.c_blocks = float(getattr(prev_stats, "o_blocks", 1.0))
        else:
            # Rough block estimate from tuple counts (~60 B/record).
            est.b_blocks = max(1.0,
                               est.a_prev * len(prev) * 60 / BLOCK_SIZE)
            est.c_blocks = max(1.0,
                               est.a_prev * len(prev) * 80 / BLOCK_SIZE)

    # 2. Replay: with the fast paths on, a region (or split) whose text
    #    the unit recorded on q, or a split the unit's key does not
    #    select, costs nothing under any matcher; the
    #    matcher probes below see only the regions that do not replay
    #    whole, and a split-declared unit runs no matcher at all.
    probe_regions: Dict[str, List[List[Interval]]] = {}
    for u in units:
        est = estimates[u.uid]
        splitter = u.extractor.splitter if fastpath else None
        key = u.extractor.split_key
        est.split = splitter is not None
        replayed = total = 0
        rest_by_page: List[List[Interval]] = []
        for idx, (p_page, q_page) in enumerate(pairs):
            p_regions = p_profiles[u.uid][idx].regions
            total += sum(len(r) for r in p_regions)
            if not fastpath:
                rest_by_page.append(p_regions)
                continue
            got, rest = _replayed_chars(splitter, key, p_page.text,
                                       p_regions, q_page.text,
                                       q_regions_by_page[u.uid][idx])
            replayed += got
            rest_by_page.append(rest)
        est.r = replayed / total if total else 0.0
        probe_regions[u.uid] = rest_by_page

    # 3. Matcher probes per unit and page pair.
    match_secs: Dict[str, float] = {ST_NAME: 0.0, UD_NAME: 0.0}
    match_chars: Dict[str, float] = {ST_NAME: 0.0, UD_NAME: 0.0}
    ru_secs = 0.0
    ru_ops = 1.0
    sums: Dict[Tuple[str, str], Dict[str, float]] = {}
    for u in units:
        for name in (ST_NAME, UD_NAME, "RU:" + ST_NAME, "RU:" + UD_NAME):
            sums[(u.uid, name)] = {"g": 0.0, "h": 0.0, "s": 0.0, "n": 0.0}

    # With the fast paths on, probe the first pairs where a unit that
    # matches has a region left to match, so replayed pages do not use
    # up the probes; without such a pair, the first pairs still
    # calibrate the matcher rates. With them off, the first pairs, as
    # the paper's engine was always probed.
    first_pairs = list(range(min(len(pairs), max_match_pairs)))
    probe_idx = first_pairs
    if fastpath:
        matching = [u for u in units if not estimates[u.uid].split]
        probe_idx = [idx for idx in range(len(pairs))
                     if any(probe_regions[u.uid][idx] for u in matching)]
        probe_idx = probe_idx[:max_match_pairs] or first_pairs
    for idx in probe_idx:
        p_page, q_page = pairs[idx]
        whole_segments: Dict[str, List[MatchSegment]] = {}
        for name in (ST_NAME, UD_NAME):
            matcher = make_matcher(name, MatchCache(), min_length=16)
            start = time.perf_counter()
            segs = matcher.match(p_page.text, p_page.whole,
                                 q_page.text, q_page.whole)
            match_secs[name] += time.perf_counter() - start
            match_chars[name] += len(p_page.text) + len(q_page.text)
            whole_segments[name] = segs
        for u in units:
            if estimates[u.uid].split:
                continue
            # Probing every (region, candidate) combination is
            # quadratic for sentence-level units; a capped sample is
            # plenty for estimating rates and selectivities.
            p_regions = probe_regions[u.uid][idx][:6]
            q_regions = q_regions_by_page[u.uid][idx][:6]
            q_inputs = {i: InputTuple(i, q_page.did, r.start, r.end)
                        for i, r in enumerate(q_regions)}
            for name in (ST_NAME, UD_NAME):
                matcher = make_matcher(
                    name, MatchCache(), min_length=min_match_length(u.beta))
                agg = sums[(u.uid, name)]
                for region in p_regions:
                    segments: List[MatchSegment] = []
                    start = time.perf_counter()
                    for itid, q_input in q_inputs.items():
                        found = matcher.match(p_page.text, region,
                                              q_page.text, q_input.interval)
                        segments.extend(
                            MatchSegment(s.p_start, s.q_start, s.length,
                                         itid) for s in found)
                    elapsed = time.perf_counter() - start
                    match_secs[name] += elapsed
                    match_chars[name] += (len(region) + sum(
                        len(r) for r in q_regions)) or 1
                    derivation = derive_reuse(region, p_page.did, segments,
                                              q_inputs, {}, u.alpha, u.beta)
                    uncovered = sum(len(er) for er in
                                    derivation.extraction_regions)
                    agg["g"] += uncovered / max(1, len(region))
                    agg["h"] += len(derivation.copy_zones)
                    agg["s"] += len(q_inputs)
                    agg["n"] += 1
                # RU replay: intersect whole-page segments with regions.
                agg_ru = sums[(u.uid, "RU:" + name)]
                for region in p_regions:
                    start = time.perf_counter()
                    segments = []
                    for itid, q_input in q_inputs.items():
                        for seg in whole_segments[name]:
                            trimmed = seg.trim_to_p(region)
                            if trimmed is None:
                                continue
                            trimmed = trimmed.trim_to_q(q_input.interval)
                            if trimmed is not None:
                                segments.append(MatchSegment(
                                    trimmed.p_start, trimmed.q_start,
                                    trimmed.length, itid))
                    ru_secs += time.perf_counter() - start
                    ru_ops += len(whole_segments[name]) * max(1, len(q_inputs))
                    derivation = derive_reuse(region, p_page.did, segments,
                                              q_inputs, {}, u.alpha, u.beta)
                    uncovered = sum(len(er) for er in
                                    derivation.extraction_regions)
                    agg_ru["g"] += uncovered / max(1, len(region))
                    agg_ru["h"] += len(derivation.copy_zones)
                    agg_ru["s"] += len(q_inputs)
                    agg_ru["n"] += 1

    # With the fast paths on, a unit with no region probed (a
    # split-declared one, or every sampled region replayed) keeps the
    # defaults of ``UnitEstimates`` (g = 1, h = 0, s = 1): nothing known
    # to be saved, rather than a zero that prices its extraction as
    # free. With them off, such a unit reads zeros, as it always has.
    for u in units:
        est = estimates[u.uid]
        for name in (ST_NAME, UD_NAME):
            agg = sums[(u.uid, name)]
            n = agg["n"] or (0.0 if fastpath else 1.0)
            if n:
                est.g[name] = agg["g"] / n
                est.h[name] = agg["h"] / n
                est.s[name] = agg["s"] / n
            agg_ru = sums[(u.uid, "RU:" + name)]
            n_ru = agg_ru["n"] or (0.0 if fastpath else 1.0)
            if n_ru:
                est.g_ru[name] = agg_ru["g"] / n_ru
                est.h_ru[name] = agg_ru["h"] / n_ru
                est.s[RU_NAME] = agg_ru["s"] / n_ru

    rates = {ST_NAME: match_secs[ST_NAME] / max(1.0, match_chars[ST_NAME]),
             UD_NAME: match_secs[UD_NAME] / max(1.0, match_chars[UD_NAME]),
             RU_NAME: ru_secs / ru_ops / 100.0}
    if known_match_rates is not None:
        for name, rate in rates.items():
            rates[name] = known_match_rates.setdefault(name, rate)
    weights.match_rate.update(rates)

    return Statistics(f=f, m=len(snapshot),
                      d_blocks=prev.total_bytes() / BLOCK_SIZE,
                      units=estimates, weights=weights,
                      sample_pages=len(pairs),
                      snapshots_used=len(deltas))
