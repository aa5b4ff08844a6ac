"""Copy-region / extraction-region derivation with (α, β) safety.

Given the match segments between an IE unit's input region R (on the
current page p) and the unit's recorded input regions on the previous
page q, this module decides:

* which previously recorded output tuples can be **copied** (shifted
  into p) — guaranteed by the unit's context β: a mention whose
  β-extended extent lies inside a single matched segment must be
  reproduced by the extractor on the identical text;
* which **extraction regions** of R must be re-extracted so that every
  mention *not* guaranteed-copyable is found — each uncovered gap is
  extended by α + β on both sides so any such mention's full context
  window fits inside one extraction region.

Boundary alignment: a context window clipped by the start/end of the
input region is acceptable when the matched segment is flush with the
same boundary on *both* pages — the extractor saw the same truncation
on q. This is what makes a byte-identical region fully copyable even
for mentions at its very edges (and what makes CRF-style units with
β = region length reusable exactly when their whole region reappears).

Correctness argument (Theorem 1 hinges on this module):

1. Selected segments are p-disjoint, and copy zones are separated by
   at least one character, so any extent not inside a *single* zone
   intersects the complement of the zones.
2. Every copied mention's window maps into identical text, so the
   extractor would have produced it — and only recorded (post-σ/π)
   outputs are copied, so nothing spurious appears.
3. Every non-copy-guaranteed mention intersects a complement gap; its
   window (≤ α + 2β wide around the gap) lies inside the gap's
   extraction region, so re-extraction finds it. Extractions whose
   window crosses an extraction-region edge that is not an R edge are
   discarded: if genuine, they are guaranteed found as copies or in a
   neighboring region.

Two cases never reach this module: the engine answers them first, by
text (:mod:`repro.reuse.replay`), with the fast paths on.

* **Equal region (both edges aligned).** R's text equals that of a
  recorded q region S. A matcher would return the one segment spanning
  both, flush with R and S on the left and on the right, so the
  alignment allowance above makes the copy zone all of R: every
  recorded output of S, span-less ones included (zone = R, equal
  lengths), is copied shifted by ``R.start - S.start``, and the
  complement is empty, so nothing is extracted. The argument is
  shorter than that: the extractor sees the same string on R as it saw
  on S, so it returns the same extractions relative to the region, and
  the absorbed σ/π see the same span texts and scalars. Replaying S's
  recorded outputs, shifted, *is* the from-scratch output on R.
* **Splits.** The extractor declares a splitter T and is split-correct
  for it: P(d) = ⋃ᵢ shift(P(tᵢ), oᵢ) over the splits tᵢ of d at
  offsets oᵢ. Each recorded output of S lies in exactly one split of S
  (the index refuses S otherwise), so S's recorded outputs partition
  into per-split sets, and by split-correctness the set of split t is
  P(t) shifted to t's place in S. A split of R whose text equals a
  recorded split t therefore has output P(t), the recorded set
  shifted, by the equal-region argument applied to the split; every
  other split of R is extracted on its own text. The union over R's
  splits is P(R) by split-correctness, with no α/β margin: a split
  edge is an edge the extractor never reads across.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..check import invariants as _inv
from ..text.regions import MatchSegment, select_p_disjoint
from ..text.span import Interval, Span, complement_intervals, merge_intervals
from .files import InputTuple, OutputTuple

#: Test-only fault-injection hook (see :mod:`repro.check.faults`).
#: ``None`` in production; when set, it may mutate a finished
#: derivation to simulate a silent reuse bug for harness self-tests.
#: Runs *after* the invariant checks by design: an injected fault
#: models a bug the cheap invariants cannot see, which only the
#: differential oracle exposes.
_fault_hook: Optional[Callable[["ReuseDerivation", Interval], None]] = None


@dataclass
class CopyZoneInfo:
    """One copy zone and the shift that maps q mentions into p."""

    zone: Interval  # p coordinates; guaranteed-copyable extents
    shift: int      # add to q offsets to get p offsets
    q_itid: int     # recorded input tuple the outputs join to


@dataclass
class ReuseDerivation:
    """The reuse decision for one IE-unit input region."""

    copied: List[Dict[str, Any]] = field(default_factory=list)
    extraction_regions: List[Interval] = field(default_factory=list)
    copy_zones: List[CopyZoneInfo] = field(default_factory=list)

    @property
    def copied_count(self) -> int:
        return len(self.copied)

    def covered_chars(self) -> int:
        return sum(len(z.zone) for z in self.copy_zones)


def derive_reuse(p_region: Interval, p_did: str,
                 segments: List[MatchSegment],
                 q_inputs: Dict[int, InputTuple],
                 q_outputs: Dict[int, List[OutputTuple]],
                 alpha: int, beta: int) -> ReuseDerivation:
    """Derive copy zones, copied mentions, and extraction regions."""
    # 1. Sanitize: clip every segment to R and to its q input region.
    clean: List[MatchSegment] = []
    for seg in segments:
        q_input = q_inputs.get(seg.q_itid)
        if q_input is None or seg.length == 0:
            continue
        trimmed = seg.trim_to_p(p_region)
        if trimmed is None:
            continue
        trimmed = trimmed.trim_to_q(q_input.interval)
        if trimmed is not None and trimmed.length > 0:
            clean.append(trimmed)
    disjoint = select_p_disjoint(clean)

    # 2. Copy zones with boundary-alignment allowances.
    zones: List[CopyZoneInfo] = []
    for seg in disjoint:
        q_input = q_inputs[seg.q_itid]
        left_aligned = (seg.q_start == q_input.s
                        and seg.p_start == p_region.start)
        seg_q_end = seg.q_start + seg.length
        seg_p_end = seg.p_start + seg.length
        right_aligned = (seg_q_end == q_input.e
                         and seg_p_end == p_region.end)
        zone_start = seg.p_start if left_aligned else seg.p_start + beta
        zone_end = seg_p_end if right_aligned else seg_p_end - beta
        if zone_end > zone_start:
            zones.append(CopyZoneInfo(Interval(zone_start, zone_end),
                                      seg.shift, seg.q_itid))

    # 3. Enforce >= 1 character separation between consecutive zones so
    #    a mention straddling two zones always intersects the
    #    complement (step 1 of the correctness argument).
    zones.sort(key=lambda z: z.zone.start)
    separated: List[CopyZoneInfo] = []
    prev_end = None
    for info in zones:
        start, end = info.zone.start, info.zone.end
        if prev_end is not None and start <= prev_end:
            start = prev_end + 1
        if end > start:
            separated.append(CopyZoneInfo(Interval(start, end),
                                          info.shift, info.q_itid))
            prev_end = end
    zones = separated

    # 4. Copy recorded outputs whose shifted extent fits a zone.
    copied: List[Dict[str, Any]] = []
    for info in zones:
        for out in q_outputs.get(info.q_itid, ()):
            extent = out.extent()
            if extent is None:
                # Span-less output: only reusable when the entire input
                # region reappeared unchanged (zone == R, zero shift of
                # region bounds on both sides).
                q_input = q_inputs[info.q_itid]
                if (info.zone.start == p_region.start
                        and info.zone.end == p_region.end
                        and len(p_region) == len(q_input.interval)):
                    copied.append(shift_fields(out, info.shift, p_did))
                continue
            es, ee = extent
            if (es + info.shift >= info.zone.start
                    and ee + info.shift <= info.zone.end):
                copied.append(shift_fields(out, info.shift, p_did))

    # 5. Extraction regions: complement gaps grown by α + β.
    gaps = complement_intervals([z.zone for z in zones], p_region)
    grow = alpha + beta
    extraction_regions = merge_intervals(
        Interval(max(p_region.start, gap.start - grow),
                 min(p_region.end, gap.end + grow))
        for gap in gaps)

    derivation = ReuseDerivation(copied=copied,
                                 extraction_regions=extraction_regions,
                                 copy_zones=zones)
    if _inv.ENABLED:
        _inv.check_derivation(derivation, p_region, alpha, beta,
                              did=p_did)
    if _fault_hook is not None:
        _fault_hook(derivation, p_region)
    return derivation


def shift_fields(out: OutputTuple, shift: int, p_did: str) -> Dict[str, Any]:
    fields: Dict[str, Any] = {}
    for name, kind, a, b in out.fields:
        if kind == "s":
            fields[name] = Span(p_did, a + shift, b + shift)
        else:
            fields[name] = a
    return fields


def extraction_keep(extent: Optional[Tuple[int, int]], er: Interval,
                    p_region: Interval, beta: int) -> bool:
    """Filter for freshly extracted mentions (absolute p offsets).

    Keep a mention iff its β-context window lies inside the extraction
    region, allowing clipping only where the region edge coincides
    with the input-region edge (where the extractor legitimately sees
    the truncation).
    """
    if extent is None:
        # Span-less extraction: only trustworthy from a full-region run.
        return er.start == p_region.start and er.end == p_region.end
    es, ee = extent
    left_ok = (es - beta >= er.start) or (er.start == p_region.start)
    right_ok = (ee + beta <= er.end) or (er.end == p_region.end)
    return left_ok and right_ok


def dedupe_extensions(extensions: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Drop duplicate extension dicts (copy/extract overlap)."""
    seen = set()
    out: List[Dict[str, Any]] = []
    for ext in extensions:
        key = tuple(sorted(ext.items()))
        if key not in seen:
            seen.add(key)
            out.append(ext)
    return out
