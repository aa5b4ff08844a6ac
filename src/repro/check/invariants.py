"""Runtime invariant assertions (the ``--check`` layer).

Cheap executable statements of the properties Theorem 1 leans on,
wired into the hot paths of :mod:`repro.reuse.regions`,
:mod:`repro.reuse.engine`, and :mod:`repro.fastpath.memo` behind the
module-level :data:`ENABLED` flag. The flag is **off by default** and
every call site guards with a single ``if invariants.ENABLED:`` — one
module-attribute load per call, which is below measurement noise, so
production runs pay nothing.

Checked invariants (see PAPER.md Defs. 7-8 and regions.py's
correctness argument):

* **derivation soundness** — copy zones lie inside the input region,
  are sorted and separated by at least one character (so a mention
  straddling two zones always intersects the complement); extraction
  regions lie inside the input region, are merged-disjoint, and cover
  the complement of the copy zones; every copied mention's extent fits
  inside a single copy zone.
* **span-in-page bounds** — every span an IE unit emits stays inside
  ``[0, len(page.text)]`` and is anchored to the page it was emitted
  for.
* **reuse-file page-group monotonicity** — pages are recorded in
  strictly increasing did order (the precondition for one-pass
  sequential scans and for the parallel runtime's deterministic batch
  merge); :func:`check_reuse_file_monotonic` re-checks it on disk.
* **memo-hit retag soundness** — segments replayed from the match
  store still witness literal text equality inside both regions.
* **identity-pair soundness** — a fingerprint-equal page pair that is
  recycled whole really is byte-identical (guards against fingerprint
  collisions).

This module must only depend on :mod:`repro.text` — the reuse and
fastpath layers import it, so anything heavier would be a cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence

from ..text.span import Interval, Span

#: Master switch. Call sites guard with ``if invariants.ENABLED:`` so a
#: disabled run costs one attribute load per potential check.
ENABLED = False

#: Number of invariant checks executed since the last reset — lets the
#: oracle assert the layer actually ran during a ``--check on`` sweep.
checks_run = 0


class InvariantViolation(AssertionError):
    """A runtime invariant did not hold.

    Subclasses :class:`AssertionError` so existing "assertions must
    hold" test idioms catch it, but carries structured context for the
    oracle's failure reports.
    """

    def __init__(self, invariant: str, detail: str,
                 **context: Any) -> None:
        self.invariant = invariant
        self.detail = detail
        self.context = context
        extras = ", ".join(f"{k}={v!r}" for k, v in sorted(context.items()))
        super().__init__(f"[{invariant}] {detail}"
                         + (f" ({extras})" if extras else ""))


def enable(on: bool = True) -> None:
    """Turn the invariant layer on (or off)."""
    global ENABLED
    ENABLED = bool(on)


def disable() -> None:
    enable(False)


def reset_counter() -> None:
    global checks_run
    checks_run = 0


def _count() -> None:
    global checks_run
    checks_run += 1


@contextmanager
def checking(on: bool = True) -> Iterator[None]:
    """Temporarily set the invariant layer; restores the previous state."""
    global ENABLED
    previous = ENABLED
    ENABLED = bool(on)
    try:
        yield
    finally:
        ENABLED = previous


# -- Defs. 7-8: copy-zone / extraction-region geometry ---------------------

def check_derivation(derivation: Any, p_region: Interval, alpha: int,
                     beta: int, *, unit: str = "?",
                     did: str = "?") -> None:
    """Disjointness, containment, and coverage of a reuse derivation.

    ``derivation`` is a :class:`repro.reuse.regions.ReuseDerivation`
    (duck-typed to avoid importing the reuse layer from here).
    """
    _count()
    zones = derivation.copy_zones
    prev_end: Optional[int] = None
    for info in zones:
        zone = info.zone
        if not (p_region.start <= zone.start and zone.end <= p_region.end):
            raise InvariantViolation(
                "copy-zone-containment",
                f"copy zone {zone} outside input region {p_region}",
                unit=unit, did=did)
        if zone.is_empty():
            raise InvariantViolation(
                "copy-zone-nonempty", f"empty copy zone at {zone.start}",
                unit=unit, did=did)
        if prev_end is not None and zone.start <= prev_end:
            raise InvariantViolation(
                "copy-zone-separation",
                f"copy zone {zone} not separated (>=1 char) from "
                f"previous zone ending at {prev_end}",
                unit=unit, did=did)
        prev_end = zone.end
    regions = derivation.extraction_regions
    prev_end = None
    for er in regions:
        if not (p_region.start <= er.start and er.end <= p_region.end):
            raise InvariantViolation(
                "extraction-region-containment",
                f"extraction region {er} outside input region {p_region}",
                unit=unit, did=did)
        if prev_end is not None and er.start <= prev_end:
            raise InvariantViolation(
                "extraction-region-disjoint",
                f"extraction region {er} overlaps/touches previous "
                f"region ending at {prev_end} (must be merged)",
                unit=unit, did=did)
        prev_end = er.end
    # Coverage: every position of R not inside a copy zone must lie in
    # some extraction region (step 3 of the correctness argument).
    for gap_start, gap_end in _complement(
            [z.zone for z in zones], p_region):
        if not any(er.start <= gap_start and gap_end <= er.end
                   for er in regions):
            raise InvariantViolation(
                "extraction-coverage",
                f"uncovered gap [{gap_start}, {gap_end}) of input region "
                f"{p_region} lies in no extraction region",
                unit=unit, did=did, alpha=alpha, beta=beta)
    # Copied mentions must fit inside a single copy zone.
    for fields in derivation.copied:
        extent = _fields_extent(fields)
        if extent is None:
            continue
        es, ee = extent
        if not any(z.zone.start <= es and ee <= z.zone.end
                   for z in zones):
            raise InvariantViolation(
                "copied-extent-in-zone",
                f"copied mention extent [{es}, {ee}) fits no copy zone",
                unit=unit, did=did)


def _complement(zones: Sequence[Interval],
                within: Interval) -> List[tuple]:
    gaps: List[tuple] = []
    cursor = within.start
    for zone in zones:
        if zone.start > cursor:
            gaps.append((cursor, zone.start))
        cursor = max(cursor, zone.end)
    if cursor < within.end:
        gaps.append((cursor, within.end))
    return gaps


def _fields_extent(fields: Dict[str, Any]) -> Optional[tuple]:
    spans = [v for v in fields.values() if isinstance(v, Span)]
    if not spans:
        return None
    return (min(s.start for s in spans), max(s.end for s in spans))


# -- span-in-page bounds ----------------------------------------------------

def check_rows_in_page(rows: Iterable[Dict[str, Any]], page: Any,
                       *, unit: str = "?") -> None:
    """Every span in the rows stays inside its page's bounds."""
    _count()
    limit = len(page.text)
    for row in rows:
        for var, value in row.items():
            if not isinstance(value, Span):
                continue
            if value.did != page.did:
                raise InvariantViolation(
                    "span-page-anchor",
                    f"span {var} anchored to {value.did!r}, emitted for "
                    f"page {page.did!r}", unit=unit)
            if value.start < 0 or value.end > limit:
                raise InvariantViolation(
                    "span-in-page",
                    f"span {var}=[{value.start}, {value.end}) outside "
                    f"page bounds [0, {limit})",
                    unit=unit, did=page.did)


# -- reuse-file page-group monotonicity ------------------------------------

def check_page_order(dids: Sequence[str]) -> None:
    """Pages must be processed (and recorded) in strictly increasing
    did order — the canonical order every reuse-file scan relies on."""
    _count()
    for prev, cur in zip(dids, dids[1:]):
        if cur <= prev:
            raise InvariantViolation(
                "page-order-monotonic",
                f"page {cur!r} follows {prev!r}; canonical order must "
                "be strictly increasing by did")


def check_reuse_file_monotonic(path: str) -> int:
    """Re-check page-group monotonicity of a reuse file on disk.

    Returns the number of page groups seen. Used by the oracle after a
    sweep; not a hot-path call.
    """
    from ..reuse.files import iter_all_pages  # local: avoid cycle

    _count()
    prev: Optional[str] = None
    groups = 0
    for did, _records in iter_all_pages(path):
        groups += 1
        if prev is not None and did <= prev:
            raise InvariantViolation(
                "reuse-file-monotonic",
                f"page group {did!r} follows {prev!r} in {path}")
        prev = did
    return groups


# -- memo-hit retag soundness ----------------------------------------------

def check_memo_replay(segments: Iterable[Any], p_text: str, q_text: str,
                      p_region: Interval, q_region: Interval) -> None:
    """Segments replayed from the match memo must still witness literal
    text equality and lie inside the regions they were replayed for."""
    _count()
    for seg in segments:
        p_lo, p_hi = seg.p_start, seg.p_start + seg.length
        q_lo, q_hi = seg.q_start, seg.q_start + seg.length
        if p_lo < p_region.start or p_hi > p_region.end:
            raise InvariantViolation(
                "memo-segment-p-bounds",
                f"replayed segment p[{p_lo}, {p_hi}) outside p-region "
                f"{p_region}")
        if q_lo < q_region.start or q_hi > q_region.end:
            raise InvariantViolation(
                "memo-segment-q-bounds",
                f"replayed segment q[{q_lo}, {q_hi}) outside q-region "
                f"{q_region}")
        if p_text[p_lo:p_hi] != q_text[q_lo:q_hi]:
            raise InvariantViolation(
                "memo-retag-soundness",
                f"replayed segment p[{p_lo}, {p_hi}) != q[{q_lo}, "
                f"{q_hi}): memoized match no longer witnesses equality")


# -- identity-pair soundness ------------------------------------------------

def check_identity_pair(page: Any, q_page: Any) -> None:
    """A page pair recycled whole must be byte-identical."""
    _count()
    if page.text != q_page.text:
        raise InvariantViolation(
            "identity-pair-texts-equal",
            f"pages {page.did!r} / {q_page.did!r} were recycled as "
            "identical but their texts differ (fingerprint collision?)")
