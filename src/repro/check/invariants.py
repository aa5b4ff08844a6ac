"""Runtime invariant assertions (the ``--check`` layer).

Cheap executable statements of the properties Theorem 1 leans on,
wired into the hot paths of :mod:`repro.reuse.regions` and
:mod:`repro.reuse.engine` behind the module-level :data:`ENABLED` flag. The flag is **off by default** and
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
* **page-order monotonicity** — pages are recorded in strictly
  increasing did order (the precondition for sequential segment
  appends and for the parallel runtime's deterministic batch merge);
  :func:`check_page_table_monotonic` re-checks a page table on disk.
* **replay soundness** — the outputs a unit replays on a region or
  split whose text it recorded on the previous page equal what
  extracting that region or split gives, and a split a unit skips
  because its key does not select it extracts nothing.
* **identity-pair soundness** — a page pair that is recycled whole
  really is byte-identical.

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


def check_page_table_monotonic(directory: str) -> int:
    """Re-check page-order monotonicity of a capture's page table on
    disk.

    Returns the number of pages the table lists. Used by the oracle
    after a sweep; not a hot-path call.
    """
    from ..reuse.files import PageTable  # local: avoid cycle

    _count()
    prev: Optional[str] = None
    pages = 0
    for did in PageTable.load(directory).dids:
        pages += 1
        if prev is not None and did <= prev:
            raise InvariantViolation(
                "page-table-monotonic",
                f"page {did!r} follows {prev!r} in {directory}")
        prev = did
    return pages


# -- replay soundness -----------------------------------------------------

def check_replay(replayed: Sequence[Dict[str, Any]],
                 extracted: Sequence[Dict[str, Any]], unit: str,
                 region: Interval) -> None:
    """Outputs a unit replayed on a region (or split) from recorded
    text must be what extracting that region gives: the same rows, as
    a multiset."""
    _count()
    if sorted(map(_row_key, replayed)) != sorted(map(_row_key, extracted)):
        raise InvariantViolation(
            "replay-equals-extraction",
            f"unit {unit}: {len(replayed)} outputs replayed on {region} "
            f"differ from the {len(extracted)} extracting it gives")


def check_unselected(extracted: Sequence[Any], unit: str,
                     region: Interval) -> None:
    """A split a unit skipped because its key does not select it
    must be one the unit extracts nothing from."""
    _count()
    if extracted:
        raise InvariantViolation(
            "unselected-split-yields-nothing",
            f"unit {unit}: the split {region} its key does not select "
            f"gives {len(extracted)} extractions")


def _row_key(row: Dict[str, Any]) -> str:
    return repr(sorted(row.items()))


# -- identity-pair soundness ------------------------------------------------

def check_identity_pair(page: Any, q_page: Any) -> None:
    """A page pair recycled whole must be byte-identical."""
    _count()
    if page.text != q_page.text:
        raise InvariantViolation(
            "identity-pair-texts-equal",
            f"pages {page.did!r} / {q_page.did!r} were recycled as "
            "identical but their texts differ")
