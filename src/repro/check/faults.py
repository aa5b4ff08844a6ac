"""Test-only fault injection for the differential harness.

A correctness harness you have never seen fail is not evidence of
anything. This module lets tests (and ``python -m repro check
--fault ...``) plant a *silent* logic bug in the reuse derivation —
the kind of bug the differential oracle exists to catch — and verify
the oracle reports it and the shrinker minimizes it.

A derivation fault lives in :mod:`repro.reuse.regions` as a
module-level callable (``_fault_hook``), ``None`` in production;
``derive_reuse`` invokes it *after* the invariant checks, so an
injected fault models a bug the cheap invariants cannot see (e.g. a
dropped copy) and only the cross-system diff exposes. A splitter fault
replaces a splitter, or a split key test, in
:mod:`repro.extractors.splitters` (``_fault_splitters`` and
``_fault_selectors``, empty in production). Faults are deliberately
deterministic — they corrupt every derivation (or split) that meets
their trigger condition — so a failing series stays failing under
shrinking.

Available faults:

* ``drop_copied`` — silently drop the last copied mention of any
  derivation that copied at least one. Models an off-by-one in copy
  selection: invariant-clean, output-visible.
* ``shift_copied`` — shift the first copied mention's spans one
  character right. Models a shift-computation bug; the differential
  oracle catches it as missing+extra tuples.
* ``drop_extraction_region`` — drop the last extraction region when
  more than one was derived. Models broken gap coverage. Note the
  tasks' α (hundreds of characters) means small fuzz pages merge all
  gaps into one region, so this fault's trigger needs long pages; a
  post-hoc ``check_derivation`` on the corrupted derivation raises
  ``extraction-coverage`` (see tests/test_check.py).
* ``wrong_splitter`` — the ``"line"`` splitter every
  :class:`~repro.extractors.rules.LineExtractor` declares also cuts
  inside lines, every :data:`WRAP_WIDTH` characters, like a line
  reader with a fixed buffer. The extractor is not split-correct for
  it: a new long line is extracted in pieces. A line whose recorded
  output crosses a cut sends its region down the matcher path, so the
  fault shows only where a line grows past the width after the unit
  recorded it shorter.
* ``wrong_split_key`` — the ``"header"`` key test compares a header's
  name without stripping it, so a section headed ``== Filmography  ==``
  (which :class:`~repro.extractors.rules.SectionExtractor` extracts) is
  not selected and extracts nothing. Corpus headers are spelled
  canonically; the fuzzer's ``split_edit`` respellings expose it.

Because the hook runs after the in-line invariant checks, *none* of
these faults trip the derivation-time assertions — re-checking the
returned derivation (or diffing against ground truth) is what exposes
them, which is the point.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..text.span import Interval, Span

FaultHook = Callable[[Any, Interval], None]


def _drop_copied(derivation: Any, p_region: Interval) -> None:
    if derivation.copied:
        derivation.copied.pop()


def _shift_copied(derivation: Any, p_region: Interval) -> None:
    if not derivation.copied:
        return
    fields = derivation.copied[0]
    for name, value in list(fields.items()):
        if isinstance(value, Span):
            fields[name] = Span(value.did, value.start + 1, value.end + 1)


def _drop_extraction_region(derivation: Any, p_region: Interval) -> None:
    if len(derivation.extraction_regions) > 1:
        derivation.extraction_regions.pop()


#: Where ``wrong_splitter`` cuts inside a line.
WRAP_WIDTH = 64


def _wrapped_line_starts(text: str) -> List[int]:
    from ..extractors.splitters import SPLITTERS

    starts: List[int] = []
    line_starts = SPLITTERS["line"](text)
    for start, end in zip(line_starts, line_starts[1:] + [len(text)]):
        starts.extend(range(start, end, WRAP_WIDTH))
    return starts or [0]


def _unstripped_header_selects(key: str, split: str) -> bool:
    from ..extractors.splitters import HEADER

    match = HEADER.match(split)
    return match is not None and match.group(1) == key


FAULTS: Dict[str, FaultHook] = {
    "drop_copied": _drop_copied,
    "shift_copied": _shift_copied,
    "drop_extraction_region": _drop_extraction_region,
}

#: Faults planted in a splitter instead: name -> (splitter kind, the
#: wrong split function that replaces it).
SPLITTER_FAULTS: Dict[str, Tuple[str, Callable[[str], List[int]]]] = {
    "wrong_splitter": ("line", _wrapped_line_starts),
}

#: Faults planted in a split key test: name -> (splitter kind, the
#: wrong key test that replaces it).
KEY_FAULTS: Dict[str, Tuple[str, Callable[[str, str], bool]]] = {
    "wrong_split_key": ("header", _unstripped_header_selects),
}

#: Every fault ``install_fault`` knows.
FAULT_NAMES = tuple(sorted((*FAULTS, *SPLITTER_FAULTS, *KEY_FAULTS)))

_active: Optional[str] = None


def active_fault() -> Optional[str]:
    """Name of the currently injected fault, or None."""
    return _active


def install_fault(name: Optional[str]) -> None:
    """Install (or, with None, remove) a fault by name."""
    from ..extractors import splitters  # local: no import cycles
    from ..reuse import regions

    global _active
    if name is not None and name not in FAULT_NAMES:
        raise ValueError(f"unknown fault {name!r}; choose from "
                         f"{FAULT_NAMES}")
    regions._fault_hook = FAULTS.get(name) if name is not None else None
    splitters._fault_splitters.clear()
    splitters._fault_selectors.clear()
    if name in SPLITTER_FAULTS:
        kind, wrong = SPLITTER_FAULTS[name]
        splitters._fault_splitters[kind] = wrong
    if name in KEY_FAULTS:
        kind, wrong_key = KEY_FAULTS[name]
        splitters._fault_selectors[kind] = wrong_key
    _active = name


@contextmanager
def injected_fault(name: Optional[str]) -> Iterator[None]:
    """Context manager: install a fault, restore the previous one.

    ``name=None`` is a no-op pass-through so callers can thread an
    optional ``--fault`` argument straight in.
    """
    previous = _active
    install_fault(name)
    try:
        yield
    finally:
        install_fault(previous)
