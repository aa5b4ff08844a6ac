"""Canonical frozen rows: the currency of the delta rules.

Plan evaluation passes around dicts of ``var -> Span | scalar``; spans
are page-absolute offsets whose *content* lives in the page text. Such
rows cannot key delta state across page versions: two spans with equal
offsets may cover different text after an edit. The delta layer
therefore freezes rows into exactly the store's canonical tuple shape
(:func:`repro.reuse.engine.materialize_rows` output)::

    ((var, (start, end, text)), ...)   # span fields
    ((var, scalar), ...)               # scalar fields

sorted by variable name. Freezing embeds each span's text, so

* frozen equality means *semantic* equality across page versions —
  same offsets **and** same content — which is what makes the
  cancellation of unchanged IE outputs and σ-outcome retention sound;
* the root node's frozen support is literally the page's stored rows:
  no second materialization pass between plan and store.

``thaw_row`` reverses the embedding (dropping the text — spans again
reference the page) for operators that must re-evaluate: σ p-functions
on added rows, IE extraction over added regions.

The ``(int, int, str)`` 3-tuple heuristic for "is a span" matches
:func:`repro.serve.store.tuple_to_json`; scalars in this system are
``str | int | float | bool | None`` (see ``extractors.base.Scalar``),
so a scalar can never be mistaken for a span triple.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..text.span import Span

#: One frozen row: sorted ``(var, value)`` pairs, hashable.
FrozenRow = Tuple[Tuple[str, object], ...]

#: Cache of text slices keyed by (start, end) — freezing one page's
#: rows repeatedly slices the same regions (every IE output row of a
#: segmenter region shares the region span, every pre-projection row
#: carries the whole-page scan span).
SliceCache = Dict[Tuple[int, int], str]


def is_span_value(value: object) -> bool:
    """True iff a frozen value is a span triple ``(start, end, text)``."""
    return (isinstance(value, tuple) and len(value) == 3
            and isinstance(value[0], int) and isinstance(value[1], int)
            and isinstance(value[2], str))


def freeze_row(row: Dict[str, object], page_text: str,
               cache: Optional[SliceCache] = None) -> FrozenRow:
    """Freeze one row dict against its page's text."""
    items: List[Tuple[str, object]] = []
    for var in sorted(row):
        value = row[var]
        if isinstance(value, Span):
            key = (value.start, value.end)
            text = cache.get(key) if cache is not None else None
            if text is None:
                text = page_text[value.start:value.end]
                if cache is not None:
                    cache[key] = text
            items.append((var, (value.start, value.end, text)))
        else:
            items.append((var, value))
    return tuple(items)


def freeze_rows(rows, page_text: str,
                cache: Optional[SliceCache] = None) -> List[FrozenRow]:
    """Freeze a list of row dicts (multiplicities preserved)."""
    if cache is None:
        cache = {}
    return [freeze_row(row, page_text, cache) for row in rows]


def thaw_row(frozen: FrozenRow, did: str) -> Dict[str, object]:
    """Reconstruct the evaluation-shape row dict (spans lose text)."""
    out: Dict[str, object] = {}
    for var, value in frozen:
        if is_span_value(value):
            out[var] = Span(did, value[0], value[1])
        else:
            out[var] = value
    return out


def frozen_join_key(frozen: FrozenRow, on: Tuple[str, ...]) -> tuple:
    """The natural-join key of a frozen row.

    Join equality on frozen span triples coincides with plain
    evaluation's ``Span`` equality within one page: equal offsets in
    one page version imply equal text, and frozen rows only ever meet
    rows of the same page.
    """
    values = dict(frozen)
    return tuple(values[v] for v in on)


def merge_frozen(left: FrozenRow, right: FrozenRow) -> FrozenRow:
    """``{**left, **right}`` in frozen form (right wins shared vars,
    which for a natural join are equal anyway)."""
    merged = dict(left)
    merged.update(right)
    return tuple(sorted(merged.items()))
