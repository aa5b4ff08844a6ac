"""repro.delta — true differential view maintenance.

The serving tier (PR 4) maintains materialized views *page*-granularly:
a changed page is re-extracted wholesale and every relational operator
downstream of the IE units — plus the store's deduplicated, sorted
relation index — is recomputed each generation. This package replaces
that with *tuple*-granular maintenance: a generation applies as an
``(adds, dels)`` delta flowing through the compiled
:mod:`repro.plan` operator tree, in the spirit of "Detecting
Opportunities for Differential Maintenance of Extracted Views"
(Kassaie & Tompa; see PAPERS.md).

Four layers, composed bottom-up:

* :mod:`.deltaset` — :class:`DeltaSet` (row -> signed multiplicity)
  and :class:`Multiset` (maintained nonnegative counts with support-
  transition tracking). Counted multiplicities are what make
  retractions from page churn, deletion, and resurrection compose
  correctly through duplicate-producing operators: a tuple two pages
  both produce survives one page's retraction at count 1.
* :mod:`.rules` — per-operator delta rules over the plan DAG.
  Scan/σ/π/∪ are linear; IE nodes memoize outputs per input region
  *text* (region-relative offsets), so unchanged and merely shifted
  sub-page regions never re-extract; ⋈ maintains per-side
  hash-indexed state and emits ``ΔL⋈R + L⋈ΔR + ΔL⋈ΔR``.
* :mod:`.classify` — the safe/unsafe update classifier: per arriving
  page, decide from the :class:`~repro.serve.views.SnapshotDiff`
  category and the plan's selection properties whether in-place delta
  propagation is provably sufficient or the page must fall back to
  re-derivation (still applied tuple-granularly, and still replaying
  the IE memo).
* :mod:`.maintain` — :class:`DeltaMaintainer`: owns all per-page
  operator state plus the incrementally maintained relation index,
  and turns one snapshot diff into the store delta + new sorted index
  in one pass.

Wired into :class:`repro.serve.views.MaterializedView` as the third
maintenance mode (``system="delta"``), swept by the ``repro check``
oracle via the view-maintenance axis of the check grid, and guarded —
under ``--check on`` — by a pre-swap cross-check of every delta-applied
generation against the from-scratch batch oracle.
"""

from .classify import (
    DECISIONS,
    PageDecision,
    UpdateClassifier,
    plan_delta_blockers,
)
from .deltaset import DeltaSet, Multiset, NegativeMultiplicityError
from .maintain import DeltaApplyResult, DeltaMaintainer
from .rows import freeze_rows, thaw_row

__all__ = [
    "DeltaSet",
    "Multiset",
    "NegativeMultiplicityError",
    "DeltaMaintainer",
    "DeltaApplyResult",
    "UpdateClassifier",
    "PageDecision",
    "DECISIONS",
    "plan_delta_blockers",
    "freeze_rows",
    "thaw_row",
]
