"""The Shortcut baseline: reuse IE results on byte-identical pages.

When the page at a URL is identical to its previous version, the
previous final results are copied over; otherwise the program runs
from scratch on the page. This is the reuse-at-page-level strawman of
Section 3 — great when the corpus barely changes (DBLife), nearly
useless when most pages receive edits (Wikipedia).

In the paper's terms it is Cyclex with matching reduced to page
identity, and that is how it is written: the one-unit program plan of
:mod:`repro.core.cyclex` with its matcher fixed to EQ, which reports
the whole page as one segment when the two versions are equal and
nothing otherwise. Identical pages take the engine's identity short
circuit (with fast paths off, EQ's full-page segment copies the same
rows); changed pages get no segments, so their extraction region is
the whole page and they run from scratch.
"""

from __future__ import annotations

from ..matchers.dn import EQ_NAME
from ..plan.compile import CompiledPlan
from .cyclex import CyclexSystem


class ShortcutSystem(CyclexSystem):
    """Copies final results for unchanged pages, re-extracts the rest."""

    name = "shortcut"

    def __init__(self, plan: CompiledPlan, workdir: str,
                 program_alpha: int, program_beta: int, **kwargs) -> None:
        super().__init__(plan, workdir, program_alpha, program_beta,
                         fixed_matcher=EQ_NAME, **kwargs)
