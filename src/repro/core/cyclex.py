"""The Cyclex baseline: the whole program as one IE unit.

Cyclex [Chen et al., ICDE-08] treats the entire IE program as one IE
blackbox with program-level scope/context (α_prog, β_prog). In the
paper's terms that is a Delex plan whose only IE unit is the whole
program, and that is how it is written: :func:`program_plan` wraps the
compiled program in one :class:`ProgramExtractor`, and
:class:`CyclexSystem` is :class:`~repro.core.delex.DelexSystem` over
that plan with the unit's matcher chosen per snapshot by a small cost
probe (mirroring the Cyclex optimizer) instead of Algorithm 1.
Matching, copying, re-extraction, capture, the identity short circuit
and page splitting are the reuse engine's.

Because tight program-level α/β are hard to obtain for multi-blackbox
programs (Section 3), the α_prog of the section-based tasks is page
scale — extraction regions blow up to nearly the whole page whenever
anything changed, which is precisely why Delex wins on those tasks.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..corpus.snapshot import Snapshot
from ..extractors.base import Extraction, Extractor, RelSpan
from ..fastpath.config import FastPathFlag
from ..matchers.base import DN_NAME, ST_NAME, UD_NAME
from ..matchers.registry import make_matcher
from ..plan.compile import CompiledPlan
from ..plan.operators import IENode, ProjectNode, ScanNode, SelectNode
from ..plan.units import IEUnit, find_units
from ..reuse.engine import PlanAssignment, min_match_length
from ..reuse.files import InputTuple
from ..reuse.regions import derive_reuse
from ..runtime.executor import Executor
from ..runtime.scheduler import PageScheduler
from ..runtime.split import SplitConfig
from ..text.document import Page
from ..text.span import Span
from ..timing import OPT, Timer, Timings
from ..xlog.ast import Var
from ..xlog.registry import EvalContext, PFunctionEntry
from .delex import DelexSystem
from .noreuse import run_page_plain

#: Output field naming the head relation of a program-unit extraction.
_HEAD = "head"


def _is_head(ctx: EvalContext, head: object, rel: object) -> bool:
    """The σ above the program unit: one head relation's rows.
    Module-level, so process workers can pickle the plan."""
    return head == rel


_IS_HEAD = PFunctionEntry("isHead", _is_head, 2, row_determined=True)


def _field(rel: str, var: str) -> str:
    return f"{rel}.{var}"


def _extent_order(extraction: Extraction) -> tuple:
    """Extent start first — the order split parts concatenate in —
    then a total tie-break that survives shifting every span."""
    extent = extraction.extent()
    return (-1 if extent is None else extent[0],
            [(name, v.start, v.end, "") if isinstance(v, RelSpan)
             else (name, -1, -1, repr(v)) for name, v in extraction.fields])


class ProgramExtractor(Extractor):
    """The whole compiled program as one IE blackbox.

    Evaluates the plan from scratch over the region and returns one
    extraction per final row: field ``rel.var`` per head variable
    (spans relative to the region) plus the scalar ``head`` naming the
    relation, in extent-start order.
    """

    def __init__(self, plan: CompiledPlan, alpha: int, beta: int) -> None:
        self.plan = plan
        self.heads: Dict[str, List[str]] = {
            rel: sorted(plan.roots[rel].out_vars)
            for rel in plan.program.head_relations()}
        outputs = [_field(rel, var) for rel, variables in self.heads.items()
                   for var in variables]
        super().__init__("program", outputs + [_HEAD], scope=alpha,
                         context=beta)

    def _extract(self, text: str) -> Iterable[Extraction]:
        rows = run_page_plain(self.plan, Page(did="", url="", text=text),
                              Timer(Timings()))
        out = []
        for rel, rel_rows in rows.items():
            for row in rel_rows:
                fields = {_field(rel, var): (RelSpan(v.start, v.end)
                                             if isinstance(v, Span) else v)
                          for var, v in row.items()}
                fields[_HEAD] = rel
                out.append(Extraction(tuple(sorted(fields.items()))))
        return sorted(out, key=_extent_order)


def program_plan(plan: CompiledPlan, alpha: int, beta: int
                 ) -> Tuple[CompiledPlan, IEUnit]:
    """The whole program as a one-unit plan: the page scan, one
    :class:`ProgramExtractor` node with scope α and context β, then per
    head relation a σ on ``head`` and a π renaming the fields back.

    A program whose head exports the page-scan variable gets
    page-scale scope: such a row spans the whole page and changes with
    any edit, so no smaller α is honest for it. Any other α that a row
    exceeds fails loudly in :meth:`Extractor.extract`.
    """
    scan_vars = {node.var for node in plan.all_nodes()
                 if isinstance(node, ScanNode)}
    if any(plan.roots[rel].out_vars & scan_vars
           for rel in plan.program.head_relations()):
        alpha = sys.maxsize
    extractor = ProgramExtractor(plan, alpha, beta)
    ie = IENode(ScanNode("page"), extractor, "page", extractor.output_vars)
    roots = {rel: ProjectNode(SelectNode(ie, _IS_HEAD, (Var(_HEAD), rel)),
                              [(var, _field(rel, var)) for var in variables])
             for rel, variables in extractor.heads.items()}
    program = CompiledPlan(program=plan.program, registry=plan.registry,
                           roots=roots)
    (unit,) = find_units(program)
    return program, unit


class CyclexSystem(DelexSystem):
    """Delex over the one-unit program plan, with the unit's matcher
    chosen by the Cyclex probe (or pinned by ``fixed_matcher``)."""

    name = "cyclex"

    def __init__(self, plan: CompiledPlan, workdir: str,
                 program_alpha: int, program_beta: int,
                 probe_pages: int = 6,
                 executor: Optional[Executor] = None,
                 scheduler: Optional[PageScheduler] = None,
                 fastpath: FastPathFlag = None,
                 fixed_matcher: Optional[str] = None,
                 split: Optional[SplitConfig] = None) -> None:
        self._program = program_plan(plan, program_alpha, program_beta)
        self.probe_pages = probe_pages
        # Pin the per-snapshot matcher choice (skips the timing-based
        # probe, whose winner is machine-dependent) — lets parity tests
        # compare two runs byte-for-byte.
        self.fixed_matcher = fixed_matcher
        # No xlog task of its own: the engine runs the program plan.
        super().__init__(None, workdir, executor=executor,
                         scheduler=scheduler, fastpath=fastpath,
                         split=split)

    def _compile(self, task: None) -> Tuple[CompiledPlan, List[IEUnit]]:
        program, unit = self._program
        return program, [unit]

    def _choose_assignment(self, snapshot: Snapshot,
                           timer: Timer) -> PlanAssignment:
        matcher = DN_NAME  # bootstrap: nothing to recycle
        if self._history and self._prev_dir is not None:
            matcher = self.fixed_matcher or self._choose_matcher(
                snapshot, self._history[-1], timer)
        return PlanAssignment({self.units[0].uid: matcher})

    def _choose_matcher(self, snapshot: Snapshot,
                        prev_snapshot: Snapshot, timer: Timer) -> str:
        """Pick DN/UD/ST by probing a few page pairs.

        Estimated per-page cost = match time + extraction time scaled
        by the fraction of the page left uncovered by copy zones.
        Extraction rate is estimated from one from-scratch page run.
        """
        unit = self.units[0]
        with timer.measure_total(), timer.measure(OPT):
            # Sample shared pages in canonical page order so the probe
            # sees the corpus's real identical/changed mix (a
            # changed-only sample would never credit a matcher for
            # cheap full-page copies on identical pages).
            pairs: List[Tuple[Page, Page]] = []
            for page in snapshot.canonical_pages():
                old = prev_snapshot.get(page.url)
                if old is not None:
                    pairs.append((page, old))
                if len(pairs) >= self.probe_pages:
                    break
            if not pairs:
                return UD_NAME  # nothing shared: matcher never runs
            # Extraction seconds per character, probed on one page.
            sample_page = pairs[0][0]
            start = time.perf_counter()
            run_page_plain(self.plan, sample_page, Timer(Timings()))
            extract_rate = ((time.perf_counter() - start)
                            / max(1, len(sample_page.text)))
            best_name, best_cost = DN_NAME, extract_rate * sum(
                len(p.text) for p, _ in pairs)
            for name in (UD_NAME, ST_NAME):
                matcher = make_matcher(
                    name, min_length=min_match_length(unit.beta),
                    kernel="auto" if self.fastpath else "off")
                cost = 0.0
                for page, old in pairs:
                    t0 = time.perf_counter()
                    segments = matcher.match_many(page.text, page.whole,
                                                  old.text, {0: old.whole})
                    cost += time.perf_counter() - t0
                    derivation = derive_reuse(
                        page.whole, page.did, segments,
                        {0: InputTuple(0, old.did, 0, len(old.text))},
                        {}, unit.alpha, unit.beta)
                    uncovered = sum(
                        len(er) for er in derivation.extraction_regions)
                    cost += extract_rate * uncovered
                if cost < best_cost:
                    best_name, best_cost = name, cost
            return best_name
