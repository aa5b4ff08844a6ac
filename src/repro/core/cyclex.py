"""The Cyclex baseline: the whole program as one IE unit.

Cyclex [Chen et al., ICDE-08] treats the entire IE program as one IE
blackbox with program-level scope/context (α_prog, β_prog). In the
paper's terms that is a Delex plan whose only IE unit is the whole
program, and that is how it is written: :func:`program_plan` wraps the
compiled program in one :class:`ProgramExtractor`, and
:class:`CyclexSystem` is :class:`~repro.core.delex.DelexSystem` over
that plan. Its one unit's matcher is planned like any Delex plan, by
the §6.3 statistics and Algorithm 1, re-run when the page mix drifts.
Matching, copying, re-extraction, capture, the identical-page recycle
and the parallel page loop are the reuse engine's.

Because tight program-level α/β are hard to obtain for multi-blackbox
programs (Section 3), the α_prog of the section-based tasks is page
scale — extraction regions blow up to nearly the whole page whenever
anything changed, which is precisely why Delex wins on those tasks.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Tuple

from ..corpus.snapshot import Snapshot
from ..extractors.base import Extraction, Extractor, RelSpan
from ..fastpath.config import FastPathFlag
from ..plan.compile import CompiledPlan
from ..plan.operators import IENode, ProjectNode, ScanNode, SelectNode
from ..plan.units import IEUnit, find_units
from ..reuse.engine import PlanAssignment
from ..runtime.executor import Executor
from ..runtime.scheduler import PageScheduler
from ..text.document import Page
from ..text.span import Span
from ..timing import Timer, Timings
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
    """Extent start first — the order every extractor emits in — then
    a total tie-break that survives shifting every span, so the same
    text yields its rows in one order wherever it sits on the page.
    The order is recorded in the capture bytes, so it must not change."""
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
    chosen by the Delex optimizer (or pinned by ``fixed_matcher``)."""

    name = "cyclex"

    def __init__(self, plan: CompiledPlan, workdir: str,
                 program_alpha: int, program_beta: int,
                 executor: Optional[Executor] = None,
                 scheduler: Optional[PageScheduler] = None,
                 fastpath: FastPathFlag = None,
                 fixed_matcher: Optional[str] = None) -> None:
        self._program = program_plan(plan, program_alpha, program_beta)
        # Pin the matcher of every reuse snapshot (Shortcut's EQ, and
        # the per-matcher cases of the check grid and parity tests).
        self.fixed_matcher = fixed_matcher
        # No xlog task of its own: the engine runs the program plan.
        super().__init__(None, workdir, executor=executor,
                         scheduler=scheduler, fastpath=fastpath)

    def _compile(self, task: None) -> Tuple[CompiledPlan, List[IEUnit]]:
        program, unit = self._program
        return program, [unit]

    def _choose_assignment(self, snapshot: Snapshot,
                           timer: Timer) -> PlanAssignment:
        if (self.fixed_matcher is None or not self._history
                or self._prev_dir is None):
            return super()._choose_assignment(snapshot, timer)
        return PlanAssignment({self.units[0].uid: self.fixed_matcher})
