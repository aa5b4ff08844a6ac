"""Capture analysis: inspect what a run recorded.

The paper's storage/I-O accounting (end of Section 4) bounds the total
reuse-file footprint by O(|T| · B(P_n)). These helpers measure a
capture through its page table (:mod:`repro.reuse.files`): each unit's
*logical* capture (its groups on every page plus a page header per
group, the size the optimizer's block counts use), and the bytes of the
segments the table keeps alive on disk, which the capture GC bounds. So
deployments can check that bound, find units with runaway output, and
debug reuse behavior.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..plan.units import IEUnit
from .files import BLOCK_SIZE, PageTable, iter_unit_groups, page_marker


@dataclass
class UnitCaptureStats:
    """Footprint of one unit's logical capture: its groups on every
    page plus a page header per group."""

    uid: str
    input_tuples: int = 0
    output_tuples: int = 0
    i_bytes: int = 0
    o_bytes: int = 0
    pages: int = 0

    @property
    def i_blocks(self) -> int:
        return (self.i_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE

    @property
    def o_blocks(self) -> int:
        return (self.o_bytes + BLOCK_SIZE - 1) // BLOCK_SIZE

    @property
    def outputs_per_input(self) -> float:
        if self.input_tuples == 0:
            return 0.0
        return self.output_tuples / self.input_tuples


@dataclass
class CaptureReport:
    """Footprint of one capture: per unit, and its segments on disk."""

    directory: str
    units: Dict[str, UnitCaptureStats] = field(default_factory=dict)
    #: Bytes of the segments the page table references (retained).
    segment_bytes: int = 0
    #: Bytes of the segments this capture appended itself.
    appended_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """Logical capture bytes, summed over the units."""
        return sum(u.i_bytes + u.o_bytes for u in self.units.values())

    @property
    def total_blocks(self) -> int:
        return sum(u.i_blocks + u.o_blocks for u in self.units.values())

    def within_paper_bound(self, corpus_bytes: int,
                           slack: float = 4.0) -> bool:
        """Check the O(|T| · B(P_n)) storage bound of Section 4.

        ``slack`` absorbs record framing overhead (tids, JSON syntax);
        the bound is about asymptotics, not constants.
        """
        bound = slack * len(self.units) * max(1, corpus_bytes)
        return self.total_bytes <= bound

    def render(self) -> str:
        lines = [f"capture {self.directory}",
                 f"{'unit':<24}{'pages':>7}{'inputs':>8}{'outputs':>9}"
                 f"{'I blk':>7}{'O blk':>7}{'out/in':>8}"]
        for uid in sorted(self.units):
            u = self.units[uid]
            lines.append(f"{uid:<24}{u.pages:>7}{u.input_tuples:>8}"
                         f"{u.output_tuples:>9}{u.i_blocks:>7}"
                         f"{u.o_blocks:>7}{u.outputs_per_input:>8.2f}")
        lines.append(f"total: {self.total_bytes} bytes "
                     f"({self.total_blocks} blocks)")
        lines.append(f"segments: {self.segment_bytes} bytes retained, "
                     f"{self.appended_bytes} appended by this capture")
        return "\n".join(lines)


def analyze_capture(directory: str,
                    units: Optional[Sequence[IEUnit]] = None
                    ) -> CaptureReport:
    """Report per-unit footprints of the capture in ``directory``.

    ``units`` restricts (and labels) the report; by default every unit
    of the page table is analyzed. FileNotFoundError if there is no
    such directory; ValueError if its table or a group is unreadable.
    """
    if not os.path.isdir(directory):
        raise FileNotFoundError(directory)
    table = PageTable.load(directory)
    uids = table.units if units is None else [
        u.uid for u in units if u.uid in table.units]
    report = CaptureReport(directory=directory,
                           segment_bytes=table.referenced_bytes,
                           appended_bytes=table.appended_bytes)
    for uid in sorted(uids):
        stats = UnitCaptureStats(uid=uid)
        for did, i_data, o_data in iter_unit_groups(directory, uid):
            header = len(page_marker(did))
            stats.pages += 1
            stats.i_bytes += header + len(i_data)
            stats.o_bytes += header + len(o_data)
            stats.input_tuples += i_data.count(b"\n")
            stats.output_tuples += o_data.count(b"\n")
        report.units[uid] = stats
    return report


def mentions_per_page(directory: str, uid: str) -> List[int]:
    """Output-tuple counts of unit ``uid`` per page of the capture in
    ``directory`` (in page order), from the page table alone — handy
    for spotting pathological pages."""
    table = PageTable.load(directory)
    k = table.units.index(uid)
    return [row[k][5] if row[k] is not None else 0
            for _did, row in table.rows()]
