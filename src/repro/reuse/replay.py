"""Content-addressed replay: a unit's outputs on text it already extracted.

An extractor is a function of its region's text (Definition 2: every
output is a span of the region, placed relative to it). So when an
input region on the current page p has the same text as an input region
the same unit recorded on the paired previous page q, the unit's output
on p's region is the recorded one, shifted by the difference of the two
regions' starts. :class:`ReplayIndex` answers that lookup before any
matcher runs: no matcher, no :func:`~repro.reuse.regions.derive_reuse`,
no extraction.

A unit whose extractor declares a splitter
(:mod:`repro.extractors.splitters`) gets the same lookup per split. The
recorded outputs of each q region are attributed to q's splits by
extent containment; a split of p whose text equals a q split replays
that split's outputs, and only the splits whose text is new are
extracted. A split the extractor's key does not select
(:func:`~repro.extractors.splitters.split_selected`) is skipped: it
yields nothing, so it is neither looked up nor extracted. If a recorded
output cannot be attributed to exactly one split (no span field, or an
extent that crosses a split edge, which a split-correct extractor never
records), the index has no splits and the unit's regions on this page
take the matcher path instead.

Why the answers are exact is written out in :mod:`repro.reuse.regions`
(Theorem 1, the equal-region and split cases).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..extractors.splitters import split_bounds, split_selected, split_starts
from .files import InputTuple, OutputTuple

#: One recorded split: the q input it lies in, its start on q, and the
#: outputs recorded inside it.
RecordedSplit = Tuple[InputTuple, int, List[OutputTuple]]

#: The answer for an unselected split: it yields nothing.
SKIP: Tuple[()] = ()

#: One stretch of a p region: its offsets in the region, and the
#: recorded text it replays (None: extract it; :data:`SKIP`: an
#: unselected split, nothing to do).
Stretch = Tuple[int, int, Union[None, Tuple[()], RecordedSplit]]


class ReplayIndex:
    """One unit's recorded input regions on one previous page, keyed by
    text (the first recorded region wins a tie), and, for a unit with a
    splitter, its recorded splits keyed the same way. Both maps are
    built on first use."""

    __slots__ = ("q_text", "inputs", "outputs", "splitter", "key",
                 "_regions", "_splits")

    def __init__(self, q_text: str, inputs: Sequence[InputTuple],
                 outputs: Dict[int, List[OutputTuple]],
                 splitter: Optional[str], key: Optional[str] = None
                 ) -> None:
        self.q_text = q_text
        self.inputs = inputs
        self.outputs = outputs
        self.splitter = splitter
        self.key = key
        self._regions: Optional[Dict[str, InputTuple]] = None
        self._splits: Optional[Dict[str, RecordedSplit]] = None

    def region(self, text: str) -> Optional[InputTuple]:
        """The recorded input region whose text is ``text``, if any."""
        if self._regions is None:
            q_text = self.q_text
            regions: Dict[str, InputTuple] = {}
            for q_input in self.inputs:
                regions.setdefault(q_text[q_input.s:q_input.e], q_input)
            self._regions = regions
        return self._regions.get(text)

    def answer(self, text: str) -> Optional[Tuple[str, List[Stretch]]]:
        """How an input region of p with text ``text`` is answered:
        ``("replay", [one stretch])`` when a recorded region has its
        text, ``("split", stretches)`` with one stretch per split for a
        split-declared unit (:data:`SKIP` for a split its key does not
        select), or None (the region takes the matcher path). The
        engine and the optimizer's cost statistics both read this, so
        they apply one rule."""
        hit = self.region(text)
        if hit is not None:
            return "replay", [(0, len(text),
                               (hit, hit.s, self.outputs.get(hit.tid, [])))]
        recorded = self.splits()
        if recorded is None:
            return None
        kind, key = self.splitter, self.key
        stretches: List[Stretch] = []
        for lo, hi in split_bounds(kind, text):
            piece = text[lo:hi]
            stretches.append((lo, hi, recorded.get(piece)
                              if split_selected(kind, key, piece) else SKIP))
        return "split", stretches

    def splits(self) -> Optional[Dict[str, RecordedSplit]]:
        """The recorded splits by text; None without a splitter or when
        a recorded output cannot be attributed to one split."""
        if self.splitter is None:
            return None
        if self._splits is None:
            built = self._attribute()
            if built is None:
                # Not attributable: no region of this unit on this page
                # is answered by splits.
                self.splitter = None
                return None
            self._splits = built
        return self._splits

    def _attribute(self) -> Optional[Dict[str, RecordedSplit]]:
        q_text = self.q_text
        out: Dict[str, RecordedSplit] = {}
        for q_input in self.inputs:
            s = q_input.s
            text = q_text[s:q_input.e]
            starts = split_starts(self.splitter, text)
            ends = starts[1:] + [len(text)]
            per_split: List[List[OutputTuple]] = [[] for _ in starts]
            for output in self.outputs.get(q_input.tid, ()):
                extent = output.extent()
                if extent is None:
                    return None
                lo, hi = extent[0] - s, extent[1] - s
                at = bisect_right(starts, lo) - 1
                if at < 0 or hi > ends[at] or (lo == hi == starts[at] > 0):
                    # Crosses a split edge, or an empty extent on one:
                    # not the output of exactly one split.
                    return None
                per_split[at].append(output)
            for start, end, outs in zip(starts, ends, per_split):
                out.setdefault(text[start:end], (q_input, s + start, outs))
        return out
