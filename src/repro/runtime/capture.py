"""Capture sinks: how per-page capture records reach the reuse files.

The reuse engine records, per IE unit and page, the unit's input
regions (``I_U``) and output tuples (``O_U``). Serial runs write them
straight to :class:`~repro.reuse.files.ReuseFileWriter`s. Parallel
workers cannot share those writers — pages must land in canonical
order — so workers record into in-memory :class:`PageCapture` buffers
instead, and the parent replays the buffers into the real writers
afterwards.

Tuple ids are page-local (the writers restart their counters at every
page header), so the ids a buffer hands out are already the ids the
writers assign. The replay (:func:`replay_captures`) walks pages in
canonical order and writes every record through unchanged; because
the serial engine emits the very same sequence of writer calls, the
merged files are **byte-identical** to a serial run's — the
determinism contract the next snapshot's recycling relies on.

Both sinks expose one interface so the engine's per-unit code is
oblivious to which mode it runs in:

* ``begin_page(did)`` — open a page group in every unit's files;
* ``append_input(uid, did, s, e, c) -> tid`` — record an input tuple,
  returning the id output tuples must reference;
* ``append_output(uid, did, itid, fields)`` — record an output tuple;
* ``append_groups(uid, did, i_data, o_data)`` — fill the unit's page
  groups with a previous capture's raw group bytes (a recycled page).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence, Tuple

from ..reuse.files import ReuseFileWriter

WriterPair = Tuple[ReuseFileWriter, ReuseFileWriter]


@dataclass
class PageCapture:
    """All capture records of one page, across all units.

    ``inputs[uid]`` holds ``(s, e, c)`` triples in emission order;
    ``outputs[uid]`` holds ``(itid, fields)`` pairs where ``itid``
    indexes into ``inputs[uid]``; ``groups[uid]`` holds the raw
    ``(I, O)`` group bytes of a recycled page.
    """

    did: str
    inputs: Dict[str, List[Tuple[int, int, str]]] = field(
        default_factory=dict)
    outputs: Dict[str, List[Tuple[int, Tuple]]] = field(
        default_factory=dict)
    groups: Dict[str, Tuple[bytes, bytes]] = field(default_factory=dict)

    def records(self) -> int:
        return (sum(len(v) for v in self.inputs.values())
                + sum(len(v) for v in self.outputs.values()))


class DirectCaptureSink:
    """Serial mode: pass records straight to the real writers."""

    def __init__(self, writers: Dict[str, WriterPair]) -> None:
        self._writers = writers

    def begin_page(self, did: str) -> None:
        for writer_i, writer_o in self._writers.values():
            writer_i.begin_page(did)
            writer_o.begin_page(did)

    def append_input(self, uid: str, did: str, s: int, e: int,
                     c: str = "") -> int:
        return self._writers[uid][0].append_input(did, s, e, c)

    def append_output(self, uid: str, did: str, itid: int,
                      fields: Tuple) -> None:
        self._writers[uid][1].append_output(did, itid, fields)

    def append_groups(self, uid: str, did: str, i_data: bytes,
                      o_data: bytes) -> None:
        writer_i, writer_o = self._writers[uid]
        writer_i.append_group(did, i_data)
        writer_o.append_group(did, o_data)


class BufferedCaptureSink:
    """Worker mode: record into per-page buffers for a later replay.

    Buffers are allocated lazily on the first record of a (page, uid)
    pair — a page group that records nothing costs one
    :class:`PageCapture` with two empty dicts, not ``2 × len(uids)``
    list allocations (which used to dominate replay-merge cost for
    mostly-recycled snapshots).
    """

    def __init__(self, uids: Sequence[str]) -> None:
        self._uids = tuple(uids)
        self.pages: List[PageCapture] = []

    def _current(self, did: str) -> PageCapture:
        if not self.pages:
            raise ValueError("no page group started")
        page = self.pages[-1]
        if page.did != did:
            raise ValueError(f"page group {did!r} not current "
                             f"({page.did!r} is)")
        return page

    def begin_page(self, did: str) -> None:
        self.pages.append(PageCapture(did=did))

    def append_input(self, uid: str, did: str, s: int, e: int,
                     c: str = "") -> int:
        page = self._current(did)
        bucket = page.inputs.setdefault(uid, [])
        bucket.append((s, e, c))
        return len(bucket) - 1

    def append_output(self, uid: str, did: str, itid: int,
                      fields: Tuple) -> None:
        page = self._current(did)
        page.outputs.setdefault(uid, []).append((itid, fields))

    def append_groups(self, uid: str, did: str, i_data: bytes,
                      o_data: bytes) -> None:
        page = self._current(did)
        page.groups[uid] = (i_data, o_data)


@dataclass
class ReplayStats:
    """What one capture replay actually did.

    ``skipped`` counts (page, uid) groups whose record loops were
    skipped because the buffer was empty — the page header is still
    written (the reuse-file format emits a ``@page`` line per page
    unconditionally), but no per-record work happens.
    """

    pages: int = 0
    records: int = 0
    skipped: int = 0


def replay_captures(captures: Iterable[PageCapture],
                    writers: Dict[str, WriterPair]) -> ReplayStats:
    """Merge buffered captures into the real reuse files.

    ``captures`` must be in canonical page order — with LPT batches
    the caller assembles that order by page id before replaying.
    Buffered tids are page-local, exactly what the writers assign, so
    records are written through as they are, reproducing the byte
    stream a serial run would have written.
    """
    stats = ReplayStats()
    for page in captures:
        stats.pages += 1
        for uid, (writer_i, writer_o) in writers.items():
            writer_i.begin_page(page.did)
            writer_o.begin_page(page.did)
            groups = page.groups.get(uid)
            if groups is not None:
                writer_i.append_group(page.did, groups[0])
                writer_o.append_group(page.did, groups[1])
                continue
            inputs = page.inputs.get(uid, ())
            outputs = page.outputs.get(uid, ())
            if not inputs and not outputs:
                stats.skipped += 1
                continue
            for s, e, c in inputs:
                writer_i.append_input(page.did, s, e, c)
            for itid, fields in outputs:
                writer_o.append_output(page.did, itid, fields)
            stats.records += len(inputs) + len(outputs)
    return stats
