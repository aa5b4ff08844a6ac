"""Sequential, block-buffered reuse files (Section 4).

While a tree executes on snapshot ``n``, every IE unit U appends its
input tuples to ``I_U^n`` and its output tuples to ``O_U^n``. Appends
go through a one-block memory buffer per file; a block is flushed when
full, so the I/O overhead is exactly the file size in blocks. Files
are later read strictly sequentially, one page group at a time, in the
same page order they were written — that is what lets the reuse engine
scan every file exactly once per snapshot (Section 5.2).

Record format: each page group starts with a page-header record,
followed by that page's tuple records, all JSON lines. JSON keeps the
files debuggable; the block-buffer layer is where the I/O behavior the
paper models lives.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple

from ..text.span import Interval

BLOCK_SIZE = 4096


@dataclass(frozen=True)
class InputTuple:
    """A recorded IE-unit input: region [s, e) of page ``did`` plus the
    serialized extra parameter values ``c``."""

    tid: int
    did: str
    s: int
    e: int
    c: str = ""

    @property
    def interval(self) -> Interval:
        return Interval(self.s, self.e)


@dataclass(frozen=True)
class OutputTuple:
    """A recorded IE-unit output: extension fields (absolute offsets in
    the page the unit ran on), joined to its input tuple by ``itid``."""

    tid: int
    itid: int
    fields: Tuple[Tuple[str, str, Any, Any], ...]
    # Each field is (name, kind, a, b): kind "s" -> span [a, b),
    # kind "v" -> scalar a (b unused).

    def extent(self) -> Optional[Tuple[int, int]]:
        spans = [(a, b) for _, kind, a, b in self.fields if kind == "s"]
        if not spans:
            return None
        return (min(a for a, _ in spans), max(b for _, b in spans))


def encode_fields(fields: Dict[str, Any]) -> Tuple[Tuple[str, str, Any, Any], ...]:
    """Encode extension fields; spans become ("s", start, end)."""
    from ..text.span import Span

    out: List[Tuple[str, str, Any, Any]] = []
    for name in sorted(fields):
        value = fields[name]
        if isinstance(value, Span):
            out.append((name, "s", value.start, value.end))
        else:
            out.append((name, "v", value, None))
    return tuple(out)


def decode_fields(fields: Tuple[Tuple[str, str, Any, Any], ...],
                  did: str) -> Dict[str, Any]:
    """Decode extension fields back into tuple values for page ``did``."""
    from ..text.span import Span

    out: Dict[str, Any] = {}
    for name, kind, a, b in fields:
        out[name] = Span(did, a, b) if kind == "s" else a
    return out


class BlockWriter:
    """Append-only writer with one block of write buffering."""

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        self._file: Optional[IO[bytes]] = open(path, "wb")
        self._buffer = bytearray()
        self.bytes_written = 0
        self.flushes = 0

    def append(self, record: Dict[str, Any]) -> None:
        if self._file is None:
            raise ValueError(f"writer for {self.path} is closed")
        self.append_line(json.dumps(record, separators=(",", ":")))

    def append_line(self, line: str) -> None:
        """Append one pre-serialized JSON line (hot path)."""
        if self._file is None:
            raise ValueError(f"writer for {self.path} is closed")
        data = line.encode("utf-8")
        self._buffer += data
        self._buffer += b"\n"
        self.bytes_written += len(data) + 1
        if len(self._buffer) >= BLOCK_SIZE:
            self._flush()

    def _flush(self) -> None:
        if self._buffer and self._file is not None:
            self._file.write(self._buffer)
            self._buffer.clear()
            self.flushes += 1

    @property
    def blocks(self) -> int:
        """File size in blocks (the cost-model unit)."""
        return (self.bytes_written + BLOCK_SIZE - 1) // BLOCK_SIZE

    def close(self) -> None:
        if self._file is not None:
            self._flush()
            self._file.close()
            self._file = None

    def __enter__(self) -> "BlockWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class ReuseFileWriter:
    """Writes one unit's I or O reuse file, grouped by page."""

    PAGE_MARKER = "@page"

    def __init__(self, path: str) -> None:
        self._writer = BlockWriter(path)
        self._next_tid = 0
        self._current_page: Optional[str] = None

    @property
    def path(self) -> str:
        return self._writer.path

    @property
    def blocks(self) -> int:
        return self._writer.blocks

    def begin_page(self, did: str) -> None:
        self._writer.append_line(
            f'{{"{self.PAGE_MARKER}":{json.dumps(did)}}}')
        self._current_page = did

    def append_input(self, did: str, s: int, e: int, c: str = "") -> int:
        self._require_page(did)
        tid = self._next_tid
        self._next_tid += 1
        self._writer.append_line(
            f'{{"t":{tid},"s":{s},"e":{e},"c":{json.dumps(c)}}}')
        return tid

    def append_output(self, did: str, itid: int,
                      fields: Tuple[Tuple[str, str, Any, Any], ...]) -> int:
        self._require_page(did)
        tid = self._next_tid
        self._next_tid += 1
        self._writer.append_line(
            f'{{"t":{tid},"i":{itid},"f":{json.dumps(list(fields))}}}')
        return tid

    def _require_page(self, did: str) -> None:
        if self._current_page != did:
            raise ValueError(
                f"page group {did!r} not started (current: "
                f"{self._current_page!r})")

    def close(self) -> None:
        self._writer.close()


class ReuseFileReader:
    """Strictly sequential page-group reader of a reuse file.

    Reads in binary mode: ``bytes_read`` counts actual UTF-8 bytes
    (a text-mode ``len(line)`` counts *characters*, which undercounts
    multi-byte pages and skews the block-based I/O cost model).
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: Optional[IO[bytes]] = open(path, "rb")
        self._pushback: Optional[Dict[str, Any]] = None
        self.bytes_read = 0

    def _next_record(self) -> Optional[Dict[str, Any]]:
        if self._pushback is not None:
            record = self._pushback
            self._pushback = None
            return record
        if self._file is None:
            return None
        line = self._file.readline()
        if not line:
            return None
        self.bytes_read += len(line)
        return json.loads(line)

    def seek_page(self, did: str) -> bool:
        """Advance to the page group for ``did``; False if absent.

        Only forward seeks work (groups are read in written order);
        intervening groups — pages that left the corpus — are skipped.
        """
        while True:
            record = self._next_record()
            if record is None:
                return False
            marker = record.get(ReuseFileWriter.PAGE_MARKER)
            if marker == did:
                return True
            # Skip a foreign page group's tuples (or marker).

    def read_group(self, did: str) -> List[Dict[str, Any]]:
        """Read all tuple records of the current page group."""
        records: List[Dict[str, Any]] = []
        while True:
            record = self._next_record()
            if record is None:
                return records
            if ReuseFileWriter.PAGE_MARKER in record:
                self._pushback = record
                return records
            records.append(record)

    def read_page_inputs(self, did: str) -> List[InputTuple]:
        if not self.seek_page(did):
            return []
        return [InputTuple(tid=r["t"], did=did, s=r["s"], e=r["e"],
                           c=r.get("c", ""))
                for r in self.read_group(did)]

    def read_page_outputs(self, did: str) -> List[OutputTuple]:
        if not self.seek_page(did):
            return []
        return [OutputTuple(tid=r["t"], itid=r["i"],
                            fields=tuple(tuple(f) for f in r["f"]))
                for r in self.read_group(did)]

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def blocks_read(self) -> int:
        return (self.bytes_read + BLOCK_SIZE - 1) // BLOCK_SIZE


def group_outputs_by_input(outputs: List[OutputTuple]
                           ) -> Dict[int, List[OutputTuple]]:
    grouped: Dict[int, List[OutputTuple]] = {}
    for out in outputs:
        grouped.setdefault(out.itid, []).append(out)
    return grouped


def load_reuse_file(path: str, kind: str
                    ) -> Dict[str, List[Any]]:
    """Load a whole reuse file into memory, grouped by page.

    ``kind`` is "I" or "O". Used when the page-matching scope pairs
    pages across URLs, which breaks the sequential-scan access pattern
    (see :mod:`repro.reuse.scope`).
    """
    out: Dict[str, List[Any]] = {}
    for did, records in iter_all_pages(path):
        if kind == "I":
            out[did] = [InputTuple(tid=r["t"], did=did, s=r["s"],
                                   e=r["e"], c=r.get("c", ""))
                        for r in records]
        else:
            out[did] = [OutputTuple(tid=r["t"], itid=r["i"],
                                    fields=tuple(tuple(f) for f in r["f"]))
                        for r in records]
    return out


def iter_all_pages(path: str) -> Iterator[Tuple[str, List[Dict[str, Any]]]]:
    """Debug/analysis helper: stream (did, records) for a whole file."""
    with open(path, "r", encoding="utf-8") as f:
        did: Optional[str] = None
        records: List[Dict[str, Any]] = []
        for line in f:
            record = json.loads(line)
            marker = record.get(ReuseFileWriter.PAGE_MARKER)
            if marker is not None:
                if did is not None:
                    yield did, records
                did = marker
                records = []
            else:
                records.append(record)
        if did is not None:
            yield did, records
