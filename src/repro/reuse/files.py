"""Sequential, block-buffered reuse files (Section 4).

While a tree executes on snapshot ``n``, every IE unit U appends its
input tuples to ``I_U^n`` and its output tuples to ``O_U^n``. Appends
go through a one-block memory buffer per file; a block is flushed when
full, so the I/O overhead is exactly the file size in blocks. Files
are later read strictly sequentially, one page group at a time, in the
same page order they were written — that is what lets the reuse engine
scan every file exactly once per snapshot (Section 5.2).

Record format: each page group starts with a page-header record
``{"@page":<did>}``, followed by that page's tuple records
``{"t":<tid>,...}``, all JSON lines. JSON keeps the files debuggable;
the block-buffer layer is where the I/O behavior the paper models
lives.

Tuple ids are page-local: they count from 0 in every group, and a tid
is only ever referenced inside its own group (an O record's ``"i"``, a
match segment's ``q_itid``). A group's bytes therefore depend only on
its page's records, not on where the group sits in the file, so one
page's capture is just its :data:`PageGroups` — each unit's I and O
group bytes. A :class:`PageRecorder` encodes them record by record;
an unchanged page takes them verbatim from the previous capture; and
:meth:`ReuseFileWriter.write_page` appends them after the header.

Readers find page headers by their byte prefix and JSON-parse only
the headers and the records a caller uses: a :class:`UnitGroups`
parses its I records at once and keeps its O records as raw lines
until a unit copies from them.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterable, Iterator, List, Optional, Tuple

from ..text.span import Interval

BLOCK_SIZE = 4096

#: Byte prefix of a page-header line and of a tuple-record line.
PAGE_PREFIX = b'{"@page":'
RECORD_PREFIX = b'{"t"'

#: One page's capture: ``uid -> (I group bytes, O group bytes)``, the
#: record lines of the unit's two page groups without their headers. A
#: unit missing from the dict recorded nothing on the page.
PageGroups = Dict[str, Tuple[bytes, bytes]]


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

    def append_bytes(self, data: bytes) -> None:
        """Append already-encoded, newline-terminated lines."""
        if self._file is None:
            raise ValueError(f"writer for {self.path} is closed")
        self._buffer += data
        self.bytes_written += len(data)
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
    """Writes one unit's I or O reuse file, one page group at a time."""

    PAGE_MARKER = "@page"

    def __init__(self, path: str) -> None:
        self._writer = BlockWriter(path)

    @property
    def path(self) -> str:
        return self._writer.path

    @property
    def blocks(self) -> int:
        return self._writer.blocks

    def write_page(self, did: str, data: bytes) -> None:
        """Append ``did``'s page group: its header, then ``data``, the
        group's record lines (one side of a :data:`PageGroups` entry)."""
        self._writer.append_bytes(page_marker(did) + data)

    def close(self) -> None:
        self._writer.close()


class PageRecorder:
    """Records one page's capture as :data:`PageGroups`.

    Every record is encoded exactly as its group holds it. Tids count
    from 0 per unit and file: inputs in the I group, outputs in the O
    group. A unit that records nothing allocates nothing.
    """

    __slots__ = ("_units",)

    def __init__(self) -> None:
        #: uid -> [I group bytes, O group bytes, next I tid, next O tid]
        self._units: Dict[str, list] = {}

    def _unit(self, uid: str) -> list:
        unit = self._units.get(uid)
        if unit is None:
            unit = self._units[uid] = [bytearray(), bytearray(), 0, 0]
        return unit

    def input(self, uid: str, s: int, e: int, c: str = "") -> int:
        """Record an input region; returns the tid outputs refer to."""
        unit = self._unit(uid)
        tid = unit[2]
        unit[2] = tid + 1
        unit[0] += (f'{{"t":{tid},"s":{s},"e":{e},'
                    f'"c":{json.dumps(c)}}}\n').encode()
        return tid

    def output(self, uid: str, itid: int,
               fields: Tuple[Tuple[str, str, Any, Any], ...]) -> None:
        """Record an output tuple of the input with tid ``itid``."""
        unit = self._unit(uid)
        tid = unit[3]
        unit[3] = tid + 1
        unit[1] += (f'{{"t":{tid},"i":{itid},'
                    f'"f":{json.dumps(list(fields))}}}\n').encode()

    def groups(self) -> PageGroups:
        """The recorded groups' bytes."""
        return {uid: (bytes(unit[0]), bytes(unit[1]))
                for uid, unit in self._units.items()}


class ReuseFileReader:
    """Strictly sequential page-group reader of a reuse file.

    Reads in binary mode: ``bytes_read`` counts actual UTF-8 bytes
    (a text-mode ``len(line)`` counts *characters*, which undercounts
    multi-byte pages and skews the block-based I/O cost model).
    Lines stay raw bytes; only page headers are parsed while seeking.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._file: Optional[IO[bytes]] = open(path, "rb")
        self._pushback: Optional[bytes] = None
        self.bytes_read = 0

    def _next_record(self) -> Optional[bytes]:
        if self._pushback is not None:
            line = self._pushback
            self._pushback = None
            return line
        if self._file is None:
            return None
        line = self._file.readline()
        if not line:
            return None
        self.bytes_read += len(line)
        return line

    def seek_page(self, did: str) -> bool:
        """Advance to the page group for ``did``; False if absent.

        Only forward seeks work (groups are read in written order);
        intervening groups — pages that left the corpus — are skipped.
        """
        target = page_marker(did)
        while True:
            line = self._next_record()
            if line is None:
                return False
            # The writer's exact header bytes first; any other header
            # is parsed.
            if line == target or _page_of(line) == did:
                return True
            # Skip a foreign page group's tuples (or marker).

    def read_group(self, did: str) -> List[bytes]:
        """Read the raw record lines of the current page group."""
        lines: List[bytes] = []
        while True:
            line = self._next_record()
            if line is None:
                return lines
            if line.startswith(PAGE_PREFIX):
                self._pushback = line
                return lines
            lines.append(line)

    def page_lines(self, did: str) -> List[bytes]:
        """The raw record lines of ``did``'s group; [] if absent."""
        return self.read_group(did) if self.seek_page(did) else []

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    @property
    def blocks_read(self) -> int:
        return (self.bytes_read + BLOCK_SIZE - 1) // BLOCK_SIZE


def page_marker(did: str) -> bytes:
    """The page-header line the writer emits for ``did``."""
    return PAGE_PREFIX + json.dumps(did).encode() + b"}\n"


def _page_of(line: bytes) -> Optional[str]:
    """The did a page-header line opens; None for any other line."""
    if not line.startswith(PAGE_PREFIX):
        return None
    return json.loads(line)[ReuseFileWriter.PAGE_MARKER]


def _records(lines: List[bytes]) -> List[Dict[str, Any]]:
    """Parse a group's record lines (one ``json.loads`` call)."""
    if not lines:
        return []
    records = json.loads(b"[" + b",".join(lines) + b"]")
    if len(records) != len(lines):
        raise ValueError("malformed record line in a page group")
    return records


def parse_inputs(did: str, lines: List[bytes]) -> List[InputTuple]:
    """The input tuples of one I group's record lines; ValueError if a
    record is malformed."""
    try:
        return [InputTuple(tid=r["t"], did=did, s=r["s"], e=r["e"],
                           c=r.get("c", ""))
                for r in _records(lines)]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed input record: {exc!r}") from exc


def parse_outputs(lines: List[bytes]) -> List[OutputTuple]:
    """The output tuples of one O group's record lines; ValueError if a
    record is malformed (including a field that is not
    ``[name, kind, a, b]``)."""
    try:
        return [OutputTuple(tid=r["t"], itid=r["i"],
                            fields=tuple((name, kind, a, b)
                                         for name, kind, a, b in r["f"]))
                for r in _records(lines)]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed output record: {exc!r}") from exc


def check_framed(lines: List[bytes]) -> List[bytes]:
    """``lines`` unchanged if each is a whole record line — ``{"t"``
    through its newline — else ValueError (a torn or corrupt file).
    Groups that may be copied out unparsed must pass this."""
    for line in lines:
        if not (line.startswith(RECORD_PREFIX) and line.endswith(b"\n")):
            raise ValueError(f"torn record line {line[:40]!r}")
    return lines


def group_outputs_by_input(outputs: List[OutputTuple]
                           ) -> Dict[int, List[OutputTuple]]:
    grouped: Dict[int, List[OutputTuple]] = {}
    for out in outputs:
        grouped.setdefault(out.itid, []).append(out)
    return grouped


class UnitGroups:
    """One unit's recorded I and O page groups for one page.

    The inputs are parsed on construction, since every identity guard
    reads them. The outputs stay raw lines until a unit that copies
    from them calls :meth:`outputs`, and a page recycle copies both
    groups out byte for byte (:meth:`raw`), so both must be framed
    record lines. A framed line that is still not a record surfaces as
    a ValueError from :meth:`outputs`, and the caller runs the unit
    from scratch on the page instead.
    """

    __slots__ = ("inputs", "i_lines", "o_lines")

    def __init__(self, did: str, i_lines: List[bytes],
                 o_lines: List[bytes]) -> None:
        self.i_lines = check_framed(i_lines)
        self.o_lines = check_framed(o_lines)
        self.inputs = parse_inputs(did, i_lines)

    def outputs(self) -> Dict[int, List[OutputTuple]]:
        """Recorded outputs grouped by input tid."""
        return group_outputs_by_input(parse_outputs(self.o_lines))

    def raw(self) -> Tuple[bytes, bytes]:
        """The I and O groups' record bytes, as read."""
        return b"".join(self.i_lines), b"".join(self.o_lines)


def iter_page_lines(path: str, dids: Optional[Iterable[str]] = None
                    ) -> Iterator[Tuple[str, List[bytes]]]:
    """Stream ``(did, raw record lines)`` per page group of a file.

    With ``dids``, only those groups are collected, found by the exact
    header bytes the writer emits; nothing else in the file is parsed.
    """
    wanted = (None if dids is None
              else {page_marker(did): did for did in dids})
    with open(path, "rb") as f:
        did: Optional[str] = None
        lines: List[bytes] = []
        keep = False
        for line in f:
            if line.startswith(PAGE_PREFIX):
                if keep:
                    yield did, lines  # type: ignore[misc]
                did = _page_of(line) if wanted is None else wanted.get(line)
                lines = []
                keep = did is not None
            elif keep:
                lines.append(line)
        if keep:
            yield did, lines  # type: ignore[misc]


def iter_all_pages(path: str) -> Iterator[Tuple[str, List[Dict[str, Any]]]]:
    """Debug/analysis helper: stream (did, records) for a whole file."""
    for did, lines in iter_page_lines(path):
        yield did, _records(lines)
