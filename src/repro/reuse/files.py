"""Block-buffered reuse files, each read whole in one pass (Section 4).

While a tree executes on snapshot ``n``, every IE unit U appends its
input tuples to ``I_U^n`` and its output tuples to ``O_U^n``. Appends
go through a one-block memory buffer per file; a block is flushed when
full, so the I/O overhead is exactly the file size in blocks. A file
is later read once, with one ``read()``, and indexed by page header;
that is what lets the reuse engine scan every file exactly once per
snapshot (Section 5.2), whatever order the pages are then asked for in.

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

A group stays bytes until a caller needs its records: the reader
decodes only page headers, and a :class:`UnitGroups` checks its
groups' framing with byte operations and parses its I records on
first use and its O records only when a unit copies from them.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple

from ..text.span import Interval

BLOCK_SIZE = 4096

#: Byte prefix of a page-header line and of a tuple-record line.
PAGE_PREFIX = b'{"@page":'
RECORD_PREFIX = b'{"t"'
#: What precedes every record line but its group's first.
_NEXT_RECORD = b"\n" + RECORD_PREFIX

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

    def write_page(self, header: bytes, data: bytes) -> None:
        """Append one page group: ``header``, the page's
        :func:`page_marker`, then ``data``, the group's record lines
        (one side of a :data:`PageGroups` entry)."""
        self._writer.append_bytes(header + data)

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


def page_marker(did: str) -> bytes:
    """The page-header line the writer emits for ``did``."""
    return PAGE_PREFIX + json.dumps(did).encode() + b"}\n"


def _parse_header(line: bytes) -> str:
    """The did a page-header line (without its newline) opens, through
    ``json.loads``; ValueError if it is not a page header."""
    try:
        did = json.loads(line)[ReuseFileWriter.PAGE_MARKER]
    except (KeyError, TypeError):
        did = None
    if not isinstance(did, str):
        raise ValueError(f"malformed page header {line[:40]!r}")
    return did


#: A page-header line. A did of printable ASCII other than a quote or
#: a backslash, which JSON encodes as itself, is captured from the
#: writer's bytes; any other header is decoded by :func:`_parse_header`.
#: The last group is the line's newline, empty if the header is torn.
_HEADER = re.compile(rb'^\{"@page":(?:"([ !#-\[\]-~]*)"\}$|.*)(\n?)', re.M)


def _index_groups(data: bytes) -> Iterator[Tuple[str, int, int]]:
    """``(did, start, end)`` of every page group in a reuse file's
    bytes, in file order: ``data[start:end]`` are the group's record
    lines. ValueError if the bytes do not open with a page header or a
    header line is torn or malformed."""
    if data and not data.startswith(PAGE_PREFIX):
        raise ValueError("reuse file does not open with a page header")
    did: Optional[str] = None
    start = 0
    for match in _HEADER.finditer(data):
        if did is not None:
            yield did, start, match.start()
        plain, newline = match.groups()
        if not newline:
            raise ValueError(f"torn page header {match.group()[:40]!r}")
        did = (plain.decode() if plain is not None
               else _parse_header(match.group()[:-1]))
        start = match.end()
    if did is not None:
        yield did, start, len(data)


class ReuseFileReader:
    """A reuse file read whole, one ``read()``, serving any page group
    in any order.

    ``bytes_read`` counts the file's actual bytes (the block-based I/O
    cost model needs bytes, not characters). The headers are decoded
    when the file is read, so a torn or foreign header raises
    ValueError here; groups stay raw bytes.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as f:
            self._data = f.read()
        self.bytes_read = len(self._data)
        #: did -> (start, end) of the page group's record bytes.
        self._groups = {did: (start, end)
                        for did, start, end in _index_groups(self._data)}

    def dids(self) -> List[str]:
        """The pages the file holds a group for, in file order."""
        return list(self._groups)

    def read_group(self, did: str) -> bytes:
        """The record bytes of ``did``'s page group; b"" if absent."""
        bounds = self._groups.get(did)
        if bounds is None:
            return b""
        return self._data[bounds[0]:bounds[1]]

    def close(self) -> None:
        """Drop the file's bytes."""
        self._data = b""
        self._groups = {}

    @property
    def blocks_read(self) -> int:
        return (self.bytes_read + BLOCK_SIZE - 1) // BLOCK_SIZE


def check_framed(data: bytes) -> bytes:
    """``data`` unchanged if it is whole record lines — each ``{"t"``
    through its newline — else ValueError (a torn or corrupt file).
    Groups that may be copied out unparsed must pass this."""
    if data and not (data.startswith(RECORD_PREFIX) and data.endswith(b"\n")
                     and data.count(b"\n")
                     == data.count(_NEXT_RECORD) + 1):
        raise ValueError(f"torn record line in {data[:40]!r}")
    return data


def _records(data: bytes) -> List[Dict[str, Any]]:
    """Parse a group's record lines (one ``json.loads`` call);
    ValueError if the group is not framed or a line is not one record."""
    if not check_framed(data):
        return []
    records = json.loads(b"[" + data[:-1].replace(b"\n", b",") + b"]")
    if len(records) != data.count(b"\n"):
        raise ValueError("malformed record line in a page group")
    return records


def parse_inputs(did: str, data: bytes) -> List[InputTuple]:
    """The input tuples of one I group's bytes; ValueError if a record
    is malformed."""
    try:
        return [InputTuple(tid=r["t"], did=did, s=r["s"], e=r["e"],
                           c=r.get("c", ""))
                for r in _records(data)]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed input record: {exc!r}") from exc


def parse_outputs(data: bytes) -> List[OutputTuple]:
    """The output tuples of one O group's bytes; ValueError if a record
    is malformed (including a field that is not ``[name, kind, a, b]``)."""
    try:
        return [OutputTuple(tid=r["t"], itid=r["i"],
                            fields=tuple((name, kind, a, b)
                                         for name, kind, a, b in r["f"]))
                for r in _records(data)]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed output record: {exc!r}") from exc


def group_outputs_by_input(outputs: List[OutputTuple]
                           ) -> Dict[int, List[OutputTuple]]:
    grouped: Dict[int, List[OutputTuple]] = {}
    for out in outputs:
        grouped.setdefault(out.itid, []).append(out)
    return grouped


class UnitGroups:
    """One unit's recorded I and O page groups for one page, as bytes.

    Both groups must be framed record lines (:func:`check_framed`),
    since a page recycle copies them out byte for byte. The inputs are
    parsed on the first :attr:`inputs` read and the outputs whenever
    :meth:`outputs` is called; a framed line that is still not a record
    surfaces there as a ValueError, and the caller runs the unit from
    scratch on the page instead.
    """

    __slots__ = ("did", "i_data", "o_data", "_inputs")

    def __init__(self, did: str, i_data: bytes, o_data: bytes) -> None:
        self.did = did
        self.i_data = check_framed(i_data)
        self.o_data = check_framed(o_data)
        self._inputs: Optional[List[InputTuple]] = None

    @property
    def inputs(self) -> List[InputTuple]:
        """The recorded input tuples, parsed once."""
        if self._inputs is None:
            self._inputs = parse_inputs(self.did, self.i_data)
        return self._inputs

    def outputs(self) -> Dict[int, List[OutputTuple]]:
        """Recorded outputs grouped by input tid."""
        return group_outputs_by_input(parse_outputs(self.o_data))

    def output_count(self) -> int:
        """How many output records the O group holds."""
        return self.o_data.count(b"\n")


def iter_groups(path: str) -> Iterator[Tuple[str, bytes]]:
    """``(did, record bytes)`` of every page group of a file, in file
    order (a duplicated page shows twice)."""
    with open(path, "rb") as f:
        data = f.read()
    for did, start, end in _index_groups(data):
        yield did, data[start:end]


def iter_all_pages(path: str) -> Iterator[Tuple[str, List[Dict[str, Any]]]]:
    """Debug/analysis helper: stream (did, records) for a whole file."""
    for did, data in iter_groups(path):
        yield did, _records(data)
