"""Reuse files: append-only group segments behind a per-snapshot page
table (Section 4).

While a tree executes on snapshot ``n``, every IE unit U records its
input tuples (``I_U^n``) and output tuples (``O_U^n``) one page group at
a time. A snapshot's capture is a directory holding:

* ``pages.table``, the page table: for every page, in canonical order,
  and every unit, where that unit's I and O groups live, as one entry
  ``[serial, I offset, I length, O offset, O length, O count]``.
  ``serial`` names the capture whose segments hold the bytes; a unit
  that recorded nothing on the page has no entry (``null``);
* per unit, an I and an O *segment* (``<uid>.I.reuse``,
  ``<uid>.O.reuse``): only the groups this snapshot appended, through a
  one-block memory buffer (:class:`BlockWriter`), so the write cost is
  the appended bytes in blocks.

One storage rule holds for every page: a unit's groups that are
byte-equal to the paired page's previous groups keep the previous table
entry; any other groups are appended. A recycled page is therefore one
entry copy per unit, with no read and no write. Changed pages append
in canonical order, so their groups are still written and read
sequentially (Section 5.2). The table is written last, through a
temporary file and ``os.replace``, and ends with a CRC-32 of its bytes:
a capture without a whole table is no capture at all.

Once the segments a table references hold more than twice its live
bytes (dead groups of pages that changed since), the next capture
appends every group (a full capture), so the segments that a retained
table keeps alive stay bounded.

Record format: every group is the unit's JSON record lines on one page,
``{"t":<tid>,...}``. Tuple ids are page-local: they count from 0 in
every group, and a tid is only ever referenced inside its own group (an
O record's ``"i"``, a match segment's ``q_itid``). A group's bytes
therefore depend only on its page's records, which is what lets a table
entry stand for the same group in any later capture. A
:class:`PageRecorder` encodes a page's groups record by record.

A group stays bytes until a caller needs its records: a
:class:`UnitGroups` reads its groups on first use, parses its I records
on first use, and its O records only when a unit copies from them.
"""

from __future__ import annotations

import json
import os
import sys
import zlib
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import (
    Any,
    Dict,
    FrozenSet,
    IO,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..text.span import Interval

BLOCK_SIZE = 4096

#: File name of a capture's page table.
TABLE_NAME = "pages.table"

#: Byte prefix of a page-header line and of a tuple-record line.
PAGE_PREFIX = b'{"@page":'
RECORD_PREFIX = b'{"t"'
#: What precedes every record line but its group's first.
_NEXT_RECORD = b"\n" + RECORD_PREFIX

#: One page's capture: ``uid -> (I group bytes, O group bytes)``, the
#: record lines of the unit's two page groups. A unit missing from the
#: dict recorded nothing on the page.
PageGroups = Dict[str, Tuple[bytes, bytes]]

#: One unit's groups on one page, as the page table holds them:
#: ``[serial, I offset, I length, O offset, O length, O count]``.
Entry = Sequence[int]

#: One page's table row: an entry (or None) per unit, in table order.
Row = List[Optional[Entry]]


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


class PageRecorder:
    """Records one page's capture as :data:`PageGroups`.

    Every record is encoded exactly as its group holds it. Tids count
    from 0 per unit and group: inputs in the I group, outputs in the O
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
    """The page-header line that opened ``did``'s group in the
    one-file-per-unit layout. The table needs no headers; the
    optimizer's block counts still include them (see
    :attr:`CaptureWriter.logical_bytes`)."""
    return PAGE_PREFIX + json.dumps(did).encode() + b"}\n"


def safe_filename(uid: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "._-" else "_" for ch in uid)


@lru_cache(maxsize=1024)
def segment_name(uid: str, side: str) -> str:
    """File name of unit ``uid``'s ``side`` ("I" or "O") segment (a
    table names every segment it references once per snapshot, over a
    handful of units)."""
    return f"{safe_filename(uid)}.{side}.reuse"


# -- the page table -----------------------------------------------------------

#: Integers per table entry, and the entry of a unit that recorded
#: nothing on a page (a negative serial).
ENTRY_FIELDS = 6
_NO_ENTRY = (-1, 0, 0, 0, 0, 0)


def _to_disk(entries: array) -> bytes:
    if sys.byteorder == "little":
        return entries.tobytes()
    swapped = array("q", entries)
    swapped.byteswap()
    return swapped.tobytes()


def _from_disk(data: bytes) -> array:
    entries = array("q")
    entries.frombytes(data)
    if sys.byteorder != "little":
        entries.byteswap()
    return entries


@dataclass
class PageTable:
    """One capture's page table (see the module docstring).

    ``dirs`` maps every serial the table references to the directory
    holding that capture's segments, relative to the table's own
    directory (``"."`` for its own serial); ``segments`` gives each
    referenced ``(serial, uid)`` segment pair's (I, O) sizes in bytes.
    ``dids`` lists the pages in canonical order and ``entries`` holds
    their rows back to back: :data:`ENTRY_FIELDS` integers per unit, in
    ``units`` order.

    On disk: one JSON line with everything but the entries, the entries
    as little-endian 64-bit integers, then a line with the CRC-32 of
    all bytes before it.
    """

    serial: int
    units: List[str]
    dirs: Dict[int, str]
    segments: Dict[Tuple[int, str], Tuple[int, int]]
    dids: List[str]
    entries: array
    live_bytes: int

    def __post_init__(self) -> None:
        self._index: Optional[Dict[str, int]] = None

    def page(self, did: str) -> Optional[int]:
        """``did``'s position in the table, or None if it has no row."""
        if self._index is None:
            self._index = {did: k for k, did in enumerate(self.dids)}
        return self._index.get(did)

    def entry(self, page: int, unit: int) -> Optional[Entry]:
        """The entry of unit number ``unit`` on page number ``page``."""
        start = (page * len(self.units) + unit) * ENTRY_FIELDS
        entry = self.entries[start:start + ENTRY_FIELDS]
        return entry if entry[0] >= 0 else None

    def rows(self) -> Iterator[Tuple[str, Row]]:
        """``(did, row)`` of every page, in table order."""
        n = len(self.units)
        for page, did in enumerate(self.dids):
            yield did, [self.entry(page, unit) for unit in range(n)]

    @property
    def referenced_bytes(self) -> int:
        """Bytes of every segment the table keeps alive."""
        return sum(i + o for i, o in self.segments.values())

    @property
    def appended_bytes(self) -> int:
        """Bytes of the segments this capture appended itself."""
        return sum(i + o for (serial, _uid), (i, o)
                   in self.segments.items() if serial == self.serial)

    @property
    def compact(self) -> bool:
        """Whether the next capture may keep entries of this one: while
        the referenced segments hold at most twice the live bytes."""
        return self.referenced_bytes <= 2 * self.live_bytes

    def summary(self, directory: str) -> "CaptureSummary":
        """What the capture in ``directory`` (this table's) holds."""
        return CaptureSummary(
            appended_bytes=self.appended_bytes, live_bytes=self.live_bytes,
            segment_bytes=self.referenced_bytes,
            segments=frozenset(self.segment_paths(directory).values()))

    def segment_paths(self, directory: str
                      ) -> Dict[Tuple[int, str, str], str]:
        """``(serial, uid, side) -> path`` of every non-empty segment
        the table references; ``directory`` is the table's own."""
        dirs = {serial: os.path.normpath(os.path.join(directory, d))
                + os.sep for serial, d in self.dirs.items()}
        return {(serial, uid, side): dirs[serial] + segment_name(uid, side)
                for (serial, uid), sizes in self.segments.items()
                for side, size in zip("IO", sizes) if size}

    def to_bytes(self) -> bytes:
        head = json.dumps({
            "serial": self.serial,
            "units": self.units,
            "dirs": sorted(self.dirs.items()),
            "segments": [[serial, uid, i, o] for (serial, uid), (i, o)
                         in sorted(self.segments.items())],
            "live_bytes": self.live_bytes,
            "dids": self.dids,
        }, separators=(",", ":")).encode()
        body = head + b"\n" + _to_disk(self.entries)
        return body + b"\n%08x\n" % zlib.crc32(body)

    @classmethod
    def from_bytes(cls, data: bytes) -> "PageTable":
        """Parse a table's bytes; ValueError if they are torn, fail
        their checksum or do not have the table's shape."""
        body, crc = data[:-10], data[-10:]
        if (len(data) < 10 or crc[:1] != b"\n" or crc[-1:] != b"\n"
                or crc[1:-1] != b"%08x" % zlib.crc32(body)):
            raise ValueError("page table torn or corrupt (checksum)")
        head, _, entries = body.partition(b"\n")
        doc = json.loads(head)
        try:
            units = [_str(uid) for uid in doc["units"]]
            dids = [_str(did) for did in doc["dids"]]
            if len(entries) != 8 * ENTRY_FIELDS * len(units) * len(dids):
                raise ValueError("page table entries of the wrong size")
            return cls(
                serial=_count(doc["serial"]), units=units,
                dirs={_count(s): _str(d) for s, d in doc["dirs"]},
                segments={(_count(s), _str(uid)): (_count(i), _count(o))
                          for s, uid, i, o in doc["segments"]},
                dids=dids, entries=_from_disk(entries),
                live_bytes=_count(doc["live_bytes"]))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed page table: {exc!r}") from exc

    def save(self, directory: str) -> None:
        """Write the table last and atomically: a temporary file, then
        ``os.replace``."""
        path = os.path.join(directory, TABLE_NAME)
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(self.to_bytes())
        os.replace(tmp, path)

    @classmethod
    def load(cls, directory: str) -> "PageTable":
        """The table of the capture in ``directory``; OSError if there
        is none, ValueError if it is not whole."""
        with open(os.path.join(directory, TABLE_NAME), "rb") as f:
            return cls.from_bytes(f.read())


@dataclass(frozen=True)
class CaptureSummary:
    """One written capture, without its pages: the bytes it appended,
    the live bytes its entries point at, the segment bytes it keeps
    alive, and the paths of those segment files."""

    appended_bytes: int
    live_bytes: int
    segment_bytes: int
    segments: FrozenSet[str]

    def to_dict(self) -> Dict[str, int]:
        return {"appended_bytes": self.appended_bytes,
                "live_bytes": self.live_bytes,
                "segment_bytes": self.segment_bytes}


def _str(value: object) -> str:
    if type(value) is not str:
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _count(value: object) -> int:
    if type(value) is not int or value < 0:
        raise TypeError(f"expected a count, got {value!r}")
    return value


class CaptureWriter:
    """Writes one snapshot's capture: segments while the pages go by,
    the page table when :meth:`close` is called.

    ``prev`` is the table of the capture the run reads (None: none),
    ``prev_dir`` its directory. The layout depends only on the logical
    capture and ``prev``: every engine path and backend writes the same
    bytes.
    """

    def __init__(self, directory: str, uids: Sequence[str],
                 prev: Optional[PageTable] = None,
                 prev_dir: Optional[str] = None) -> None:
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.uids = list(uids)
        self.serial = prev.serial + 1 if prev is not None else 0
        self._prev = prev
        self._prev_dir = prev_dir
        #: Whether every group is appended: no previous table, or one
        #: whose segments have grown past the compaction bound.
        self.full = prev is None or not prev.compact
        #: Whether a previous row lines up with this table's units, so
        #: that a recycled page's row can be copied whole.
        self._same_units = prev is not None and prev.units == self.uids
        self._writers: Dict[Tuple[str, str], BlockWriter] = {}
        self._dids: List[str] = []
        self._entries = array("q")
        #: uid -> [I bytes, O bytes] of the logical capture, set by
        #: :meth:`close`: every page's groups plus a page header per
        #: group, the size the one-file-per-unit layout wrote (the
        #: optimizer's b and c).
        self.logical_bytes: Dict[str, List[int]] = {}

    def write_page(self, did: str, groups: Optional[PageGroups],
                   prev: "PageCapture") -> None:
        """Store one page: ``groups`` are its recorded groups, or None
        for a recycled page, whose groups are ``prev``'s (the previous
        capture of the paired page)."""
        self._dids.append(did)
        if groups is None and not self.full and self._same_units:
            row = prev.row()
            if row is not None:
                self._entries.extend(row)
                return
        for uid in self.uids:
            old = prev.get(uid)
            if groups is None:
                entry = old.entry
                if entry is not None and self.full:
                    try:
                        entry = self._append(uid, old.i_data, old.o_data,
                                             entry[5])
                    except ValueError:
                        pass  # unreadable now: keep referencing it
            else:
                i_data, o_data = groups.get(uid, (b"", b""))
                if not i_data and not o_data:
                    entry = None
                elif (not self.full and old is not None
                      and old.same_bytes(i_data, o_data)):
                    entry = old.entry
                else:
                    entry = self._append(uid, i_data, o_data,
                                         o_data.count(b"\n"))
            self._entries.extend(_NO_ENTRY if entry is None else entry)

    def _append(self, uid: str, i_data: bytes, o_data: bytes,
                o_count: int) -> Entry:
        entry = [self.serial]
        for side, data in (("I", i_data), ("O", o_data)):
            writer = self._writers.get((uid, side))
            if writer is None and data:
                writer = self._writers[(uid, side)] = BlockWriter(
                    os.path.join(self.directory, segment_name(uid, side)))
            offset = writer.bytes_written if writer is not None else 0
            if data:
                writer.append_bytes(data)
            entry += (offset, len(data))
        entry.append(o_count)
        return entry

    def close(self) -> CaptureSummary:
        """Close the segments, then write the table; returns what the
        capture holds."""
        for writer in self._writers.values():
            writer.close()
        entries, step = self._entries, ENTRY_FIELDS * len(self.uids)
        headers = _headers_bytes(self._dids)
        dirs: Dict[int, str] = {}
        segments: Dict[Tuple[int, str], Tuple[int, int]] = {}
        for k, uid in enumerate(self.uids):
            base = k * ENTRY_FIELDS
            self.logical_bytes[uid] = [
                headers + sum(entries[base + 2::step]),
                headers + sum(entries[base + 4::step])]
            for serial in set(entries[base::step]) - {-1}:
                if serial == self.serial:
                    dirs[serial] = "."
                    segments[(serial, uid)] = tuple(
                        self._writers[(uid, side)].bytes_written
                        if (uid, side) in self._writers else 0
                        for side in "IO")
                    continue
                prev, prev_dir = self._prev, self._prev_dir
                assert prev is not None and prev_dir is not None
                segments[(serial, uid)] = prev.segments[(serial, uid)]
                if serial not in dirs:
                    dirs[serial] = os.path.relpath(
                        os.path.join(prev_dir, prev.dirs[serial]),
                        self.directory)
        table = PageTable(
            serial=self.serial, units=self.uids, dirs=dirs,
            segments=segments, dids=self._dids, entries=entries,
            live_bytes=sum(entries[2::ENTRY_FIELDS])
            + sum(entries[4::ENTRY_FIELDS]))
        table.save(self.directory)
        return table.summary(self.directory)

    def abort(self) -> None:
        """Close the segments without writing a table."""
        for writer in self._writers.values():
            writer.close()


def _headers_bytes(dids: Sequence[str]) -> int:
    """The bytes of every page's :func:`page_marker`, summed: the
    compact JSON list of the dids minus its brackets and commas, plus
    each marker's prefix and closing ``}\n``."""
    if not dids:
        return 0
    listed = len(json.dumps(list(dids), separators=(",", ":")))
    return listed - 2 - (len(dids) - 1) + len(dids) * (len(PAGE_PREFIX) + 2)


class ReuseFileReader:
    """A capture read through its page table, one group at a time.

    The table is loaded once; every referenced segment is ``stat``-ed
    once, and a segment whose size is not the one the table recorded
    (torn, truncated, appended to) leaves every group in it unreadable.
    Only the referenced byte ranges are read (``pread``), never whole
    segments. ``bytes_read`` counts them. ``uids`` are the units a run
    asks for (default: the table's). OSError if the directory has no
    table, ValueError if its table is not whole.
    """

    def __init__(self, directory: str,
                 uids: Optional[Sequence[str]] = None) -> None:
        self.directory = directory
        self.table = table = PageTable.load(directory)
        self._paths = table.segment_paths(directory)
        self._bad = set()
        for (serial, uid), sizes in table.segments.items():
            for side, size in zip("IO", sizes):
                path = self._paths.get((serial, uid, side))
                if path is not None and _size(path) != size:
                    self._bad.add((serial, uid))
        self._fds: Dict[Tuple[int, str, str], int] = {}
        self.bytes_read = 0
        wanted = table.units if uids is None else list(uids)
        position = {uid: k for k, uid in enumerate(table.units)}
        #: uid -> table position, for the asked units the table knows.
        self._units = {uid: position[uid] for uid in wanted
                       if uid in position}
        self._complete = len(self._units) == len(wanted)
        #: Whether the asked units are the table's, in its order, so
        #: that a row can be copied whole.
        self._whole_rows = wanted == table.units

    def capture(self, did: str) -> "PageCapture":
        """The capture of page ``did`` (empty if the table has none)."""
        page = self.table.page(did)
        return (PageCapture(did, self, page) if page is not None
                else PageCapture(did))

    def unit_groups(self, did: str, page: int, uid: str
                    ) -> Optional["UnitGroups"]:
        """Unit ``uid``'s groups on page number ``page``, or None if
        the table does not know the unit or its groups are unreadable."""
        k = self._units.get(uid)
        if k is None:
            return None
        entry = self.table.entry(page, k)
        if not self.readable(uid, entry):
            return None
        return UnitGroups(did, entry=entry, reader=self, uid=uid)

    def complete_on(self, page: int) -> bool:
        """Whether every asked unit's groups on page number ``page``
        are readable."""
        if not self._complete:
            return False
        return not self._bad or all(
            self.readable(uid, self.table.entry(page, k))
            for uid, k in self._units.items())

    def output_count(self, page: int) -> int:
        """The asked units' output records on page number ``page``."""
        row = self.row(page)
        if row is not None:
            return sum(row[5::ENTRY_FIELDS])  # an empty entry counts 0
        entry = self.table.entry
        return sum(e[5] for e in (entry(page, k)
                                  for k in self._units.values()) if e)

    def row(self, page: int) -> Optional[Entry]:
        """Page number ``page``'s whole row, when the asked units are
        the table's (else None)."""
        if not self._whole_rows:
            return None
        step = ENTRY_FIELDS * len(self.table.units)
        return self.table.entries[page * step:(page + 1) * step]

    def readable(self, uid: str, entry: Optional[Entry]) -> bool:
        """Whether the groups behind ``entry`` can be read."""
        return entry is None or (entry[0], uid) not in self._bad

    def read_group(self, uid: str, entry: Optional[Entry],
                   side: str) -> bytes:
        """The ``side`` group's bytes behind ``entry``; ValueError if
        they cannot be read whole."""
        if entry is None:
            return b""
        offset, length = (entry[1], entry[2]) if side == "I" else (
            entry[3], entry[4])
        if not length:
            return b""
        key = (entry[0], uid, side)
        try:
            fd = self._fds.get(key)
            if fd is None:
                fd = self._fds[key] = os.open(self._paths[key], os.O_RDONLY)
            data = os.pread(fd, length, offset)
        except (OSError, KeyError) as exc:
            raise ValueError(f"unreadable group of {uid}: {exc!r}") from exc
        if len(data) != length:
            raise ValueError(f"short group of {uid}")
        self.bytes_read += length
        return data

    def close(self) -> None:
        for fd in self._fds.values():
            os.close(fd)
        self._fds.clear()


class PageCapture:
    """One page's previous capture, per unit.

    Through a reader, a unit's :class:`UnitGroups` are built on first
    use, and a recycled page's row is copied whole without building
    any; a copy that crossed a pickle holds every readable unit's
    groups as bytes. Without a reader and groups it is empty: no unit
    has a readable capture.
    """

    __slots__ = ("did", "_reader", "_page", "_groups")

    def __init__(self, did: str, reader: Optional[ReuseFileReader] = None,
                 page: int = 0,
                 groups: Optional[Dict[str, "UnitGroups"]] = None) -> None:
        self.did = did
        self._reader = reader
        self._page = page
        self._groups: Dict[str, UnitGroups] = groups or {}

    def get(self, uid: str, default: Optional["UnitGroups"] = None
            ) -> Optional["UnitGroups"]:
        """Unit ``uid``'s groups, or ``default`` if not readable."""
        groups = self._groups.get(uid)
        if groups is None and self._reader is not None:
            groups = self._reader.unit_groups(self.did, self._page, uid)
            if groups is not None:
                self._groups[uid] = groups
        return groups if groups is not None else default

    def complete(self) -> bool:
        """Whether every unit of the run has a readable capture here."""
        return self._reader is not None and self._reader.complete_on(
            self._page)

    def output_count(self) -> int:
        """How many output records the units' O groups hold."""
        if self._reader is None:
            return sum(g.output_count() for g in self._groups.values())
        return self._reader.output_count(self._page)

    def row(self) -> Optional[Entry]:
        """The page's whole table row, if it can be copied as is."""
        return self._reader.row(self._page) if self._reader else None

    def load(self) -> "PageCapture":
        """Build and read every readable unit's groups now (before the
        capture crosses a thread or a pickle)."""
        if self._reader is not None:
            for uid in self._reader._units:
                groups = self.get(uid)
                if groups is not None:
                    groups.load()
        return self

    def __getstate__(self) -> Tuple[str, Dict[str, "UnitGroups"]]:
        self.load()
        return self.did, self._groups

    def __setstate__(self, state: Tuple[str, Dict[str, "UnitGroups"]]
                     ) -> None:
        self.did, self._groups = state
        self._reader = None
        self._page = 0


def _size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return -1


def check_framed(data: bytes) -> bytes:
    """``data`` unchanged if it is whole record lines — each ``{"t"``
    through its newline — else ValueError (a torn or corrupt group)."""
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
    """One unit's recorded I and O page groups for one page.

    Over a table entry (``reader`` given), the bytes are read on first
    use, so a recycled page, which only copies ``entry``, reads
    nothing; over bytes (a worker's copy, a test), they are what it
    holds. The inputs are parsed on the first :attr:`inputs` read and
    the outputs whenever :meth:`outputs` is called; a group that cannot
    be read or parsed surfaces there as a ValueError, and the caller
    runs the unit from scratch on the page instead.
    """

    __slots__ = ("did", "uid", "entry", "_reader", "_i", "_o", "_inputs")

    def __init__(self, did: str, i_data: bytes = b"", o_data: bytes = b"",
                 entry: Optional[Entry] = None,
                 reader: Optional[ReuseFileReader] = None,
                 uid: str = "") -> None:
        self.did = did
        self.uid = uid
        self.entry = entry
        self._reader = reader
        self._i: Optional[bytes] = i_data if reader is None else None
        self._o: Optional[bytes] = o_data if reader is None else None
        self._inputs: Optional[List[InputTuple]] = None

    def _read(self, side: str) -> bytes:
        if self._reader is None:
            raise ValueError(f"unreadable {side} group of {self.uid}")
        return self._reader.read_group(self.uid, self.entry, side)

    @property
    def i_data(self) -> bytes:
        if self._i is None:
            self._i = self._read("I")
        return self._i

    @property
    def o_data(self) -> bytes:
        if self._o is None:
            self._o = self._read("O")
        return self._o

    def load(self) -> "UnitGroups":
        """Read both groups now (before the groups cross a thread or a
        pickle); a group that cannot be read is left to fail on use."""
        try:
            self._i, self._o = self.i_data, self.o_data
        except ValueError:
            pass
        return self

    def __getstate__(self) -> Tuple[Any, ...]:
        self.load()
        return (self.did, self.uid, self.entry, self._i, self._o)

    def __setstate__(self, state: Tuple[Any, ...]) -> None:
        self.did, self.uid, self.entry, self._i, self._o = state
        self._reader = None
        self._inputs = None

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
        if self.entry is not None:
            return self.entry[5]
        return self.o_data.count(b"\n")

    def same_bytes(self, i_data: bytes, o_data: bytes) -> bool:
        """Whether these groups are byte-equal to ``i_data``/``o_data``
        (lengths first, from the entry; then the bytes)."""
        entry = self.entry
        if entry is None or entry[2] != len(i_data) \
                or entry[4] != len(o_data):
            return False
        try:
            return self.i_data == i_data and self.o_data == o_data
        except ValueError:
            return False


def iter_unit_groups(directory: str, uid: str
                     ) -> Iterator[Tuple[str, bytes, bytes]]:
    """``(did, I group, O group)`` of unit ``uid`` on every page of the
    capture in ``directory``, in table order. ValueError if the table
    or a group cannot be read; a unit the table does not know has
    empty groups."""
    reader = ReuseFileReader(directory)
    try:
        units = reader.table.units
        k = units.index(uid) if uid in units else None
        for did, row in reader.table.rows():
            entry = row[k] if k is not None else None
            if not reader.readable(uid, entry):
                raise ValueError(f"unreadable segment of {uid} on {did!r}")
            yield (did, reader.read_group(uid, entry, "I"),
                   reader.read_group(uid, entry, "O"))
    finally:
        reader.close()
