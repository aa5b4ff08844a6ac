"""Capture files: block-buffered segments behind a page table — group
round trips, ranged reads, the table's checksum and shape, framing,
accounting."""

import io
import json
import os
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reuse.files import (
    BLOCK_SIZE,
    TABLE_NAME,
    BlockWriter,
    CaptureWriter,
    InputTuple,
    OutputTuple,
    PageCapture,
    PageRecorder,
    PageTable,
    ReuseFileReader,
    UnitGroups,
    check_framed,
    decode_fields,
    encode_fields,
    group_outputs_by_input,
    iter_unit_groups,
    page_marker,
    parse_inputs,
    parse_outputs,
)
from repro.text.span import Span


class TestBlockWriter:
    def test_buffers_until_block(self, tmp_path):
        path = str(tmp_path / "w.dat")
        writer = BlockWriter(path)
        writer.append_bytes(b'{"x":1}\n')
        assert os.path.getsize(path) == 0  # still buffered
        writer.close()
        assert os.path.getsize(path) > 0

    def test_flushes_on_full_block(self, tmp_path):
        path = str(tmp_path / "w.dat")
        writer = BlockWriter(path)
        line = b"y" * 100 + b"\n"
        for _ in range(BLOCK_SIZE // 50):
            writer.append_bytes(line)
        assert writer.flushes >= 1
        writer.close()

    def test_blocks_accounting(self, tmp_path):
        writer = BlockWriter(str(tmp_path / "w.dat"))
        writer.append_bytes(b"a" * (BLOCK_SIZE + 10))
        assert writer.blocks == 2
        writer.close()

    def test_append_after_close_raises(self, tmp_path):
        writer = BlockWriter(str(tmp_path / "w.dat"))
        writer.close()
        with pytest.raises(ValueError):
            writer.append_bytes(b'{"x":1}\n')

    def test_context_manager(self, tmp_path):
        path = str(tmp_path / "w.dat")
        with BlockWriter(path) as writer:
            writer.append_bytes(b'{"k":1}\n')
        assert json.loads(open(path).read()) == {"k": 1}


class TestFieldCodec:
    def test_roundtrip(self):
        fields = {"name": Span("q", 3, 9), "count": 4, "flag": "yes"}
        encoded = encode_fields(fields)
        decoded = decode_fields(encoded, "p")
        assert decoded["name"] == Span("p", 3, 9)
        assert decoded["count"] == 4
        assert decoded["flag"] == "yes"

    def test_encoding_sorted_by_name(self):
        encoded = encode_fields({"z": 1, "a": 2})
        assert [f[0] for f in encoded] == ["a", "z"]


def write_capture(directory, pages, uid="u"):
    """Write a capture of unit ``uid`` holding ``pages``:
    ``(did, [(s, e, c), ...])`` in table order, recorded as I groups;
    returns the tids the recorder assigned, in order."""
    writer = CaptureWriter(str(directory), [uid])
    tids = []
    for did, regions in pages:
        recorder = PageRecorder()
        tids += [recorder.input(uid, s, e, c) for s, e, c in regions]
        writer.write_page(did, recorder.groups(), PageCapture(did))
    writer.close()
    return tids


def write_two_pages(directory):
    return write_capture(directory, [("page1", [(0, 100, ""), (100, 200, "")]),
                                     ("page2", [(0, 50, "")])])


def groups_of(reader, did, uid="u"):
    """Unit ``uid``'s groups on ``did`` through ``reader`` (None if the
    table has no readable capture of them)."""
    return reader.capture(did).get(uid)


class TestReuseFileRoundtrip:
    def test_inputs_grouped_by_page(self, tmp_path):
        t0, t1, t2 = write_two_pages(tmp_path)
        reader = ReuseFileReader(str(tmp_path))
        p1 = groups_of(reader, "page1").inputs
        assert [t.tid for t in p1] == [t0, t1]
        assert p1[0].interval.end == 100
        p2 = groups_of(reader, "page2").inputs
        assert [t.tid for t in p2] == [t2]
        reader.close()

    def test_sequential_skip_of_missing_pages(self, tmp_path):
        write_two_pages(tmp_path)
        reader = ReuseFileReader(str(tmp_path))
        # page1 left the corpus: reading page2 alone must not see its
        # group. Tids are page-local, so page2's first tuple is tid 0.
        got = groups_of(reader, "page2").inputs
        assert [(t.tid, t.s, t.e) for t in got] == [(0, 0, 50)]
        reader.close()

    def test_missing_page_returns_empty(self, tmp_path):
        # A page the table does not list has no capture at all: no
        # unit is readable there, so every unit runs from scratch.
        write_two_pages(tmp_path)
        reader = ReuseFileReader(str(tmp_path))
        assert groups_of(reader, "page1").i_data
        assert groups_of(reader, "page2").i_data
        missing = reader.capture("page3")
        assert missing.get("u") is None
        assert not missing.complete()
        reader.close()

    def test_malformed_framed_records_raise_value_error(self):
        # Framed lines that are not records: the one error type the
        # engine treats as an unusable capture.
        for line in (b'{"t":0,"i":0}\n', b'{"t":0,"i":0,"f":[[\n',
                     b'{"t":0,"i":0,"f":[["x","s",1]]}\n',
                     b'{"t":0,"i":0,"f":5}\n'):
            with pytest.raises(ValueError):
                parse_outputs(line)
        with pytest.raises(ValueError):
            parse_inputs("p", b'{"t":0,"s":1}\n')
        # Unframed bytes never reach json.loads.
        with pytest.raises(ValueError):
            parse_inputs("p", b'{"t":0,"s":1,"e":2,"c":""}')

    def test_outputs_roundtrip(self, tmp_path):
        recorder = PageRecorder()
        tid = recorder.input("u", 5, 9)
        fields = encode_fields({"v": Span("p", 5, 9), "n": 3})
        recorder.output("u", itid=tid, fields=fields)
        writer = CaptureWriter(str(tmp_path), ["u"])
        writer.write_page("p", recorder.groups(), PageCapture("p"))
        writer.close()
        reader = ReuseFileReader(str(tmp_path))
        groups = groups_of(reader, "p")
        outs = parse_outputs(groups.o_data)
        assert len(outs) == 1
        assert outs[0].itid == tid
        assert outs[0].extent() == (5, 9)
        assert groups.output_count() == 1
        reader.close()

    def test_empty_page_group(self, tmp_path):
        write_capture(tmp_path, [("a", []), ("b", [(0, 10, "")])])
        reader = ReuseFileReader(str(tmp_path))
        assert groups_of(reader, "a").entry is None
        assert groups_of(reader, "a").inputs == []
        assert len(groups_of(reader, "b").inputs) == 1
        reader.close()

    def test_write_requires_page_group(self, tmp_path):
        # A segment holds nothing but the groups the table points at:
        # the writer's one call stores a whole page, so no record can
        # land outside a page's group.
        write_capture(tmp_path, [("nowhere", [(0, 5, "")])])
        record = b'{"t":0,"s":0,"e":5,"c":""}\n'
        assert (tmp_path / "u.I.reuse").read_bytes() == record
        assert not (tmp_path / "u.O.reuse").exists()
        table = PageTable.load(str(tmp_path))
        assert table.dids == ["nowhere"]
        assert list(table.entry(0, 0)) == [0, 0, len(record), 0, 0, 0]

    def test_iter_all_pages(self, tmp_path):
        write_two_pages(tmp_path)
        pages = {did: parse_inputs(did, i_data) for did, i_data, _o
                 in iter_unit_groups(str(tmp_path), "u")}
        assert set(pages) == {"page1", "page2"}
        assert len(pages["page1"]) == 2

    def test_unicode_in_c_field(self, tmp_path):
        write_capture(tmp_path, [("p", [(0, 5, 'prefix "quoted" — ünïcode')])])
        reader = ReuseFileReader(str(tmp_path))
        got = groups_of(reader, "p").inputs
        assert got[0].c == 'prefix "quoted" — ünïcode'
        reader.close()


class TestLogicalBytes:
    @given(pages=st.lists(st.tuples(st.text(max_size=10),
                                    st.integers(0, 3)),
                          unique_by=lambda page: page[0], max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_a_page_header_per_group(self, tmp_path_factory, pages):
        # The optimizer's b and c count what the one-file-per-unit
        # layout wrote: every page's group plus its page header, on
        # every page and for every unit, whatever the table shares.
        writer = CaptureWriter(str(tmp_path_factory.mktemp("logical")),
                               ["u", "idle"])
        expected = 0
        for did, n in pages:
            recorder = PageRecorder()
            for i in range(n):
                recorder.input("u", i, i + 1)
            i_data = recorder.groups().get("u", (b"", b""))[0]
            writer.write_page(did, recorder.groups(), PageCapture(did))
            expected += len(page_marker(did)) + len(i_data)
        writer.close()
        headers = sum(len(page_marker(did)) for did, _ in pages)
        assert writer.logical_bytes == {"u": [expected, headers],
                                        "idle": [headers, headers]}


class TestGrouping:
    def test_group_outputs_by_input(self):
        outs = [OutputTuple(0, 5, ()), OutputTuple(1, 5, ()),
                OutputTuple(2, 9, ())]
        grouped = group_outputs_by_input(outs)
        assert {k: len(v) for k, v in grouped.items()} == {5: 2, 9: 1}

    def test_input_tuple_interval(self):
        t = InputTuple(0, "d", 3, 9)
        assert t.interval.start == 3 and t.interval.end == 9


#: A capture in the on-disk format: two pages x two units, one empty
#: group (u2 on "plain"), a non-ASCII page id, span and scalar fields
#: and ``c`` / scalar values with quotes. The segments hold the group
#: record bytes exactly as the one-file-per-unit layout held them after
#: each page header; the table is pinned by its JSON line, its entries
#: and its checksum. Captures written earlier stay readable, and their
#: groups recyclable, only while these bytes hold.
GOLDEN_DID = "página-α"
GOLDEN_SEGMENTS = {
    "u1.I.reuse": (
        b'{"t":0,"s":0,"e":12,"c":""}\n'
        b'{"t":1,"s":12,"e":40,"c":"say \\"hi\\""}\n'
        b'{"t":0,"s":3,"e":9,"c":""}\n'
    ),
    "u1.O.reuse": (
        b'{"t":0,"i":0,"f":[["name", "s", 2, 7], ["year", "v", 1999, null]]}\n'
        b'{"t":1,"i":1,"f":[["name", "s", 14, 20], ["year", "v", 2001, null]]}\n'
        b'{"t":2,"i":1,"f":[["name", "s", 22, 30], ["year", "v", null, null]]}\n'
    ),
    "u2.I.reuse": (
        b'{"t":0,"s":0,"e":40,"c":""}\n'
    ),
    "u2.O.reuse": (
        b'{"t":0,"i":0,"f":[["title", "v", "Dr. \\"Who\\"", null]]}\n'
    ),
}
GOLDEN_TABLE_HEAD = (
    b'{"serial":0,"units":["u1","u2"],"dirs":[[0,"."]],'
    b'"segments":[[0,"u1",94,205],[0,"u2",28,56]],"live_bytes":383,'
    b'"dids":["p\\u00e1gina-\\u03b1","plain"]}'
)
#: [serial, I offset, I length, O offset, O length, O count] per page
#: and unit; serial -1 is a unit that recorded nothing on the page.
GOLDEN_ENTRIES = [0, 0, 67, 0, 205, 3, 0, 0, 28, 0, 56, 1,
                  0, 67, 27, 205, 0, 0, -1, 0, 0, 0, 0, 0]
GOLDEN_CRC = b"bd35895e"


def golden_table():
    body = (GOLDEN_TABLE_HEAD + b"\n"
            + struct.pack(f"<{len(GOLDEN_ENTRIES)}q", *GOLDEN_ENTRIES))
    assert b"%08x" % zlib.crc32(body) == GOLDEN_CRC
    return body + b"\n" + GOLDEN_CRC + b"\n"


def golden_files():
    return {TABLE_NAME: golden_table(), **GOLDEN_SEGMENTS}


def read_tree(directory):
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


class TestGoldenBytes:
    SCRIPT = [
        (GOLDEN_DID, {
            "u1": [(0, 12, "", [{"name": Span(GOLDEN_DID, 2, 7),
                                 "year": 1999}]),
                   (12, 40, 'say "hi"',
                    [{"name": Span(GOLDEN_DID, 14, 20), "year": 2001},
                     {"name": Span(GOLDEN_DID, 22, 30), "year": None}])],
            "u2": [(0, 40, "", [{"title": 'Dr. "Who"'}])]}),
        ("plain", {"u1": [(3, 9, "", [])], "u2": []}),
    ]

    def test_recorded_capture_matches_golden(self, tmp_path):
        writer = CaptureWriter(str(tmp_path), ["u1", "u2"])
        for did, per_unit in self.SCRIPT:
            recorder = PageRecorder()
            for uid, rows in per_unit.items():
                for s, e, c, outs in rows:
                    tid = recorder.input(uid, s, e, c)
                    for fields in outs:
                        recorder.output(uid, tid, encode_fields(fields))
            if did == "plain":
                assert "u2" not in recorder.groups()  # the empty group
            writer.write_page(did, recorder.groups(), PageCapture(did))
        writer.close()
        assert read_tree(tmp_path) == golden_files()

    def test_golden_groups_read_and_recycle_verbatim(self, tmp_path):
        # What a run after an upgrade does with a capture written
        # before it: read each group, recycle every page by reference,
        # then append every group again (a full capture).
        old = tmp_path / "snap_0000"
        old.mkdir()
        for name, data in golden_files().items():
            (old / name).write_bytes(data)
        reader = ReuseFileReader(str(old), ["u1", "u2"])
        page = reader.capture(GOLDEN_DID)
        assert page.get("u1").inputs[1].c == 'say "hi"'
        assert page.get("u2").outputs()[0][0].fields == (
            ("title", "v", 'Dr. "Who"', None),)
        plain = reader.capture("plain").get("u2")
        assert plain.i_data == plain.o_data == b""
        assert reader.capture("plain").complete()

        for name, full in (("snap_0001", False), ("snap_0002", True)):
            writer = CaptureWriter(str(tmp_path / name), ["u1", "u2"],
                                   reader.table, str(old))
            writer.full = full
            for did, _ in self.SCRIPT:
                writer.write_page(did, None, reader.capture(did))
            writer.close()
        reader.close()
        # By reference: a table alone, whose entries are the golden ones
        # and which points at the golden segments.
        assert os.listdir(tmp_path / "snap_0001") == [TABLE_NAME]
        table = PageTable.load(str(tmp_path / "snap_0001"))
        assert list(table.entries) == GOLDEN_ENTRIES
        assert table.dirs == {0: os.path.join("..", "snap_0000")}
        for did, _ in self.SCRIPT:
            assert ([g for _d, *g in iter_unit_groups(
                        str(tmp_path / "snap_0001"), "u1") if _d == did]
                    == [g for _d, *g in iter_unit_groups(str(old), "u1")
                        if _d == did])
        # Appended verbatim: the same segment bytes again.
        full = read_tree(tmp_path / "snap_0002")
        assert {name: data for name, data in full.items()
                if name != TABLE_NAME} == GOLDEN_SEGMENTS


def write_file(path, data):
    with open(path, "wb") as f:
        f.write(data)


def _with_crc(body):
    return body + b"\n%08x\n" % zlib.crc32(body)


def _retable(data, edit):
    """``data``, a table's bytes, with its JSON line edited by ``edit``
    (a function of the parsed line) and a checksum that matches."""
    head, _, rest = data[:-10].partition(b"\n")
    return _with_crc(json.dumps(edit(json.loads(head))).encode()
                     + b"\n" + rest)


def _dids_not_strings(doc):
    doc["dids"] = [5 for _ in doc["dids"]]
    return doc


def _no_dids(doc):
    del doc["dids"]
    return doc


class TestOneReader:
    """The reader loads one page table, reads only the byte ranges the
    table points at, and refuses a table the writer cannot have
    written."""

    def test_groups_in_any_order_from_one_read(self, tmp_path):
        write_capture(tmp_path, [(f"p{i}", [(i, i + 5, "")])
                                 for i in range(5)])
        reader = ReuseFileReader(str(tmp_path))
        assert reader.table.dids == [f"p{i}" for i in range(5)]
        read = 0
        for i in (4, 0, 2, 4):
            groups = groups_of(reader, f"p{i}")
            assert [(t.s, t.e) for t in groups.inputs] == [(i, i + 5)]
            read += len(groups.i_data)
        # Ranged reads only: the bytes of the groups asked for, never
        # the whole segment.
        assert reader.bytes_read == read
        assert reader.bytes_read < 2 * os.path.getsize(
            tmp_path / "u.I.reuse")
        reader.close()

    @given(dids=st.lists(st.text(max_size=12), unique=True, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_any_did_roundtrips(self, tmp_path_factory, dids):
        directory = tmp_path_factory.mktemp("dids")
        write_capture(directory, [(did, [(0, i, "")])
                                  for i, did in enumerate(dids)])
        reader = ReuseFileReader(str(directory))
        assert reader.table.dids == dids
        for i, did in enumerate(dids):
            assert [(t.s, t.e) for t in groups_of(reader, did).inputs] \
                == [(0, i)]
        reader.close()

    @pytest.mark.parametrize("damage", [
        lambda data: b"garbage\n" + data,             # before the table
        lambda data: data[:len(data) // 2],           # torn
        lambda data: _with_crc(data[:-10].replace(b'"units"', b'"units]',
                                                  1)),  # broken JSON
        lambda data: _retable(data, _dids_not_strings),  # did not a string
        lambda data: _retable(data, _no_dids),           # no page list
    ], ids=["garbage-head", "torn-header", "broken-json", "int-did",
            "no-did"])
    def test_damaged_headers_raise(self, tmp_path, damage):
        # The page table is the capture's one header: whatever is
        # wrong with it, there is no capture.
        write_two_pages(tmp_path)
        path = tmp_path / TABLE_NAME
        write_file(path, damage(path.read_bytes()))
        with pytest.raises(ValueError):
            ReuseFileReader(str(tmp_path))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_any_flipped_table_byte_is_caught(self, tmp_path_factory,
                                              data):
        directory = tmp_path_factory.mktemp("flip")
        write_two_pages(directory)
        raw = bytearray((directory / TABLE_NAME).read_bytes())
        at = data.draw(st.integers(0, len(raw) - 1))
        raw[at] ^= data.draw(st.integers(1, 255))
        with pytest.raises(ValueError):
            PageTable.from_bytes(bytes(raw))

    def test_segment_of_another_size_is_unreadable(self, tmp_path):
        # The table records each segment's size; a segment cut short or
        # grown is unreadable as a whole, whatever ranges it still has.
        write_two_pages(tmp_path)
        segment = tmp_path / "u.I.reuse"
        segment.write_bytes(segment.read_bytes() + b"\n")
        reader = ReuseFileReader(str(tmp_path))
        assert groups_of(reader, "page1") is None
        assert not reader.capture("page2").complete()
        reader.close()

    def test_torn_group_is_returned_raw_and_fails_framing(self, tmp_path):
        # The reader does not look inside groups; parsing them does.
        torn = b'{"t":0,"s":0,"e":1,"c"'
        writer = CaptureWriter(str(tmp_path), ["u"])
        writer.write_page("a", {"u": (torn, b"")}, PageCapture("a"))
        writer.close()
        groups = groups_of(ReuseFileReader(str(tmp_path)), "a")
        assert groups.i_data == torn
        with pytest.raises(ValueError):
            groups.inputs

    def test_empty_file_and_empty_groups(self, tmp_path):
        write_capture(tmp_path / "none", [])
        assert ReuseFileReader(str(tmp_path / "none")).table.dids == []
        write_capture(tmp_path / "empty", [("a", []), ("b", [])])
        assert os.listdir(tmp_path / "empty") == [TABLE_NAME]
        reader = ReuseFileReader(str(tmp_path / "empty"))
        assert reader.table.dids == ["a", "b"]
        assert groups_of(reader, "a").i_data \
            == groups_of(reader, "b").i_data == b""

    def test_iter_groups_keeps_file_order_and_duplicates(self, tmp_path):
        # Two pages of a later capture recycle one page's groups (a page
        # copied to a new URL): the table lists both, in its order, and
        # both point at the same bytes.
        write_capture(tmp_path / "snap_0000",
                      [("b", [(0, 1, "")]), ("z", [])])
        reader = ReuseFileReader(str(tmp_path / "snap_0000"))
        writer = CaptureWriter(str(tmp_path / "snap_0001"), ["u"],
                               reader.table, str(tmp_path / "snap_0000"))
        for did, source in (("a", "z"), ("b", "b"), ("c", "b")):
            writer.write_page(did, None, reader.capture(source))
        writer.close()
        reader.close()
        group = b'{"t":0,"s":0,"e":1,"c":""}\n'
        assert list(iter_unit_groups(str(tmp_path / "snap_0001"), "u")) \
            == [("a", b"", b""), ("b", group, b""), ("c", group, b"")]


def _framed_by_lines(data):
    """The line-by-line framing rule: every line, as ``readline``
    splits them, starts with ``{"t"`` and ends with a newline."""
    return all(line.startswith(b'{"t"') and line.endswith(b"\n")
               for line in io.BytesIO(data).readlines())


class TestFraming:
    @given(st.lists(st.sampled_from(
        [b'{"t"', b'{"t":0}', b"\n", b"x", b'{"', b"t", b'"', b"\r"]),
        max_size=12))
    @settings(max_examples=400, deadline=None)
    def test_byte_check_accepts_what_the_line_rule_accepts(self, parts):
        data = b"".join(parts)
        try:
            check_framed(data)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _framed_by_lines(data)

    def test_unit_groups_parse_inputs_once_on_first_use(self):
        groups = UnitGroups("p", b'{"t":0,"s":2,"e":5,"c":""}\n',
                            b'{"t":0,"i":0,"f":[]}\n{"t":1,"i":0,"f":[]}\n')
        assert groups._inputs is None
        assert groups.inputs == [InputTuple(0, "p", 2, 5)]
        assert groups.inputs is groups.inputs
        assert groups.output_count() == 2

    def test_unparsable_inputs_raise_on_use_not_on_read(self):
        groups = UnitGroups("p", b'{"t":9}\n', b"")
        with pytest.raises(ValueError):
            groups.inputs
