"""Reuse file writer/reader: grouping, whole-file reads, framing,
accounting."""

import io
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reuse.files import (
    BLOCK_SIZE,
    BlockWriter,
    InputTuple,
    OutputTuple,
    PageRecorder,
    ReuseFileReader,
    ReuseFileWriter,
    UnitGroups,
    check_framed,
    decode_fields,
    encode_fields,
    group_outputs_by_input,
    iter_all_pages,
    iter_groups,
    page_marker,
    parse_inputs,
    parse_outputs,
)
from repro.reuse.engine import _write_page
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


def write_inputs(path, pages):
    """Write an I file holding ``pages``: ``(did, [(s, e, c), ...])``;
    returns the tids the recorder assigned, in order."""
    writer = ReuseFileWriter(path)
    tids = []
    for did, regions in pages:
        recorder = PageRecorder()
        tids += [recorder.input("u", s, e, c) for s, e, c in regions]
        i_data, _ = recorder.groups().get("u", (b"", b""))
        writer.write_page(page_marker(did), i_data)
    writer.close()
    return tids


def write_two_pages(path):
    return write_inputs(path, [("page1", [(0, 100, ""), (100, 200, "")]),
                               ("page2", [(0, 50, "")])])


class TestReuseFileRoundtrip:
    def test_inputs_grouped_by_page(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        t0, t1, t2 = write_two_pages(path)
        reader = ReuseFileReader(path)
        p1 = parse_inputs("page1", reader.read_group("page1"))
        assert [t.tid for t in p1] == [t0, t1]
        assert p1[0].interval.end == 100
        p2 = parse_inputs("page2", reader.read_group("page2"))
        assert [t.tid for t in p2] == [t2]
        reader.close()

    def test_sequential_skip_of_missing_pages(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_two_pages(path)
        reader = ReuseFileReader(path)
        # page1 left the corpus: reading page2 alone must not see its
        # group. Tids are page-local, so page2's first tuple is tid 0.
        got = parse_inputs("page2", reader.read_group("page2"))
        assert [(t.tid, t.s, t.e) for t in got] == [(0, 0, 50)]
        reader.close()

    def test_missing_page_returns_empty(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_two_pages(path)
        reader = ReuseFileReader(path)
        assert reader.read_group("page1")
        assert reader.read_group("page2")
        assert reader.read_group("page3") == b""
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
        path = str(tmp_path / "u.O.reuse")
        recorder = PageRecorder()
        fields = encode_fields({"v": Span("p", 5, 9), "n": 3})
        recorder.output("u", itid=7, fields=fields)
        writer = ReuseFileWriter(path)
        writer.write_page(page_marker("p"), recorder.groups()["u"][1])
        writer.close()
        reader = ReuseFileReader(path)
        outs = parse_outputs(reader.read_group("p"))
        assert len(outs) == 1
        assert outs[0].itid == 7
        assert outs[0].extent() == (5, 9)
        reader.close()

    def test_empty_page_group(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_inputs(path, [("a", []), ("b", [(0, 10, "")])])
        reader = ReuseFileReader(path)
        assert parse_inputs("a", reader.read_group("a")) == []
        assert len(parse_inputs("b", reader.read_group("b"))) == 1
        reader.close()

    def test_write_requires_page_group(self, tmp_path):
        # The writer's one call opens the group it writes: no record
        # can land outside a page group.
        path = str(tmp_path / "u.I.reuse")
        write_inputs(path, [("nowhere", [(0, 5, "")])])
        with open(path, "rb") as f:
            assert f.read() == (b'{"@page":"nowhere"}\n'
                                b'{"t":0,"s":0,"e":5,"c":""}\n')

    def test_iter_all_pages(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_two_pages(path)
        pages = dict(iter_all_pages(path))
        assert set(pages) == {"page1", "page2"}
        assert len(pages["page1"]) == 2

    def test_unicode_in_c_field(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_inputs(path, [("p", [(0, 5, 'prefix "quoted" — ünïcode')])])
        reader = ReuseFileReader(path)
        got = parse_inputs("p", reader.read_group("p"))
        assert got[0].c == 'prefix "quoted" — ünïcode'
        reader.close()


class TestGrouping:
    def test_group_outputs_by_input(self):
        outs = [OutputTuple(0, 5, ()), OutputTuple(1, 5, ()),
                OutputTuple(2, 9, ())]
        grouped = group_outputs_by_input(outs)
        assert {k: len(v) for k, v in grouped.items()} == {5: 2, 9: 1}

    def test_input_tuple_interval(self):
        t = InputTuple(0, "d", 3, 9)
        assert t.interval.start == 3 and t.interval.end == 9


#: A capture in the on-disk format as it stood before record encoding
#: moved into :class:`PageRecorder`: two pages x two units, one empty
#: group (u2 on "plain"), a non-ASCII page id, span and scalar fields
#: and ``c`` / scalar values with quotes. Captures written earlier stay
#: readable, and their groups recyclable, only while these bytes hold.
GOLDEN_DID = "página-α"
GOLDEN = {
    "u1.I.reuse": (
        b'{"@page":"p\\u00e1gina-\\u03b1"}\n'
        b'{"t":0,"s":0,"e":12,"c":""}\n'
        b'{"t":1,"s":12,"e":40,"c":"say \\"hi\\""}\n'
        b'{"@page":"plain"}\n'
        b'{"t":0,"s":3,"e":9,"c":""}\n'
    ),
    "u1.O.reuse": (
        b'{"@page":"p\\u00e1gina-\\u03b1"}\n'
        b'{"t":0,"i":0,"f":[["name", "s", 2, 7], ["year", "v", 1999, null]]}\n'
        b'{"t":1,"i":1,"f":[["name", "s", 14, 20], ["year", "v", 2001, null]]}\n'
        b'{"t":2,"i":1,"f":[["name", "s", 22, 30], ["year", "v", null, null]]}\n'
        b'{"@page":"plain"}\n'
    ),
    "u2.I.reuse": (
        b'{"@page":"p\\u00e1gina-\\u03b1"}\n'
        b'{"t":0,"s":0,"e":40,"c":""}\n'
        b'{"@page":"plain"}\n'
    ),
    "u2.O.reuse": (
        b'{"@page":"p\\u00e1gina-\\u03b1"}\n'
        b'{"t":0,"i":0,"f":[["title", "v", "Dr. \\"Who\\"", null]]}\n'
        b'{"@page":"plain"}\n'
    ),
}


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

    def _write(self, directory, capture_of):
        writers = {uid: (ReuseFileWriter(str(directory / f"{uid}.I.reuse")),
                         ReuseFileWriter(str(directory / f"{uid}.O.reuse")))
                   for uid in ("u1", "u2")}
        for did, _ in self.SCRIPT:
            _write_page(writers, did, capture_of(did))
        for writer_i, writer_o in writers.values():
            writer_i.close()
            writer_o.close()
        return {name: (directory / name).read_bytes()
                for name in sorted(os.listdir(directory))}

    def test_recorded_capture_matches_golden(self, tmp_path):
        captures = {}
        for did, per_unit in self.SCRIPT:
            recorder = PageRecorder()
            for uid, rows in per_unit.items():
                for s, e, c, outs in rows:
                    tid = recorder.input(uid, s, e, c)
                    for fields in outs:
                        recorder.output(uid, tid, encode_fields(fields))
            captures[did] = recorder.groups()
        assert "u2" not in captures["plain"]  # the empty group
        assert self._write(tmp_path, captures.__getitem__) == GOLDEN

    def test_golden_groups_read_and_recycle_verbatim(self, tmp_path):
        # What a run after an upgrade does with a capture written
        # before it: read each group, then splice it into a new file.
        for name, data in GOLDEN.items():
            (tmp_path / name).write_bytes(data)
        readers = {uid: (ReuseFileReader(str(tmp_path / f"{uid}.I.reuse")),
                         ReuseFileReader(str(tmp_path / f"{uid}.O.reuse")))
                   for uid in ("u1", "u2")}
        groups = {did: {uid: UnitGroups(did, ri.read_group(did),
                                        ro.read_group(did))
                        for uid, (ri, ro) in readers.items()}
                  for did, _ in self.SCRIPT}
        for ri, ro in readers.values():
            ri.close()
            ro.close()
        page = groups[GOLDEN_DID]
        assert page["u1"].inputs[1].c == 'say "hi"'
        assert page["u2"].outputs()[0][0].fields == (
            ("title", "v", 'Dr. "Who"', None),)
        assert groups["plain"]["u2"].i_data == b""
        assert groups["plain"]["u2"].o_data == b""
        out = tmp_path / "recycled"
        out.mkdir()
        assert self._write(out, lambda did: {
            uid: (unit.i_data, unit.o_data)
            for uid, unit in groups[did].items()}) == GOLDEN


def write_file(path, data):
    with open(path, "wb") as f:
        f.write(data)


class TestOneReader:
    """The reader reads a file whole, decodes only headers, and refuses
    bytes the writer cannot have written."""

    def test_groups_in_any_order_from_one_read(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_inputs(path, [(f"p{i}", [(i, i + 5, "")]) for i in range(5)])
        reader = ReuseFileReader(path)
        assert reader.dids() == [f"p{i}" for i in range(5)]
        for i in (4, 0, 2, 4):
            assert [(t.s, t.e) for t in parse_inputs(
                f"p{i}", reader.read_group(f"p{i}"))] == [(i, i + 5)]
        assert reader.bytes_read == os.path.getsize(path)

    def test_writer_headers_skip_json(self, tmp_path, monkeypatch):
        path = str(tmp_path / "u.I.reuse")
        write_inputs(path, [("a-1", [(0, 3, "")]), ("b/2 c", [])])
        calls = []
        real = json.loads
        monkeypatch.setattr(json, "loads",
                            lambda s, *a, **k: calls.append(s) or real(s))
        assert ReuseFileReader(path).dids() == ["a-1", "b/2 c"]
        assert calls == []

    def test_other_headers_take_json_loads(self, tmp_path, monkeypatch):
        # Raw UTF-8 and a space after the colon: not the writer's bytes
        # for these dids, so each header is parsed.
        path = str(tmp_path / "u.I.reuse")
        write_file(path, '{"@page": "pägé"}\n{"t":0,"s":1,"e":2,"c":""}\n'
                         '{"@page":"tab\\there"}\n'.encode())
        calls = []
        real = json.loads
        monkeypatch.setattr(json, "loads",
                            lambda s, *a, **k: calls.append(s) or real(s))
        reader = ReuseFileReader(path)
        assert reader.dids() == ["pägé", "tab\there"]
        assert len(calls) == 2
        assert reader.read_group("pägé") == b'{"t":0,"s":1,"e":2,"c":""}\n'

    @given(dids=st.lists(st.text(max_size=12), unique=True, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_any_did_roundtrips(self, tmp_path_factory, dids):
        path = str(tmp_path_factory.mktemp("dids") / "u.I.reuse")
        write_inputs(path, [(did, [(0, i, "")]) for i, did in
                            enumerate(dids)])
        reader = ReuseFileReader(path)
        assert reader.dids() == dids
        for i, did in enumerate(dids):
            assert [(t.s, t.e) for t in parse_inputs(
                did, reader.read_group(did))] == [(0, i)]

    @pytest.mark.parametrize("data", [
        b'garbage\n{"@page":"a"}\n',               # before the first header
        b'{"@page":"a"}\n{"t":0,"s":0,"e":1,"c":""}\n{"@page":"b',  # torn
        b'{"@page":"a"]\n',                        # broken header JSON
        b'{"@page":5}\n',                          # did not a string
        b'{"@page":{"x":1}}\n',                    # not a page header
    ], ids=["garbage-head", "torn-header", "broken-json", "int-did",
            "no-did"])
    def test_damaged_headers_raise(self, tmp_path, data):
        path = str(tmp_path / "u.I.reuse")
        write_file(path, data)
        with pytest.raises(ValueError):
            ReuseFileReader(path)

    def test_torn_group_is_returned_raw_and_fails_framing(self, tmp_path):
        # The reader does not look inside groups; the framing check does.
        path = str(tmp_path / "u.I.reuse")
        write_file(path, b'{"@page":"a"}\n{"t":0,"s":0,"e":1,"c"')
        group = ReuseFileReader(path).read_group("a")
        assert group == b'{"t":0,"s":0,"e":1,"c"'
        with pytest.raises(ValueError):
            UnitGroups("a", group, b"")

    def test_empty_file_and_empty_groups(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_file(path, b"")
        assert ReuseFileReader(path).dids() == []
        write_file(path, b'{"@page":"a"}\n{"@page":"b"}\n')
        reader = ReuseFileReader(path)
        assert reader.dids() == ["a", "b"]
        assert reader.read_group("a") == reader.read_group("b") == b""

    def test_iter_groups_keeps_file_order_and_duplicates(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_file(path, b'{"@page":"b"}\n{"t":0,"s":0,"e":1,"c":""}\n'
                         b'{"@page":"a"}\n{"@page":"b"}\n')
        assert list(iter_groups(path)) == [
            ("b", b'{"t":0,"s":0,"e":1,"c":""}\n'), ("a", b""), ("b", b"")]


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
