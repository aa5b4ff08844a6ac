"""Reuse file writer/reader: grouping, sequential scans, accounting."""

import json
import os

import pytest

from repro.reuse.files import (
    BLOCK_SIZE,
    BlockWriter,
    InputTuple,
    OutputTuple,
    ReuseFileReader,
    ReuseFileWriter,
    decode_fields,
    encode_fields,
    group_outputs_by_input,
    iter_all_pages,
    parse_inputs,
    parse_outputs,
)
from repro.text.span import Span


class TestBlockWriter:
    def test_buffers_until_block(self, tmp_path):
        path = str(tmp_path / "w.dat")
        writer = BlockWriter(path)
        writer.append({"x": 1})
        assert os.path.getsize(path) == 0  # still buffered
        writer.close()
        assert os.path.getsize(path) > 0

    def test_flushes_on_full_block(self, tmp_path):
        path = str(tmp_path / "w.dat")
        writer = BlockWriter(path)
        payload = {"x": "y" * 100}
        for _ in range(BLOCK_SIZE // 50):
            writer.append(payload)
        assert writer.flushes >= 1
        writer.close()

    def test_blocks_accounting(self, tmp_path):
        writer = BlockWriter(str(tmp_path / "w.dat"))
        writer.append({"x": "a" * (BLOCK_SIZE + 10)})
        assert writer.blocks == 2
        writer.close()

    def test_append_after_close_raises(self, tmp_path):
        writer = BlockWriter(str(tmp_path / "w.dat"))
        writer.close()
        with pytest.raises(ValueError):
            writer.append({"x": 1})

    def test_context_manager(self, tmp_path):
        path = str(tmp_path / "w.dat")
        with BlockWriter(path) as writer:
            writer.append({"k": 1})
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


def write_two_pages(path):
    writer = ReuseFileWriter(path)
    writer.begin_page("page1")
    t0 = writer.append_input("page1", 0, 100)
    t1 = writer.append_input("page1", 100, 200)
    writer.begin_page("page2")
    t2 = writer.append_input("page2", 0, 50)
    writer.close()
    return t0, t1, t2


class TestReuseFileRoundtrip:
    def test_inputs_grouped_by_page(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        t0, t1, t2 = write_two_pages(path)
        reader = ReuseFileReader(path)
        p1 = parse_inputs("page1", reader.page_lines("page1"))
        assert [t.tid for t in p1] == [t0, t1]
        assert p1[0].interval.end == 100
        p2 = parse_inputs("page2", reader.page_lines("page2"))
        assert [t.tid for t in p2] == [t2]
        reader.close()

    def test_sequential_skip_of_missing_pages(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_two_pages(path)
        reader = ReuseFileReader(path)
        # page1 left the corpus: seeking page2 must skip its group.
        # Tids are page-local, so page2's first tuple is tid 0.
        got = parse_inputs("page2", reader.page_lines("page2"))
        assert [(t.tid, t.s, t.e) for t in got] == [(0, 0, 50)]
        reader.close()

    def test_missing_page_returns_empty(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_two_pages(path)
        reader = ReuseFileReader(path)
        assert reader.page_lines("page1")
        assert reader.page_lines("page2")
        assert reader.page_lines("page3") == []
        reader.close()

    def test_malformed_framed_records_raise_value_error(self):
        # Framed lines that are not records: the one error type the
        # engine treats as an unusable capture.
        for line in (b'{"t":0,"i":0}\n', b'{"t":0,"i":0,"f":[[\n',
                     b'{"t":0,"i":0,"f":[["x","s",1]]}\n',
                     b'{"t":0,"i":0,"f":5}\n'):
            with pytest.raises(ValueError):
                parse_outputs([line])
        with pytest.raises(ValueError):
            parse_inputs("p", [b'{"t":0,"s":1}\n'])

    def test_outputs_roundtrip(self, tmp_path):
        path = str(tmp_path / "u.O.reuse")
        writer = ReuseFileWriter(path)
        writer.begin_page("p")
        fields = encode_fields({"v": Span("p", 5, 9), "n": 3})
        writer.append_output("p", itid=7, fields=fields)
        writer.close()
        reader = ReuseFileReader(path)
        outs = parse_outputs(reader.page_lines("p"))
        assert len(outs) == 1
        assert outs[0].itid == 7
        assert outs[0].extent() == (5, 9)
        reader.close()

    def test_empty_page_group(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        writer = ReuseFileWriter(path)
        writer.begin_page("a")
        writer.begin_page("b")
        writer.append_input("b", 0, 10)
        writer.close()
        reader = ReuseFileReader(path)
        assert parse_inputs("a", reader.page_lines("a")) == []
        assert len(parse_inputs("b", reader.page_lines("b"))) == 1
        reader.close()

    def test_write_requires_page_group(self, tmp_path):
        writer = ReuseFileWriter(str(tmp_path / "u.I.reuse"))
        with pytest.raises(ValueError):
            writer.append_input("nowhere", 0, 5)
        writer.close()

    def test_iter_all_pages(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        write_two_pages(path)
        pages = dict(iter_all_pages(path))
        assert set(pages) == {"page1", "page2"}
        assert len(pages["page1"]) == 2

    def test_unicode_in_c_field(self, tmp_path):
        path = str(tmp_path / "u.I.reuse")
        writer = ReuseFileWriter(path)
        writer.begin_page("p")
        writer.append_input("p", 0, 5, c='prefix "quoted" — ünïcode')
        writer.close()
        reader = ReuseFileReader(path)
        got = parse_inputs("p", reader.page_lines("p"))
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
