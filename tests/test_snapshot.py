"""Snapshot construction, ordering, persistence, and the store."""

import os

import pytest

from repro.corpus.snapshot import (
    Snapshot,
    iter_snapshot_pages,
    read_snapshot,
    snapshot_from_texts,
    write_snapshot,
)
from repro.corpus.store import CorpusStore
from repro.fastpath import pages_identical
from repro.text.document import Page, content_fingerprint


def make_snapshot(index, texts):
    return snapshot_from_texts(index, texts)


class TestPage:
    def test_digest_stable(self):
        assert content_fingerprint("abc") == content_fingerprint("abc")
        assert content_fingerprint("abc") != content_fingerprint("abd")

    def test_identical_to(self):
        a = Page.from_url("u", "hello")
        b = Page.from_url("u", "hello")
        c = Page.from_url("u", "bye")
        assert pages_identical(a, b)
        assert not pages_identical(a, c)

    def test_whole_and_region(self):
        page = Page.from_url("u", "hello world")
        assert page.whole.end == 11
        assert page.region_text(page.whole) == "hello world"
        assert page.whole_span().did == "u"


class TestSnapshot:
    def test_lookup(self):
        snap = make_snapshot(0, {"u1": "a", "u2": "b"})
        assert snap.get("u1").text == "a"
        assert snap.get("zzz") is None
        assert len(snap) == 2

    def test_rejects_duplicate_urls(self):
        with pytest.raises(ValueError):
            Snapshot(0, [Page.from_url("u", "a"), Page.from_url("u", "b")])

    def test_add(self):
        snap = make_snapshot(0, {"u1": "a"})
        snap.add(Page.from_url("u2", "b"))
        assert snap.get("u2") is not None
        with pytest.raises(ValueError):
            snap.add(Page.from_url("u1", "again"))

    def test_total_bytes(self):
        snap = make_snapshot(0, {"u1": "aaaa", "u2": "bb"})
        assert snap.total_bytes() == 6


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        snap = make_snapshot(3, {"u1": "hello\nworld", "u2": "bye"})
        path = str(tmp_path / "snap.dat")
        write_snapshot(snap, path)
        loaded = read_snapshot(path)
        assert loaded.index == 3
        assert loaded.urls() == snap.urls()
        assert loaded.get("u1").text == "hello\nworld"

    def test_streaming_iterator(self, tmp_path):
        snap = make_snapshot(0, {f"u{i}": f"text {i}" for i in range(20)})
        path = str(tmp_path / "snap.dat")
        write_snapshot(snap, path)
        pages = list(iter_snapshot_pages(path))
        assert len(pages) == 20
        assert pages[0].text.startswith("text")

    def test_unicode_pages(self, tmp_path):
        snap = make_snapshot(0, {"u": "héllo wörld — ünïcode"})
        path = str(tmp_path / "snap.dat")
        write_snapshot(snap, path)
        assert read_snapshot(path).get("u").text == "héllo wörld — ünïcode"


class TestCorpusStore:
    def test_append_and_load(self, tmp_path):
        store = CorpusStore(str(tmp_path / "store"))
        store.append(make_snapshot(0, {"u": "a"}))
        store.append(make_snapshot(1, {"u": "b"}))
        assert len(store) == 2
        assert store.latest_index == 1
        assert store.load(1).get("u").text == "b"

    def test_rejects_gap(self, tmp_path):
        store = CorpusStore(str(tmp_path / "store"))
        store.append(make_snapshot(0, {"u": "a"}))
        with pytest.raises(ValueError):
            store.append(make_snapshot(5, {"u": "b"}))

    def test_load_missing(self, tmp_path):
        store = CorpusStore(str(tmp_path / "store"))
        with pytest.raises(KeyError):
            store.load(0)

    def test_iteration_order(self, tmp_path):
        store = CorpusStore(str(tmp_path / "store"))
        for i in range(3):
            store.append(make_snapshot(i, {"u": str(i)}))
        assert [s.index for s in store] == [0, 1, 2]

    def test_reuse_dir(self, tmp_path):
        store = CorpusStore(str(tmp_path / "store"))
        path = store.reuse_dir("delex", 2)
        assert os.path.isdir(path)
        assert "delex" in path and "0002" in path
