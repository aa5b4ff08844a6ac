"""Corpus snapshots and their on-disk representation.

A snapshot is the ordered set of pages retrieved by one crawl. Order
matters: the reuse engine processes pages of snapshot ``n+1`` in the
same order as snapshot ``n`` so changed pages' capture groups are
appended and read sequentially (Section 5.2). Snapshots are persisted as a single sequential data file
of length-prefixed page records, mirroring the paper's disk-resident,
stream-processed corpus.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from ..text.document import Page


@dataclass
class Snapshot:
    """An ordered collection of pages from one crawl."""

    index: int
    pages: List[Page] = field(default_factory=list)
    _by_url: Dict[str, Page] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not self._by_url:
            self._by_url = {p.url: p for p in self.pages}
        if len(self._by_url) != len(self.pages):
            raise ValueError("duplicate URLs within a snapshot")

    def __len__(self) -> int:
        return len(self.pages)

    def __iter__(self) -> Iterator[Page]:
        return iter(self.pages)

    def get(self, url: str) -> Optional[Page]:
        """Page at this URL, or None if the URL was not crawled."""
        return self._by_url.get(url)

    def urls(self) -> List[str]:
        return [p.url for p in self.pages]

    def total_bytes(self) -> int:
        return sum(len(p.text.encode("utf-8")) for p in self.pages)

    def add(self, page: Page) -> None:
        if page.url in self._by_url:
            raise ValueError(f"duplicate URL {page.url!r}")
        self.pages.append(page)
        self._by_url[page.url] = page

    def canonical_pages(self) -> List[Page]:
        """Pages sorted by page id — the canonical processing order.

        Every system enumerates snapshots in this order (instead of
        store insertion order), so capture files are written in a
        stable, OS-independent order: the precondition both for
        one-pass sequential reuse-file scans across snapshots and for
        the parallel runtime's deterministic batch merge.
        """
        return sorted(self.pages, key=lambda p: p.did)


def write_snapshot(snapshot: Snapshot, path: str) -> None:
    """Persist a snapshot as one sequential file of page records.

    Each record is a JSON header line ``{"did", "url", "nbytes", "fp"}``
    followed by exactly ``nbytes`` of UTF-8 page text and a newline.
    ``fp`` is the page's blake2 content fingerprint
    (:func:`repro.text.document.content_fingerprint`), persisted so a
    reader that names pages by content need not hash page bodies at
    load time. Page identity never reads it: it compares text.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(json.dumps({"index": snapshot.index,
                            "pages": len(snapshot)}).encode("utf-8"))
        f.write(b"\n")
        for page in snapshot:
            body = page.text.encode("utf-8")
            header = {"did": page.did, "url": page.url, "nbytes": len(body),
                      "fp": page.fingerprint}
            f.write(json.dumps(header).encode("utf-8"))
            f.write(b"\n")
            f.write(body)
            f.write(b"\n")
    os.replace(tmp, path)


def iter_snapshot_pages(path: str) -> Iterator[Page]:
    """Stream pages from a snapshot file without loading it whole.

    Raises :class:`ValueError` when a page body is shorter than its
    header's ``nbytes`` — the signature of a file torn mid-write.
    """
    with open(path, "rb") as f:
        f.readline()  # snapshot header
        while True:
            line = f.readline()
            if not line:
                return
            header = json.loads(line)
            raw = f.read(header["nbytes"])
            if len(raw) != header["nbytes"]:
                raise ValueError(
                    f"truncated snapshot file {path!r}: page "
                    f"{header.get('did')!r} body is {len(raw)} bytes, "
                    f"header declares {header['nbytes']}")
            body = raw.decode("utf-8")
            f.read(1)  # trailing newline
            yield Page(did=header["did"], url=header["url"], text=body,
                       fp=header.get("fp", ""))


def read_snapshot(path: str) -> Snapshot:
    """Load a snapshot file fully into memory.

    Validates the page count against the file header's ``pages``
    field. Before this check a snapshot file torn between page records
    — a producer writing the final name directly instead of the
    write-then-``os.replace`` protocol — parsed *successfully* with
    fewer pages, and the serve ingest path would happily publish the
    short corpus. Now truncation is a :class:`ValueError`, which the
    spool watcher treats as "partially written, retry next sweep".
    """
    with open(path, "rb") as f:
        meta = json.loads(f.readline())
    pages = list(iter_snapshot_pages(path))
    declared = meta.get("pages")
    if declared is not None and len(pages) != declared:
        raise ValueError(
            f"truncated snapshot file {path!r}: read {len(pages)} "
            f"pages, header declares {declared}")
    return Snapshot(meta["index"], pages)


def snapshot_from_texts(index: int, texts: Dict[str, str],
                        order: Optional[Iterable[str]] = None) -> Snapshot:
    """Convenience constructor from a ``url -> text`` mapping."""
    urls = list(order) if order is not None else sorted(texts)
    return Snapshot(index, [Page.from_url(u, texts[u]) for u in urls])
