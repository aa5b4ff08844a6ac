"""Pages: the unit of crawling, extraction, and matching.

A page is an immutable piece of text retrieved from a URL at some
snapshot. Pages at the same URL across consecutive snapshots are the
candidates for IE-result reuse (Section 5.1 of the paper).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .span import Interval, Span


def content_fingerprint(text: str) -> str:
    """Page content fingerprint: blake2b-128 over the UTF-8 text.

    Persisted in snapshot page headers (``"fp"``) and kept by serve
    tombstones. The page-identity test does not read it: it compares
    text (:func:`repro.fastpath.fingerprint.pages_identical`).
    """
    return hashlib.blake2b(text.encode("utf-8"),
                           digest_size=16).hexdigest()


@dataclass(frozen=True)
class Page:
    """One retrieved data page.

    Attributes:
        did: document id, unique within a snapshot. Delex matches pages
            across snapshots by URL, so we use the URL itself as the id.
        url: source URL.
        text: full page text.
    """

    did: str
    url: str
    text: str
    fp: str = field(default="", compare=False, repr=False)

    @property
    def fingerprint(self) -> str:
        """The page's blake2 content fingerprint, computed lazily.

        Pages loaded from a snapshot file carry the persisted value;
        freshly built pages compute and cache it on first use, so
        systems that never consult fingerprints pay nothing.
        """
        if not self.fp:
            object.__setattr__(self, "fp", content_fingerprint(self.text))
        return self.fp

    @classmethod
    def from_url(cls, url: str, text: str) -> "Page":
        return cls(did=url, url=url, text=text)

    def __len__(self) -> int:
        return len(self.text)

    @property
    def whole(self) -> Interval:
        """The interval covering the full page."""
        return Interval(0, len(self.text))

    def whole_span(self) -> Span:
        return Span(self.did, 0, len(self.text))

    def region_text(self, interval: Interval) -> str:
        return self.text[interval.start:interval.end]
