"""Page-matching scope: which previous page do we recycle from?

The paper matches each page only against the page *at the same URL* in
the previous snapshot (Section 5.1) and names broader scopes as future
work. This module implements both:

* :class:`SameUrlScope` — the paper's scheme. Pages pair by URL.
* :class:`FingerprintScope` — extended scope: pages without a same-URL
  previous version (new URLs, site reorganizations) are paired with
  the most *content-similar* previous page, found with a bottom-k
  shingle sketch index. Renamed pages then reuse their old IE results
  instead of being extracted from scratch.

Either way the previous capture is loaded once: its page table
locates any page's groups, in any order (see
:class:`~repro.reuse.engine.PrevCaptureSource`). Correctness is
unaffected: match segments always witness literal text equality,
whatever page they come from.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Set, Tuple

from ..corpus.snapshot import Snapshot
from ..text.document import Page

SHINGLE_SIZE = 16
SKETCH_SIZE = 64


def shingle_sketch(text: str, shingle: int = SHINGLE_SIZE,
                   k: int = SKETCH_SIZE) -> Tuple[int, ...]:
    """Bottom-k sketch of the page's character shingles.

    The k smallest shingle hashes form an order-stable sample of the
    page's content; the overlap of two sketches estimates the Jaccard
    similarity of the underlying shingle sets.
    """
    if len(text) < shingle:
        return (zlib.crc32(text.encode("utf-8")),) if text else ()
    hashes: Set[int] = set()
    encoded = text.encode("utf-8", "ignore")
    for i in range(len(encoded) - shingle + 1):
        hashes.add(zlib.crc32(encoded[i:i + shingle]))
    return tuple(sorted(hashes)[:k])


def sketch_similarity(a: Tuple[int, ...], b: Tuple[int, ...]) -> float:
    """Bottom-k Jaccard estimate from two sketches."""
    if not a or not b:
        return 0.0
    k = min(len(a), len(b))
    union_bottom = sorted(set(a) | set(b))[:k]
    inter = set(a) & set(b)
    hits = sum(1 for h in union_bottom if h in inter)
    return hits / k


class PageMatchScope(ABC):
    """Chooses the previous-snapshot page to recycle from."""

    @abstractmethod
    def begin_snapshot(self, prev_snapshot: Optional[Snapshot]) -> None:
        """Called once before a snapshot is processed."""

    @abstractmethod
    def pair_for(self, page: Page) -> Optional[Page]:
        """The previous page to reuse from, or None."""


class SameUrlScope(PageMatchScope):
    """The paper's scheme: pair pages by URL."""

    def __init__(self) -> None:
        self._prev: Optional[Snapshot] = None

    def begin_snapshot(self, prev_snapshot: Optional[Snapshot]) -> None:
        self._prev = prev_snapshot

    def pair_for(self, page: Page) -> Optional[Page]:
        if self._prev is None:
            return None
        return self._prev.get(page.url)


class FingerprintScope(PageMatchScope):
    """Same-URL pairing with a content-similarity fallback.

    Pages whose URL has no previous version are paired with the most
    similar unclaimed previous page when the sketch similarity clears
    ``min_similarity``. Each previous page is handed out at most once
    per snapshot (first come, first served), so two new URLs cannot
    both claim the same history.
    """

    def __init__(self, min_similarity: float = 0.5) -> None:
        if not 0.0 < min_similarity <= 1.0:
            raise ValueError("min_similarity must be in (0, 1]")
        self.min_similarity = min_similarity
        self._prev: Optional[Snapshot] = None
        self._sketches: Dict[str, Tuple[int, ...]] = {}
        self._inverted: Dict[int, List[str]] = {}
        self._claimed: Set[str] = set()
        self.fallback_pairs = 0

    def begin_snapshot(self, prev_snapshot: Optional[Snapshot]) -> None:
        self._prev = prev_snapshot
        self._sketches.clear()
        self._inverted.clear()
        self._claimed.clear()
        self.fallback_pairs = 0
        if prev_snapshot is None:
            return
        # Canonical page order: the inverted index (and therefore any
        # similarity tie-break) must not depend on store insertion order.
        for page in prev_snapshot.canonical_pages():
            sketch = shingle_sketch(page.text)
            self._sketches[page.url] = sketch
            for h in sketch:
                self._inverted.setdefault(h, []).append(page.url)

    def pair_for(self, page: Page) -> Optional[Page]:
        if self._prev is None:
            return None
        same = self._prev.get(page.url)
        if same is not None:
            self._claimed.add(same.url)
            return same
        sketch = shingle_sketch(page.text)
        votes: Dict[str, int] = {}
        for h in sketch:
            for url in self._inverted.get(h, ()):
                if url not in self._claimed:
                    votes[url] = votes.get(url, 0) + 1
        best_url: Optional[str] = None
        best_score = 0.0
        for url in sorted(votes, key=lambda u: -votes[u])[:8]:
            score = sketch_similarity(sketch, self._sketches[url])
            if score > best_score:
                best_url, best_score = url, score
        if best_url is None or best_score < self.min_similarity:
            return None
        self._claimed.add(best_url)
        self.fallback_pairs += 1
        return self._prev.get(best_url)
