"""Page content fingerprints and the one page-identity test.

The fingerprint is a blake2b-128 over the page's UTF-8 text (see
:func:`repro.text.document.content_fingerprint`), persisted in
snapshot page headers (``"fp"``) so a later crawl's loader gets it for
free. Fingerprint equality is a *filter*: :func:`pages_identical`
confirms it with an exact text comparison, so a (vanishingly unlikely)
hash collision or a stale ``fp`` field can never change results — it
only costs one string compare. Every system that asks "is this page
unchanged?" asks it here.
"""

from __future__ import annotations

from typing import Optional

from ..text.document import Page, content_fingerprint

__all__ = ["content_fingerprint", "pages_identical"]


def pages_identical(page: Page, q_page: Optional[Page]) -> bool:
    """True iff the two versions of a page are byte-identical.

    Fingerprints reject changed pages in O(1); equal fingerprints are
    confirmed by full text equality (O(n) memcmp, still far cheaper
    than any matcher).
    """
    if q_page is None:
        return False
    if page.fingerprint != q_page.fingerprint:
        return False
    return page.text == q_page.text
