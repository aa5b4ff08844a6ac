"""Page content fingerprints and the one page-identity test.

The fingerprint is a blake2b-128 over the page's UTF-8 text (see
:func:`repro.text.document.content_fingerprint`), persisted in
snapshot page headers (``"fp"``) and read where a page must be named
by its content without its text at hand, such as serve tombstones.
:func:`pages_identical` does not read it: an
exact text comparison rejects a length change in O(1) and is cheaper
than hashing a freshly generated page, and a stale ``fp`` header can
then never cost a recycle. Every system that asks "is this page
unchanged?" asks it here.
"""

from __future__ import annotations

from typing import Optional

from ..text.document import Page, content_fingerprint

__all__ = ["content_fingerprint", "pages_identical"]


def pages_identical(page: Page, q_page: Optional[Page]) -> bool:
    """True iff the two versions of a page are byte-identical."""
    return q_page is not None and page.text == q_page.text
