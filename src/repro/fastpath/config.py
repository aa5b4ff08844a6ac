"""The fast-path switch.

One bool selects whether a run takes every snapshot-delta fast path
(on, the default everywhere) or none of them (off: the reference
engine that ``verify_fastpath``, ``repro check`` and the parity tests
compare against): the identical-page recycle and content-addressed
replay of regions and declared splits (:mod:`repro.reuse.replay`).
There is no match store. Every fast path is
behaviour-preserving, so both settings yield byte-identical reuse files
and results.
"""

from __future__ import annotations

from typing import Union

#: What callers may pass for the switch.
FastPathFlag = Union[None, str, bool]


def fastpath_enabled(value: FastPathFlag) -> bool:
    """Parse the switch from its CLI-style spellings: None (= on), a
    bool, or "on"/"off" (also true/false, 1/0, yes/no)."""
    if value is None:
        return True
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in ("on", "true", "1", "yes"):
        return True
    if text in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"invalid fastpath flag {value!r}; use on/off")
