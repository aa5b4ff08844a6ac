"""Shared-memory page text: ship the snapshot's text to workers once.

The process backend used to pickle every page string into every batch
payload — for a snapshot of N pages sent to W workers that is O(total
text) serialized per *batch*, and the dominant cost for cheap
extractors. This module packs all page texts into one
``multiprocessing.shared_memory`` segment up front; work items then
carry only ``(byte offset, byte length)`` table entries and workers
decode each page lazily (and cache the decoded ``str``, since Python
extraction code needs ``str`` offsets, not bytes).

Two handle classes, three flavors (``kind``), behind one
``text(did)`` interface:

* :class:`DictArenaHandle` of kind ``"local"`` — serial/thread
  backends share the parent address space; the handle is a plain dict
  of references.
* :class:`SharedArenaHandle` (``"shared"``) — process backend with
  shared memory available; pickles as ``(segment name, offset table)``
  only.
* :class:`DictArenaHandle` of kind ``"inline"`` — fallback when shared
  memory is missing (or creation failed): texts are pickled once per
  worker via the pool initializer, which is still once-per-worker
  instead of once-per-batch.

The parent owns the segment lifetime: :meth:`TextArena.close` unlinks
it after the run. Worker processes attach lazily on first ``text()``
call and deregister from the resource tracker, which on pre-3.13
Pythons would otherwise unlink the segment when the first worker
exits.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

_SHM_AVAILABLE: Optional[bool] = None


def shm_available() -> bool:
    """Can this platform create POSIX shared memory? Probed once."""
    global _SHM_AVAILABLE
    if _SHM_AVAILABLE is None:
        try:
            from multiprocessing import shared_memory
            seg = shared_memory.SharedMemory(create=True, size=1)
            seg.close()
            seg.unlink()
            _SHM_AVAILABLE = True
        except Exception:
            _SHM_AVAILABLE = False
    return _SHM_AVAILABLE


class DictArenaHandle:
    """A handle over a plain dict of texts: references shared in the
    parent's address space (``"local"``), or the fallback process
    handle whose texts are pickled once per worker (``"inline"``)."""

    def __init__(self, texts: Dict[str, str], kind: str) -> None:
        self._texts = texts
        self.kind = kind

    def text(self, did: str) -> str:
        return self._texts[did]


class SharedArenaHandle:
    """Process handle backed by one shared-memory segment.

    Pickles as ``(name, table)``; the attached segment and the decoded
    page cache are per-process and rebuilt lazily on first use.
    """

    kind = "shared"

    def __init__(self, name: str,
                 table: Dict[str, Tuple[int, int]]) -> None:
        self.name = name
        self.table = table
        self._seg = None
        self._cache: Dict[str, str] = {}

    def __getstate__(self):
        return {"name": self.name, "table": self.table}

    def __setstate__(self, state):
        self.name = state["name"]
        self.table = state["table"]
        self._seg = None
        self._cache = {}

    def _attach(self):
        if self._seg is None:
            from multiprocessing import shared_memory
            self._seg = shared_memory.SharedMemory(name=self.name)
            try:
                # Pre-3.13 the child's resource tracker unlinks the
                # segment at worker exit; the parent owns unlinking.
                from multiprocessing import resource_tracker
                resource_tracker.unregister(self._seg._name,
                                            "shared_memory")
            except Exception:
                pass
        return self._seg

    def text(self, did: str) -> str:
        cached = self._cache.get(did)
        if cached is None:
            off, length = self.table[did]
            seg = self._attach()
            view = memoryview(seg.buf)[off:off + length]
            cached = str(view, "utf-8")
            view.release()
            self._cache[did] = cached
        return cached


class TextArena:
    """Parent-side owner of the page-text transport for one run."""

    def __init__(self, handle, seg=None) -> None:
        self.handle = handle
        self._seg = seg

    @property
    def shared(self) -> bool:
        return self.handle.kind == "shared"

    def text(self, did: str) -> str:
        return self.handle.text(did)

    def close(self) -> None:
        if self._seg is not None:
            try:
                self._seg.close()
            finally:
                self._seg.unlink()
            self._seg = None


def build_arena(texts: Dict[str, str], backend_name: str) -> TextArena:
    """Pack page texts for transport to the given backend.

    Serial/thread backends share memory already; the process backend
    gets a shared segment when the platform supports it, else the
    inline once-per-worker fallback.
    """
    if backend_name != "process":
        return TextArena(DictArenaHandle(texts, "local"))
    if not shm_available():
        return TextArena(DictArenaHandle(texts, "inline"))
    from multiprocessing import shared_memory
    encoded = {did: text.encode("utf-8") for did, text in texts.items()}
    total = sum(len(b) for b in encoded.values())
    try:
        seg = shared_memory.SharedMemory(create=True,
                                         size=max(1, total))
    except Exception:
        return TextArena(DictArenaHandle(texts, "inline"))
    table: Dict[str, Tuple[int, int]] = {}
    off = 0
    for did, data in encoded.items():
        seg.buf[off:off + len(data)] = data
        table[did] = (off, len(data))
        off += len(data)
    handle = SharedArenaHandle(seg.name, table)
    handle._seg = seg  # parent reads without re-attaching
    return TextArena(handle, seg=seg)
