"""Systems: Delex plus the No-reuse / Shortcut / Cyclex baselines."""

from .cyclex import CyclexSystem
from .delex import DelexSystem
from .noreuse import NoReuseSystem, run_page_plain
from .pipeline import DelexPipeline
from .runner import (
    SYSTEM_NAMES,
    SeriesReport,
    SnapshotReport,
    canonical_results,
    make_system,
    run_series,
    run_task_series,
    verify_agreement,
)
from .shortcut import ShortcutSystem

__all__ = [
    "DelexSystem",
    "DelexPipeline",
    "CyclexSystem",
    "NoReuseSystem",
    "ShortcutSystem",
    "run_page_plain",
    "run_series",
    "run_task_series",
    "verify_agreement",
    "make_system",
    "canonical_results",
    "SeriesReport",
    "SnapshotReport",
    "SYSTEM_NAMES",
]
