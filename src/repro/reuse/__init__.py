"""Capture & reuse: page tables over group segments, safety derivation,
the reuse engine."""

from .engine import (
    PlanAssignment,
    ReuseEngine,
    SnapshotRunResult,
    UnitRunStats,
    materialize_rows,
)
from .files import (
    BLOCK_SIZE,
    BlockWriter,
    CaptureWriter,
    InputTuple,
    OutputTuple,
    PageTable,
    ReuseFileReader,
    decode_fields,
    encode_fields,
    group_outputs_by_input,
)
from .regions import (
    CopyZoneInfo,
    ReuseDerivation,
    dedupe_extensions,
    derive_reuse,
    extraction_keep,
)
from .analysis import CaptureReport, UnitCaptureStats, analyze_capture, mentions_per_page
from .scope import (
    FingerprintScope,
    PageMatchScope,
    SameUrlScope,
    shingle_sketch,
    sketch_similarity,
)

__all__ = [
    "ReuseEngine",
    "PlanAssignment",
    "SnapshotRunResult",
    "UnitRunStats",
    "materialize_rows",
    "BlockWriter",
    "CaptureWriter",
    "PageTable",
    "ReuseFileReader",
    "InputTuple",
    "OutputTuple",
    "encode_fields",
    "decode_fields",
    "group_outputs_by_input",
    "BLOCK_SIZE",
    "derive_reuse",
    "extraction_keep",
    "dedupe_extensions",
    "ReuseDerivation",
    "CopyZoneInfo",
    "PageMatchScope",
    "SameUrlScope",
    "FingerprintScope",
    "shingle_sketch",
    "sketch_similarity",
    "analyze_capture",
    "CaptureReport",
    "UnitCaptureStats",
    "mentions_per_page",
]
