"""repro.shard — the sharded serving tier (scatter-gather reads).

Partitions each arriving snapshot across N in-process shard workers
(stable blake2b page-hash partitioning), maintains every shard with
the unchanged single-writer machinery of :mod:`repro.serve`, and
serves cross-shard reads under a consistent **generation vector**: a
response can never mix one shard's state for snapshot *k* with
another's for *k-1*: every response is read straight off the one
vector the router pins. See ``docs/architecture.md`` ("Sharded
serving") for the design and failure modes.
"""

from .deploy import ShardedDeployment, ShardWorker
from .genvec import ShardVector
from .partition import Partitioner, shard_of
from .router import ShardRouter

__all__ = [
    "Partitioner",
    "ShardRouter",
    "ShardVector",
    "ShardWorker",
    "ShardedDeployment",
    "shard_of",
]
