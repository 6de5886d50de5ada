"""The partition tier: hash-partitioned map tables and their per-shard fold.

``tables`` holds the partitioner (key→shard hashing, :class:`ShardedMapTable`)
and :func:`~repro.compiler.partition.tables.fold_shards`, which folds an
increment map shard by shard on the calling thread; ``env`` is the one
reader of the ``REPRO_SHARDS`` default.  The per-key fold loop is
:mod:`repro.compiler.kernels`.  Folds into different keys are independent,
so the partition is sound at any shard count; the tier's contract is that
state and ``on_change`` payloads equal the unsharded session's.
"""

from repro.compiler.partition.tables import (
    ShardedMapTable,
    fold_shards,
    partition_map,
    resolve_shard_count,
    shard_of,
)

__all__ = [
    "ShardedMapTable",
    "fold_shards",
    "partition_map",
    "resolve_shard_count",
    "shard_of",
]
