"""The distributed-ready partition tier: pluggable shard backends.

``tables`` is the partitioner (key→shard hashing, :class:`ShardedMapTable`,
the coordinator's thread pool); ``backends`` defines the
:class:`~repro.compiler.partition.backends.ShardBackend` protocol and its
three placements (inline / thread / process); ``worker`` is the per-shard
worker-process loop the process backend drives; ``dispatch`` the per-batch
mode-selection policies; ``env`` the one reader of the ``REPRO_*`` defaults.
The per-key fold the shard jobs run is :mod:`repro.compiler.kernels`.
"""

from repro.compiler.partition.backends import (
    BACKEND_NAMES,
    MIN_PARALLEL_GROUPS,
    InlineShardBackend,
    ProcessShardBackend,
    ShardBackend,
    ThreadShardBackend,
    default_shard_backend,
    generated_rmap_groups,
    make_shard_backend,
    process_fold_capable,
    resolve_shard_backend,
)
from repro.compiler.partition.tables import (
    MIN_PARALLEL_KEYS,
    ShardedMapTable,
    parallel_fold_capable,
    partition_map,
    resolve_shard_count,
    shard_of,
)

__all__ = [
    "BACKEND_NAMES",
    "MIN_PARALLEL_GROUPS",
    "MIN_PARALLEL_KEYS",
    "ShardedMapTable",
    "parallel_fold_capable",
    "partition_map",
    "resolve_shard_count",
    "shard_of",
    "InlineShardBackend",
    "ProcessShardBackend",
    "ShardBackend",
    "ThreadShardBackend",
    "default_shard_backend",
    "generated_rmap_groups",
    "make_shard_backend",
    "process_fold_capable",
    "resolve_shard_backend",
]
