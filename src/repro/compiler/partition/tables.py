"""Hash-partitioned map tables and the coordinator's thread pool.

Koch's compiled triggers make every batch update a set of per-key folds, and
two folds into *different* keys never read each other's state.  The partition
tier exploits that independence: map tables are hash-partitioned by key into
``N`` shards, a pre-aggregated increment map is split by target-key hash, and
the per-shard folds run wherever the table's
:class:`~repro.compiler.partition.backends.ShardBackend` places them — each
job owns its shard's dict outright (write isolation is structural: a key's
shard is a pure function of its hash).

* :class:`ShardedMapTable` — a ``MutableMapping`` over ``N`` plain per-shard
  dicts.  Reads route through one extra hash; the fold path bypasses the
  facade and works on the shard dicts directly.  ``shards=1`` sessions never
  construct one.
* :class:`ShardExecutor` — a lazily created thread pool shared per worker
  count.  On free-threaded builds the per-shard folds run truly in parallel;
  on GIL builds they interleave but stay correct.

The fold itself (the per-key loop, CDC, tracked keys, index journalling) is
:mod:`repro.compiler.kernels`; slice indexes bucket keys by bound *prefix*,
which does not respect the key-hash partition, so shard jobs journal their
inserted/removed keys and the coordinator replays the journals after the join.
"""

from __future__ import annotations

import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from repro.compiler.partition.env import env_default

MapTable = Dict[Tuple[Any, ...], Any]

#: Increment maps smaller than this fold serially on the calling thread
#: instead of being dispatched to the pool — job overhead would dominate.
MIN_PARALLEL_KEYS = 64


def default_shard_count() -> int:
    """The process-wide default shard count (the ``REPRO_SHARDS`` knob)."""
    try:
        return max(1, int(env_default("REPRO_SHARDS")))
    except ValueError:
        return 1


def resolve_shard_count(shards: Optional[int]) -> int:
    """Normalize a ``shards=`` argument: ``None`` defers to ``REPRO_SHARDS``."""
    if shards is None:
        return default_shard_count()
    shards = int(shards)
    if shards < 1:
        raise ValueError(f"shard count must be a positive integer, got {shards}")
    return shards


def shard_of(key: Tuple[Any, ...], shard_count: int) -> int:
    """The shard owning ``key`` — a pure function of the key's hash."""
    return hash(key) % shard_count


def partition_map(mapping: Mapping[Tuple[Any, ...], Any], shard_count: int) -> List[MapTable]:
    """Split a pre-aggregated delta/increment map by target-key hash.

    Returns one dict per shard (possibly empty); the union of the parts is
    the input and the parts are pairwise disjoint.
    """
    parts: List[MapTable] = [{} for _ in range(shard_count)]
    for key, value in mapping.items():
        parts[hash(key) % shard_count][key] = value
    return parts


class ShardedMapTable:
    """A map table hash-partitioned into ``N`` plain per-shard dicts.

    Implements the mapping protocol the evaluator, the generated trigger
    code, and the session's snapshot/result paths rely on (``get`` /
    ``[key]`` / ``pop`` / ``items`` / iteration / ``len``), so it is a
    drop-in replacement for the plain dict tables — at the cost of one extra
    hash per facade access.  The batch fold path never pays that cost: it
    partitions its increments once and works on ``self.shards`` directly.
    """

    __slots__ = ("shards", "shard_count", "versions", "backend")

    def __init__(
        self,
        shard_count: int,
        contents: Optional[Mapping[Tuple[Any, ...], Any]] = None,
    ):
        if shard_count < 1:
            raise ValueError(f"shard count must be a positive integer, got {shard_count}")
        self.shard_count = shard_count
        self.shards: List[MapTable] = [{} for _ in range(shard_count)]
        #: Per-shard mutation counters, bumped by every *facade* write.  The
        #: process shard backend uses them to detect that a worker's mirror of
        #: a shard went stale (recompute applies, restores, scalar folds all
        #: write through the facade); the fold path mutates the shard dicts
        #: directly and keeps both sides in lockstep without bumps.
        self.versions: List[int] = [0] * shard_count
        #: The owning :class:`~repro.compiler.partition.backends.ShardBackend`
        #: (set by the runtime's ``make_table``); ``None`` folds on the
        #: coordinator's thread pool.
        self.backend = None
        if contents:
            shards = self.shards
            for key, value in contents.items():
                shards[hash(key) % shard_count][key] = value

    # -- mapping protocol -----------------------------------------------------

    def __getitem__(self, key: Tuple[Any, ...]) -> Any:
        return self.shards[hash(key) % self.shard_count][key]

    def __setitem__(self, key: Tuple[Any, ...], value: Any) -> None:
        index = hash(key) % self.shard_count
        self.versions[index] += 1
        self.shards[index][key] = value

    def __delitem__(self, key: Tuple[Any, ...]) -> None:
        index = hash(key) % self.shard_count
        self.versions[index] += 1
        del self.shards[index][key]

    def __contains__(self, key: object) -> bool:
        return key in self.shards[hash(key) % self.shard_count]

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        for shard in self.shards:
            yield from shard

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def __bool__(self) -> bool:
        return any(self.shards)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ShardedMapTable):
            return dict(self.items()) == dict(other.items())
        if isinstance(other, dict):
            return dict(self.items()) == other
        return NotImplemented

    def get(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        return self.shards[hash(key) % self.shard_count].get(key, default)

    _MISSING = object()

    def pop(self, key: Tuple[Any, ...], default: Any = _MISSING) -> Any:
        index = hash(key) % self.shard_count
        shard = self.shards[index]
        if key in shard:
            self.versions[index] += 1
        if default is ShardedMapTable._MISSING:
            return shard.pop(key)
        return shard.pop(key, default)

    def setdefault(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        index = hash(key) % self.shard_count
        self.versions[index] += 1
        return self.shards[index].setdefault(key, default)

    def items(self) -> "_ShardView":
        return _ShardView(self.shards, dict.items)

    def keys(self) -> "_ShardView":
        return _ShardView(self.shards, dict.keys)

    def values(self) -> "_ShardView":
        return _ShardView(self.shards, dict.values)

    def update(self, other: Mapping[Tuple[Any, ...], Any] = (), **kwargs) -> None:
        items = other.items() if hasattr(other, "items") else other
        for key, value in items:
            self[key] = value
        for key, value in kwargs.items():
            self[key] = value

    def clear(self) -> None:
        for index, shard in enumerate(self.shards):
            if shard:
                self.versions[index] += 1
                shard.clear()

    def copy(self) -> MapTable:
        """A merged plain-dict copy of the whole table (snapshot/backup path)."""
        merged: MapTable = {}
        for shard in self.shards:
            merged.update(shard)
        return merged

    # -- the fold path --------------------------------------------------------

    def partition(self, mapping: Mapping[Tuple[Any, ...], Any]) -> List[MapTable]:
        """Split an increment map into per-shard parts aligned with ``self.shards``."""
        return partition_map(mapping, self.shard_count)

    def __repr__(self) -> str:
        return f"ShardedMapTable(shards={self.shard_count}, entries={len(self)})"


class _ShardView:
    """A re-iterable, sized view over all shards (the dict-view analogue).

    Unlike a generator, iterating twice works and ``len()`` is defined — the
    contract callers of ``dict.items()``/``keys()``/``values()`` rely on.
    Live like dict views: it reads the shard dicts at iteration time.
    """

    __slots__ = ("_shards", "_select")

    def __init__(self, shards: List[MapTable], select):
        self._shards = shards
        self._select = select

    def __iter__(self):
        for shard in self._shards:
            yield from self._select(shard)

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def __contains__(self, item: object) -> bool:
        return any(item in self._select(shard) for shard in self._shards)


# ---------------------------------------------------------------------------
# The parallel executor
# ---------------------------------------------------------------------------


def gil_disabled() -> bool:
    """True on free-threaded builds, where shard folds run truly in parallel."""
    checker = getattr(sys, "_is_gil_enabled", None)
    return checker is not None and not checker()


def parallel_fold_capable(workers: int) -> bool:
    """Whether this interpreter/host can *speed up* folds with ``workers`` threads.

    Correctness never depends on this — it only gates throughput assertions:
    per-shard dict folds are pure Python, so they need a free-threaded build
    and at least ``workers`` cores to scale.
    """
    return gil_disabled() and (os.cpu_count() or 1) >= workers


class ShardExecutor:
    """Runs per-shard fold jobs, in parallel when it can pay off.

    The thread pool is created lazily (lock-guarded) on the first multi-job
    run and reused for the life of the process; a single job runs in line on
    the calling thread.  Jobs must not raise — fold jobs return their error
    as part of the result — so ``run`` always waits for every job's result.
    """

    __slots__ = ("workers", "_pool", "_lock")

    def __init__(self, workers: int):
        self.workers = max(1, workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def run(self, fn: Callable, jobs: Iterable[tuple]) -> List[Any]:
        jobs = list(jobs)
        if len(jobs) <= 1:
            return [fn(*job) for job in jobs]
        if self._pool is None:
            with self._lock:
                if self._pool is None:
                    self._pool = ThreadPoolExecutor(
                        max_workers=self.workers, thread_name_prefix="repro-shard"
                    )
        futures = [self._pool.submit(fn, *job) for job in jobs]
        return [future.result() for future in futures]


_EXECUTORS: Dict[int, ShardExecutor] = {}
_EXECUTORS_LOCK = threading.Lock()


def get_executor(workers: int) -> ShardExecutor:
    """The process-wide executor for a given worker count (shared across runtimes)."""
    executor = _EXECUTORS.get(workers)
    if executor is None:
        with _EXECUTORS_LOCK:
            executor = _EXECUTORS.get(workers)
            if executor is None:
                executor = _EXECUTORS[workers] = ShardExecutor(workers)
    return executor
