"""Hash-partitioned map tables and their per-shard fold.

Koch's compiled triggers make every batch update a set of per-key folds, and
two folds into *different* keys never read each other's state.  The partition
tier rests on that independence: map tables are hash-partitioned by key into
``N`` shards, a pre-aggregated increment map is split by target-key hash, and
each shard's part folds into that shard's dict alone (a key's shard is a pure
function of its hash).

* :class:`ShardedMapTable` — a ``MutableMapping`` over ``N`` plain per-shard
  dicts.  Reads route through one extra hash; the fold path bypasses the
  facade and works on the shard dicts directly.  ``shards=1`` sessions never
  construct one.
* :func:`fold_shards` — the fold of one increment map, shard by shard, on the
  calling thread.

The per-key loop itself is :mod:`repro.compiler.kernels`; slice indexes
bucket keys by bound *prefix*, which does not respect the key-hash partition,
so each shard's fold journals its inserted/removed keys and the caller's sink
applies them to the indexes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.compiler.partition.env import env_default

MapTable = Dict[Tuple[Any, ...], Any]


def default_shard_count() -> int:
    """The process-wide default shard count (the ``REPRO_SHARDS`` knob).

    The variable is outside input: anything but a positive integer raises a
    ``ValueError`` naming it, rather than silently running unsharded.
    """
    value = env_default("REPRO_SHARDS")
    try:
        shards = int(value)
    except ValueError:
        shards = 0
    if shards < 1:
        raise ValueError(f"REPRO_SHARDS must be a positive integer, got {value!r}")
    return shards


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

    __slots__ = ("shards", "shard_count")

    def __init__(
        self,
        shard_count: int,
        contents: Optional[Mapping[Tuple[Any, ...], Any]] = None,
    ):
        if shard_count < 1:
            raise ValueError(f"shard count must be a positive integer, got {shard_count}")
        self.shard_count = shard_count
        self.shards: List[MapTable] = [{} for _ in range(shard_count)]
        if contents:
            shards = self.shards
            for key, value in contents.items():
                shards[hash(key) % shard_count][key] = value

    # -- mapping protocol -----------------------------------------------------

    def __getitem__(self, key: Tuple[Any, ...]) -> Any:
        return self.shards[hash(key) % self.shard_count][key]

    def __setitem__(self, key: Tuple[Any, ...], value: Any) -> None:
        self.shards[hash(key) % self.shard_count][key] = value

    def __delitem__(self, key: Tuple[Any, ...]) -> None:
        del self.shards[hash(key) % self.shard_count][key]

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
        shard = self.shards[hash(key) % self.shard_count]
        if default is ShardedMapTable._MISSING:
            return shard.pop(key)
        return shard.pop(key, default)

    def setdefault(self, key: Tuple[Any, ...], default: Any = None) -> Any:
        return self.shards[hash(key) % self.shard_count].setdefault(key, default)

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
        for shard in self.shards:
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


def fold_shards(
    table: ShardedMapTable,
    acc: Mapping[Tuple[Any, ...], Any],
    journal: bool,
    fold: Callable,
    sink: Optional[Callable],
) -> None:
    """Fold ``acc`` into ``table``, one shard at a time on the calling thread.

    ``acc`` is split by key hash and each part goes through ``fold`` (the
    ring's per-shard loop, :func:`repro.compiler.kernels.make_shard_fold`).
    With ``journal`` every shard's inserted/removed keys are handed to
    ``sink`` (slice-index upkeep) even when its fold raised, and the first
    error is re-raised only after every shard was folded — so a failed fold
    leaves the indexes consistent with whatever the shards actually contain.
    """
    error: Optional[BaseException] = None
    for shard, part in zip(table.shards, table.partition(acc)):
        if not part:
            continue
        added: Optional[list] = [] if journal else None
        removed: Optional[list] = [] if journal else None
        try:
            fold(shard, part, added, removed)
        except Exception as exc:
            if error is None:
                error = exc
        if added or removed:
            sink(added, removed)
    if error is not None:
        raise error
