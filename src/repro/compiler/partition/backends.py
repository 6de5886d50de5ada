"""Pluggable shard backends: who runs the per-shard folds, and where.

A narrow :class:`ShardBackend` protocol decides where the per-shard fold jobs
of a hash-partitioned table run, so the partition tier can place shard state
and shard work independently of the coordinator:

``inline``
    Every per-shard fold runs serially on the calling thread.  Zero
    dispatch overhead; the baseline the others must match bit-for-bit.
``thread``
    Per-shard fold jobs on a lazily created thread pool.
    Scales only on free-threaded builds, but costs nothing when it cannot
    (small folds stay inline) — the default.
``process``
    Long-lived worker processes, one per shard, each owning a mirror of its
    shard's dicts (:mod:`repro.compiler.partition.worker`).  The coordinator
    ships pre-aggregated delta parts by key hash; workers fold locally and
    return only the slice-index journal and the delta keys' new values,
    which the coordinator installs into its authoritative tables and merges
    deterministically — identical ``on_change`` payloads at every shard
    count and backend.  Real parallelism on GIL builds, at the price of one
    serialization round-trip per fold; the contract is network-shaped (all
    payloads plain data), one step from shards on separate hosts.

Staleness between the coordinator's tables and the process workers' mirrors
is tracked with per-shard version counters on
:class:`~repro.compiler.partition.tables.ShardedMapTable`: facade writes (recompute
applies, restores, scalar folds) bump them, and the backend re-ships a
shard's contents before the next fold that touches it.  The fold path itself
keeps both sides in lockstep without bumps.

Recomputes ride the same tier: :meth:`ShardBackend.map_groups` fans the
per-group re-evaluation loop of tracked nested aggregates out over the
backend's workers.  Group evaluation reads *cross-shard* map state (an
affected group's slice spans arbitrary keys), which lives at the
coordinator — so ``process`` deliberately evaluates groups on coordinator
threads rather than shipping table state wholesale; only the fold path pays
a process hop.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.semirings import BUILTIN_SEMIRINGS, Semiring
from repro.compiler.indexes import journal_from_wire
from repro.compiler.partition.dispatch import make_dispatch_policy
from repro.compiler.partition.env import env_default
from repro.compiler.partition.tables import MIN_PARALLEL_KEYS, ShardedMapTable, get_executor

MapTable = Dict[Tuple[Any, ...], Any]

#: Recompute fan-out threshold: affected-group sets smaller than this are
#: re-evaluated serially — per-job dispatch would dominate.
MIN_PARALLEL_GROUPS = 16

BACKEND_NAMES = ("inline", "thread", "process")


def default_shard_backend() -> str:
    """The process-wide default backend (the ``REPRO_SHARD_BACKEND`` knob)."""
    value = env_default("REPRO_SHARD_BACKEND")
    return value if value in BACKEND_NAMES else "thread"


def resolve_shard_backend(name: Optional[str]) -> str:
    """Normalize a ``shard_backend=`` argument: ``None`` defers to the env."""
    if name is None:
        return default_shard_backend()
    name = str(name).strip().lower()
    if name not in BACKEND_NAMES:
        raise ValueError(
            f"unknown shard backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    return name


def process_fold_capable(workers: int) -> bool:
    """Whether process workers can *speed up* folds on this host.

    Unlike :func:`~repro.compiler.partition.tables.parallel_fold_capable`
    this does not require a free-threaded build — separate processes sidestep
    the GIL — only enough cores.  Correctness never depends on it; it gates
    throughput assertions.
    """
    return (os.cpu_count() or 1) >= workers


def make_shard_backend(
    name: Optional[str], shards: int, ring: Semiring, dispatch=None
) -> Optional["ShardBackend"]:
    """Construct the backend for a shard configuration (``None`` at shards=1).

    Unsharded sessions keep plain dict tables and the pre-sharding code
    path — there is no tier to configure.  ``dispatch`` picks the mode-
    selection policy (``"static"``/``"adaptive"``, a ready
    :class:`~repro.compiler.partition.dispatch.DispatchPolicy`, or ``None``
    for the ``REPRO_SHARD_DISPATCH`` default).
    """
    resolved = resolve_shard_backend(name)
    if shards <= 1:
        return None
    cls = {
        "inline": InlineShardBackend,
        "thread": ThreadShardBackend,
        "process": ProcessShardBackend,
    }[resolved]
    return cls(shards, ring, dispatch=dispatch)


def run_fold_job(fold: Callable, shard: MapTable, part: MapTable, journal: bool):
    """One shard's fold as a pool/worker job: ``(added, removed, error)``.

    ``fold`` is the ring's per-shard fold loop
    (:func:`repro.compiler.kernels.make_shard_fold`).  Jobs never raise: an
    arithmetic failure mid-fold is handed back alongside the journal built so
    far (which always matches the shard's actual contents; ``None`` with
    ``journal`` off).
    """
    added: Optional[List[Tuple[Any, ...]]] = [] if journal else None
    removed: Optional[List[Tuple[Any, ...]]] = [] if journal else None
    try:
        fold(shard, part, added, removed)
    except Exception as exc:
        return added, removed, exc
    return added, removed, None


def fold_on_coordinator(
    table: ShardedMapTable,
    acc: Mapping[Tuple[Any, ...], Any],
    journal: bool,
    fold: Callable,
    sink: Optional[Callable],
    parallel: bool,
) -> None:
    """Fold ``acc`` into ``table``'s coordinator shards, one job per shard.

    ``acc`` is split by key hash; the jobs run on the shared thread pool when
    ``parallel`` (callers gate on size and on the shard-race detector's
    ``serial_fold`` verdict) and serially on the calling thread otherwise.
    Every job's journal is handed to ``sink`` (slice-index upkeep) *before*
    the first captured error is re-raised, so a failed fold leaves the
    indexes consistent with whatever the shards actually contain.
    """
    jobs = [
        (fold, shard, part, journal)
        for shard, part in zip(table.shards, table.partition(acc))
        if part
    ]
    if parallel:
        results = get_executor(table.shard_count).run(run_fold_job, jobs)
    else:
        results = [run_fold_job(*job) for job in jobs]
    error: Optional[BaseException] = None
    for added, removed, exc in results:
        if journal and (added or removed):
            sink(added, removed)
        if exc is not None and error is None:
            error = exc
    if error is not None:
        raise error


class ShardBackend:
    """The partition tier's execution protocol.

    A backend owns *where* per-shard fold jobs and per-group recompute jobs
    run; the coordinator owns partitioning, CDC, tracked-source accumulation
    and slice-index maintenance, so every backend produces byte-identical
    state and ``on_change`` payloads.  ``min_parallel_keys`` is the inline
    threshold (overridable so tests can force the dispatch path with small
    batches).
    """

    name = "?"

    def __init__(
        self,
        shards: int,
        ring: Semiring,
        min_parallel_keys: Optional[int] = None,
        dispatch=None,
    ):
        self.shards = max(1, int(shards))
        self.ring = ring
        self.min_parallel_keys = (
            MIN_PARALLEL_KEYS if min_parallel_keys is None else int(min_parallel_keys)
        )
        self.min_parallel_groups = MIN_PARALLEL_GROUPS
        #: The mode-selection policy.  Static keeps the threshold gates above
        #: verbatim; adaptive lets the policy pick per batch from measured
        #: cost and the thresholds become irrelevant.  Either way every mode
        #: runs the same fold code, so results are byte-identical.
        self.dispatch = make_dispatch_policy(dispatch)
        self.adaptive = self.dispatch.adaptive

    def wants_groups(self, count: int) -> bool:
        """Whether a recompute fan-out of ``count`` groups should route
        through :meth:`map_groups` (where the dispatch policy decides) rather
        than be evaluated serially in place by the caller."""
        if self.adaptive:
            return count >= 2
        return count >= self.min_parallel_groups

    # -- the fold path ------------------------------------------------------

    def fold_table(
        self,
        table: ShardedMapTable,
        acc: Mapping[Tuple[Any, ...], Any],
        journal: bool,
        fold: Callable,
        sink: Optional[Callable],
        force_inline: bool = False,
        name: Optional[str] = None,
    ) -> None:
        """Fold ``acc`` into ``table`` (``fold``: the ring's per-shard fold loop).

        ``force_inline`` is the shard-race detector's verdict
        (:func:`repro.compiler.verify.mark_serial_folds`): the fold must stay
        on the calling thread whatever its size.  ``name`` addresses
        off-process mirrors of the map.
        """
        raise NotImplementedError

    # -- the recompute path -------------------------------------------------

    def map_groups(self, fn: Callable[[Any], Any], groups: Sequence[Any]) -> List[Any]:
        """Evaluate ``fn`` over every group, returning results in order.

        Exceptions are captured per group and the first (in group order) is
        re-raised only after every job finished — evaluation happens before
        anything is applied, so a failed group never leaves partial state.
        """
        return [fn(group) for group in groups]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release backend resources (worker processes, pipes); idempotent."""

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shards={self.shards})"


class InlineShardBackend(ShardBackend):
    """Serial folds on the calling thread — the zero-overhead baseline."""

    name = "inline"

    def fold_table(
        self, table, acc, journal, fold, sink, force_inline=False, name=None,
    ) -> None:
        self.dispatch.record("forced-inline" if force_inline else "inline")
        fold_on_coordinator(table, acc, journal, fold, sink, parallel=False)


class ThreadShardBackend(ShardBackend):
    """Per-shard fold jobs on the shared lazy thread pool."""

    name = "thread"

    def fold_table(
        self, table, acc, journal, fold, sink, force_inline=False, name=None,
    ) -> None:
        if force_inline or not self.adaptive:
            # The static gate: parallel from ``min_parallel_keys`` keys up.
            parallel = not force_inline and len(acc) >= self.min_parallel_keys
            self.dispatch.record(
                "forced-inline" if force_inline else "thread" if parallel else "inline"
            )
            fold_on_coordinator(table, acc, journal, fold, sink, parallel)
            return
        mode = self.dispatch.choose(name, len(acc), ("inline", "thread"))
        self.dispatch.record(mode)
        started = time.perf_counter()
        fold_on_coordinator(table, acc, journal, fold, sink, mode == "thread")
        self.dispatch.observe(name, mode, len(acc), time.perf_counter() - started)

    def map_groups(self, fn, groups):
        groups = list(groups)
        if not self.adaptive:
            if len(groups) < max(2, self.min_parallel_groups):
                return [fn(group) for group in groups]
            return self._map_groups_threaded(fn, groups)
        modes = ("inline",) if len(groups) < 2 else ("inline", "thread")
        mode = self.dispatch.choose("·groups", len(groups), modes)
        self.dispatch.record(mode)
        started = time.perf_counter()
        if mode == "thread":
            results = self._map_groups_threaded(fn, groups)
        else:
            results = [fn(group) for group in groups]
        self.dispatch.observe("·groups", mode, len(groups), time.perf_counter() - started)
        return results

    def _map_groups_threaded(self, fn, groups: List[Any]) -> List[Any]:
        workers = self.shards
        # Strided chunks: one job per worker, reassembled in group order.
        chunks = [(start, groups[start::workers]) for start in range(workers)]
        chunks = [(start, chunk) for start, chunk in chunks if chunk]

        def run_chunk(start: int, chunk: List[Any]):
            out = []
            for group in chunk:
                try:
                    out.append((fn(group), None))
                except Exception as exc:  # captured; first re-raised in order
                    out.append((None, exc))
            return start, out

        results: List[Any] = [None] * len(groups)
        errors: List[Optional[BaseException]] = [None] * len(groups)
        for start, out in get_executor(workers).run(run_chunk, chunks):
            for offset, (value, error) in enumerate(out):
                position = start + offset * workers
                results[position] = value
                errors[position] = error
        for error in errors:
            if error is not None:
                raise error
        return results


class ProcessShardBackend(ThreadShardBackend):
    """Long-lived worker processes owning per-shard table mirrors.

    Workers are spawned lazily on the first fold large enough to dispatch
    (one per shard, daemonic, reused for the session's life), so sessions
    that never cross the inline threshold never fork.  Recompute fan-out is
    inherited from :class:`ThreadShardBackend` — group evaluation reads
    cross-shard coordinator state (see the module docstring).
    """

    name = "process"

    def __init__(self, shards, ring, min_parallel_keys=None, dispatch=None):
        super().__init__(shards, ring, min_parallel_keys, dispatch=dispatch)
        self._workers: Optional[List[Tuple[Any, Any]]] = None  # (process, conn)
        self._synced: Dict[str, Tuple[ShardedMapTable, List[int]]] = {}
        self._lock = threading.Lock()

    # -- worker lifecycle ---------------------------------------------------

    def _ring_payload(self):
        """Rings travel by name when builtin (always spawn-safe); custom ring
        objects ride fork inheritance and must pickle under spawn."""
        builtin = BUILTIN_SEMIRINGS.get(getattr(self.ring, "name", None))
        if builtin is self.ring:
            return self.ring.name
        return self.ring

    def _ensure_workers(self) -> List[Tuple[Any, Any]]:
        if self._workers is not None:
            return self._workers
        with self._lock:
            if self._workers is not None:
                return self._workers
            from repro.compiler.partition.worker import worker_main

            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-fork platforms
                ctx = multiprocessing.get_context("spawn")
            payload = self._ring_payload()
            workers = []
            for _index in range(self.shards):
                parent_conn, child_conn = ctx.Pipe()
                process = ctx.Process(
                    target=worker_main, args=(child_conn, payload), daemon=True
                )
                process.start()
                child_conn.close()
                workers.append((process, parent_conn))
            self._workers = workers
        return self._workers

    def close(self) -> None:
        workers, self._workers = self._workers, None
        self._synced.clear()
        if not workers:
            return
        for process, conn in workers:
            try:
                conn.send(("stop",))
            except Exception:
                pass
        for process, conn in workers:
            try:
                conn.close()
            except Exception:
                pass
            process.join(timeout=2)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()

    def __del__(self):  # pragma: no cover - gc-time safety net
        try:
            self.close()
        except Exception:
            pass

    # -- mirror synchronization --------------------------------------------

    def _sync_state(self, name: str, table: ShardedMapTable) -> List[int]:
        """The last-shipped version per shard (-1 = never/stale) for ``name``."""
        synced = self._synced.get(name)
        if synced is None or synced[0] is not table:
            state = [-1] * table.shard_count
            self._synced[name] = (table, state)
            return state
        return synced[1]

    def _mark_dirty(self, name: Optional[str], table: ShardedMapTable, acc) -> None:
        """Mark the mirrors of the shards a coordinator-side fold touched stale."""
        if name is None:
            # Anonymous fold: no way to address the mirror — invalidate all.
            self._synced.clear()
            return
        synced = self._synced.get(name)
        if synced is None or synced[0] is not table:
            return
        state, count = synced[1], table.shard_count
        for key in acc:
            state[hash(key) % count] = -1

    # -- the fold path ------------------------------------------------------

    def fold_table(
        self, table, acc, journal, fold, sink, force_inline=False, name=None,
    ) -> None:
        # Worker dispatch needs an addressable mirror: a named map whose
        # facade shard count matches the worker pool.
        addressable = name is not None and table.shard_count == self.shards
        if force_inline:
            mode = "forced-inline"
        elif not self.adaptive:
            large = len(acc) >= self.min_parallel_keys
            mode = "process" if addressable and large else "inline"
        else:
            modes = ("inline", "thread", "process") if addressable else ("inline", "thread")
            mode = self.dispatch.choose(name, len(acc), modes)
        self.dispatch.record(mode)
        started = time.perf_counter()
        if mode == "process":
            self._fold_on_workers(table, name, acc, journal, sink)
        else:
            # Coordinator-side folds bypass the workers: their mirrors go stale.
            try:
                fold_on_coordinator(table, acc, journal, fold, sink, mode == "thread")
            finally:
                self._mark_dirty(name, table, acc)
        if self.adaptive and not force_inline:
            self.dispatch.observe(name, mode, len(acc), time.perf_counter() - started)

    def _fold_on_workers(self, table, name, acc, journal, sink) -> None:
        workers = self._ensure_workers()
        state = self._sync_state(name, table)
        versions = table.versions
        parts = table.partition(acc)
        pending = []
        for index, part in enumerate(parts):
            if not part:
                continue
            _process, conn = workers[index]
            try:
                if state[index] != versions[index]:
                    conn.send(("load", name, table.shards[index]))
                    state[index] = versions[index]
                conn.send(("fold", name, part, journal))
            except (BrokenPipeError, OSError) as exc:
                # A dead worker's pipe fails on send; drain the replies of the
                # workers already dispatched before surfacing, so their shard
                # installs are not lost.
                self._drain_replies(table, name, journal, sink, pending)
                self._synced.clear()
                self.close()
                raise RuntimeError(
                    f"shard worker {index} died before the fold of map {name!r}"
                ) from exc
            pending.append(index)
        error = self._drain_replies(table, name, journal, sink, pending)
        if error is not None:
            raise error

    def _drain_replies(self, table, name, journal, sink, pending) -> Optional[BaseException]:
        """Receive and install every dispatched worker's reply.

        Returns the first worker-reported fold error (coordinator decides
        whether to raise); a *dead* worker raises RuntimeError immediately
        after tearing the backend down.
        """
        workers = self._workers
        error: Optional[BaseException] = None
        for index in pending:
            conn = workers[index][1]
            try:
                journal_wire, changed, worker_error = conn.recv()
            except (EOFError, OSError) as exc:
                self._synced.clear()
                self.close()
                raise RuntimeError(
                    f"shard worker {index} died mid-fold of map {name!r}"
                ) from exc
            added, removed = journal_from_wire(journal_wire)
            # Install the reply into the authoritative shard: pops for
            # annihilated keys, stores for survivors.  Direct shard access —
            # no facade, no version bump — keeps mirror and table in lockstep.
            shard = table.shards[index]
            for key in removed:
                shard.pop(key, None)
            shard.update(changed)
            if journal and (added or removed):
                sink(added, removed)
            if worker_error is not None and error is None:
                error = worker_error
        return error


def generated_rmap_groups(table, groups, fn) -> List[Tuple[Any, Any]]:
    """The ``_rmap_groups`` helper injected into generated trigger modules.

    Fans a tracked recompute's affected-group evaluation out over the target
    table's shard backend, returning ``(group, value)`` pairs; plain-dict
    tables, backend-less sharded tables and small group sets evaluate
    serially in place — byte-identical results either way (evaluation is
    read-only; the caller applies every diff afterwards).
    """
    groups = list(groups)
    backend = getattr(table, "backend", None)
    if backend is None or not backend.wants_groups(len(groups)):
        return [(group, fn(group)) for group in groups]
    return list(zip(groups, backend.map_groups(fn, groups)))


__all__ = [
    "BACKEND_NAMES",
    "MIN_PARALLEL_GROUPS",
    "InlineShardBackend",
    "ProcessShardBackend",
    "ShardBackend",
    "ThreadShardBackend",
    "default_shard_backend",
    "generated_rmap_groups",
    "make_dispatch_policy",
    "make_shard_backend",
    "process_fold_capable",
    "resolve_shard_backend",
]
