"""E12 — sharded map tables: batch-fold throughput scaling across shard counts.

PR 4 made every compiled batch trigger a set of independent per-key folds;
PR 5 hash-partitions the map tables into N shards and runs the folds per
shard on a thread pool (``repro.compiler.partition``).  This benchmark
measures two things at batch size >= 1000:

* **End-to-end batch application** on the self-join and grouped-sum
  workloads through ``RecursiveIVM(..., shards=N)`` — the production path,
  asserting N > 1 stays result-identical to N = 1.
* **Pure fold throughput** — pre-built increment maps folded into a table
  through exactly the runtime's sharded fold machinery — the component the
  ISSUE's >=1.5x criterion targets, isolated from (serial) statement
  evaluation.

The >=1.5x assertion at N=4 only runs where per-shard dict folds *can*
scale: pure-Python folds need a free-threaded interpreter and >= 4 cores
(``repro.compiler.partition.parallel_fold_capable``).  On a GIL build or a
smaller host the table is still printed and correctness is still asserted —
claiming a thread speedup the platform cannot deliver would just institutionalize
a flaky benchmark.  The ``inline`` shard backend additionally shows the
serial per-shard overhead, which is asserted to stay small everywhere.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded.py [--smoke]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded.py
"""

import os
import sys
import time

import pytest

from repro.compiler.runtime import TriggerRuntime
from repro.compiler.compile import compile_query
from repro.compiler.partition import parallel_fold_capable, process_fold_capable
from repro.core.parser import parse
from repro.ivm.recursive import RecursiveIVM
from repro.workloads.schemas import UNARY_SCHEMA
from repro.workloads.streams import StreamGenerator

from conftest import SMOKE, smoke_scaled

#: Batch size of every measurement (the ISSUE criterion is at >= 1000).
BATCH_SIZE = 1_000
SHARD_COUNTS = (1, 2, 4)
#: The shard count the >=1.5x fold-throughput criterion targets.
ASSERTED_SHARDS = 4
FOLD_SPEEDUP_BAR = 1.5

GROUPED_SCHEMA = {"R": ("A", "B")}

#: End-to-end workloads: name -> (query, schema, key-domain size).
WORKLOADS = {
    "selfjoin": (parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, 4_000),
    "group_sum": (parse("AggSum([a], R(a, b) * b)"), GROUPED_SCHEMA, 4_000),
}


def _stream(schema, length, domain, seed=3):
    return StreamGenerator(schema, seed=seed, default_domain_size=domain).generate(length)


# ---------------------------------------------------------------------------
# End-to-end: apply_batch through sharded engines
# ---------------------------------------------------------------------------


def measure_batch_apply(stream_length=None, repeats=3):
    """Wall time of batched application per workload and shard count.

    Returns ``{workload: {shards: seconds}}`` plus result-identity checks —
    the machine-readable record ``run_experiments.py --json`` exports.
    """
    if stream_length is None:
        stream_length = smoke_scaled(20_000, 4_000)
    results = {}
    for name, (query, schema, domain) in WORKLOADS.items():
        stream = _stream(schema, stream_length, domain)
        per_shards = {}
        reference = None
        for shards in SHARD_COUNTS:
            best = float("inf")
            for _ in range(repeats):
                engine = RecursiveIVM(query, schema, backend="generated", shards=shards)
                started = time.perf_counter()
                for batch in stream.batches(BATCH_SIZE):
                    engine.apply_batch(batch)
                best = min(best, time.perf_counter() - started)
            if reference is None:
                reference = engine.result()
            else:
                assert engine.result() == reference, (name, shards)
            per_shards[shards] = best
        results[name] = per_shards
    return results


# ---------------------------------------------------------------------------
# The isolated fold: increments -> table, through the runtime's fold machinery
# ---------------------------------------------------------------------------


def _fold_workload(distinct_keys, batches, seed=9):
    """Pre-aggregated increment maps shaped like the self-join's group folds."""
    import random

    rng = random.Random(seed)
    increments = []
    for _ in range(batches):
        increment = {}
        for _ in range(BATCH_SIZE):
            key = (rng.randrange(distinct_keys),)
            increment[key] = increment.get(key, 0) + rng.choice((1, 1, 1, -1))
        increments.append(increment)
    return increments


def measure_fold_throughput(batches=None, distinct_keys=50_000, repeats=3, shard_backend=None):
    """Pure fold throughput (keys folded per second) per shard count.

    Each measurement replays the same increment sequence into a fresh map
    hierarchy via ``TriggerRuntime._fold_increments`` — the exact production
    fold, including slice-index-free fast paths — and cross-checks that every
    shard count produces the identical final table.
    """
    if batches is None:
        batches = smoke_scaled(60, 8)
    program = compile_query(parse("AggSum([a], R(a, b) * b)"), GROUPED_SCHEMA, name="q")
    increments = _fold_workload(distinct_keys, batches)
    total_keys = sum(len(increment) for increment in increments)
    results = {}
    reference = None
    for shards in SHARD_COUNTS:
        best = float("inf")
        for _ in range(repeats):
            runtime = TriggerRuntime(program, shards=shards, shard_backend=shard_backend)
            target = runtime.program.result_map
            started = time.perf_counter()
            for increment in increments:
                runtime._fold_increments(target, increment, None, None)
            best = min(best, time.perf_counter() - started)
            if runtime.shard_backend is not None:
                runtime.shard_backend.close()
        final = dict(runtime.maps[target].items()) if shards > 1 else dict(runtime.maps[target])
        if reference is None:
            reference = final
        else:
            assert final == reference, f"shards={shards} diverged from unsharded fold"
        results[shards] = {"seconds": best, "keys_per_s": total_keys / best}
    speedup = results[1]["seconds"] / results[ASSERTED_SHARDS]["seconds"]
    return {
        "batch_size": BATCH_SIZE,
        "batches": batches,
        "total_keys": total_keys,
        "per_shards": results,
        "speedup_at_asserted": speedup,
        "asserted": parallel_fold_capable(ASSERTED_SHARDS) and not SMOKE,
    }


# ---------------------------------------------------------------------------
# PR 8: the partition tier — thread vs process backend fold throughput
# ---------------------------------------------------------------------------

#: The backend matrix measured at ``ASSERTED_SHARDS``; ``unsharded`` is the
#: N=1 reference every configuration must equal bit-for-bit.
BACKEND_CONFIGS = (
    ("unsharded", 1, None),
    ("inline", ASSERTED_SHARDS, "inline"),
    ("thread", ASSERTED_SHARDS, "thread"),
    ("process", ASSERTED_SHARDS, "process"),
)
#: The PR-8 criterion: process workers >= 1.5x the thread pool at N=4 on GIL
#: builds (threads serialize on the GIL; processes do not).
PROCESS_SPEEDUP_BAR = 1.5


def measure_backend_fold_throughput(batches=None, distinct_keys=50_000, repeats=3):
    """Pure fold throughput per partition-tier backend at N=ASSERTED_SHARDS.

    Same fold workload as :func:`measure_fold_throughput`, but the dispatch
    runs through each pluggable backend — including long-lived process
    workers with warm per-shard mirrors.  Cross-checks that every backend
    produces the identical final table, then reports the process-vs-thread
    speedup the PR-8 criterion targets.
    """
    if batches is None:
        batches = smoke_scaled(60, 8)
    program = compile_query(parse("AggSum([a], R(a, b) * b)"), GROUPED_SCHEMA, name="q")
    increments = _fold_workload(distinct_keys, batches)
    total_keys = sum(len(increment) for increment in increments)
    results = {}
    reference = None
    for label, shards, backend in BACKEND_CONFIGS:
        best = float("inf")
        final = None
        for _ in range(repeats):
            runtime = TriggerRuntime(program, shards=shards, shard_backend=backend)
            target = runtime.program.result_map
            try:
                if backend == "process" and runtime.shard_backend is not None:
                    # Spawn the workers and warm their mirrors outside the
                    # timed region — the production pipeline pays this once
                    # per session, not once per batch.
                    runtime._fold_increments(target, dict(increments[0]), None, None)
                    runtime.restore_tables({target: {}})
                started = time.perf_counter()
                for increment in increments:
                    runtime._fold_increments(target, increment, None, None)
                best = min(best, time.perf_counter() - started)
                final = dict(runtime.maps[target].items())
            finally:
                if runtime.shard_backend is not None:
                    runtime.shard_backend.close()
        if reference is None:
            reference = final
        else:
            assert final == reference, f"backend {label!r} diverged from the unsharded fold"
        results[label] = {"seconds": best, "keys_per_s": total_keys / best}
    process_vs_thread = results["thread"]["seconds"] / results["process"]["seconds"]
    return {
        "batch_size": BATCH_SIZE,
        "batches": batches,
        "total_keys": total_keys,
        "shards": ASSERTED_SHARDS,
        "per_backend": results,
        "process_vs_thread": process_vs_thread,
        "asserted": process_fold_capable(ASSERTED_SHARDS) and not SMOKE,
    }


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_sharded_apply_batch_matches_unsharded():
    """Correctness at benchmark scale: every shard count, identical results."""
    measure_batch_apply(stream_length=4_000, repeats=1)


def test_fold_throughput_scaling():
    """The PR-5 criterion: >=1.5x fold throughput at N=4 vs N=1, batch 1000.

    Asserted only where per-shard folds can actually run in parallel (a
    free-threaded interpreter with >= 4 cores); elsewhere the sharded fold
    must simply stay correct and its serial overhead bounded.
    """
    record = measure_fold_throughput()
    speedup = record["speedup_at_asserted"]
    if record["asserted"]:
        assert speedup >= FOLD_SPEEDUP_BAR, (
            f"sharded folds at N={ASSERTED_SHARDS} are only {speedup:.2f}x the "
            f"unsharded fold (expected >= {FOLD_SPEEDUP_BAR}x at batch size {BATCH_SIZE})"
        )
    else:
        # GIL build / small host: the machinery must not collapse — the
        # partition+dispatch overhead is bounded (folds are >= 1/4 of
        # unsharded throughput even with threads fighting one core).
        assert speedup >= 0.25, (
            f"sharded fold overhead is pathological: {speedup:.2f}x at "
            f"N={ASSERTED_SHARDS} (expected >= 0.25x even without parallelism)"
        )


def test_process_backend_beats_threads_where_capable():
    """The PR-8 criterion: >=1.5x process-vs-thread fold throughput at N=4.

    Process workers sidestep the GIL, so the bar is asserted on *any* build
    with enough cores (``process_fold_capable``); on smaller hosts the
    backends must still agree bit-for-bit and the process overhead must not
    be pathological.
    """
    record = measure_backend_fold_throughput()
    speedup = record["process_vs_thread"]
    if record["asserted"]:
        assert speedup >= PROCESS_SPEEDUP_BAR, (
            f"process backend at N={ASSERTED_SHARDS} is only {speedup:.2f}x the "
            f"thread backend (expected >= {PROCESS_SPEEDUP_BAR}x at batch size {BATCH_SIZE})"
        )
    else:
        # Serialization + IPC must stay within an order of magnitude of the
        # thread pool even when only one core is available.
        assert speedup >= 0.1, (
            f"process backend overhead is pathological: {speedup:.2f}x the "
            f"thread backend at N={ASSERTED_SHARDS}"
        )


@pytest.mark.parametrize("shards", [2, 4])
def test_serial_sharded_fold_overhead_is_bounded(shards):
    """On the inline backend, per-shard folds are the same dict loops split
    N ways — they must stay within 2x of the unsharded fold."""
    record = measure_fold_throughput(batches=smoke_scaled(20, 4), shard_backend="inline")
    serial = record["per_shards"][shards]["seconds"]
    baseline = record["per_shards"][1]["seconds"]
    if SMOKE:
        assert serial > 0
        return
    assert serial <= baseline * 2.0, (
        f"serial sharded fold at N={shards} costs {serial / baseline:.2f}x "
        f"the unsharded fold (expected <= 2x)"
    )


# ---------------------------------------------------------------------------
# Standalone mode (CI smoke + quick local table)
# ---------------------------------------------------------------------------


def main(argv=()):
    smoke = "--smoke" in argv or SMOKE
    fold_batches = 8 if smoke else 60
    stream_length = 4_000 if smoke else 20_000

    print(f"pure fold throughput, batch size {BATCH_SIZE}, {fold_batches} batches")
    record = measure_fold_throughput(batches=fold_batches)
    print(f"{'shards':>8s} {'seconds':>10s} {'keys/s':>12s} {'vs N=1':>8s}")
    base = record["per_shards"][1]["seconds"]
    for shards, row in record["per_shards"].items():
        print(
            f"{shards:8d} {row['seconds']:10.4f} {row['keys_per_s']:12.0f} "
            f"{base / row['seconds']:7.2f}x"
        )
    capable = parallel_fold_capable(ASSERTED_SHARDS)
    print(
        f"parallel-capable host (free-threaded, >={ASSERTED_SHARDS} cores): {capable}; "
        f"cores={os.cpu_count()}"
    )
    if record["asserted"]:
        speedup = record["speedup_at_asserted"]
        assert speedup >= FOLD_SPEEDUP_BAR, (
            f"sharded folds at N={ASSERTED_SHARDS} are only {speedup:.2f}x "
            f"(expected >= {FOLD_SPEEDUP_BAR}x)"
        )
        print(f"asserted: {speedup:.2f}x >= {FOLD_SPEEDUP_BAR}x at N={ASSERTED_SHARDS}")
    else:
        print(
            f"assertion skipped: the >= {FOLD_SPEEDUP_BAR}x bar at N={ASSERTED_SHARDS} "
            "needs a free-threaded interpreter with enough cores"
        )

    print(f"\npartition-tier backends at N={ASSERTED_SHARDS}, batch size {BATCH_SIZE}")
    backend_record = measure_backend_fold_throughput(batches=fold_batches)
    print(f"{'backend':>10s} {'seconds':>10s} {'keys/s':>12s}")
    for label, row in backend_record["per_backend"].items():
        print(f"{label:>10s} {row['seconds']:10.4f} {row['keys_per_s']:12.0f}")
    process_speedup = backend_record["process_vs_thread"]
    print(f"process vs thread: {process_speedup:.2f}x")
    if backend_record["asserted"]:
        assert process_speedup >= PROCESS_SPEEDUP_BAR, (
            f"process backend is only {process_speedup:.2f}x the thread backend "
            f"(expected >= {PROCESS_SPEEDUP_BAR}x)"
        )
        print(f"asserted: {process_speedup:.2f}x >= {PROCESS_SPEEDUP_BAR}x")
    else:
        print(
            f"assertion skipped: the >= {PROCESS_SPEEDUP_BAR}x process bar needs "
            f">= {ASSERTED_SHARDS} cores (cores={os.cpu_count()})"
        )

    print(f"\nend-to-end apply_batch, batch size {BATCH_SIZE}, stream {stream_length}")
    apply_record = measure_batch_apply(stream_length=stream_length, repeats=1 if smoke else 3)
    print(f"{'workload':12s} " + " ".join(f"N={shards:<2d}{'':>6s}" for shards in SHARD_COUNTS))
    for name, per_shards in apply_record.items():
        cells = " ".join(f"{stream_length / seconds:9.0f}/s" for seconds in per_shards.values())
        print(f"{name:12s} {cells}")
    print("(results asserted identical across shard counts)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
