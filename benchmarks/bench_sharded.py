"""E12 — the partition tier: sharded map tables across shard counts.

Every compiled batch trigger is a set of independent per-key folds, so the
map tables can be hash-partitioned into N shards and each increment map
folded shard by shard (``repro.compiler.partition``).  This benchmark
measures three things:

* **End-to-end batch application** on the self-join and grouped-sum
  workloads through ``RecursiveIVM(..., shards=N)`` at batch size 1000,
  asserting N > 1 stays result-identical to N = 1.
* **Pure fold throughput** — pre-built increment maps folded into a table
  through exactly the runtime's sharded fold, isolated from statement
  evaluation.  The serial per-shard overhead is asserted to stay within 2x
  of the unsharded fold (``test_serial_sharded_fold_overhead_is_bounded``).
* **The dashboard row** — the four sales-dashboard views through
  ``Session.apply_batch``, unsharded vs ``shards=2``, at batch 50 and 1000,
  timed batch by batch with the two sessions interleaved.  Reported, not
  asserted; the two end states are asserted identical.

The folds run on the calling thread, so sharding buys no speed on any
interpreter: what the rows show is its price.  A parallel placement of the
folds may return with a row it wins on the CI host.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_sharded.py [--smoke]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_sharded.py
"""

import sys
import time

import pytest

from repro.compiler.runtime import TriggerRuntime
from repro.compiler.compile import compile_query
from repro.core.parser import parse
from repro.ivm.recursive import RecursiveIVM
from repro.session import Session
from repro.workloads.schemas import SALES_SCHEMA, UNARY_SCHEMA
from repro.workloads.streams import StreamGenerator
from repro.workloads.tpch_like import SalesStreamGenerator

from conftest import SMOKE, smoke_scaled

#: Batch size of the fold and end-to-end measurements.
BATCH_SIZE = 1_000
SHARD_COUNTS = (1, 2, 4)

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


def measure_fold_throughput(batches=None, distinct_keys=50_000, repeats=3):
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
            runtime = TriggerRuntime(program, shards=shards)
            target = runtime.program.result_map
            started = time.perf_counter()
            for increment in increments:
                runtime._fold_increments(target, increment, None, None)
            best = min(best, time.perf_counter() - started)
        final = dict(runtime.maps[target].items()) if shards > 1 else dict(runtime.maps[target])
        if reference is None:
            reference = final
        else:
            assert final == reference, f"shards={shards} diverged from unsharded fold"
        results[shards] = {"seconds": best, "keys_per_s": total_keys / best}
    return {
        "batch_size": BATCH_SIZE,
        "batches": batches,
        "total_keys": total_keys,
        "per_shards": results,
    }


# ---------------------------------------------------------------------------
# The dashboard row: Session.apply_batch, unsharded vs shards=2
# ---------------------------------------------------------------------------

DASHBOARD_SQL = {
    "revenue": (
        "SELECT c.nation, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation"
    ),
    "revenue_by_customer": (
        "SELECT c.ck, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.ck"
    ),
    "orders": "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck",
    "total_revenue": (
        "SELECT SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2"
    ),
}
DASHBOARD_BATCHES = (50, 1_000)
DASHBOARD_SHARDS = (1, 2)


def measure_dashboard_row(warm_orders=None, orders=None):
    """Dashboard ``Session.apply_batch`` updates/s per batch size and shard count.

    Both sessions are warmed with the same sales stream, then apply the same
    batches, alternating which goes first; each batch is timed on its own.
    The end states are asserted identical.  Returns ``{batch size: {shards:
    updates/s}}``.
    """
    if warm_orders is None:
        warm_orders = smoke_scaled(8_000, 400)
    if orders is None:
        orders = smoke_scaled(20_000, 1_000)
    generator = SalesStreamGenerator(customers=200, seed=7)
    warm = generator.generate(warm_orders).updates
    stream = generator.generate(orders, include_customers=False).updates
    record = {}
    for batch_size in DASHBOARD_BATCHES:
        sessions = {}
        for shards in DASHBOARD_SHARDS:
            session = sessions[shards] = Session(SALES_SCHEMA, track_history=False, shards=shards)
            for name, sql in DASHBOARD_SQL.items():
                session.view(name, sql)
            session.apply_batch(warm)
        busy = dict.fromkeys(DASHBOARD_SHARDS, 0.0)
        for index, start in enumerate(range(0, len(stream), batch_size)):
            batch = stream[start:start + batch_size]
            for shards in DASHBOARD_SHARDS[:: 1 if index % 2 == 0 else -1]:
                started = time.perf_counter()
                sessions[shards].apply_batch(batch)
                busy[shards] += time.perf_counter() - started
        reference = sessions[DASHBOARD_SHARDS[0]].results()
        for shards, session in sessions.items():
            assert session.results() == reference, f"dashboard diverged at shards={shards}"
        record[batch_size] = {shards: len(stream) / seconds for shards, seconds in busy.items()}
    return record


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_sharded_apply_batch_matches_unsharded():
    """Correctness at benchmark scale: every shard count, identical results."""
    measure_batch_apply(stream_length=4_000, repeats=1)


def test_dashboard_row_results_are_identical():
    """The dashboard row's sessions end in one state at every shard count."""
    measure_dashboard_row(warm_orders=200, orders=400)


@pytest.mark.parametrize("shards", [2, 4])
def test_serial_sharded_fold_overhead_is_bounded(shards):
    """Per-shard folds are the same dict loops split N ways — they must stay
    within 2x of the unsharded fold."""
    record = measure_fold_throughput(batches=smoke_scaled(20, 4))
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

    print(f"\nend-to-end apply_batch, batch size {BATCH_SIZE}, stream {stream_length}")
    apply_record = measure_batch_apply(stream_length=stream_length, repeats=1 if smoke else 3)
    print(f"{'workload':12s} " + " ".join(f"N={shards:<2d}{'':>6s}" for shards in SHARD_COUNTS))
    for name, per_shards in apply_record.items():
        cells = " ".join(f"{stream_length / seconds:9.0f}/s" for seconds in per_shards.values())
        print(f"{name:12s} {cells}")
    print("(results asserted identical across shard counts)")

    print("\ndashboard Session.apply_batch, four views (reported, not asserted)")
    print_dashboard_row(measure_dashboard_row(
        warm_orders=400 if smoke else None, orders=1_000 if smoke else None
    ))
    return 0


def print_dashboard_row(record):
    print(f"{'batch':>6s} " + " ".join(f"{f'shards={shards}':>14s}" for shards in DASHBOARD_SHARDS)
          + f" {'ratio':>7s}")
    for batch_size, per_shards in record.items():
        cells = " ".join(f"{rate:12.0f}/s" for rate in per_shards.values())
        ratio = per_shards[DASHBOARD_SHARDS[-1]] / per_shards[DASHBOARD_SHARDS[0]]
        print(f"{batch_size:6d} {cells} {ratio:6.2f}x")
    print("(end states asserted identical across shard counts)")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
