"""E11 — nested aggregates: the materialization hierarchy vs re-evaluation.

The closure theorem's headline query class — aggregates *inside conditions* —
runs on the trigger compiler since the materialization-hierarchy change:
the inner aggregate becomes an auxiliary map maintained by its own triggers
and the outer map is refreshed by a recompute statement over maps only — per
affected group when the inner maps are keyed by the outer group, in full
otherwise.  A base relation that stays correlated with an inner map (the
``amount < total`` below) is read through a base-copy map; a HAVING guard
depends on the group key alone, so its relation part factors into an aggregate
map of its own and the recompute is two lookups per changed group.

Measured here, on the paper-style decision-support query

    SELECT store, SUM(amount) FROM Sales
    WHERE  amount < (SELECT SUM(amount) FROM Sales)   -- sales below the total
    GROUP BY store

plus two HAVING variants (``COUNT(*) > c`` and the end-to-end benchmark's own
``SUM(amount) > c``) whose recompute is group-tracked and pointwise:
wall-clock time for a mixed insert/delete stream on the compiled hierarchy (generated and
interpreted backends) against :class:`NaiveReevaluation`.  Naive re-evaluation
pays the nested evaluation per *outer tuple* per update (the inner aggregate
is re-evaluated inside every condition check), so it degrades quadratically
with the database while the hierarchy's per-update work stays bounded by the
affected groups.

At the full configuration (10k updates) naive is measured on a uniform sample
of the stream positions — its database is advanced cheaply in between and only
the sampled updates are timed — and extrapolated to the whole stream; the
smoke configuration is small enough to run naive in full on every update.

Run standalone for a quick table::

    PYTHONPATH=src python benchmarks/bench_nested_aggregates.py [--smoke]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_nested_aggregates.py
"""

import random
import sys
import time

from conftest import SMOKE, smoke_scaled

from repro.gmr.database import delete, insert
from repro.ivm.base import result_as_mapping
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.sql.frontend import sql_to_agca

SCHEMA = {"Sales": ("store", "amount")}

QUERIES = {
    "below_global_total": (
        "SELECT store, SUM(amount) FROM Sales "
        "WHERE amount < (SELECT SUM(amount) FROM Sales) GROUP BY store"
    ),
    "having_count": (
        "SELECT store, SUM(amount) FROM Sales GROUP BY store HAVING COUNT(*) > 5"
    ),
    # The shape of benchmarks/e2e's HAVING tier, measurable on both executors
    # outside the BENCHMARK.json contract.  The smoke stream crosses the
    # threshold mid-way; the full stream passes it early and then keeps
    # re-testing a true guard and rewriting a hot group's total per update.
    "having_sum": (
        "SELECT store, SUM(amount) FROM Sales GROUP BY store HAVING SUM(amount) > 50"
    ),
}

#: Full configuration: the acceptance point (10k updates); smoke: CI-sized.
UPDATES = smoke_scaled(10_000, 300)
STORES = smoke_scaled(20, 5)
AMOUNTS = smoke_scaled(50, 10)
#: How many stream positions the naive engine is timed at (full mode only).
NAIVE_SAMPLE = 12
SMOKE_UPDATES = 300


def make_stream(updates=UPDATES, seed=11, stores=STORES, amounts=AMOUNTS):
    """A mixed insert/delete stream over a bounded active domain."""
    rng = random.Random(seed)
    live, stream = [], []
    for _ in range(updates):
        if live and rng.random() < 0.3:
            stream.append(delete("Sales", *live.pop(rng.randrange(len(live)))))
        else:
            row = (rng.randrange(stores), rng.randrange(amounts))
            live.append(row)
            stream.append(insert("Sales", *row))
    return stream


def query_for(name):
    return sql_to_agca(QUERIES[name], SCHEMA)


def run_hierarchy(name, stream, backend="generated"):
    """Total wall-clock seconds to maintain the query over the whole stream."""
    engine = RecursiveIVM(query_for(name), SCHEMA, backend=backend)
    started = time.perf_counter()
    engine.apply_all(stream)
    return engine, time.perf_counter() - started


def run_naive_full(name, stream):
    engine = NaiveReevaluation(query_for(name), SCHEMA)
    started = time.perf_counter()
    engine.apply_all(stream)
    return engine, time.perf_counter() - started


def run_naive_sampled(name, stream, sample=NAIVE_SAMPLE):
    """Estimated naive total: time a uniform sample of updates, extrapolate.

    Between samples the engine's database is advanced directly (the cheap
    part); only the sampled ``apply`` calls — each a full re-evaluation — are
    timed.  Returns ``(engine, estimated_total_seconds)``.
    """
    engine = NaiveReevaluation(query_for(name), SCHEMA)
    positions = set(range(0, len(stream), max(1, len(stream) // sample)))
    timed = 0.0
    count = 0
    for position, update in enumerate(stream):
        if position in positions:
            started = time.perf_counter()
            engine.apply(update)
            timed += time.perf_counter() - started
            count += 1
        else:
            engine.db.apply(update)
    # The result is stale after untimed advances; one final re-evaluation
    # restores it for correctness checks (not counted in the estimate).
    engine.bootstrap(engine.db)
    return engine, timed / count * len(stream)


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_hierarchy_matches_naive_on_the_benchmark_stream():
    stream = make_stream(SMOKE_UPDATES, stores=5, amounts=10)
    for name in QUERIES:
        reference, _ = run_naive_full(name, stream)
        for backend in ("generated", "interpreted"):
            engine, _ = run_hierarchy(name, stream, backend)
            assert result_as_mapping(engine.result()) == result_as_mapping(
                reference.result()
            ), (name, backend)


def test_maintained_hierarchy_at_least_5x_faster_than_naive():
    """The acceptance check: the compiled hierarchy beats naive re-evaluation
    by >= 5x on the paper-style nested query (best-of-three per side)."""
    # One naive measurement is enough on either side of the configuration:
    # the observed gap is orders of magnitude beyond the asserted 5x.
    if SMOKE:
        stream = make_stream(SMOKE_UPDATES, stores=5, amounts=10)
        naive_seconds = run_naive_full("below_global_total", stream)[1]
    else:
        stream = make_stream()
        naive_seconds = run_naive_sampled("below_global_total", stream)[1]
    hierarchy_seconds = min(
        run_hierarchy("below_global_total", stream)[1] for _ in range(3)
    )
    speedup = naive_seconds / hierarchy_seconds
    assert speedup >= 5.0, (
        f"maintained hierarchy is only {speedup:.1f}x naive re-evaluation "
        f"over {len(stream)} updates (expected >= 5x)"
    )


# ---------------------------------------------------------------------------
# standalone table
# ---------------------------------------------------------------------------


def main(smoke: bool) -> None:
    updates = SMOKE_UPDATES if smoke else UPDATES
    stores = 5 if smoke else STORES
    amounts = 10 if smoke else AMOUNTS
    stream = make_stream(updates, stores=stores, amounts=amounts)
    print(f"E11  nested aggregates: {updates} mixed updates, "
          f"{stores} stores x {amounts} amounts\n")
    header = f"{'query':>20} {'engine':>22} {'seconds':>10} {'vs naive':>9}"
    print(header)
    print("-" * len(header))
    for name in QUERIES:
        if smoke:
            naive_engine, naive_seconds = run_naive_full(name, stream)
            naive_label = "naive (full run)"
        else:
            naive_engine, naive_seconds = run_naive_sampled(name, stream)
            naive_label = f"naive (sampled x{NAIVE_SAMPLE})"
        rows = [(naive_label, naive_seconds)]
        reference = result_as_mapping(naive_engine.result())
        for backend in ("generated", "interpreted"):
            engine, seconds = run_hierarchy(name, stream, backend)
            assert result_as_mapping(engine.result()) == reference, (name, backend)
            rows.append((f"hierarchy ({backend})", seconds))
        for label, seconds in rows:
            ratio = naive_seconds / seconds if seconds else float("inf")
            print(f"{name:>20} {label:>22} {seconds:>10.3f} {ratio:>8.1f}x")
        print()


if __name__ == "__main__":
    main(smoke="--smoke" in sys.argv[1:])
