"""Regenerate the offline experiment tables (E1–E15) and print them.

This is the offline companion of the pytest-benchmark files under
``benchmarks/`` (see the README's "Tests and benchmarks" section): it
produces the qualitative tables — who wins, by what factor, where the
paper's worked examples land — in one run.  Run with:

    PYTHONPATH=src python benchmarks/run_experiments.py            # everything
    PYTHONPATH=src python benchmarks/run_experiments.py E2 E4      # a subset

``--json out.json`` additionally writes a machine-readable record of the run
(per-experiment wall time plus whatever numbers the experiment returns) —
this is what CI uploads as the perf-trajectory artifact, so speedups are
comparable across commits.  ``REPRO_BENCH_SMOKE=1`` shrinks the measured
experiments to their smoke configurations.
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.analysis.reporting import Table, scaling_exponent
from repro.compiler.compile import compile_query
from repro.compiler.cost import CountingSemiring
from repro.compiler.runtime import TriggerRuntime
from repro.core.degree import degree
from repro.core.delta import UpdateEvent, delta
from repro.core.parser import parse, to_string
from repro.core.recursive_delta import figure1_rows
from repro.core.simplify import simplify
from repro.gmr.database import delete, insert
from repro.ivm.classical import ClassicalIVM
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.workloads.queries import chain_count_query, query_by_name
from repro.workloads.schemas import RST_SCHEMA, UNARY_SCHEMA
from repro.workloads.streams import StreamGenerator
from repro.workloads.tpch_like import SalesStreamGenerator

SELFJOIN = parse("Sum(R(x) * R(y) * (x = y))")


def _header(title: str) -> None:
    print("\n" + "=" * 78)
    print(title)
    print("=" * 78)


def experiment_e1() -> None:
    _header("E1  Figure 1: memoized deltas of f(x) = x²")
    rows = figure1_rows()
    headers = list(rows[0].keys())
    table = Table(headers)
    for row in rows:
        table.add_row(*[row[column] for column in headers])
    print(table.render())


def experiment_e2() -> None:
    _header("E2  Example 1.2: update trace of the self-join count")
    program = compile_query(SELFJOIN, UNARY_SCHEMA, name="q")
    runtime = TriggerRuntime(program)
    [auxiliary] = [name for name in program.maps if name != "q"]
    trace = [insert("R", "c"), insert("R", "c"), insert("R", "d"), insert("R", "c"),
             delete("R", "d"), insert("R", "c"), delete("R", "c")]
    table = Table(["update", "Q(R)", "dQ(+R(c))", "dQ(-R(c))", "dQ(+R(d))", "dQ(-R(d))"])
    table.add_row("(empty)", 0, 1, 1, 1, 1)
    for update in trace:
        runtime.apply(update)
        count_c = runtime.lookup(auxiliary, "c")
        count_d = runtime.lookup(auxiliary, "d")
        table.add_row(
            str(update), runtime.result(),
            1 + 2 * count_c, 1 - 2 * count_c, 1 + 2 * count_d, 1 - 2 * count_d,
        )
    print(table.render())


def experiment_e3() -> None:
    _header("E3  Symbolic deltas: Example 6.5 degree chain and the condition truth table")
    query = parse("AggSum([c], C(c, n) * C(c2, n2) * (n = n2))")
    event1 = UpdateEvent.symbolic(1, "C", 2, prefix="__u1")
    event2 = UpdateEvent.symbolic(1, "C", 2, prefix="__u2")
    first = simplify(delta(query, event1), bound_vars=event1.argument_names,
                     needed_vars=set(event1.argument_names) | {"c"})
    second = simplify(delta(first, event2),
                      bound_vars=event1.argument_names + event2.argument_names,
                      needed_vars=set(event1.argument_names + event2.argument_names) | {"c"})
    table = Table(["expression", "degree", "text"])
    table.add_row("q", degree(query), to_string(query))
    table.add_row("delta q", degree(first), to_string(first))
    table.add_row("delta^2 q", degree(second), to_string(second))
    print(table.render())
    truth = Table(["old", "new", "delta of condition"])
    for old, new in [(1, 1), (1, 0), (0, 1), (0, 0)]:
        truth.add_row(old, new, new - old)
    print()
    print(truth.render())


def _per_update_seconds(engine, updates) -> float:
    started = time.perf_counter()
    for update in updates:
        engine.apply(update)
    return (time.perf_counter() - started) / len(updates)


def experiment_e4(sizes=(100, 300, 1000, 3000), measured_updates=100) -> None:
    _header("E4  Per-update cost vs database size (self-join count)")
    table = Table(
        ["N (tuples)", "recursive (µs)", "recursive ops", "classical (µs)", "naive (µs)"]
    )
    recursive_costs, classical_costs, naive_costs = [], [], []
    for size in sizes:
        domain = max(20, size // 20)
        generator = StreamGenerator(UNARY_SCHEMA, seed=size, default_domain_size=domain)
        warmup = generator.generate_inserts(size).updates
        measured = generator.generate(measured_updates).updates
        # Baselines are bootstrapped from the warm database directly (warming
        # them up through their own update path would itself cost O(N²+)).
        from repro.gmr.database import Database

        warm_db = Database(UNARY_SCHEMA)
        warm_db.apply_all(warmup)

        counting = CountingSemiring()
        recursive = RecursiveIVM(SELFJOIN, UNARY_SCHEMA, ring=counting)
        recursive.apply_all(warmup)
        counting.counter.reset()
        recursive_seconds = _per_update_seconds(recursive, measured)
        recursive_ops = counting.counter.total / len(measured)

        classical = ClassicalIVM(SELFJOIN, UNARY_SCHEMA)
        classical.bootstrap(warm_db)
        classical_seconds = _per_update_seconds(classical, measured)

        naive = NaiveReevaluation(SELFJOIN, UNARY_SCHEMA)
        naive.bootstrap(warm_db)
        naive_seconds = _per_update_seconds(naive, measured[:5])

        recursive_costs.append(recursive_seconds)
        classical_costs.append(classical_seconds)
        naive_costs.append(naive_seconds)
        table.add_row(
            size,
            recursive_seconds * 1e6,
            recursive_ops,
            classical_seconds * 1e6,
            naive_seconds * 1e6,
        )
    print(table.render())
    print(
        "log-log scaling exponents (0 = size-independent): "
        f"recursive {scaling_exponent(sizes, recursive_costs):.2f}, "
        f"classical {scaling_exponent(sizes, classical_costs):.2f}, "
        f"naive {scaling_exponent(sizes, naive_costs):.2f}"
    )


def experiment_e5(domains=(50, 100, 200, 400)) -> None:
    _header("E5  Factorization (Example 1.3): auxiliary view sizes and per-update time")
    query = query_by_name("join_sum_product").expr
    program = compile_query(query, RST_SCHEMA, name="q")
    trigger = program.trigger_for("S", 1)
    [q_statement] = [s for s in trigger.statements if s.target == "q"]
    factor_views = [name for name in q_statement.maps_read() if name != trigger.delta_map]
    print("On +S the result is maintained as:", q_statement.describe())
    table = Table(
        ["active domain", "view entries (factorized)", "domain² (unfactorized bound)",
         "recursive µs/update", "classical µs/update"]
    )
    for domain in domains:
        generator = StreamGenerator(RST_SCHEMA, seed=domain, default_domain_size=domain)
        warmup = generator.generate_inserts(4 * domain).updates
        measured = generator.generate(100, relations=["S"]).updates

        runtime = TriggerRuntime(program)
        runtime.apply_all(warmup)
        started = time.perf_counter()
        runtime.apply_all(measured)
        recursive_us = (time.perf_counter() - started) / len(measured) * 1e6
        view_entries = sum(runtime.map_sizes()[name] for name in factor_views)

        from repro.gmr.database import Database

        warm_db = Database(RST_SCHEMA)
        warm_db.apply_all(warmup)
        classical = ClassicalIVM(query, RST_SCHEMA)
        classical.bootstrap(warm_db)
        classical_us = _per_update_seconds(classical, measured[:30]) * 1e6

        table.add_row(domain, view_entries, domain * domain, recursive_us, classical_us)
    print(table.render())


def experiment_e6(degrees=(1, 2, 3, 4), warm=400) -> None:
    _header("E6  Degree scaling: hierarchy size and per-update cost for chain-join counts")
    table = Table(["degree k", "maps", "max level", "statements", "µs/update (N=%d)" % warm])
    for degree_k in degrees:
        query = chain_count_query(degree_k)
        engine = RecursiveIVM(query.expr, query.schema, backend="generated")
        generator = StreamGenerator(query.schema, seed=degree_k, default_domain_size=8)
        engine.apply_all(generator.generate_inserts(warm).updates)
        measured = generator.generate(100).updates
        seconds = _per_update_seconds(engine, measured)
        program = engine.program
        table.add_row(
            degree_k,
            len(program.maps),
            max(definition.level for definition in program.maps.values()),
            program.statement_count(),
            seconds * 1e6,
        )
    print(table.render())


def experiment_e7(orders=250) -> None:
    _header("E7  TPC-H-like sales stream: revenue per nation, updates/second")
    query = query_by_name("revenue_per_nation")
    table = Table(["engine", "updates", "seconds", "updates/s"])
    reference = None
    for name, factory, scale in [
        ("recursive (generated)", lambda: RecursiveIVM(query.expr, query.schema, backend="generated"), 1.0),
        ("recursive (interpreted)", lambda: RecursiveIVM(query.expr, query.schema), 1.0),
        ("classical", lambda: ClassicalIVM(query.expr, query.schema), 0.1),
        ("naive", lambda: NaiveReevaluation(query.expr, query.schema), 0.02),
    ]:
        stream = SalesStreamGenerator(customers=40, seed=7).generate(max(5, int(orders * scale)))
        engine = factory()
        started = time.perf_counter()
        engine.apply_all(stream.updates)
        elapsed = time.perf_counter() - started
        table.add_row(name, len(stream), elapsed, len(stream) / elapsed)
        if scale == 1.0 and reference is None:
            reference = engine.result()
    print(table.render())


def experiment_e8(sizes=(100, 1000, 5000)) -> None:
    _header("E8  gmr ring operation micro-benchmark")
    from repro.gmr.records import Record
    from repro.gmr.relation import GMR

    table = Table(["n", "add (ms)", "neg (ms)", "join (ms)", "total (ms)"])
    for size in sizes:
        left = GMR({Record.of(A=i, B=i): 1 for i in range(size)})
        right = GMR({Record.of(B=i, C=i): 1 for i in range(size)})
        timings = []
        for operation in (lambda: left + left, lambda: -left, lambda: left * right, left.total):
            started = time.perf_counter()
            operation()
            timings.append((time.perf_counter() - started) * 1e3)
        table.add_row(size, *timings)
    print(table.render())


def experiment_e9():
    _header("E9  Batch triggers per batch vs per update (one-row delta maps)")
    import bench_batch_updates

    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    length = 4_000 if smoke else 20_000
    speedups = bench_batch_updates.measure_batch_trigger_speedups(stream_length=length)
    table = Table(["backend", "query", "per-tuple (s)", "batch (s)", "speedup"])
    for backend, per_query in speedups.items():
        for query_name, row in per_query.items():
            table.add_row(
                backend, query_name, row["per_tuple_s"], row["batch_s"],
                f"{row['speedup']:.2f}x" + ("*" if row["asserted"] else ""),
            )
    print(table.render())
    print(f"(* asserted >= 2x at batch size {bench_batch_updates.DELTA_BATCH_SIZE})")
    return {
        "batch_size": bench_batch_updates.DELTA_BATCH_SIZE,
        "stream_length": length,
        "speedups": speedups,
    }


def experiment_e11() -> None:
    _header("E11 nested aggregates: materialization hierarchy vs re-evaluation")
    import bench_nested_aggregates

    # The offline run uses the benchmark's smoke configuration — the full
    # 10k-update measurement lives in bench_nested_aggregates.py itself.
    bench_nested_aggregates.main(smoke=True)


def experiment_e13():
    _header("E13 streaming ingestion: concurrent producers, coalescing queue, soak")
    import bench_ingest

    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    record = bench_ingest.measure_ingest_throughput(
        length=8_000 if smoke else None, repeats=1 if smoke else 3
    )
    table = Table(["side", "seconds", "updates/s"])
    table.add_row("synchronous baseline", f"{record['baseline_s']:.3f}",
                  f"{record['baseline_updates_per_s']:.0f}")
    table.add_row("ingestion pipeline", f"{record['pipeline_s']:.3f}",
                  f"{record['pipeline_updates_per_s']:.0f}")
    print(table.render())
    stats = record["stats"]
    print(
        f"speedup {record['speedup']:.2f}x; coalesced "
        f"{stats['coalesced_updates']}/{stats['submitted_updates']} submitted updates "
        f"into {stats['flushed_updates']} flushed across {stats['flushes']} flushes"
    )
    soak = bench_ingest.run_soak(duration_s=0.75 if smoke else 3.0)
    soak_stats = soak["stats"]
    print(
        f"soak ({soak['duration_s']}s, {soak['producers']} producers): "
        f"{soak_stats['submitted_updates']} submitted, {soak_stats['flushes']} flushes, "
        f"{soak_stats['quarantined_batches']} quarantined, "
        f"max staleness {soak_stats['max_flush_staleness_ms']:.1f}ms "
        f"(bound {soak['staleness_bound_ms']:.0f}ms)"
    )
    return {"throughput": record, "soak": soak}


def experiment_e14():
    _header("E14 fused bare-count totals")
    import bench_batch_updates

    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    length = 4_000 if smoke else 20_000
    speedups = bench_batch_updates.measure_specialization_speedups(stream_length=length)
    table = Table(["backend", "query", "unfused (s)", "fused (s)", "speedup"])
    for backend, per_query in speedups.items():
        for query_name, row in per_query.items():
            table.add_row(
                backend, query_name, f"{row['generic_s']:.4f}",
                f"{row['specialized_s']:.4f}", f"{row['speedup']:.2f}x",
            )
    print(table.render())
    print("(reported, not asserted: batches reach the executors already grouped, "
          "so only the fused total is left to compare)")

    return {
        "batch_size": bench_batch_updates.DELTA_BATCH_SIZE,
        "stream_length": length,
        "speedups": speedups,
    }


def experiment_e15():
    _header("E15 lattice aggregates: MIN maintenance under deletion churn vs naive")
    import bench_lattice

    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    record = bench_lattice.measure_min_maintenance(
        stream_length=1_500 if smoke else None
    )
    table = Table(["engine", "per-update (µs)", "updates/s", "vs naive"])
    for backend, row in record["engines"].items():
        table.add_row(
            f"recursive-{backend}", f"{row['per_update_s'] * 1e6:.1f}",
            f"{row['updates_per_s']:.0f}", f"{row['speedup_vs_naive']:.1f}x",
        )
    naive = record["naive"]
    table.add_row("naive (sample)", f"{naive['per_update_s'] * 1e6:.1f}",
                  f"{naive['updates_per_s']:.0f}", "-")
    print(table.render())
    if smoke:
        print(f"(smoke run: >= {bench_lattice.SPEEDUP_FLOOR}x floor not asserted)")
    else:
        worst = min(row["speedup_vs_naive"] for row in record["engines"].values())
        print(f"(asserted >= {bench_lattice.SPEEDUP_FLOOR}x at "
              f"{record['stream_length']} updates; worst {worst:.1f}x)")
        assert worst >= bench_lattice.SPEEDUP_FLOOR
    scaling = bench_lattice.measure_state_scaling()
    small, large = scaling["groups"]
    table = Table(["engine", f"{small} groups (upd/s)", f"{large} groups (upd/s)", "small/large"])
    for backend, row in scaling["engines"].items():
        table.add_row(
            f"recursive-{backend}", f"{row['small_updates_per_s']:.0f}",
            f"{row['large_updates_per_s']:.0f}", f"{row['state_scaling_ratio']:.2f}x",
        )
    print(table.render())
    print(f"(the same {scaling['churn']}-update churn, groups of {scaling['group_size']}; "
          f"asserted <= {bench_lattice.SCALING_CEILING}x)")
    assert all(
        row["state_scaling_ratio"] <= bench_lattice.SCALING_CEILING
        for row in scaling["engines"].values()
    )
    record["state_scaling"] = scaling
    return record


EXPERIMENTS = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E11": experiment_e11,
    "E13": experiment_e13,
    "E14": experiment_e14,
    "E15": experiment_e15,
}


def main(argv) -> None:
    json_path = None
    selected_names = []
    arguments = list(argv)
    while arguments:
        argument = arguments.pop(0)
        if argument == "--json":
            if not arguments:
                raise SystemExit("--json requires an output path")
            json_path = arguments.pop(0)
        else:
            selected_names.append(argument.upper())
    selected = selected_names or list(EXPERIMENTS)
    record = {
        "smoke": bool(os.environ.get("REPRO_BENCH_SMOKE")),
        "experiments": {},
    }
    try:
        for name in selected:
            started = time.perf_counter()
            payload = EXPERIMENTS[name]()
            entry = {"seconds": time.perf_counter() - started}
            if payload is not None:
                entry["results"] = payload
            record["experiments"][name] = entry
    finally:
        # Dump whatever completed even if a later experiment raised, so the
        # perf-trajectory artifact keeps its partial measurements.
        if json_path is not None:
            with open(json_path, "w") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
            print(f"\nwrote machine-readable results to {json_path}")


if __name__ == "__main__":
    main(sys.argv[1:])
