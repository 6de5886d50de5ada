"""E10 — multi-view sessions vs independent engines (the sharing win).

A realistic dashboard maintains many aggregate views over one update stream,
and those views overlap: per-nation revenue, per-customer revenue, total
revenue and order counts all contain the same join subqueries.  Registered
through one :class:`repro.Session`, their compiled hierarchies share
materialized maps (`repro.session.MapCatalog`): a map definition that appears
in several views is stored once, its triggers run once per update and its
slice indexes are maintained once.  ``N`` independent engines pay all of that
``N`` times.

Measured here: wall-clock time and total stored map entries for the sales
dashboard below, one Session vs one ``RecursiveIVM`` (generated backend) per
view, plus the change-data-capture invariant of the acceptance criteria —
``view.on_change`` deltas replayed over a fresh ``session.snapshot()``
reproduce the final view result exactly.

Run standalone for a quick table::

    PYTHONPATH=src python benchmarks/bench_multiview.py [--smoke]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_multiview.py
"""

import sys
import time

from repro.ivm.base import result_as_mapping
from repro.ivm.recursive import RecursiveIVM
from repro.session import Session
from repro.sql.frontend import sql_to_agca
from repro.workloads.schemas import SALES_SCHEMA
from repro.workloads.tpch_like import SalesStreamGenerator

from conftest import smoke_scaled

#: The dashboard: overlapping aggregates over one sales stream.  The last two
#: entries are duplicate panels — a common dashboard pattern that a Session
#: serves for free (the duplicate view aliases the existing result map).
#: They are deliberately spelled with the FROM order *reversed*: the compiled
#: map definitions then commute factor-for-factor with the originals, which
#: alpha-renaming alone cannot unify — deduplicating them exercises the
#: catalog's AC-canonical identity (``repro.compiler.normal_form``).
DASHBOARD = {
    "revenue_by_nation": (
        "SELECT c.nation, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation"
    ),
    "revenue_by_customer": (
        "SELECT c.ck, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.ck"
    ),
    "orders_by_customer": (
        "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck"
    ),
    "total_revenue": (
        "SELECT SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2"
    ),
    "revenue_by_nation_panel": (
        "SELECT c.nation, SUM(l.price * l.qty) FROM Lineitem l, Orders o, Customer c "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation"
    ),
    "total_revenue_panel": (
        "SELECT SUM(l.price * l.qty) FROM Lineitem l, Orders o, Customer c "
        "WHERE c.ck = o.ck AND o.ok = l.ok2"
    ),
}

ORDERS = smoke_scaled(3_000, 400)
SMOKE_ORDERS = 400


def make_stream(orders=ORDERS, seed=42):
    generator = SalesStreamGenerator(customers=50, seed=seed, order_cancel_fraction=0.2)
    return generator.generate(orders=orders)


def dashboard_queries():
    return {name: sql_to_agca(sql, SALES_SCHEMA) for name, sql in DASHBOARD.items()}


def run_session(stream):
    session = Session(SALES_SCHEMA)
    views = {name: session.view(name, query) for name, query in dashboard_queries().items()}
    started = time.perf_counter()
    session.apply_all(stream)
    elapsed = time.perf_counter() - started
    return session, views, elapsed


def run_independent(stream):
    engines = {
        name: RecursiveIVM(query, SALES_SCHEMA, backend="generated", map_name=name)
        for name, query in dashboard_queries().items()
    }
    started = time.perf_counter()
    for engine in engines.values():
        engine.apply_all(stream)
    elapsed = time.perf_counter() - started
    return engines, elapsed


def catalog_dedup_comparison():
    """Dashboard map/statement counts: AC-canonical vs alpha-renaming dedup.

    Compiles every dashboard view against two fresh :class:`MapCatalog`\\ s —
    one with the AC-canonical identity the Session uses (``ac_dedup=True``)
    and one restricted to alpha-renaming — and returns
    ``{"ac" | "alpha": (maps, statements)}``.
    """
    from repro.compiler.compile import compile_query
    from repro.session.catalog import MapCatalog

    counts = {}
    for label, ac_dedup in (("alpha", False), ("ac", True)):
        catalog = MapCatalog(SALES_SCHEMA, ac_dedup=ac_dedup)
        for name, query in dashboard_queries().items():
            program = compile_query(query, SALES_SCHEMA, name=name, catalog=catalog)
            catalog.absorb(name, program)
        counts[label] = (len(catalog.maps), catalog.program().statement_count())
    return counts


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


def test_ac_dedup_reduces_maps_vs_alpha_renaming():
    """The commuted panels only deduplicate under the AC-canonical identity."""
    counts = catalog_dedup_comparison()
    ac_maps, ac_statements = counts["ac"]
    alpha_maps, alpha_statements = counts["alpha"]
    assert ac_maps < alpha_maps
    assert ac_statements < alpha_statements


def test_session_matches_independent_engines_and_shares_maps():
    stream = make_stream(SMOKE_ORDERS)
    session, views, _ = run_session(stream)
    engines, _ = run_independent(stream)
    for name, view in views.items():
        assert result_as_mapping(view.result()) == result_as_mapping(engines[name].result())
    independent_entries = sum(engine.total_map_entries() for engine in engines.values())
    assert session.total_map_entries() < independent_entries
    assert session.sharing_report()["maps_deduplicated"] > 0


def test_session_updates_faster_than_independent_engines():
    """The acceptance check: N overlapping views through one Session beat N
    independent engines on wall-clock (best-of-three per side)."""
    stream = make_stream(ORDERS)
    session_seconds = min(run_session(stream)[2] for _ in range(3))
    independent_seconds = min(run_independent(stream)[1] for _ in range(3))
    speedup = independent_seconds / session_seconds
    assert speedup >= 1.2, (
        f"one Session is only {speedup:.2f}x faster than {len(DASHBOARD)} "
        f"independent engines (expected >= 1.2x from map sharing)"
    )


def test_on_change_deltas_replayed_over_snapshot_reproduce_result():
    stream = list(make_stream(SMOKE_ORDERS))
    midpoint = len(stream) // 2
    session = Session(SALES_SCHEMA)
    view = session.view("revenue_by_nation", DASHBOARD["revenue_by_nation"])
    for update in stream[:midpoint]:
        session.apply(update)
    snapshot = session.snapshot()
    deltas = []
    view.on_change(lambda changes: deltas.append(dict(changes)))
    for update in stream[midpoint:]:
        session.apply(update)

    replayed = Session.restore(snapshot)["revenue_by_nation"].result_mapping()
    for changes in deltas:
        for key, value in changes.items():
            new_value = replayed.get(key, 0) + value
            if new_value == 0:
                replayed.pop(key, None)
            else:
                replayed[key] = new_value
    assert replayed == view.result_mapping()


# ---------------------------------------------------------------------------
# Standalone mode (CI smoke + quick local table)
# ---------------------------------------------------------------------------


def main(argv):
    smoke = "--smoke" in argv
    stream = make_stream(SMOKE_ORDERS if smoke else ORDERS)
    print(f"stream: {len(stream)} updates; dashboard: {len(DASHBOARD)} views")

    session, views, session_seconds = run_session(stream)
    engines, independent_seconds = run_independent(stream)
    for name, view in views.items():
        assert result_as_mapping(view.result()) == result_as_mapping(engines[name].result()), name

    report = session.sharing_report()
    session_entries = session.total_map_entries()
    independent_entries = sum(engine.total_map_entries() for engine in engines.values())
    independent_maps = sum(len(engine.program.maps) for engine in engines.values())
    speedup = independent_seconds / session_seconds

    print(f"{'':24s} {'session':>14s} {'independent':>14s}")
    print(f"{'wall-clock':24s} {session_seconds:>13.3f}s {independent_seconds:>13.3f}s")
    print(
        f"{'throughput':24s} {len(stream) / session_seconds:>12.0f}/s "
        f"{len(stream) / independent_seconds:>12.0f}/s"
    )
    print(f"{'materialized maps':24s} {report['maps']:>14d} {independent_maps:>14d}")
    print(f"{'stored map entries':24s} {session_entries:>14d} {independent_entries:>14d}")
    print(
        f"\nsharing: {report['maps_deduplicated']} map definitions and "
        f"{report['statements_deduplicated']} trigger statements deduplicated "
        f"across {report['views']} views -> {speedup:.2f}x speedup, "
        f"{independent_entries - session_entries} fewer stored entries"
    )
    assert session_entries < independent_entries

    counts = catalog_dedup_comparison()
    (ac_maps, ac_statements), (alpha_maps, alpha_statements) = counts["ac"], counts["alpha"]
    print(
        f"AC-canonical dedup: {ac_maps} maps / {ac_statements} statements vs "
        f"{alpha_maps} maps / {alpha_statements} statements under alpha-renaming only "
        f"(the commuted panels unify only up to commutativity)"
    )
    assert ac_maps < alpha_maps

    # Change-data-capture invariant: snapshot + replayed deltas == final result.
    test_on_change_deltas_replayed_over_snapshot_reproduce_result()
    print("CDC check: on_change deltas replayed over a fresh snapshot reproduce the result exactly")
    if not smoke:
        assert speedup >= 1.2, f"expected >= 1.2x, got {speedup:.2f}x"
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
