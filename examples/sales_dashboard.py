"""A streaming revenue dashboard over a TPC-H-flavoured sales schema.

Four SQL aggregates — revenue per customer nation, revenue per customer,
order count per customer and total revenue — are registered as views on one
:class:`repro.Session` and maintained over a live stream of customers,
orders, line items and order cancellations.  The dashboard never re-runs the
joins, and the stream is fed in **batches** through ``Session.apply_batch``:
each batch is pre-aggregated into one signed delta map per relation — a
cancellation is a count of −1 — and folded by the relation's compiled batch
trigger once, with insert/delete pairs (an order placed and cancelled within
one batch) cancelled before any trigger runs.  Because the views overlap, their
compiled hierarchies *share* materialized maps, which the sharing report at
the end quantifies.  A change subscription streams one consolidated
per-nation revenue delta per batch.

Run with:  python examples/sales_dashboard.py
"""

from repro import Session
from repro.analysis.reporting import Table
from repro.workloads.schemas import SALES_SCHEMA
from repro.workloads.tpch_like import SalesStreamGenerator

DASHBOARD_SQL = {
    "revenue": (
        "SELECT c.nation, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation"
    ),
    "revenue_by_customer": (
        "SELECT c.ck, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.ck"
    ),
    "orders": (
        "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck"
    ),
    "total_revenue": (
        "SELECT SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2"
    ),
}


def main() -> None:
    run_dashboard(Session(SALES_SCHEMA))


def run_dashboard(session: Session) -> None:
    for name, sql in DASHBOARD_SQL.items():
        session.view(name, sql)

    # Change-data-capture: count per-nation revenue change events as they stream.
    change_events = []
    session["revenue"].on_change(lambda changes: change_events.append(len(changes)))

    generator = SalesStreamGenerator(customers=24, seed=42, order_cancel_fraction=0.2)
    stream = generator.generate(orders=400)

    # Feed the stream in batches: one pre-aggregated delta map per relation
    # per batch, one fold per distinct key — and a checkpoint per quarter.
    batch_size = 50
    checkpoint_every = (len(stream) // 4 // batch_size) * batch_size or batch_size
    applied = 0
    for batch in stream.batches(batch_size):
        session.apply_batch(batch)
        applied += len(batch)
        if applied % checkpoint_every == 0:
            print(f"\n=== after {applied} updates (batches of {batch_size}) ===")
            table = Table(["nation", "revenue"], title="Revenue per nation")
            for (nation,), value in sorted(session["revenue"].result().items()):
                table.add_row(nation, value)
            print(table.render())
            print(f"total revenue: {session['total_revenue'].result()}")

    busiest = sorted(session["orders"].result().items(), key=lambda item: -item[1])[:5]
    table = Table(["customer", "orders"], title="\nBusiest customers")
    for (customer,), count in busiest:
        table.add_row(customer, count)
    print(table.render())

    report = session.sharing_report()
    print(
        f"\nOne session, {report['views']} views, {report['maps']} materialized maps "
        f"({report['maps_deduplicated']} definitions and "
        f"{report['statements_deduplicated']} trigger statements deduplicated by sharing), "
        f"{session.total_map_entries()} stored entries."
    )
    print(
        f"The revenue view fired {len(change_events)} change events "
        f"({sum(change_events)} per-nation deltas) over {len(stream)} updates "
        f"fed in batches of {batch_size} — one consolidated delta per batch."
    )
    print("The compiled revenue program:")
    print(session.explain())


if __name__ == "__main__":
    main()
