"""What fusing a batch trigger into one loop over ∆R could break.

The generated executor evaluates every statement of an event inside a single
scan of the delta map, reading what the row alone addresses once for all
statements (``repro.compiler.plan.RowReads``).  Each test drives one shape
fusion touches through three executions that must agree after every batch —
generated batches, interpreted batches, and per-tuple application (the
reference semantics) — state and CDC.
"""

import random

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, resolve_semiring
from repro.gmr.database import Update
from repro.session import Session

SALES = {
    "Customer": ("ck", "nation"),
    "Orders": ("ok", "ck"),
    "Lineitem": ("ok2", "price", "qty"),
}
SALES_VIEWS = (
    ("revenue",
     "SELECT c.nation, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
     "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation"),
    ("revenue_by_customer",
     "SELECT c.ck, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
     "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.ck"),
    ("orders",
     "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck"),
    ("total_revenue",
     "SELECT SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
     "WHERE c.ck = o.ck AND o.ok = l.ok2"),
)


class Trio:
    """Generated batches, interpreted batches and per-tuple application of the
    same views, each with a CDC shadow per view."""

    def __init__(self, schema, views, ring=INTEGER_RING):
        self.sessions = {}
        self.shadows = {}
        for key, backend in (("generated", "generated"), ("interpreted", "interpreted"),
                             ("per_tuple", "generated")):
            session = Session(schema, ring=ring)
            for name, query in views:
                view = session.view(name, query, backend=backend)
                shadow = self.shadows[(key, name)] = {}
                view.on_change(lambda delta, shadow=shadow: _accumulate(shadow, delta, ring))
            self.sessions[key] = session
        self.ring = ring

    def apply(self, batch):
        self.sessions["generated"].apply_batch(batch)
        self.sessions["interpreted"].apply_batch(batch)
        for update in batch:
            for _ in range(update.count):
                self.sessions["per_tuple"].apply(Update(update.sign, update.relation, update.values))
        reference = self.sessions["per_tuple"].results()
        for key in ("generated", "interpreted"):
            assert self.sessions[key].results() == reference, key
        return reference

    def check_shadows(self):
        for (key, name), shadow in self.shadows.items():
            assert shadow == self.sessions[key][name].result_mapping(), (key, name)

    def close(self):
        for session in self.sessions.values():
            session.close()


def _accumulate(shadow, delta, ring):
    """Fold one CDC payload: deltas over a ring, post-update values otherwise."""
    for key, value in delta.items():
        if ring.is_ring:
            value = ring.add(shadow.get(key, ring.zero), value)
        if ring.is_zero(value):
            shadow.pop(key, None)
        else:
            shadow[key] = value


def test_shared_read_survives_another_statements_zero_guard():
    """``±Orders`` reads ``revenue_m4[ok]`` and ``revenue_by_customer_m2[ck]``
    once per row for four statements each.  An order without line items
    zeroes the first, an order of an unknown customer the second: the
    statements that do not multiply by the zero must still accumulate."""
    trio = Trio(SALES, SALES_VIEWS)
    try:
        explain = trio.sessions["generated"].explain()
        assert "ON BATCH +Orders AS __delta__Orders:  -- 1 scan of Δ, 3 reads, 3 shared" in explain
        trio.apply([Update(1, "Customer", (1, "FR")), Update(1, "Customer", (2, "DE")),
                    Update(1, "Lineitem", (10, 5, 2)), Update(1, "Lineitem", (12, 7, 1))])
        results = trio.apply([
            Update(1, "Orders", (10, 1)),   # customer and line items: everything moves
            Update(1, "Orders", (11, 1)),   # no line items: revenue_m4[11] = 0, orders still counts
            Update(1, "Orders", (12, 9)),   # unknown customer: only the auxiliary maps move
            Update(1, "Orders", (13, 2), count=2),
        ])
        assert results["orders"] == {(1,): 2, (2,): 2}
        assert results["revenue_by_customer"] == {(1,): 10}
        assert results["total_revenue"] == 10
        results = trio.apply([Update(1, "Customer", (9, "FR")), Update(1, "Lineitem", (13, 3, 3))])
        assert results["revenue"] == {("FR",): 17, ("DE",): 18}
        results = trio.apply([Update(-1, "Orders", (10, 1)), Update(-1, "Orders", (13, 2)),
                              Update(-1, "Orders", (12, 9)), Update(-1, "Customer", (2, "DE"))])
        assert results["orders"] == {(1,): 1}
        assert results["revenue"] == {}
        trio.check_shadows()
    finally:
        trio.close()


def float_sales_trace(seed=7, length=420):
    rng = random.Random(seed)
    nations = ("FR", "DE", "JP")
    updates = [Update(1, "Customer", (ck, nations[ck % 3])) for ck in range(6)]
    live_orders, live_items = [], []
    for step in range(length):
        roll = rng.random()
        if roll < 0.35 or not live_orders:
            order = (step, rng.randrange(7))
            live_orders.append(order)
            updates.append(Update(1, "Orders", order))
        elif roll < 0.8:
            # Several copies of a row: a multiplicity that is not a power of two,
            # so the association of ``_v * price * qty`` shows in the last bit.
            item = (rng.choice(live_orders)[0], rng.uniform(0.5, 99.5), rng.uniform(0.1, 9.9))
            live_items.append((item, rng.choice((1, 3, 7))))
            updates.append(Update(1, "Lineitem", item, count=live_items[-1][1]))
        elif roll < 0.9 and live_items:
            item, count = live_items.pop(rng.randrange(len(live_items)))
            updates.append(Update(-1, "Lineitem", item, count=count))
        else:
            updates.append(Update(-1, "Orders", live_orders.pop(rng.randrange(len(live_orders)))))
    return updates


#: ``results()`` of the trace below under the per-statement-loop generator
#: this change replaced (commit aac307e), batches of 37: the fused loop and
#: its shared coefficient prefixes must round every sum the same way.
PARENT_FLOAT_RESULTS = {
    "orders": {(0,): 23, (1,): 15, (2,): 18, (3,): 22, (4,): 18, (5,): 18},
    "revenue": {("DE",): 28920.82925496209, ("FR",): 34669.07656453791, ("JP",): 20493.70799776294},
    "revenue_by_customer": {
        (0,): 20007.6974459352, (1,): 26508.50534439116, (2,): 13340.017022971173,
        (3,): 14661.37911860271, (4,): 2412.323910570928, (5,): 7153.690974791766,
    },
    "total_revenue": 84083.61381726293,
}


def test_float_sums_are_bit_identical_to_the_per_statement_loops():
    session = Session(SALES, ring=FLOAT_FIELD)
    try:
        for name, query in SALES_VIEWS:
            session.view(name, query)
        trace = float_sales_trace()
        for start in range(0, len(trace), 37):
            session.apply_batch(trace[start:start + 37])
        assert session.results() == PARENT_FLOAT_RESULTS  # float ``==``: every bit
    finally:
        session.close()


def test_min_plus_shared_read_goes_through_from_int():
    """Both ring statements of ``+S`` read the ℤ-valued counter map
    ``total_m3[b]`` (rows of ``R`` per ``b``): one shared raw read, tested as a
    count, converted with ``from_int`` at each use."""
    ring = resolve_semiring("min-plus")
    views = (("total", "AggSum([], R(a, b) * S(b, c) * c)"),
             ("per_c", "AggSum([c], R(a, b) * S(b, c) * b)"))
    trio = Trio({"R": ("a", "b"), "S": ("b2", "c")}, views, ring=ring)
    try:
        group = trio.sessions["generated"]._groups["generated"]
        assert "ON BATCH +S AS __delta__S:  -- 1 scan of Δ, 1 reads, 1 shared" in (
            trio.sessions["generated"].explain())
        assert "_from_int(_r" in group.generated.source
        rng = random.Random(3)
        live = {"R": [], "S": []}
        for _ in range(12):
            batch = []
            for _ in range(9):
                relation = rng.choice(("R", "S"))
                if live[relation] and rng.random() < 0.35:
                    row = live[relation].pop(rng.randrange(len(live[relation])))
                    batch.append(Update(-1, relation, row))
                else:
                    row = (rng.randrange(4), rng.randrange(4))
                    live[relation].append(row)
                    batch.append(Update(1, relation, row))
            results = trio.apply(batch)
            joined = [(b, c) for (_a, b) in live["R"] for (b2, c) in live["S"] if b == b2]
            assert results["total"] == (min(c for _b, c in joined) if joined else ring.zero)
        trio.check_shadows()
    finally:
        trio.close()


def test_tracked_recompute_runs_after_the_fused_folds():
    """HAVING: the event's folds collect ``_TRK`` keys inside/after the fused
    loop and the recompute reads the post-fold sums."""
    views = (("hot", "SELECT p.community, SUM(p.score) FROM P p GROUP BY p.community "
                     "HAVING SUM(p.score) > 100"),
             ("posts", "SELECT p.community, SUM(1) FROM P p GROUP BY p.community"))
    trio = Trio({"P": ("community", "post", "score")}, views)
    try:
        assert "_TRK" in trio.sessions["generated"]._groups["generated"].generated.source
        rng = random.Random(11)
        live = []
        for _ in range(15):
            batch = []
            for _ in range(8):
                if live and rng.random() < 0.4:
                    batch.append(Update(-1, "P", live.pop(rng.randrange(len(live)))))
                else:
                    row = (rng.randrange(3), rng.randrange(10**6), rng.randrange(10, 60))
                    live.append(row)
                    batch.append(Update(1, "P", row))
            results = trio.apply(batch)
            sums = {}
            for community, _post, score in live:
                sums[(community,)] = sums.get((community,), 0) + score
            assert results["hot"] == {key: total for key, total in sums.items() if total > 100}
        trio.check_shadows()
    finally:
        trio.close()
