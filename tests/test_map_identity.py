"""One map per function: map identity modulo key order and binding spelling.

A materialized map is a function of its keys.  Both sharing registries (the
compiler's component registry and the session's ``MapCatalog``) key maps by
``repro.compiler.normal_form.sharing_key``, which sees through commuted
factors, ``(k := v)`` bindings and the order of the keys — a transposed map is
read as the shared one with its keys permuted.  These tests pin the identity,
the flagship dashboard's map set, the executors against the one-row-at-a-time
oracle (checked against direct evaluation) on a trace with customer churn (where the transposed index is read), what
semirings keep apart, view key order, late registration, snapshots and the
``duplicate-map`` lint rule.
"""

import random
from collections import Counter

import pytest

from repro.algebra.semirings import resolve_semiring
from repro.analysis.ir_lint import lint_program, main as lint_main
from repro.compiler.maps import MapDefinition
from repro.compiler.normal_form import ac_canonical_identity, read_positions
from repro.compiler.runtime import TriggerRuntime
from repro.compiler.triggers import BatchStatement, BatchTrigger, TriggerProgram
from repro.core.ast import MapRef, Mul, Rel
from repro.core.delta import delta_map_name
from repro.core.parser import parse
from repro.gmr.database import Update
from repro.session import MapCatalog, Session

SALES = {
    "Customer": ("ck", "nation"),
    "Orders": ("ok", "ck"),
    "Lineitem": ("ok2", "price", "qty"),
    "Probe": ("pid",),
}
_JOIN = "FROM Customer c, Orders o, Lineitem l WHERE c.ck = o.ck AND o.ok = l.ok2"
DASHBOARD = (
    ("revenue", f"SELECT c.nation, SUM(l.price * l.qty) {_JOIN} GROUP BY c.nation"),
    ("revenue_by_customer", f"SELECT c.ck, SUM(l.price * l.qty) {_JOIN} GROUP BY c.ck"),
    ("orders", "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck"),
    ("total_revenue", f"SELECT SUM(l.price * l.qty) {_JOIN}"),
    ("probe_seen", "SELECT p.pid, SUM(1) FROM Probe p GROUP BY p.pid"),
)
VIEWS = dict(DASHBOARD)
AUXILIARY = {
    "orders_m1", "revenue_by_customer_m2", "revenue_m1", "revenue_m2", "revenue_m3",
    "revenue_m4", "revenue_m5", "total_revenue_m2",
}
RESULTS = {name for name, _sql in DASHBOARD}


def identity(text, keys, commutative=True):
    return ac_canonical_identity(parse(text), keys, commutative)


def dashboard(views=DASHBOARD, **options):
    session = Session(SALES, **options)
    for name, sql in views:
        session.view(name, sql)
    return session


# ---------------------------------------------------------------------------
# The identity
# ---------------------------------------------------------------------------


class TestIdentity:
    def test_transposes_unify_with_their_permutation(self):
        forward, forward_order = identity("R(k0, k1)", ("k0", "k1"))
        swapped, swapped_order = identity("R(k1, k0)", ("k0", "k1"))
        assert forward == swapped
        assert (forward_order, swapped_order) == ((0, 1), (1, 0))
        # Key 0 of the registered map is key 1 of the transposed definition.
        assert read_positions(forward_order, swapped_order) == (1, 0)
        assert read_positions(forward_order, forward_order) == (0, 1)

    def test_binding_spellings_unify(self):
        bare, bare_order = identity("Customer(k0, v0)", ("k0",))
        bound, bound_order = identity("Customer(v0, v1) * (k0 := v0)", ("k0",))
        assert bare == bound and bare_order == bound_order == (0,)

    def test_commuted_definitions_unify(self):
        assert identity("R(k0) * S(k0)", ("k0",)) == identity("S(j0) * R(j0)", ("j0",))

    def test_the_dashboard_transposes_unify(self):
        # revenue_m5 and revenue_m6 of the parent layout: Orders, keys swapped.
        m5, m5_order = identity("Orders(v1, v0) * (k0 := v1) * (k1 := v0)", ("k0", "k1"))
        m6, m6_order = identity("Orders(v1, v0) * (k0 := v0) * (k1 := v1)", ("k0", "k1"))
        assert m5 == m6
        assert read_positions(m5_order, m6_order) == (1, 0)

    def test_a_repeated_key_is_a_different_function(self):
        assert identity("R(k0, k0)", ("k0",))[0] != identity("R(k0, k1)", ("k0", "k1"))[0]
        assert (
            identity("R(k0, k0) * S(k1)", ("k0", "k1"))[0]
            != identity("R(k0, k1) * S(k1)", ("k0", "k1"))[0]
        )
        # A binding between two keys is a diagonal, not a spelling.
        assert (
            identity("R(k0) * S(k1) * (k0 := k1)", ("k0", "k1"))[0]
            != identity("R(k0) * S(k1)", ("k0", "k1"))[0]
        )

    def test_a_summed_variable_is_not_a_key(self):
        assert identity("R(k0, v0)", ("k0",))[0] != identity("R(k0, k1)", ("k0", "k1"))[0]

    def test_without_commutativity_products_keep_their_order(self):
        assert (
            identity("R(k0) * S(k0)", ("k0",), commutative=False)[0]
            != identity("S(k0) * R(k0)", ("k0",), commutative=False)[0]
        )
        # Transposes and bindings are still one function.
        assert (
            identity("R(k1, k0) * (k0 := v0) * S(v0)", ("k0", "k1"), commutative=False)[0]
            == identity("R(k0, k1) * S(k1)", ("k1", "k0"), commutative=False)[0]
        )


# ---------------------------------------------------------------------------
# The dashboard's map set
# ---------------------------------------------------------------------------


def test_the_dashboard_stores_each_function_once():
    """``revenue_m6`` (Orders, keys swapped) is read as ``revenue_m5``;
    ``total_revenue_m3`` (a binding spelling of the Customer count) as
    ``revenue_by_customer_m2``."""
    with dashboard() as session:
        assert set(session.map_sizes()) == RESULTS | AUXILIARY
        report = session.sharing_report()
        assert report["maps"] == 13 and report["maps_transposed"] == 1
        # revenue_m6's two indexes became one (1,) index on revenue_m5.
        assert session._groups["generated"].runtime.plan.index_specs == {
            "revenue_m2": ((1,),), "revenue_m3": ((1,),), "revenue_m5": ((0,), (1,)),
        }
        explain = session.explain()
        assert (
            "revenue_m2[k0, k1] += fold(Δ=__delta__Customer) "
            "__delta__Customer[__b0, k0] * revenue_m5[k1, __b0]"
        ) in explain
        program = session._groups["generated"].catalog.program()
        assert not [f for f in lint_program(program, RESULTS) if f.kind == "duplicate-map"]


# ---------------------------------------------------------------------------
# Executors against the per-tuple oracle and a direct evaluation
# ---------------------------------------------------------------------------


def sales_trace(seed, batches=14, size=12):
    """Random batches over the dashboard relations, with customer churn:
    customers leave and come back under another nation, orders outlive and
    precede their customers, and rows repeat (multiplicities above one)."""
    rng = random.Random(seed)
    nations = ("FR", "DE", "JP")
    live = {relation: Counter() for relation in ("Customer", "Orders", "Lineitem")}
    trace = []
    for _ in range(batches):
        batch = []
        for _ in range(size):
            relation = rng.choice(("Customer", "Customer", "Orders", "Orders", "Lineitem"))
            if live[relation] and rng.random() < 0.35:
                row = rng.choice(sorted(live[relation]))
                live[relation][row] -= 1
                if not live[relation][row]:
                    del live[relation][row]
                batch.append(Update(-1, relation, row))
                continue
            if relation == "Customer":
                row = (rng.randrange(5), rng.choice(nations))
            elif relation == "Orders":
                row = (rng.randrange(8), rng.randrange(6))
            else:
                row = (rng.randrange(8), rng.randrange(1, 9), rng.randrange(1, 4))
            live[relation][row] += 1
            batch.append(Update(1, relation, row))
        trace.append(batch)
    return trace


def direct_results(live):
    """Every dashboard view evaluated from the live multisets by plain loops."""
    revenue, by_customer, orders, total = Counter(), Counter(), Counter(), 0
    for (ck, nation), customers in live["Customer"].items():
        for (ok, order_ck), order_count in live["Orders"].items():
            if order_ck != ck:
                continue
            orders[(ck,)] += customers * order_count
            for (ok2, price, qty), items in live["Lineitem"].items():
                if ok2 == ok:
                    amount = customers * order_count * items * price * qty
                    revenue[(nation,)] += amount
                    by_customer[(ck,)] += amount
                    total += amount
    drop_zero = lambda counts: {key: value for key, value in counts.items() if value}  # noqa: E731
    return {
        "revenue": drop_zero(revenue),
        "revenue_by_customer": drop_zero(by_customer),
        "orders": drop_zero(orders),
        "total_revenue": total,
        "probe_seen": {},
    }


def plain_tables(runtime):
    return {name: dict(table.items()) for name, table in runtime.maps.items()}


@pytest.mark.parametrize("shards", [1])
def test_generated_interpreted_and_per_tuple_agree_on_customer_churn(shards, apply_per_tuple):
    sessions = {
        backend: Session(SALES, shards=shards)
        for backend in ("generated", "interpreted")
    }
    shadows = {}
    for backend, session in sessions.items():
        for name, sql in DASHBOARD:
            view = session.view(name, sql, backend=backend)
            shadow = shadows[(backend, name)] = {}

            def accumulate(delta, shadow=shadow):
                for key, value in delta.items():
                    value = shadow.get(key, 0) + value
                    if value:
                        shadow[key] = value
                    else:
                        shadow.pop(key, None)

            view.on_change(accumulate)
    oracle = TriggerRuntime(sessions["generated"]._groups["generated"].catalog.program())
    live = {relation: Counter() for relation in ("Customer", "Orders", "Lineitem")}
    try:
        for batch in sales_trace(seed=shards):
            for session in sessions.values():
                session.apply_batch(batch)
            apply_per_tuple(oracle, batch)
            for update in batch:
                live[update.relation][update.values] += update.sign * update.count
            expected = direct_results(live)
            for backend, session in sessions.items():
                assert session.results() == expected, backend
                tables = plain_tables(session._groups[backend].runtime)
                assert tables == plain_tables(oracle), backend
        for (backend, name), shadow in shadows.items():
            assert shadow == sessions[backend][name].result_mapping(), (backend, name)
    finally:
        for session in sessions.values():
            session.close()


def test_min_plus_keeps_transposes_and_counters_apart():
    """Under a semiring a bare relation map is an ℤ-valued counter and
    support plans read counters at fixed positions: the identity carries the
    key order and the storage class, so only identical layouts share."""
    views = (
        ("revenue", f"SELECT c.nation, MIN(l.price) {_JOIN} GROUP BY c.nation"),
        ("total", f"SELECT MIN(l.price) {_JOIN}"),
    )
    with dashboard(views, ring=resolve_semiring("min-plus")) as session:
        assert session.sharing_report()["maps_transposed"] == 0
        maps = session._groups["generated"].catalog.program().maps
        orders_copies = [
            name for name, definition in maps.items()
            if definition.relations == {"Orders"} and definition.arity == 2
        ]
        # The counter Orders(k0, k1), and revenue_m5 / revenue_m6 — one
        # ring-valued function in two key orders.
        assert len(orders_copies) == 3
        session.apply_batch(HISTORY)
        live = {relation: Counter() for relation in ("Customer", "Orders", "Lineitem")}
        for update in HISTORY:
            live[update.relation][update.values] += update.sign * update.count
        rows = {
            relation: [row for row, count in counts.items() if count]
            for relation, counts in live.items()
        }
        prices = [
            price
            for ok2, price, _qty in rows["Lineitem"]
            for ok, ck in rows["Orders"] if ok == ok2
            for ck2, _nation in rows["Customer"] if ck2 == ck
        ]
        assert session["total"].result() == (min(prices) if prices else session.ring.zero)


def test_a_later_view_reads_an_equal_map_and_keeps_a_transposed_one_apart():
    """``SELECT o.ok, o.ck`` is the auxiliary Orders copy ``revenue_m5`` and
    reads it; ``SELECT o.ck, o.ok`` is its transpose and gets its own map,
    bootstrapped from the history, in the user's key order."""
    with dashboard() as session:
        session.apply_batch(HISTORY)
        same = session.view(
            "by_order", "SELECT o.ok, o.ck, SUM(1) FROM Orders o GROUP BY o.ok, o.ck"
        )
        swapped = session.view(
            "by_customer", "SELECT o.ck, o.ok, SUM(1) FROM Orders o GROUP BY o.ck, o.ok"
        )
        assert same._map_name == "revenue_m5" and swapped._map_name == "by_customer"
        live = Counter()
        for update in HISTORY:
            if update.relation == "Orders":
                live[update.values] += update.sign * update.count
        orders = {key: count for key, count in live.items() if count}
        assert same.result_mapping() == orders
        assert swapped.result_mapping() == {(ck, ok): count for (ok, ck), count in orders.items()}


def test_each_view_keeps_its_own_key_order():
    views = (
        ("by_order", "SELECT o.ok, o.ck, SUM(1) FROM Orders o GROUP BY o.ok, o.ck"),
        ("by_customer", "SELECT o.ck, o.ok, SUM(1) FROM Orders o GROUP BY o.ck, o.ok"),
    )
    with Session(SALES) as session:
        shadows = {}
        for name, sql in views:
            shadow = shadows[name] = {}
            session.view(name, sql).on_change(
                lambda delta, shadow=shadow: shadow.update(
                    {key: shadow.get(key, 0) + value for key, value in delta.items()}
                )
            )
        session.apply_batch([Update(1, "Orders", (10, 1)), Update(1, "Orders", (11, 2))])
        session.apply_batch([Update(1, "Orders", (12, 1)), Update(-1, "Orders", (11, 2))])
        assert session["by_order"].result_mapping() == {(10, 1): 1, (12, 1): 1}
        assert session["by_customer"].result_mapping() == {(1, 10): 1, (1, 12): 1}
        for name, shadow in shadows.items():
            live = {key: value for key, value in shadow.items() if value}
            assert live == session[name].result_mapping(), name


# ---------------------------------------------------------------------------
# Late registration and snapshots
# ---------------------------------------------------------------------------


HISTORY = [update for batch in sales_trace(seed=9, batches=6) for update in batch]


@pytest.mark.parametrize("order", [("total_revenue", "revenue"), ("revenue", "total_revenue")])
def test_late_registration_in_either_order_equals_a_fresh_session(order):
    first, second = order
    with Session(SALES) as late, Session(SALES) as fresh:
        late.view(first, VIEWS[first])
        late.apply_batch(HISTORY[: len(HISTORY) // 2])
        late.apply_batch(HISTORY[len(HISTORY) // 2 :])
        late.view(second, VIEWS[second])
        for name in order:
            fresh.view(name, VIEWS[name])
        fresh.apply_batch(HISTORY)
        assert late.results() == fresh.results()
        assert sorted(late.map_sizes().values()) == sorted(fresh.map_sizes().values())
        batch = sales_trace(seed=10, batches=1)[0]
        late.apply_batch(batch)
        fresh.apply_batch(batch)
        assert late.results() == fresh.results()


def test_snapshot_round_trip_equals_the_live_session():
    with dashboard() as session:
        session.apply_batch(HISTORY)
        restored = Session.restore(session.snapshot())
        try:
            assert restored.results() == session.results()
            batch = sales_trace(seed=12, batches=1)[0]
            session.apply_batch(batch)
            restored.apply_batch(batch)
            assert restored.results() == session.results()
        finally:
            restored.close()


def test_a_snapshot_of_the_parent_layout_is_rejected_naming_its_maps():
    with dashboard() as session:
        session.apply_batch(HISTORY)
        snapshot = session.snapshot()
    tables = snapshot["maps"]["generated"]
    tables["revenue_m6"] = [[list(reversed(key)), value] for key, value in tables["revenue_m5"]]
    with pytest.raises(ValueError, match="revenue_m6"):
        Session.restore(snapshot)


def test_a_doctored_snapshot_with_one_short_key_is_rejected():
    """The arity check validates outside input: 32 000 well-formed keys of the
    Orders copy and one short one still fail the restore, naming the map."""
    with dashboard() as session:
        snapshot = session.snapshot()
    table = [[[ok, ok % 200], 1] for ok in range(32_000)]
    table[17_000] = [[17_000], 1]
    snapshot["maps"]["generated"]["revenue_m5"] = table
    with pytest.raises(ValueError, match=r"keys do not match the defined arity: \['revenue_m5'\]"):
        Session.restore(snapshot)


def test_restore_builds_each_group_once(monkeypatch):
    with dashboard() as session:
        session.apply_batch(HISTORY)
        snapshot = session.snapshot()
    programs = []
    original = MapCatalog.program
    monkeypatch.setattr(MapCatalog, "program", lambda self: programs.append(1) or original(self))
    restored = Session.restore(snapshot)
    try:
        assert len(programs) == 1
        assert restored.results() == session.results()
    finally:
        restored.close()


def test_restore_raises_when_a_view_fails_to_compile():
    with dashboard() as session:
        snapshot = session.snapshot()
    snapshot["views"][-1] = dict(snapshot["views"][-1], query="Sum(Nowhere(x))")
    with pytest.raises(Exception, match="Nowhere"):
        Session.restore(snapshot)


# ---------------------------------------------------------------------------
# The duplicate-map lint rule
# ---------------------------------------------------------------------------


def _hand_built(maps, statements):
    return TriggerProgram(
        result_map="q",
        maps={definition.name: definition for definition in maps},
        triggers={("R", 1): BatchTrigger("R", 1, delta_map_name("R"), tuple(statements))},
        schema={"R": ("A", "B")},
    )


def test_lint_reports_a_transposed_duplicate():
    maps = [
        MapDefinition("q", (), MapRef("ab", ("x", "y"))),
        MapDefinition("ab", ("k0", "k1"), Rel("R", ("k0", "k1")), level=1),
        MapDefinition("ba", ("k0", "k1"), Rel("R", ("k1", "k0")), level=1),
    ]
    delta_map = delta_map_name("R")
    program = _hand_built(maps, [
        BatchStatement(
            "q", (), Mul((MapRef(delta_map, ("x", "y")), MapRef("ba", ("y", "x")))), delta_map
        ),
    ])
    findings = [f for f in lint_program(program) if f.kind == "duplicate-map"]
    assert len(findings) == 1 and "'ab'" in findings[0].message and "'ba'" in findings[0].message


def test_the_lint_gate_accepts_duplicate_map(capsys):
    assert lint_main(["--fail-on", "duplicate-map"]) == 0
    capsys.readouterr()
