"""Registering a view costs what it adds.

Each view is compiled against its group's map catalog: a map the catalog
already stores is read under its shared name and its statements are never
compiled, so the returned program holds only the maps and statements the view
adds.  The rebuilt runtime adopts the slice-index buckets of every map it
carries over and builds only the signatures new to the program.
"""

import random

import pytest

from repro.algebra.semirings import resolve_semiring
from repro.compiler.compile import compile_query
from repro.compiler.indexes import SliceIndexes
from repro.gmr.database import Update
from repro.session import MapCatalog, Session
from repro.sql.frontend import sql_to_agca

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
#: One map, its two statements: a marginal of ``Customer``.
PER_NATION = ("customers_per_nation", "SELECT c.nation, SUM(1) FROM Customer c GROUP BY c.nation")
#: One map, and a read of the dashboard's ``revenue_m3[nation, ck]`` with the
#: nation bound — a slice signature the dashboard does not have.
PROBED = (
    "probed_customers",
    "SELECT c.ck, SUM(1) FROM Customer c, Probe p WHERE c.nation = p.pid GROUP BY c.ck",
)


def dashboard(views=DASHBOARD):
    session = Session(SALES)
    for name, sql in views:
        session.view(name, sql)
    return session


def compile_against(catalog, name, sql):
    return compile_query(sql_to_agca(sql, SALES), SALES, name=name, catalog=catalog)


def _statements(program):
    for trigger in program.triggers.values():
        yield from trigger.statements
        yield from trigger.recomputes


def trace(seed, batches=8, size=20):
    """Random batches over the dashboard relations; deletes only live rows."""
    rng = random.Random(seed)
    live = {relation: [] for relation in SALES}
    rows = {
        "Customer": lambda: (rng.randrange(6), rng.choice(("FR", "DE", "JP"))),
        "Orders": lambda: (rng.randrange(10), rng.randrange(6)),
        "Lineitem": lambda: (rng.randrange(10), rng.randrange(1, 9), rng.randrange(1, 4)),
        "Probe": lambda: (rng.choice(("FR", "DE", "JP", "IT")),),
    }
    result = []
    for _ in range(batches):
        batch = []
        for _ in range(size):
            relation = rng.choice(sorted(SALES))
            if live[relation] and rng.random() < 0.3:
                row = live[relation].pop(rng.randrange(len(live[relation])))
                batch.append(Update(-1, relation, row))
            else:
                row = rows[relation]()
                live[relation].append(row)
                batch.append(Update(1, relation, row))
        result.append(batch)
    return result


# ---------------------------------------------------------------------------
# The compiled program holds what the view adds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name, sql", DASHBOARD)
def test_a_duplicate_view_compiles_to_no_map_and_no_statement(name, sql):
    catalog = dashboard()._groups["generated"].catalog
    program = compile_against(catalog, f"{name}_again", sql)
    assert program.result_map == name
    assert program.maps == {} and program.statement_count() == 0
    # The counters say what an isolated compile would have built twice.
    isolated = compile_query(sql_to_agca(sql, SALES), SALES, name=f"{name}_again")
    assert program.registration.maps_deduplicated == len(isolated.maps)
    assert program.registration.statements_deduplicated == isolated.statement_count()


@pytest.mark.parametrize("name, sql", (PER_NATION, PROBED))
def test_a_view_that_adds_one_map_compiles_to_that_map_and_its_statements(name, sql):
    catalog = dashboard()._groups["generated"].catalog
    program = compile_against(catalog, name, sql)
    assert list(program.maps) == [name]
    statements = list(_statements(program))
    assert statements and {statement.target for statement in statements} == {name}
    isolated = compile_query(sql_to_agca(sql, SALES), SALES, name=name)
    assert len(statements) == len([s for s in _statements(isolated) if s.target == name])


#: Views over the sales schema that share maps in many ways: equal,
#: transposed, binding-spelled, filtered and HAVING variants.
POOL = (
    DASHBOARD[0][1], DASHBOARD[1][1], DASHBOARD[2][1], DASHBOARD[3][1], PER_NATION[1], PROBED[1],
    "SELECT o.ok, o.ck, SUM(1) FROM Orders o GROUP BY o.ok, o.ck",
    "SELECT o.ck, o.ok, SUM(1) FROM Orders o GROUP BY o.ck, o.ok",
    "SELECT o.ck, SUM(l.qty) FROM Orders o, Lineitem l WHERE o.ok = l.ok2 GROUP BY o.ck",
    f"SELECT c.nation, SUM(l.qty) {_JOIN} AND l.price > 5 GROUP BY c.nation",
    "SELECT c.nation, SUM(1) FROM Customer c GROUP BY c.nation HAVING SUM(1) > 2",
)
MIN_POOL = (
    f"SELECT c.nation, MIN(l.price) {_JOIN} GROUP BY c.nation",
    f"SELECT c.ck, MIN(l.price) {_JOIN} GROUP BY c.ck",
    f"SELECT MIN(l.price) {_JOIN}",
    "SELECT o.ck, MIN(o.ok) FROM Orders o GROUP BY o.ck",
    "SELECT c.nation, MIN(c.ck) FROM Customer c GROUP BY c.nation",
)


@pytest.mark.parametrize("pool, ring", ((POOL, None), (MIN_POOL, "min-plus")))
def test_what_a_view_adds_plus_what_it_shares_is_its_isolated_compile(pool, ring):
    """In random registration orders, each view's added maps are named and
    levelled as in its isolated compile, and added plus deduplicated maps
    and statements are exactly the isolated compile's."""
    ring = resolve_semiring(ring) if ring else None
    rng = random.Random(7)
    for _ in range(25):
        catalog = MapCatalog(SALES)
        for index in rng.sample(range(len(pool)), rng.randrange(2, len(pool) + 1)):
            query, name = sql_to_agca(pool[index], SALES), f"v{index}"
            program = compile_query(query, SALES, name=name, ring=ring, catalog=catalog)
            isolated = compile_query(query, SALES, name=name, ring=ring)
            registration = program.registration
            assert {n: d.level for n, d in program.maps.items()} == {
                n: isolated.maps[n].level for n in program.maps
            }
            assert registration.maps_deduplicated + len(program.maps) == len(isolated.maps)
            assert (
                registration.statements_deduplicated + program.statement_count()
                == isolated.statement_count()
            )
            catalog.absorb(name, program)


def test_a_read_catalog_map_keeps_its_shared_name():
    catalog = dashboard()._groups["generated"].catalog
    program = compile_against(catalog, *PROBED)
    reads = {
        reference.name
        for statement in _statements(program)
        for monomial in statement.monomials
        for reference, _positions in monomial.reads()
    }
    assert {"revenue_m3", "probe_seen"} <= reads


def test_a_program_compiled_elsewhere_is_rejected_and_leaves_the_catalog_alone():
    catalog = MapCatalog(SALES)
    name, sql = DASHBOARD[0]
    stale = compile_against(catalog, "early", sql)
    catalog.absorb(name, compile_against(catalog, name, sql))
    report = catalog.sharing_report()
    with pytest.raises(ValueError, match="not compiled against"):
        catalog.absorb("early", stale)
    assert catalog.sharing_report() == report and list(catalog.result_maps) == [name]


def test_rollback_undoes_exactly_the_last_absorb():
    catalog = MapCatalog(SALES)
    for name, sql in DASHBOARD[:2]:
        catalog.absorb(name, compile_against(catalog, name, sql))
    before = (
        dict(catalog.maps), dict(catalog.registry), dict(catalog.requests),
        dict(catalog.statement_counts), catalog.sharing_report(), catalog.program().explain(),
        catalog.state,
    )
    name, sql = DASHBOARD[2]
    catalog.absorb(name, compile_against(catalog, name, sql))
    catalog.rollback()
    after = (
        dict(catalog.maps), dict(catalog.registry), dict(catalog.requests),
        dict(catalog.statement_counts), catalog.sharing_report(), catalog.program().explain(),
        catalog.state,
    )
    assert after == before
    # The state is the one compiled against before, so a retry commits.
    catalog.absorb(name, compile_against(catalog, name, sql))
    assert "orders" in catalog.result_maps


# ---------------------------------------------------------------------------
# A registration re-indexes only what it adds
# ---------------------------------------------------------------------------


@pytest.fixture
def indexed(monkeypatch):
    """``(signature, keys)`` for every slice-index signature rebuilt."""
    built = []
    original = SliceIndexes.rebuild

    def recording(self, maps, signatures=None):
        signatures = tuple(self.data) if signatures is None else tuple(signatures)
        built.extend((signature, len(maps.get(signature[0]) or ())) for signature in signatures)
        return original(self, maps, signatures)

    monkeypatch.setattr(SliceIndexes, "rebuild", recording)
    return built


@pytest.mark.parametrize("backend", ("generated", "interpreted"))
def test_a_warm_registration_builds_only_new_signatures(backend, indexed):
    batches = trace(seed=5)
    warm = Session(SALES)
    for name, sql in DASHBOARD:
        warm.view(name, sql, backend=backend)
    for batch in batches[:5]:
        warm.apply_batch(batch)
    group = warm._groups[backend]
    before = dict(group.runtime.indexes.data)
    assert sum(len(bucket) for bucket in before.values()) > 0

    indexed.clear()
    warm.view("revenue_again", DASHBOARD[0][1], backend=backend)
    assert sum(keys for _signature, keys in indexed) == 0
    data = group.runtime.indexes.data
    assert data.keys() == before.keys()
    assert all(data[signature] is bucket for signature, bucket in before.items())

    indexed.clear()
    warm.view(*PROBED, backend=backend)
    assert [signature for signature, _keys in indexed] == [("revenue_m3", (0,))]
    data = group.runtime.indexes.data
    assert all(data[signature] is bucket for signature, bucket in before.items())

    # The adopted and built buckets are what a rebuild from the tables gives.
    fresh = SliceIndexes(group.runtime.index_specs)
    fresh.rebuild(group.runtime.maps)
    assert fresh.data == data

    # Results and change capture equal a session that had every view from
    # the start.
    reference = Session(SALES)
    for name, sql in DASHBOARD + (("revenue_again", DASHBOARD[0][1]), PROBED):
        reference.view(name, sql, backend=backend)
    for batch in batches[:5]:
        reference.apply_batch(batch)
    logs = {}
    for label, session in (("warm", warm), ("reference", reference)):
        logs[label] = {name: [] for name in session.views}
        for name, view in session.views.items():
            view.on_change(lambda changes, log=logs[label][name]: log.append(sorted(changes.items())))
    for batch in batches[5:]:
        warm.apply_batch(batch)
        reference.apply_batch(batch)
        assert warm.results() == reference.results()
    assert logs["warm"] == logs["reference"]
    assert any(logs["warm"].values())
