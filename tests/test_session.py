"""Tests of the multi-view Session facade.

Covers: agreement of a multi-view session with standalone single-query
engines on randomized mixed insert/delete streams (the session's compiled
views against every engine, the classical and naive baselines included), map
sharing across views, change-data-capture subscriptions (replaying deltas
reconstructs results), snapshot/restore, late view registration, and the
query-input conveniences (SQL text, AGCA text, expressions).
"""

import random

import pytest

from repro.compiler.indexes import slice_keys
from repro.core.errors import ParseError
from repro.core.parser import parse
from repro.gmr.database import Update, insert
from repro.ivm.base import result_as_mapping
from repro.ivm.classical import ClassicalIVM
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.session import COMPILED_BACKENDS, MapCatalog, Session
from repro.workloads.streams import StreamGenerator
from tests.conftest import GROUPED_SCHEMA, GROUPED_VIEWS, grouped_batch

RS_SCHEMA = {"R": ("A", "B"), "S": ("C", "D")}

STANDALONE_ENGINES = {
    "generated": lambda query, schema: RecursiveIVM(query, schema, backend="generated"),
    "interpreted": lambda query, schema: RecursiveIVM(query, schema, backend="interpreted"),
    "classical": lambda query, schema: ClassicalIVM(query, schema),
    "naive": lambda query, schema: NaiveReevaluation(query, schema),
}

#: A multi-view workload sharing the S-side subquery across three views.
MULTIVIEW_QUERIES = {
    "per_a": "AggSum([a], R(a, b) * S(b, d) * d)",
    "total": "Sum(R(a, b) * S(b, d) * d)",
    "per_a_again": "AggSum([a], R(a, b) * S(b, d) * d)",
}


def make_stream(length=200, seed=5, schema=RS_SCHEMA):
    return StreamGenerator(
        schema, seed=seed, default_domain_size=5, delete_fraction=0.3
    ).generate(length)


# ---------------------------------------------------------------------------
# Basic facade behaviour
# ---------------------------------------------------------------------------


def test_session_single_view_matches_engine():
    session = Session({"R": ("A",)})
    view = session.view("q", "Sum(R(x) * R(y) * (x = y))")
    session.insert("R", "c")
    session.insert("R", "c")
    session.insert("R", "d")
    assert view.result() == 5
    session.delete("R", "d")
    assert view.result() == 4
    assert view.result_mapping() == {(): 4}
    assert session.updates_applied == 4
    assert session.statistics.updates_processed == 4


def test_view_accepts_expr_text_and_sql():
    schema = {"C": ("cid", "nation")}
    expected = {(1,): 2, (2,): 2, (3,): 1}
    text = "AggSum([c], C(c, n) * C(c2, n2) * (n = n2))"
    sql = (
        "SELECT C1.cid, SUM(1) FROM C C1, C C2 "
        "WHERE C1.nation = C2.nation GROUP BY C1.cid"
    )
    session = Session(schema)
    views = [
        session.view("from_expr", parse(text)),
        session.view("from_text", text),
        session.view("from_sql", sql),
    ]
    for update in [insert("C", 1, "FR"), insert("C", 2, "FR"), insert("C", 3, "JP")]:
        session.apply(update)
    for view in views:
        assert view.result() == expected


def test_view_registration_errors():
    session = Session({"R": ("A",)})
    session.view("q", "Sum(R(x))")
    with pytest.raises(ValueError):
        session.view("q", "Sum(R(x))")  # duplicate name
    with pytest.raises(ValueError):
        session.view("other", "Sum(R(x))", backend="vectorized")  # unknown backend
    for backend in ("naive", "classical"):  # the baselines run standalone only
        with pytest.raises(ValueError, match=f"got '{backend}'") as raised:
            session.view("other", "Sum(R(x))", backend=backend)
        assert "('generated', 'interpreted')" in str(raised.value)
    with pytest.raises(ValueError):
        session.view("", "Sum(R(x))")  # empty name
    with pytest.raises(TypeError):
        session.view("typed", 42)
    with pytest.raises(ParseError):
        session.view("bad_sql", "SELECT broken")
    assert "q" in session
    with pytest.raises(KeyError):
        session["missing"]


def test_results_and_views_accessors():
    session = Session(RS_SCHEMA)
    session.view("a", "Sum(R(a, b) * b)")
    session.view("b", "Sum(S(c, d) * d)", backend="interpreted")
    session.insert("R", 1, 10)
    session.insert("S", 2, 5)
    assert session.results() == {"a": 10, "b": 5}
    assert set(session.views) == {"a", "b"}
    assert session["a"].backend == "generated"


# ---------------------------------------------------------------------------
# The satellite property test: session vs standalone engines, every engine
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multiview_session_agrees_with_standalone_engines(seed):
    """One Session carrying a view per compiled backend (plus shared views)
    must agree with every standalone single-query engine — both recursive
    backends, classical IVM and naive re-evaluation — fed the same
    randomized mixed insert/delete stream, at every checkpoint."""
    rng = random.Random(seed)
    queries = {name: parse(text) for name, text in MULTIVIEW_QUERIES.items()}

    session = Session(RS_SCHEMA)
    views = {}
    references = {}
    for query_name, query in queries.items():
        references[query_name] = {
            engine: factory(query, RS_SCHEMA) for engine, factory in STANDALONE_ENGINES.items()
        }
        for backend in COMPILED_BACKENDS:
            views[(query_name, backend)] = session.view(
                f"{query_name}_{backend}", query, backend=backend
            )

    stream = make_stream(length=150, seed=seed * 31 + 1)
    checkpoint = rng.randrange(10, 60)
    for position, update in enumerate(stream, start=1):
        session.apply(update)
        for engines in references.values():
            for reference in engines.values():
                reference.apply(update)
        if position % checkpoint == 0 or position == len(stream):
            for (query_name, backend), view in views.items():
                for engine, reference in references[query_name].items():
                    assert result_as_mapping(view.result()) == result_as_mapping(
                        reference.result()
                    ), f"{query_name}_{backend} diverged from {engine} after {position} updates"


def test_multiview_session_batch_path_agrees(seed=3):
    queries = {name: parse(text) for name, text in MULTIVIEW_QUERIES.items()}
    session = Session(RS_SCHEMA)
    batched = Session(RS_SCHEMA)
    for query_name, query in queries.items():
        for backend in COMPILED_BACKENDS:
            session.view(f"{query_name}_{backend}", query, backend=backend)
            batched.view(f"{query_name}_{backend}", query, backend=backend)
    stream = make_stream(length=160, seed=seed)
    session.apply_all(stream)
    for batch in stream.batches(40):
        batched.apply_batch(batch)
    for name, view in session.views.items():
        assert result_as_mapping(view.result()) == result_as_mapping(
            batched[name].result()
        ), name


# ---------------------------------------------------------------------------
# Map sharing
# ---------------------------------------------------------------------------


def test_identical_views_share_result_map():
    session = Session(RS_SCHEMA)
    first = session.view("first", "AggSum([a], R(a, b) * S(b, d) * d)")
    duplicate = session.view("dup", "AggSum([a], R(a, b) * S(b, d) * d)")
    assert not first.shares_storage
    assert duplicate.shares_storage
    report = session.sharing_report()
    assert report["maps_deduplicated"] > 0
    session.insert("R", 1, 2)
    session.insert("S", 2, 7)
    assert first.result() == duplicate.result() == {(1,): 7}


def test_alpha_renamed_views_share_maps():
    """Variable names must not defeat sharing (canonical alpha-renaming)."""
    session = Session(RS_SCHEMA)
    session.view("v1", "AggSum([a], R(a, b) * S(b, d) * d)")
    before = session.sharing_report()["maps"]
    session.view("v2", "AggSum([x], R(x, y) * S(y, z) * z)")
    report = session.sharing_report()
    assert report["maps"] == before  # nothing new materialized
    assert session["v2"].shares_storage
    session.insert("R", 4, 2)
    session.insert("S", 2, 9)
    assert session["v1"].result() == session["v2"].result() == {(4,): 9}


def test_shared_views_use_fewer_maps_than_independent_engines():
    queries = [parse(text) for text in MULTIVIEW_QUERIES.values()]
    session = Session(RS_SCHEMA)
    for index, query in enumerate(queries):
        session.view(f"v{index}", query)
    stream = make_stream(length=120, seed=11)
    session.apply_all(stream)

    engines = [RecursiveIVM(query, RS_SCHEMA, backend="generated") for query in queries]
    for engine in engines:
        engine.apply_all(stream)
    independent_entries = sum(engine.total_map_entries() for engine in engines)
    assert session.total_map_entries() < independent_entries
    for index, engine in enumerate(engines):
        assert result_as_mapping(session[f"v{index}"].result()) == result_as_mapping(
            engine.result()
        )


def test_failed_registration_leaves_catalog_untouched():
    """A rejected view must not orphan registry entries: a later view that
    would deduplicate onto them has to get a correctly maintained map."""
    session = Session(RS_SCHEMA)
    session.view("a_m1", "AggSum([x], S(x, y) * y)")
    # "a" would compile auxiliary maps named "a_m1", colliding with the view above.
    with pytest.raises(ValueError):
        session.view("a", "AggSum([x], R(x, y) * R(x, z) * y * z)")
    retry = session.view("c", "AggSum([x], R(x, y) * R(x, z) * y * z)")
    session.insert("R", 1, 2)
    assert retry.result() == {(1,): 4}


def test_duplicate_registration_skips_history_replay():
    """Alias views are free: registering a duplicate after many updates must
    not rebuild the replayed bootstrap database."""
    session = Session(RS_SCHEMA)
    session.view("orig", "AggSum([a], R(a, b) * S(b, d) * d)")
    for index in range(50):
        session.insert("R", index, index % 7)
    calls = []
    original = session._replayed_database

    def counting_replay():
        calls.append(1)
        return original()

    session._replayed_database = counting_replay
    duplicate = session.view("dup", "AggSum([a], R(a, b) * S(b, d) * d)")
    assert duplicate.shares_storage and calls == []
    session.view("brand_new", "Sum(S(c, d) * d)")
    assert calls == [1]  # a genuinely new map does bootstrap from history


def test_failed_artifact_rebuild_rolls_back_the_catalog(monkeypatch):
    """When rebuilding the execution artifacts fails *after* the catalog
    absorbed the view, the registration must be rolled back completely: the
    name stays usable, no empty group lingers, and later dedup targets stay
    maintained.  (Semirings compile on the generated backend now, so the
    failure is injected into code generation directly.)"""
    import repro.session.session as session_module
    from repro.core.errors import CompilationError

    session = Session({"R": ("A",)})
    session.view("v1", "Sum(R(x))", backend="interpreted")
    session.insert("R", 1)
    real_generate = session_module.generate_python

    def failing_generate(*args, **kwargs):
        raise CompilationError("injected artifact-rebuild failure")

    monkeypatch.setattr(session_module, "generate_python", failing_generate)
    with pytest.raises(CompilationError):
        session.view("v2", "Sum(R(x) * R(y) * (x = y))")  # generated backend
    monkeypatch.setattr(session_module, "generate_python", real_generate)
    assert "generated" not in session._groups
    retry = session.view("v2", "Sum(R(x) * R(y) * (x = y))", backend="interpreted")
    alias = session.view("v3", "Sum(R(x) * R(y) * (x = y))", backend="interpreted")
    session.insert("R", 2)
    assert retry.result() == 2
    assert alias.shares_storage and alias.result() == 2


def test_naive_change_capture_carries_post_update_values_for_semirings():
    """Naive CDC cannot diff with subtraction over a proper semiring; the
    payload instead carries each changed group's *post-update value*, with
    ``ring.zero`` marking a removed group (replaying means overwrite-or-drop
    rather than ring-adding deltas)."""
    from repro.algebra.semirings import MIN_PLUS
    from repro.gmr.database import delete

    engine = NaiveReevaluation(parse("AggSum([g], P(g, s) * s)"), {"P": ("G", "S")}, ring=MIN_PLUS)
    seen = []
    engine.on_change(lambda changes: seen.append(dict(changes)))
    engine.apply(insert("P", 1, 5.0))
    engine.apply(insert("P", 1, 3.0))
    engine.apply(delete("P", 1, 3.0))  # the minimum climbs back up — no inverse used
    engine.apply(delete("P", 1, 5.0))
    assert seen == [
        {(1,): 5.0},
        {(1,): 3.0},
        {(1,): 5.0},
        {(1,): MIN_PLUS.zero},
    ]
    assert result_as_mapping(engine.result(), MIN_PLUS) == {}
    assert engine.statistics.updates_processed == 4


def test_map_catalog_reports_and_rejects_duplicates():
    from repro.compiler.compile import compile_query

    catalog = MapCatalog(RS_SCHEMA)
    query = parse("Sum(R(a, b) * S(b, d) * d)")
    program = compile_query(query, RS_SCHEMA, name="v", catalog=catalog)
    result_map, new_maps = catalog.absorb("v", program)
    assert result_map == "v" and "v" in new_maps
    with pytest.raises(ValueError):
        catalog.absorb("v", program)
    # A program compiled against another state of the catalog (or none)
    # could re-add a map it holds: it is rejected.
    with pytest.raises(ValueError, match="not compiled against"):
        catalog.absorb("w", program)
    with pytest.raises(ValueError, match="not compiled against"):
        catalog.absorb("w", compile_query(query, RS_SCHEMA, name="w"))
    duplicate = compile_query(query, RS_SCHEMA, name="w", catalog=catalog)
    assert catalog.absorb("w", duplicate) == ("v", ())
    assert catalog.sharing_report()["views"] == 2
    assert catalog.program().result_map == "v"


# ---------------------------------------------------------------------------
# Change-data-capture
# ---------------------------------------------------------------------------


def replay(changes_log, ring_zero=0):
    accumulated = {}
    for changes in changes_log:
        for key, value in changes.items():
            accumulated[key] = accumulated.get(key, ring_zero) + value
    return {key: value for key, value in accumulated.items() if value != ring_zero}


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_on_change_deltas_replay_to_result(backend):
    session = Session(RS_SCHEMA)
    view = session.view("q", "AggSum([a], R(a, b) * S(b, d) * d)", backend=backend)
    log = []
    view.on_change(lambda changes: log.append(dict(changes)))
    stream = make_stream(length=120, seed=23)
    session.apply_all(stream)
    assert replay(log) == view.result_mapping()
    assert log, "the stream must have produced at least one change event"
    for changes in log:
        assert all(value != 0 for value in changes.values()), "deltas must be non-zero"


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_on_change_batch_delivers_one_consolidated_event(backend):
    session = Session(RS_SCHEMA)
    view = session.view("q", "Sum(R(a, b) * S(b, d) * d)", backend=backend)
    events = []
    view.on_change(lambda changes: events.append(dict(changes)))
    session.apply_batch([insert("R", 1, 2), insert("S", 2, 10), insert("R", 3, 2)])
    assert len(events) == 1
    assert replay(events) == view.result_mapping()


def test_on_change_not_fired_for_no_op_updates():
    session = Session(RS_SCHEMA)
    view = session.view("q", "Sum(R(a, b) * S(b, d) * d)")
    events = []
    view.on_change(lambda changes: events.append(changes))
    session.insert("R", 1, 2)  # no matching S tuple: the result stays 0
    assert events == []
    session.insert("S", 2, 5)
    assert len(events) == 1 and view.result() == 5


def test_on_change_unsubscribe_and_shared_map_isolation():
    session = Session(RS_SCHEMA)
    first = session.view("first", "Sum(R(a, b) * b)")
    duplicate = session.view("dup", "Sum(R(a, b) * b)")  # alias of the same map
    first_events, dup_events = [], []
    callback = first.on_change(lambda changes: first_events.append(changes))
    duplicate.on_change(lambda changes: dup_events.append(changes))
    session.insert("R", 1, 10)
    assert len(first_events) == 1 and len(dup_events) == 1
    first.remove_on_change(callback)
    session.insert("R", 2, 20)
    assert len(first_events) == 1 and len(dup_events) == 2


def test_each_subscriber_gets_an_independent_changes_payload():
    """A callback that drains its payload must not corrupt its siblings'."""
    session = Session(RS_SCHEMA)
    first = session.view("first", "Sum(R(a, b) * b)")
    duplicate = session.view("dup", "Sum(R(a, b) * b)")  # alias of the same map
    second_log = []
    first.on_change(lambda changes: changes.clear())  # destructive consumer
    duplicate.on_change(lambda changes: second_log.append(changes))
    session.insert("R", 1, 10)
    assert second_log == [{(): 10}]

    # Same guarantee at the engine level.
    engine = RecursiveIVM(parse("Sum(R(a, b) * b)"), RS_SCHEMA)
    log = []
    engine.on_change(lambda changes: changes.clear())
    engine.on_change(lambda changes: log.append(changes))
    engine.apply(insert("R", 1, 10))
    assert log == [{(): 10}]


def test_engine_level_on_change_matches_session_level():
    """The low-level engines expose the same subscription API: per-update
    deltas are non-zero and replay to the result, and a batch delivers one
    consolidated event."""
    cases = (
        ("AggSum([a], R(a, b) * b)", {"R": ("A", "B")}, 80, 9),
        ("AggSum([a], R(a, b) * S(b, d) * d)", RS_SCHEMA, 120, 23),
    )
    for text, schema, length, seed in cases:
        stream = make_stream(length=length, seed=seed, schema=schema)
        for factory in STANDALONE_ENGINES.values():
            engine = factory(parse(text), schema)
            log = []
            engine.on_change(lambda changes, log=log: log.append(dict(changes)))
            engine.apply_all(stream)
            assert log and replay(log) == result_as_mapping(engine.result()), engine.name
            for changes in log:
                assert all(value != 0 for value in changes.values()), engine.name
    for factory in STANDALONE_ENGINES.values():
        engine = factory(parse("Sum(R(a, b) * S(b, d) * d)"), RS_SCHEMA)
        events = []
        engine.on_change(lambda changes, events=events: events.append(dict(changes)))
        engine.apply_batch([insert("R", 1, 2), insert("S", 2, 10), insert("R", 3, 2)])
        assert events == [{(): 20}] and engine.result() == 20, engine.name


# ---------------------------------------------------------------------------
# Snapshot / restore
# ---------------------------------------------------------------------------


def test_snapshot_restore_round_trip_all_backends():
    session = Session(RS_SCHEMA)
    for backend in COMPILED_BACKENDS:
        session.view(backend, "AggSum([a], R(a, b) * S(b, d) * d)", backend=backend)
    stream = make_stream(length=100, seed=17)
    session.apply_all(stream)

    snapshot = session.snapshot()
    restored = Session.restore(snapshot)
    for backend in COMPILED_BACKENDS:
        assert restored[backend].result() == session[backend].result(), backend

    # The restored session keeps maintaining correctly.
    more = make_stream(length=60, seed=18)
    session.apply_all(more)
    restored.apply_all(more)
    for backend in COMPILED_BACKENDS:
        assert restored[backend].result() == session[backend].result(), backend


def test_snapshot_is_json_serializable_for_integer_ring():
    import json

    session = Session({"R": ("A",)})
    session.view("q", "Sum(R(x) * R(y) * (x = y))")
    session.view("qn", "Sum(R(x))", backend="interpreted")
    for update in make_stream(length=50, seed=3, schema={"R": ("A",)}):
        session.apply(update)
    decoded = json.loads(json.dumps(session.snapshot()))
    restored = Session.restore(decoded)
    assert restored["q"].result() == session["q"].result()
    assert restored["qn"].result() == session["qn"].result()


def test_restore_rejects_unknown_format_and_ring():
    session = Session({"R": ("A",)})
    session.view("q", "Sum(R(x))")
    snapshot = session.snapshot()
    with pytest.raises(ValueError):
        Session.restore({**snapshot, "format": "bogus/9"})
    with pytest.raises(ValueError, match="unsupported session snapshot format"):
        Session.restore({**snapshot, "format": "repro-session/1"})
    with pytest.raises(ValueError):
        Session.restore({**snapshot, "ring": "martian"})


def _two_backend_snapshot():
    session = Session({"R": ("A",)})
    session.view("q", "Sum(R(x))")
    session.view("qi", "Sum(R(x) * x)", backend="interpreted")
    session.apply_batch([insert("R", 1), insert("R", 2)])
    return session.snapshot()


def _without(key):
    return lambda snapshot: {name: value for name, value in snapshot.items() if name != key}


def _with_baseline_view(backend):
    # What an older version wrote for a session holding a baseline view.
    def doctor(snapshot):
        view = {"name": "reference", "backend": backend, "query": "Sum(R(x))"}
        return {
            **snapshot,
            "views": snapshot["views"] + [view],
            "engine_databases": {"reference": {"R": [[[1], 1], [[2], 1]]}},
        }

    return doctor


@pytest.mark.parametrize(
    "doctor,named",
    [pytest.param(_without(key), key, id=f"no-{key}")
     for key in ("maps", "views", "schema", "ring", "updates_applied")]
    + [
        pytest.param(
            lambda snapshot: {**snapshot, "views": snapshot["views"][:1]},
            "'interpreted'", id="maps-no-view-owns",
        ),
        pytest.param(
            lambda snapshot: {**snapshot, "maps": {"generated": snapshot["maps"]["generated"]}},
            "'interpreted'", id="views-without-maps",
        ),
        pytest.param(_with_baseline_view("classical"), "'classical'", id="classical-view"),
        pytest.param(_with_baseline_view("naive"), "'naive'", id="naive-view"),
        pytest.param(
            lambda snapshot: {**snapshot, "history": [row[:3] for row in snapshot["history"]]},
            None, id="countless-history-rows",
        ),
    ],
)
def test_restore_rejects_a_malformed_snapshot(doctor, named):
    """A truncated or inconsistent snapshot raises a ValueError naming the
    key or backend — not a KeyError, and never a view restored empty."""
    snapshot = _two_backend_snapshot()
    assert Session.restore(snapshot).results() == {"q": 2, "qi": 3}  # intact: accepted
    with pytest.raises(ValueError, match=named):
        Session.restore(doctor(snapshot))


SALES_SCHEMA = {"Sales": ("store", "amount")}
BUSY_STORES = "SELECT store, SUM(amount) FROM Sales GROUP BY store HAVING COUNT(*) > 2"


def busy_stores_session(seed):
    session = Session(SALES_SCHEMA)
    session.view("busy_stores", BUSY_STORES)
    rng = random.Random(seed)
    session.apply_batch([insert("Sales", rng.randrange(6), rng.randrange(1, 30)) for _ in range(40)])
    return session


def _with_extra_map(tables):
    # What a snapshot taken before the HAVING factoring pass carries: the
    # base copy of Sales the recompute used to rescan.
    tables["busy_stores_m9"] = [[[1, 10], 1]]


def _without_a_map(tables):
    del tables["busy_stores_m1"]


def _with_a_misshapen_key(tables):
    key, value = tables["busy_stores_m1"][0]
    tables["busy_stores_m1"][0] = ((*key, 7), value)


@pytest.mark.parametrize(
    "doctor,named",
    [
        (_with_extra_map, "busy_stores_m9"),
        (_without_a_map, "busy_stores_m1"),
        (_with_a_misshapen_key, "busy_stores_m1"),
    ],
)
def test_restore_rejects_a_snapshot_of_another_map_hierarchy(doctor, named):
    """The restored views are recompiled; a snapshot whose map set or key
    arities differ from that program must fail loudly, naming the maps —
    not restore orphan tables beside empty ones."""
    import copy

    snapshot = copy.deepcopy(busy_stores_session(seed=5).snapshot())
    assert Session.restore(snapshot)["busy_stores"].result()  # intact: accepted
    doctor(snapshot["maps"]["generated"])
    with pytest.raises(ValueError, match=named):
        Session.restore(snapshot)


def test_having_session_round_trips():
    origin = busy_stores_session(seed=6)
    revived = Session.restore(origin.snapshot())
    assert revived["busy_stores"].result() == origin["busy_stores"].result()
    more = [insert("Sales", 6, 3), insert("Sales", 6, 4), insert("Sales", 6, 5)]
    origin.apply_batch(more)
    revived.apply_batch(more)
    assert revived["busy_stores"].result() == origin["busy_stores"].result()
    assert (6,) in revived["busy_stores"].result()


# A snapshot's tables are the live tables' own (key, value) pairs: no
# container per entry on either side, the JSON bytes of the list layout, and a decode
# that rejects every table that is not a well-formed function.

ORDERS_SCHEMA = {
    "Customer": ("ck", "nation"),
    "Orders": ("ok", "ck"),
    "Lineitem": ("ok2", "price", "qty"),
}
_ORDERS_JOIN = "FROM Customer c, Orders o, Lineitem l WHERE c.ck = o.ck AND o.ok = l.ok2"
ORDERS_DASHBOARD = {
    "revenue": f"SELECT c.nation, SUM(l.price * l.qty) {_ORDERS_JOIN} GROUP BY c.nation",
    "revenue_by_customer": f"SELECT c.ck, SUM(l.price * l.qty) {_ORDERS_JOIN} GROUP BY c.ck",
    "orders": "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck",
    "total_revenue": f"SELECT SUM(l.price * l.qty) {_ORDERS_JOIN}",
}


def orders_dashboard(orders, **options):
    session = Session(ORDERS_SCHEMA, **options)
    for name, sql in ORDERS_DASHBOARD.items():
        session.view(name, sql)
    session.apply_batch([insert("Customer", ck, ck % 7) for ck in range(200)])
    session.apply_batch([insert("Orders", ok, ok % 200) for ok in range(orders)])
    session.apply_batch([insert("Lineitem", ok, ok % 13 + 1, 2) for ok in range(0, orders, 5)])
    return session


def test_a_kept_snapshot_adds_no_collected_object_per_entry():
    """Keeping a snapshot alive grows the collector's tracked set by O(maps):
    every entry is an untracked (key, value) pair sharing the live key tuple,
    so taking or holding a snapshot never prices in a full-heap collection."""
    import gc

    session = orders_dashboard(32_000)
    entries = session.total_map_entries()
    maps = len(session.map_sizes())
    assert entries >= 32_000
    gc.collect()
    before = len(gc.get_objects())
    snapshot = session.snapshot()
    gc.collect()
    growth = len(gc.get_objects()) - before
    assert growth <= 2 * maps + 32, (growth, maps, entries)
    assert sum(len(table) for table in snapshot["maps"]["generated"].values()) == entries


def test_warm_state_adds_no_collected_object_per_entry():
    """A session's tracked heap does not grow with its state: keys, values
    and one-key slice-index buckets are untracked tuples, so a 4x larger warm
    dashboard adds the same collector objects (a set per indexed prefix did
    grow it by one object per order)."""
    import gc

    def warmed(orders):
        gc.collect()
        before = len(gc.get_objects())
        session = orders_dashboard(orders, track_history=False)
        gc.collect()
        return session, len(gc.get_objects()) - before

    orders_dashboard(100, track_history=False)  # compile-time caches, once
    small, small_growth = warmed(1_000)
    large, large_growth = warmed(4_000)
    assert large.total_map_entries() > 3 * small.total_map_entries()
    assert abs(large_growth - small_growth) <= 16, (small_growth, large_growth)
    indexes = large._groups["generated"].runtime.indexes
    singles = 0
    for index in indexes.data.values():
        for prefix, entry in index.items():
            keys = list(slice_keys(index, prefix))
            if len(keys) == 1:
                singles += 1
                assert type(entry) is tuple and entry == keys[0], (prefix, entry)
    assert singles >= 4_000


def _list_layout(session):
    """The list layout earlier versions wrote, rebuilt from the live tables:
    ``[[list(key), value] …]`` per map, ``[sign, relation, [values…], count]``
    per history row."""
    return {
        **session.snapshot(),
        "maps": {
            backend: {
                name: [[list(key), value] for key, value in table.items()]
                for name, table in group.runtime.maps.items()
            }
            for backend, group in session._groups.items()
        },
        "history": [
            [update.sign, update.relation, list(update.values), update.count]
            for update in session._history
        ],
    }


def test_snapshot_json_bytes_equal_the_list_layout():
    import json

    session = orders_dashboard(600)
    session.view("busy", "SELECT o.ck, SUM(1) FROM Orders o GROUP BY o.ck", backend="interpreted")
    session.apply_batch([insert("Orders", 10_000 + ok, ok % 3) for ok in range(50)])
    snapshot = session.snapshot()
    assert snapshot["format"] == "repro-session/2"
    assert snapshot["history"]
    assert json.dumps(snapshot) == json.dumps(_list_layout(session))


SALES_VIEWS = {
    "Z": {
        "per_store": "SELECT store, SUM(amount) FROM Sales GROUP BY store",
        "total": "SELECT SUM(amount) FROM Sales",
        "busy_stores": BUSY_STORES,
    },
    "R-float": {
        "per_store": "SELECT store, SUM(amount) FROM Sales GROUP BY store",
        "total": "SELECT SUM(amount) FROM Sales",
    },
    "min-plus": {"lowest": "SELECT store, MIN(amount) FROM Sales GROUP BY store"},
    "top3": {"best": "SELECT store, TOPK(3, amount) FROM Sales GROUP BY store"},
}


def _sales_batch(rng, live, ring_name, size):
    """A random batch over ``Sales``: inserts, and deletes of live rows only.
    Float amounts are multiples of 1/4, so every sum is exact in any order."""
    batch = []
    for _ in range(size):
        if live and rng.random() < 0.35:
            row = live.pop(rng.randrange(len(live)))
            batch.append(Update(-1, "Sales", row))
        else:
            amount = rng.randrange(1, 40)
            row = (rng.randrange(8), amount / 4 if ring_name == "R-float" else amount)
            live.append(row)
            batch.append(Update(1, "Sales", row))
    return batch


def _sales_session(ring_name, rng, live, batches=3):
    from repro.algebra.semirings import resolve_semiring

    session = Session(SALES_SCHEMA, ring=resolve_semiring(ring_name))
    for name, sql in SALES_VIEWS[ring_name].items():
        for backend in COMPILED_BACKENDS:
            session.view(f"{name}_{backend}", sql, backend=backend)
    for _ in range(batches):
        session.apply_batch(_sales_batch(rng, live, ring_name, 60))
    return session


def _cdc_log(session):
    log = []
    for name in session.views:
        session[name].on_change(
            lambda changes, _name=name: log.append((_name, sorted(changes.items())))
        )
    return log


@pytest.mark.parametrize("batches", [0, 1, 3])
@pytest.mark.parametrize(
    "ring_name,through_json",
    [("Z", True), ("R-float", True), ("min-plus", False), ("top3", False)],
)
def test_a_restored_snapshot_matches_the_live_session(ring_name, through_json, batches):
    """Restored from the JSON form for ℤ and float, from the live snapshot for
    min-plus and top-3, the session equals the live one in results, and in
    CDC over a further random batch — whether the snapshot was taken of an
    empty session, after one batch, or after several."""
    import json

    rng = random.Random(41)
    live = []
    session = _sales_session(ring_name, rng, live, batches)
    snapshot = session.snapshot()
    if through_json:
        snapshot = json.loads(json.dumps(snapshot))
    restored = Session.restore(snapshot)
    assert restored.results() == session.results()
    assert restored.total_map_entries() == session.total_map_entries()
    assert restored.updates_applied == session.updates_applied
    logs = _cdc_log(session), _cdc_log(restored)
    batch = _sales_batch(rng, live, ring_name, 80)
    session.apply_batch(batch)
    restored.apply_batch(batch)
    assert restored.results() == session.results()
    assert logs[0] == logs[1] != []


#: A snapshot an older version wrote of a session on four process-backed
#: shards, kept verbatim: it names the partition tier's shard count and
#: placement (``"shards"``, ``"shard_backend"``), which this version no longer
#: has, and restores all the same.
OLDER_LAYOUT_SNAPSHOT = {
    "format": "repro-session/2",
    "ring": "Z",
    "schema": {"R": ["A"], "S": ["A", "B"]},
    "updates_applied": 16,
    "shards": 4,
    "shard_backend": "process",
    "views": [
        {"name": "gsum", "backend": "generated", "query": "AggSum([a], S(a, b) * b)"},
        {"name": "selfjoin", "backend": "interpreted", "query": "Sum(R(x) * R(y) * (x = y))"},
    ],
    "maps": {
        "generated": {"gsum": [[[3], 2], [[0], 3], [[1], 3], [[4], 1], [[2], 3]]},
        "interpreted": {"selfjoin": [[[], 5]], "selfjoin_m1": [[[1], 2], [[2], 1]]},
    },
    "engine_databases": {},
}
#: The updates that snapshot's session had applied.
OLDER_LAYOUT_UPDATES = [Update(1, "S", (a % 5, a % 3)) for a in range(12)] + [
    Update(1, "R", (1,)),
    Update(1, "R", (1,)),
    Update(1, "R", (2,)),
    Update(-1, "S", (0, 0)),
]


def test_older_layout_snapshot_restores():
    """The older snapshot restores with the results and CDC of a session fed
    the same updates."""
    restored = Session.restore(OLDER_LAYOUT_SNAPSHOT)
    reference = Session(GROUPED_SCHEMA, track_history=False)
    reference.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
    reference.view("selfjoin", "Sum(R(x) * R(y) * (x = y))", backend="interpreted")
    reference.apply_batch(OLDER_LAYOUT_UPDATES)
    assert restored.results() == reference.results()
    cdc = {id(restored): [], id(reference): []}
    for session in (restored, reference):
        for name in ("gsum", "selfjoin"):
            session[name].on_change(
                lambda changes, _log=cdc[id(session)], _name=name: _log.append(
                    (_name, sorted(changes.items()))
                )
            )
    tail = grouped_batch(random.Random(8), 60, 6)
    restored.apply_batch(tail)
    reference.apply_batch(tail)
    assert restored.results() == reference.results()
    assert cdc[id(restored)] == cdc[id(reference)] != []


def test_a_snapshot_carries_no_shard_count_and_round_trips_through_json():
    import json

    session = busy_stores_session(seed=5)
    snapshot = session.snapshot()
    assert "shards" not in snapshot
    text = json.dumps(snapshot)
    restored = Session.restore(json.loads(text))
    assert restored.results() == session.results()
    assert json.dumps(restored.snapshot()) == text


def test_shards_is_accepted_only_as_one():
    """``shards=1`` builds an ordinary session; any other count names the
    removed partition tier."""
    session = Session(GROUPED_SCHEMA, shards=1)
    session.view("count", "Sum(S(a, b))")
    session.apply_batch([insert("S", 1, 2), insert("S", 2, 3)])
    assert session["count"].result() == 2
    for shards in (2, 0, None):
        with pytest.raises(ValueError, match="partition tier was removed"):
            Session(GROUPED_SCHEMA, shards=shards)


def test_tables_are_plain_dicts_whatever_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "3")
    session = Session(GROUPED_SCHEMA)
    for name, query in GROUPED_VIEWS.items():
        for backend in COMPILED_BACKENDS:
            session.view(f"{name}_{backend}", query, backend=backend)
    session.apply_batch(grouped_batch(random.Random(2), 50, 8))
    for group in session._groups.values():
        assert group.runtime.maps
        assert all(type(table) is dict for table in group.runtime.maps.values())


def test_removed_shard_arguments_are_type_errors():
    snapshot = busy_stores_session(seed=5).snapshot()
    with pytest.raises(TypeError):
        Session.restore(snapshot, shards=3)
    with pytest.raises(TypeError):
        RecursiveIVM(parse("Sum(R(x))"), {"R": ("A",)}, shards=2)


def _sales_snapshot():
    import json

    return json.loads(json.dumps(busy_stores_session(seed=5).snapshot()))


def test_restore_rejects_a_duplicated_key():
    snapshot = _sales_snapshot()
    entries = snapshot["maps"]["generated"]["busy_stores_m2"]
    key, _value = entries[0]
    entries.append([key, 99])
    with pytest.raises(ValueError, match=r"list a key more than once: \['busy_stores_m2'\]"):
        Session.restore(snapshot)


@pytest.mark.parametrize("ring_name,zero", [("Z", 0), ("R-float", 0.0), ("R-float", -0.0)])
def test_restore_rejects_a_stored_zero(ring_name, zero):
    """Before the check, a stored zero restored as a live entry and was counted."""
    import json

    session = _sales_session(ring_name, random.Random(3), [])
    snapshot = json.loads(json.dumps(session.snapshot()))
    snapshot["maps"]["generated"]["per_store_generated"].append([[99], zero])
    with pytest.raises(ValueError, match=r"store a zero value: \['per_store_generated'\]"):
        Session.restore(snapshot)


def test_restore_rejects_a_stored_zero_counter():
    """A min-plus counter map holds ℤ multiplicities: its zero is 0, not ∞."""
    session = _sales_session("min-plus", random.Random(3), [])
    [counter] = session._groups["generated"].runtime.program.maintenance.counter_maps
    snapshot = session.snapshot()
    snapshot["maps"]["generated"][counter].append(((99, 1), 0))
    with pytest.raises(ValueError, match=f"store a zero value: \\['{counter}'\\]"):
        Session.restore(snapshot)


def test_restore_rejects_an_entry_without_a_value():
    snapshot = _sales_snapshot()
    snapshot["maps"]["generated"]["busy_stores_m1"].append([[1, 2]])
    with pytest.raises(ValueError, match=r"not a \(key sequence, value\) pair: \['busy_stores_m1'\]"):
        Session.restore(snapshot)


def test_restore_rejects_a_scalar_key():
    snapshot = _sales_snapshot()
    snapshot["maps"]["generated"]["busy_stores_m1"].append([5, 3])
    with pytest.raises(ValueError, match=r"not a \(key sequence, value\) pair: \['busy_stores_m1'\]"):
        Session.restore(snapshot)


@pytest.mark.parametrize("arity,key", [(1, "x"), (2, "ok")])
def test_restore_rejects_a_string_key(arity, key):
    """``tuple()`` takes any iterable: before the check, an entry ``["ok", 5]``
    restored into an arity-2 map as key ``('o', 'k')``, and ``["x", 5]``
    into an arity-1 map as ``('x',)``."""
    import json

    session = orders_dashboard(50)
    snapshot = json.loads(json.dumps(session.snapshot()))
    definitions = session._groups["generated"].runtime.program.maps
    name = min(name for name, definition in definitions.items() if definition.arity == arity)
    snapshot["maps"]["generated"][name].append([key, 5])
    with pytest.raises(ValueError, match=rf"not a \(key sequence, value\) pair: \['{name}'\]"):
        Session.restore(snapshot)


@pytest.mark.parametrize("count", ["x", 1.5, -1, True, None])
def test_restore_rejects_a_non_integer_updates_applied(count):
    snapshot = _sales_snapshot()
    with pytest.raises(ValueError, match="updates_applied"):
        Session.restore({**snapshot, "updates_applied": count})


def test_snapshot_plus_replayed_deltas_reproduce_final_result():
    """The acceptance-criteria flow: snapshot mid-stream, subscribe, replay."""
    session = Session(RS_SCHEMA)
    view = session.view("q", "AggSum([a], R(a, b) * S(b, d) * d)")
    stream = list(make_stream(length=140, seed=29))
    for update in stream[:70]:
        session.apply(update)
    snapshot = session.snapshot()
    deltas = []
    view.on_change(lambda changes: deltas.append(dict(changes)))
    for update in stream[70:]:
        session.apply(update)

    baseline = Session.restore(snapshot)["q"].result_mapping()
    for changes in deltas:
        for key, value in changes.items():
            new_value = baseline.get(key, 0) + value
            if new_value == 0:
                baseline.pop(key, None)
            else:
                baseline[key] = new_value
    assert baseline == view.result_mapping()


# ---------------------------------------------------------------------------
# Late registration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_view_registered_mid_stream_is_bootstrapped(backend):
    stream = list(make_stream(length=120, seed=37))
    session = Session(RS_SCHEMA)
    early = session.view("early", "AggSum([a], R(a, b) * S(b, d) * d)")
    for update in stream[:60]:
        session.apply(update)
    late = session.view("late", "AggSum([a], R(a, b) * S(b, d) * d)", backend=backend)
    assert late.result_mapping() == early.result_mapping()
    for update in stream[60:]:
        session.apply(update)
    assert late.result_mapping() == early.result_mapping()


def test_late_registration_requires_history():
    session = Session({"R": ("A",)}, track_history=False)
    session.view("q", "Sum(R(x))")
    session.insert("R", 1)
    with pytest.raises(RuntimeError):
        session.view("late", "Sum(R(x) * x)")  # new maps -> needs the history
    # A duplicate of an existing view needs no bootstrap, so it stays legal.
    alias = session.view("alias", "Sum(R(x))")
    assert alias.shares_storage and alias.result() == 1
    # Before any update it is fine.
    fresh = Session({"R": ("A",)}, track_history=False)
    fresh.view("ok", "Sum(R(x))")
    fresh.insert("R", 1)
    assert fresh["ok"].result() == 1


# ---------------------------------------------------------------------------
# Schema validation of updates (arity bugfix)
# ---------------------------------------------------------------------------


def test_insert_with_tuple_instead_of_splat_raises_schema_error():
    from repro.core.errors import SchemaError

    session = Session({"R": ("A", "B")})
    session.view("total", "Sum(R(a, b) * b)")
    with pytest.raises(SchemaError) as excinfo:
        session.insert("R", (1, 2))
    message = str(excinfo.value)
    assert "'R'" in message and "2" in message
    assert "separate arguments" in message


def test_update_validation_names_relation_and_arity():
    from repro.core.errors import SchemaError
    from repro.gmr.database import Update

    session = Session({"R": ("A", "B")})
    session.view("total", "Sum(R(a, b) * b)")
    with pytest.raises(SchemaError, match="expects 2 values"):
        session.delete("R", 1)
    with pytest.raises(SchemaError, match="not declared"):
        session.insert("Q", 1, 2)
    with pytest.raises(SchemaError):
        session.apply(Update(1, "R", (1, 2, 3)))
    # A malformed batch is rejected before any view advances.
    with pytest.raises(SchemaError):
        session.apply_batch([Update(1, "R", (1, 2)), Update(1, "R", (1,))])
    assert session.updates_applied == 0
    assert session["total"].result() == 0


# ---------------------------------------------------------------------------
# Nested-aggregate views through the session (shared hierarchies)
# ---------------------------------------------------------------------------

NESTED_SQL = (
    "SELECT store, SUM(amount) FROM Sales "
    "WHERE amount < (SELECT SUM(amount) FROM Sales) GROUP BY store"
)


def test_nested_views_deduplicate_across_views():
    schema = {"Sales": ("store", "amount")}
    session = Session(schema)
    session.view("below_total", NESTED_SQL)
    session.view("below_total_panel", NESTED_SQL)
    report = session.sharing_report()
    # The duplicate panel aliases the result map *and* the auxiliary maps of
    # the nested hierarchy (inner aggregate + base copy).
    assert report["maps_deduplicated"] >= 3
    assert session["below_total_panel"].shares_storage


def test_nested_view_maintains_and_bootstraps_late():
    schema = {"Sales": ("store", "amount")}
    session = Session(schema)
    view = session.view("below_total", NESTED_SQL)
    reference = NaiveReevaluation(parse_sql_query(NESTED_SQL, schema), schema)
    rng = random.Random(37)
    live = []
    for _ in range(160):
        if live and rng.random() < 0.3:
            from repro.gmr.database import Update

            row = live.pop(rng.randrange(len(live)))
            update = Update(-1, "Sales", row)
        else:
            row = (rng.randrange(4), rng.randrange(9))
            live.append(row)
            update = insert("Sales", *row)
        session.apply(update)
        reference.apply(update)
    assert result_as_mapping(view.result()) == result_as_mapping(reference.result())
    late = session.view("late_copy", NESTED_SQL, backend="interpreted")
    assert result_as_mapping(late.result()) == result_as_mapping(reference.result())


def parse_sql_query(sql, schema):
    from repro.sql.frontend import sql_to_agca

    return sql_to_agca(sql, schema)


# ---------------------------------------------------------------------------
# Transactional batches: a poisoned batch rolls every view back (PR 5)
# ---------------------------------------------------------------------------


def _poisonable_session():
    """Views across both compiled backends; 'weighted' chokes on strings."""
    schema = {"R": ("A",), "W": ("K", "V")}
    session = Session(schema)
    session.view("count", "Sum(R(x))", backend="generated")
    session.view("weighted", "AggSum([k], W(k, v) * v)", backend="generated")
    session.view("count_i", "Sum(R(x))", backend="interpreted")
    return session


def test_poisoned_batch_leaves_all_views_unchanged():
    """Regression: an exception mid-batch (ring arithmetic on one view) used to
    leave already-advanced groups inconsistent with the rest."""
    from repro.gmr.database import Update

    session = _poisonable_session()
    good = [insert("R", value % 3) for value in range(10)] + [
        insert("W", "k1", 5),
        insert("W", "k2", 7),
    ]
    session.apply_batch(good)
    before_results = session.results()
    before_history = list(session._history)
    before_applied = session.updates_applied
    before_stats = {
        backend: (
            group.statistics.updates_processed,
            group.statistics.statements_executed,
            group.statistics.entries_updated,
        )
        for backend, group in session._groups.items()
    }
    payloads = []
    session["count"].on_change(lambda changes: payloads.append(changes))

    # 'x' * 3 inside the weighted view's fold raises TypeError after the pure
    # R-counts have already advanced some views.
    poisoned = [insert("R", 0), insert("W", "k1", "x"), insert("R", 1)]
    with pytest.raises(TypeError):
        session.apply_batch(poisoned)

    assert session.results() == before_results
    assert session._history == before_history
    assert session.updates_applied == before_applied
    assert payloads == []  # no CDC for a rolled-back batch
    # Work counters roll back too: a cancelled batch's partial work must not
    # leak into the statistics (including the generated module's pending ones).
    for backend, group in session._groups.items():
        assert (
            group.statistics.updates_processed,
            group.statistics.statements_executed,
            group.statistics.entries_updated,
        ) == before_stats[backend], backend
    # The session keeps working afterwards, indexes intact.
    session.apply_batch([insert("R", 0), Update(-1, "R", (0,)), insert("W", "k1", 2)])
    assert session["weighted"].result() == {("k1",): 7, ("k2",): 7}
    assert payloads == []  # the follow-up batch nets zero on R
    session.insert("R", 9)
    assert payloads == [{(): 1}]


def test_rolled_back_batch_does_not_leave_stale_float_compensation():
    """Regression: the generated module's Kahan compensation of a fused float
    total survived a batch rollback (the tables were restored, the low-order
    term the abandoned fold had accumulated was not), so the next good batch
    folded a correction for an addition that never happened."""
    from repro.algebra.semirings import FLOAT_FIELD
    from repro.gmr.database import Update

    def float_session():
        session = Session({"R": ("A",), "W": ("K", "V")}, ring=FLOAT_FIELD)
        session.view("total", "Sum(R(x))", backend="generated")  # all-total: Kahan-fused
        session.view("weighted", "AggSum([k], W(k, v) * v)", backend="interpreted")
        session.apply_batch([Update(1, "R", (0,), 10**16)])
        return session

    clean, poisoned = float_session(), float_session()
    # The R fold advances the generated group (1e16 + 1 rounds back to 1e16,
    # leaving compensation -1) before the interpreted view chokes on "x".
    with pytest.raises((TypeError, ValueError)):
        poisoned.apply_batch([insert("R", 1), insert("W", "k1", "x")])
    for session in (clean, poisoned):
        session.apply_batch([insert("R", 2)])
    assert poisoned.results() == clean.results()
    assert poisoned["total"].result() == 1e16

    # The other direction: a compensation term earned *before* the rolled-back
    # batch survives it.  The good R insert leaves -1; the poisoned batch only
    # touches W; the next R insert must still recover the carried bit.
    clean, poisoned = float_session(), float_session()
    for session in (clean, poisoned):
        session.apply_batch([insert("R", 1)])
    with pytest.raises((TypeError, ValueError)):
        poisoned.apply_batch([insert("W", "k1", "x")])
    for session in (clean, poisoned):
        session.apply_batch([insert("R", 2)])
    assert poisoned.results() == clean.results()
    assert poisoned["total"].result() == 1.0000000000000002e16


# ---------------------------------------------------------------------------
# History stores the effective (coalesced) batch (PR 5)
# ---------------------------------------------------------------------------


def test_history_stores_effective_batch_not_churn():
    """Regression: _note_applied used to append the raw uncoalesced updates, so
    replays (late views, snapshots) re-executed cancelled churn."""
    from repro.gmr.database import Update

    session = Session({"R": ("A",)})
    session.view("q", "Sum(R(x))")
    churn = [insert("R", 1), Update(-1, "R", (1,))] * 500 + [insert("R", 2)] * 100
    session.apply_batch(churn)
    # The log holds the net batch: one compact update instead of 1100.
    assert session._history == [Update(1, "R", (2,), count=100)]
    # Counters still reflect the submitted updates.
    assert session.updates_applied == 1100
    # Late registration replays the effective history correctly.
    late = session.view("late", "Sum(R(x))", backend="interpreted")
    assert late.result() == 100


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_replay_equivalence_after_coalesced_history(backend):
    """snapshot -> restore (which replays nothing but trusts the maps) and a
    history-driven rebuild both agree with the live session, and so does
    naive re-evaluation fed the stored history."""
    from repro.gmr.database import Update

    rng = random.Random(11)
    session = Session({"R": ("A", "B")})
    view = session.view("q", "AggSum([a], R(a, b) * b)", backend=backend)
    for _ in range(8):
        batch = []
        for _ in range(rng.randint(1, 40)):
            values = (rng.randint(0, 3), rng.randint(0, 4))
            batch.append(Update(1 if rng.random() < 0.6 else -1, "R", values))
        session.apply_batch(batch)
    restored = Session.restore(session.snapshot())
    assert restored.results() == session.results()
    # Rebuild a fresh session purely from the stored history.
    replayed = Session({"R": ("A", "B")})
    replayed_view = replayed.view("q", "AggSum([a], R(a, b) * b)", backend=backend)
    replayed.apply_batch(session._history)
    assert result_as_mapping(replayed_view.result()) == result_as_mapping(view.result())
    reference = NaiveReevaluation(parse("AggSum([a], R(a, b) * b)"), {"R": ("A", "B")})
    reference.apply_batch(session._history)
    assert result_as_mapping(reference.result()) == result_as_mapping(view.result())
    # And the restored session's own history replays to the same state.
    assert restored._history == session._history
