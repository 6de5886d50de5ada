"""Randomized equivalence properties for nested-aggregate queries.

Every execution strategy — the compiled hierarchy under the generated and the
interpreted backend, classical first-order IVM, and naive re-evaluation —
must agree with the *direct evaluator* (``repro.core.semantics.evaluate`` over
a mirrored database) on every checked prefix of randomized mixed
insert/delete traces, from the empty database, after bootstrap from a
populated one, and across a session snapshot/restore cycle.
"""

import random
from collections import Counter

import pytest

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING
from repro.core.parser import parse
from repro.core.semantics import evaluate
from repro.gmr.database import Database, Update, delete, insert
from repro.ivm.base import result_as_mapping, results_agree
from repro.ivm.classical import ClassicalIVM
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.session import Session
from repro.sql.frontend import sql_to_agca

NESTED_PROPERTY_QUERIES = [
    # Per-group sales strictly below the global total (paper-style decision support).
    ("AggSum([g], R(g, x) * (x < Sum(R(g2, x2) * x2)) * x)", {"R": ("G", "X")}),
    # HAVING: per-group totals for groups with more than two rows.
    ("AggSum([g], AggSum([g], R(g, x) * x) * (Sum(R(g, y)) > 2))", {"R": ("G", "X")}),
    # Correlated subquery against a second relation.
    ("AggSum([g], R(g, x) * (x < Sum(S(g, y) * y)) * x)", {"R": ("G", "X"), "S": ("G", "Y")}),
    # Scalar nested comparison without grouping.
    ("Sum(R(g, x) * (x < Sum(R(g2, x2) * x2)) * x)", {"R": ("G", "X")}),
]

ALL_BACKENDS = {
    "generated": lambda query, schema: RecursiveIVM(query, schema, backend="generated"),
    "interpreted": lambda query, schema: RecursiveIVM(query, schema, backend="interpreted"),
    "classical": lambda query, schema: ClassicalIVM(query, schema),
    "naive": lambda query, schema: NaiveReevaluation(query, schema),
}


def mixed_stream(schema, count, seed, delete_fraction=0.35, groups=4, domain=7):
    rng = random.Random(seed)
    relations = sorted(schema)
    live, updates = [], []
    for _ in range(count):
        if live and rng.random() < delete_fraction:
            updates.append(delete(*live.pop(rng.randrange(len(live)))))
        else:
            relation = rng.choice(relations)
            row = (relation, rng.randrange(groups)) + tuple(
                rng.randrange(domain) for _ in range(len(schema[relation]) - 1)
            )
            live.append(row)
            updates.append(insert(*row))
    return updates


def direct_result(query, db):
    """The direct evaluator's result as a key-tuple mapping."""
    value = evaluate(query, db)
    mapping = {}
    for record, multiplicity in value.items():
        if multiplicity != 0:
            mapping[record.values_for(query.group_vars)] = multiplicity
    return mapping


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "text,schema", NESTED_PROPERTY_QUERIES, ids=[t for t, _ in NESTED_PROPERTY_QUERIES]
)
def test_all_backends_agree_with_direct_evaluation(text, schema, seed):
    query = parse(text)
    engines = {name: factory(query, schema) for name, factory in ALL_BACKENDS.items()}
    db = Database(schema=schema)
    stream = mixed_stream(schema, 110, seed=seed * 59 + 5)
    assert any(update.sign < 0 for update in stream), "traces must mix deletions in"
    for position, update in enumerate(stream):
        db.apply(update)
        for engine in engines.values():
            engine.apply(update)
        if position % 13 == 0 or position == len(stream) - 1:
            expected = direct_result(query, db)
            for name, engine in engines.items():
                assert result_as_mapping(engine.result()) == expected, (
                    f"{name} disagrees with direct evaluation after update "
                    f"#{position}: {update!r}"
                )


@pytest.mark.parametrize(
    "text,schema", NESTED_PROPERTY_QUERIES, ids=[t for t, _ in NESTED_PROPERTY_QUERIES]
)
def test_all_backends_agree_after_bootstrap(text, schema):
    """Bootstrap from a populated database, then keep streaming mixed updates."""
    query = parse(text)
    db = Database(schema=schema)
    for update in mixed_stream(schema, 70, seed=17, delete_fraction=0.15):
        db.apply(update)

    engines = {name: factory(query, schema) for name, factory in ALL_BACKENDS.items()}
    for engine in engines.values():
        engine.bootstrap(db)
    expected = direct_result(query, db)
    for name, engine in engines.items():
        assert result_as_mapping(engine.result()) == expected, (
            f"{name} disagrees immediately after bootstrap"
        )

    for position, update in enumerate(mixed_stream(schema, 80, seed=19)):
        db.apply(update)
        for engine in engines.values():
            engine.apply(update)
        if position % 11 == 0 or position == 79:
            expected = direct_result(query, db)
            for name, engine in engines.items():
                assert result_as_mapping(engine.result()) == expected, (
                    f"{name} disagrees after update #{position}"
                )


def test_generated_backend_matches_direct_evaluation_on_long_trace():
    """The acceptance trace: a paper-style nested query on the generated
    backend over 1000+ randomized mixed updates."""
    text, schema = NESTED_PROPERTY_QUERIES[0]
    query = parse(text)
    engine = RecursiveIVM(query, schema, backend="generated")
    db = Database(schema=schema)
    stream = mixed_stream(schema, 1200, seed=101, groups=6, domain=12)
    for position, update in enumerate(stream):
        db.apply(update)
        engine.apply(update)
        if position % 97 == 0 or position == len(stream) - 1:
            assert result_as_mapping(engine.result()) == direct_result(query, db), position


@pytest.mark.parametrize("backend", ["generated", "interpreted"])
def test_session_snapshot_restore_preserves_nested_views(backend):
    """Nested-aggregate views survive snapshot/restore mid-stream and keep
    maintaining correctly afterwards."""
    schema = {"R": ("G", "X")}
    text = NESTED_PROPERTY_QUERIES[1][0]
    query = parse(text)
    session = Session(schema)
    view = session.view("busy", query, backend=backend)

    first, second = mixed_stream(schema, 90, seed=71), mixed_stream(schema, 90, seed=73)
    db = Database(schema=schema)
    for update in first:
        session.apply(update)
        db.apply(update)

    revived = Session.restore(session.snapshot())
    assert result_as_mapping(revived["busy"].result()) == direct_result(query, db)

    for update in second:
        session.apply(update)
        revived.apply(update)
        db.apply(update)
    expected = direct_result(query, db)
    assert result_as_mapping(view.result()) == expected
    assert result_as_mapping(revived["busy"].result()) == expected


def test_streams_with_batches_agree_with_sequential_naive():
    text, schema = NESTED_PROPERTY_QUERIES[2]
    query = parse(text)
    stream = mixed_stream(schema, 200, seed=83)
    reference = NaiveReevaluation(query, schema)
    reference.apply_all(stream)
    rng = random.Random(5)
    for name, factory in ALL_BACKENDS.items():
        engine = factory(query, schema)
        position = 0
        while position < len(stream):
            size = rng.randint(1, 35)
            engine.apply_batch(stream[position : position + size])
            position += size
        assert results_agree(reference.result(), engine.result()), name


# ---------------------------------------------------------------------------
# SQL HAVING: the factored (lookup-only) recompute against the oracle
# ---------------------------------------------------------------------------

HAVING_SCHEMA = {"R": ("g", "x")}
HAVING_SQL = {
    # Crossed upward by inserts and downward by deletes (group sums reach ~40).
    "sum-above": "SELECT g, SUM(x) FROM R GROUP BY g HAVING SUM(x) > 12",
    "count-above": "SELECT g, SUM(x) FROM R GROUP BY g HAVING COUNT(*) > 2",
    # True at the empty group: an emptied group must still drop out.
    "sum-below": "SELECT g, SUM(x) FROM R GROUP BY g HAVING SUM(x) < 10",
    "two-conditions": "SELECT g, SUM(x) FROM R GROUP BY g HAVING COUNT(*) > 1 AND SUM(x) < 15",
}


def having_trace(ring, seed):
    """Three phases: mixed churn, group 0 deleted down to nothing, a refill.

    Float traces carry multiples of 1.5 — dyadic, so sums and CDC deltas
    stay exact.
    """
    scale = 1.5 if ring is FLOAT_FIELD else 1
    churn = [
        Update(update.sign, "R", (update.values[0], update.values[1] * scale))
        for update in mixed_stream(HAVING_SCHEMA, 140, seed=seed, delete_fraction=0.4)
    ]
    live = Counter()
    for update in churn:
        live[update.values] += update.sign
    emptied = [delete("R", *values) for values in live.elements() if values[0] == 0]
    assert emptied, "group 0 must hold rows to delete"
    refill = [insert("R", 0, value * scale) for value in (3, 11, 2)]
    return churn, emptied, refill


@pytest.mark.parametrize("batched", [False, True], ids=["per-tuple", "batch"])
@pytest.mark.parametrize("ring", [INTEGER_RING, FLOAT_FIELD], ids=["Z", "float"])
@pytest.mark.parametrize("spelling", sorted(HAVING_SQL))
def test_sql_having_matches_direct_evaluation_and_cdc(spelling, ring, batched):
    """Both compiled executors, per tuple and in batches: the view equals
    direct evaluation after every step, the CDC shadow reconstructs it, and
    the two executors emit identical change payloads."""
    sql = HAVING_SQL[spelling]
    query = sql_to_agca(sql, HAVING_SCHEMA)
    session = Session(HAVING_SCHEMA, ring=ring)
    views, shadows, payloads = {}, {}, {}
    for backend in ("generated", "interpreted"):
        views[backend] = session.view(backend, sql, backend=backend)
        shadows[backend], payloads[backend] = {}, []

        def capture(changes, backend=backend):
            payloads[backend].append(dict(changes))
            shadow = shadows[backend]
            for key, delta in changes.items():
                total = shadow.get(key, 0) + delta
                if total == 0:
                    shadow.pop(key, None)
                else:
                    shadow[key] = total

        views[backend].on_change(capture)

    db = Database(schema=HAVING_SCHEMA, ring=ring)
    rng = random.Random(3)
    present, entered, left = set(), set(), set()
    for phase, trace in zip(("churn", "emptied", "refill"), having_trace(ring, len(spelling))):
        position = 0
        while position < len(trace):
            step = trace[position : position + (rng.randint(2, 25) if batched else 1)]
            position += len(step)
            if batched:
                session.apply_batch(step)
            else:
                session.apply(step[0])
            for update in step:
                db.apply(update)
            expected = direct_result(query, db)
            entered |= set(expected) - present
            left |= present - set(expected)
            present = set(expected)
            for backend, view in views.items():
                assert result_as_mapping(view.result()) == expected, (backend, phase, position)
                assert shadows[backend] == expected, (backend, phase, position)
            assert payloads["generated"] == payloads["interpreted"], (phase, position)
        if phase == "emptied":
            assert (0,) not in present
    assert entered and left, "the trace must cross the threshold both ways"
