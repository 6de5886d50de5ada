"""One signed trigger per relation: a deletion is an insertion with count −1.

Over a ring a batch's ``∆R`` carries inserts and deletes of one relation in
one delta map with signed counts, and the relation's one trigger — compiled
for ``+∆R`` — folds it.  These tests drive random batches that insert and
delete rows of the same relation (a row inserted and deleted in one batch, a
row deleted and re-inserted, deletes of rows inserted earlier) through the
three write paths — ``Session.apply_batch``, an ingest flush and per-tuple
``Session.apply`` — on both executors over ℤ, ℚ (the ``from_int``-lifted
path) and ℝ over dyadic values, for every lint target and the within-batch
self-join ``SELECT SUM(1) FROM R r1, R r2 WHERE r1.a = r2.b``.  A negated
insert trigger would get that query's ``∆α·∆β`` term wrong: (−D)(−D) = +D·D.
After every batch each view must equal direct evaluation over the database
the updates built, and each view's CDC shadow must equal the view.

Proper semirings have no −1 and keep a trigger per sign; their modules must
stay byte for byte what they were before the ring programs lost theirs.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, RATIONAL_FIELD, resolve_semiring
from repro.analysis.ir_lint import _lint_targets
from repro.compiler.codegen import generate_python
from repro.compiler.compile import compile_query
from repro.gmr.database import Database, delete, insert
from repro.ivm.base import result_as_mapping
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.session import COMPILED_BACKENDS, Session
from repro.sql.frontend import sql_to_agca

PAIRS_SCHEMA = {"R": ("a", "b")}
PAIRS = sql_to_agca("SELECT SUM(1) FROM R r1, R r2 WHERE r1.a = r2.b", PAIRS_SCHEMA)

#: ``name -> (aggregate, schema, ring or None)``: every lint target, plus the
#: within-batch self-join on a key subset.
QUERIES = {name: (aggregate, schema, ring) for name, aggregate, schema, ring in _lint_targets()}
QUERIES["pairs"] = (PAIRS, PAIRS_SCHEMA, None)
RING_QUERIES = sorted(name for name, (_a, _s, ring) in QUERIES.items() if ring is None)
SEMIRING_QUERIES = sorted(name for name, (_a, _s, ring) in QUERIES.items() if ring is not None)

#: ``ring name -> (ring, data values)``: join keys collide, float values are
#: dyadic (every sum exact in any order), rationals go through ``from_int``.
RINGS = {
    "Z": (INTEGER_RING, [1, 2, 3, 5]),
    "Q": (RATIONAL_FIELD, [Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(7, 3)]),
    "dyadic-float": (FLOAT_FIELD, [0.5, 1.25, 2.0, 3.75]),
}


def signed_batches(schema, values, seed, batches=12, size=10):
    """Batches mixing inserts and deletes of the same relation: fresh
    inserts, deletes of live rows (those inserted earlier in the batch
    included), a row inserted and deleted in one batch, a row deleted and
    re-inserted, and duplicates."""
    rng = random.Random(seed)
    relations = sorted(schema)
    live = {relation: [] for relation in relations}
    out = []
    for _ in range(batches):
        batch = []
        while len(batch) < size:
            relation = rng.choice(relations)
            rows = live[relation]
            move = rng.random()
            if rows and move < 0.35:
                batch.append(delete(relation, *rows.pop(rng.randrange(len(rows)))))
            elif move < 0.5:
                row = tuple(rng.choice(values) for _ in schema[relation])
                batch += [insert(relation, *row), delete(relation, *row)]
            elif rows and move < 0.6:
                row = rng.choice(rows)
                batch += [delete(relation, *row), insert(relation, *row)]
            else:
                row = tuple(rng.choice(values) for _ in schema[relation])
                rows.append(row)
                batch.append(insert(relation, *row))
                if move > 0.9:
                    rows.append(row)
                    batch.append(insert(relation, *row))
        out.append(batch)
    return out


def fold_payload(shadow, payload, ring):
    """Fold one CDC payload: deltas over a ring, post-update values otherwise."""
    for key, value in payload.items():
        if ring.is_ring:
            value = ring.add(shadow.get(key, ring.zero), value)
        if ring.is_zero(value):
            shadow.pop(key, None)
        else:
            shadow[key] = value


def run_oracle(aggregate, schema, ring, values, backend, seed):
    """Every batch through one of the three write paths in turn; after each,
    the view equals direct evaluation and its CDC shadow equals the view."""
    session = Session(schema, ring=ring)
    view = session.view("v", aggregate, backend=backend)
    shadow = {}
    view.on_change(lambda payload: fold_payload(shadow, payload, ring))
    db = Database(schema, ring=ring)
    for step, batch in enumerate(signed_batches(schema, values, seed)):
        path = ("apply_batch", "ingest", "apply")[step % 3]
        if path == "apply_batch":
            session.apply_batch(batch)
        elif path == "ingest":
            with session.ingest(max_staleness_ms=None) as pipe:
                pipe.submit_many(batch)
                pipe.flush()
            assert not pipe.dead_letters
        else:
            for update in batch:
                session.apply(update)
        db.apply_all(batch)
        direct = NaiveReevaluation(aggregate, schema, ring=ring)
        direct.bootstrap(db)
        observed = result_as_mapping(view.result(), ring)
        where = (backend, ring.name, step, path)
        assert observed == result_as_mapping(direct.result(), ring), where
        assert shadow == observed, where
    session.close()


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("ring_name", sorted(RINGS))
@pytest.mark.parametrize("name", RING_QUERIES)
def test_mixed_sign_batches_equal_direct_evaluation(name, ring_name, backend):
    aggregate, schema, _ring = QUERIES[name]
    ring, values = RINGS[ring_name]
    session = Session(schema, ring=ring)
    session.view("v", aggregate, backend=backend)
    program = session._groups[backend].catalog.program()
    # One signed trigger per relation, keyed (relation, +1).
    assert all(sign == 1 and trigger.signed for (_r, sign), trigger in program.triggers.items())
    session.close()
    run_oracle(aggregate, schema, ring, values, backend, seed=len(name) * 31 + len(ring_name))


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_both_executors_count_the_same_work(ring_name):
    """A signed accumulator can cancel to zero; both executors count that
    fold alike (an inline scalar fold skips it), batch by batch and row by
    row."""
    ring, values = RINGS[ring_name]
    for name in RING_QUERIES:
        aggregate, schema, _ring = QUERIES[name]
        engines = [RecursiveIVM(aggregate, schema, ring=ring, backend=b) for b in COMPILED_BACKENDS]
        for step, batch in enumerate(signed_batches(schema, values, seed=3)):
            for engine in engines:
                if step % 2:
                    engine.apply_batch(batch)
                else:
                    engine.apply_all(batch)
            generated, interpreted = (engine.runtime.statistics for engine in engines)
            assert (generated.statements_executed, generated.entries_updated) == (
                interpreted.statements_executed, interpreted.entries_updated
            ), (name, step)


def test_the_self_join_counts_pairs_within_a_mixed_batch():
    """``∆α·∆β`` with signed counts: one batch deletes two live rows and
    inserts two, so the second-order term multiplies counts of both signs."""

    def pairs(rows):
        return sum(1 for a, _b in rows for _a, b in rows if a == b)

    for backend in COMPILED_BACKENDS:
        session = Session(PAIRS_SCHEMA)
        view = session.view("pairs", PAIRS, backend=backend)
        session.apply_batch([insert("R", 1, 1), insert("R", 2, 1), insert("R", 1, 2)])
        assert view.result() == pairs([(1, 1), (2, 1), (1, 2)]) == 5
        # ∆R = {(1, 1): -1, (2, 1): -1, (2, 2): +1, (1, 3): +1}: the ∆R·∆R
        # term pairs rows of both signs.
        session.apply_batch(
            [delete("R", 1, 1), delete("R", 2, 1), insert("R", 2, 2), insert("R", 1, 3)]
        )
        assert view.result() == pairs([(1, 2), (2, 2), (1, 3)]) == 2, backend


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("name", SEMIRING_QUERIES)
def test_semiring_sessions_split_signs_and_stay_exact(name, backend):
    aggregate, schema, ring = QUERIES[name]
    run_oracle(aggregate, schema, ring, [1.0, 2.0, 3.0, 5.0], backend, seed=7)


#: sha256 of the modules emitted for proper semirings, recorded while ring
#: programs still carried a delete trigger per relation.
SEMIRING_MODULES = {
    "social_min_score": "cedbf0d4aa57348121c457e7f47c71420dcce753f5bf62344316b3d5aa6f618e",
    "social_top3_posts": "a8d42744f3d0d767669802cf3eb5cbc661e5e2ea62ceb369d586b7abb266aaf4",
}
SALES = {"Customer": ("ck", "nation"), "Orders": ("ok", "ck"), "Lineitem": ("ok2", "price", "qty")}
_JOIN = "FROM Customer c, Orders o, Lineitem l WHERE c.ck = o.ck AND o.ok = l.ok2"
SALES_VIEWS = (
    ("revenue", f"SELECT c.nation, SUM(l.price * l.qty) {_JOIN} GROUP BY c.nation"),
    ("revenue_by_customer", f"SELECT c.ck, SUM(l.price * l.qty) {_JOIN} GROUP BY c.ck"),
    ("orders", "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck"),
    ("total_revenue", f"SELECT SUM(l.price * l.qty) {_JOIN}"),
)
#: The dashboard's views (no bare count: it has no semiring view) under
#: min-plus and top-3 emit one module, ring calls being generic.
SEMIRING_DASHBOARD = "6fe100315a84b115ee5a112c95875be820c8d67685c1e369cfc6d76fbb62f3bf"


@pytest.mark.parametrize("name", sorted(SEMIRING_MODULES))
def test_semiring_lint_targets_keep_both_signs_and_their_modules(name):
    aggregate, schema, ring = QUERIES[name]
    program = compile_query(aggregate, schema, name=name, ring=ring)
    relations = {relation for relation, _sign in program.triggers}
    assert set(program.triggers) == {(r, s) for r in relations for s in (1, -1)}
    assert not any(trigger.signed for trigger in program.triggers.values())
    source = generate_python(program, ring=ring).source
    assert hashlib.sha256(source.encode()).hexdigest() == SEMIRING_MODULES[name]


@pytest.mark.parametrize("ring_name", ["min-plus", "top3"])
def test_semiring_dashboard_module_is_unchanged(ring_name):
    with Session(SALES, ring=resolve_semiring(ring_name)) as session:
        for view, sql in SALES_VIEWS:
            session.view(view, sql)
        group = session._groups["generated"]
        source = group.generated.source
        triggers = group.catalog.program().triggers
    assert ("Orders", -1) in triggers and not triggers[("Orders", -1)].signed
    assert hashlib.sha256(source.encode()).hexdigest() == SEMIRING_DASHBOARD
