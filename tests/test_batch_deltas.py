"""Relation-valued batch deltas: whole batches vs one row at a time.

The compiler emits, per ``(relation, sign)`` event, one *batch trigger*
whose parameter is a whole delta map ``∆R : key → multiplicity``
(`repro.core.delta.BatchUpdateEvent`); a single update runs it on a one-row
map.  These tests pin down:

* the delta rules for relation-valued updates (delta-map references, the
  product rule's second-order terms);
* the compiled IR (``BatchTrigger``/``BatchStatement`` incl. the
  key-projection analysis);
* batch-vs-sequential equivalence of ``apply_batch`` on all four backends,
  randomized, including a nested-aggregate query and a snapshot/restore
  round-trip mid-trace — with one-row-at-a-time application (the
  ``apply_per_tuple`` fixture, itself checked against direct evaluation of
  every map over the database) as the reference semantics;
* the ``Session.apply_batch`` cancellation of insert/delete pairs before any
  trigger runs;
* the :class:`~repro.gmr.database.Delta` a batch becomes — the one form below
  the public entry points — and the equivalence of every way to hand one in
  (an ``Update`` list, a coalesced ``Delta``, a pipeline flush) with the
  per-tuple oracle, over four coefficient structures.
"""

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, resolve_semiring
from repro.compiler.codegen import generate_python
from repro.compiler.compile import compile_query
from repro.compiler.executor import CompiledExecutor
from repro.compiler.runtime import TriggerRuntime
from repro.core.ast import MapRef, Neg
from repro.core.delta import BatchUpdateEvent, delta, delta_map_name, is_delta_map
from repro.core.parser import parse
from repro.gmr.database import Delta, Update, coalesce_updates, delete, group_updates, insert
from repro.ivm.base import result_as_mapping
from repro.ivm.classical import ClassicalIVM
from repro.ivm.naive import NaiveReevaluation
from repro.session import Session
from repro.workloads.streams import StreamGenerator

UNARY_SCHEMA = {"R": ("A",)}
GROUPED_SCHEMA = {"R": ("A", "B"), "S": ("C", "D")}

COMPILED_BACKENDS = ("generated", "interpreted")

#: Queries exercised by the batch-vs-sequential property test: a grouped
#: join, a self-join (second-order batch delta), and a nested aggregate
#: (recompute statements, executed once per batch group).
PROPERTY_QUERIES = {
    "join": ("AggSum([a], R(a, b) * S(b, d) * d)", GROUPED_SCHEMA),
    "selfjoin": ("Sum(R(x) * R(y) * (x = y))", UNARY_SCHEMA),
    "nested": ("AggSum([g], S(g, x) * x * (Sum(S(g, y) * y) > 3))", {"S": ("G", "B")}),
}


# ---------------------------------------------------------------------------
# The relation-valued delta operator
# ---------------------------------------------------------------------------


def test_batch_delta_of_matching_atom_is_a_delta_map_reference():
    event = BatchUpdateEvent(1, "R", 1)
    result = delta(parse("R(x)"), event)
    assert result == MapRef(delta_map_name("R"), ("x",))
    negated = delta(parse("R(x)"), BatchUpdateEvent(-1, "R", 1))
    assert negated == Neg(MapRef(delta_map_name("R"), ("x",)))
    assert is_delta_map(delta_map_name("R"))


def test_batch_delta_product_rule_keeps_second_order_term():
    """∆(R·R) must contain the ∆R·∆R interaction term — it is what makes one
    fold per batch equal to sequential per-tuple application."""
    event = BatchUpdateEvent(1, "R", 1)
    result = delta(parse("Sum(R(x) * R(y) * (x = y))"), event)
    text = str(result)
    assert text.count(delta_map_name("R")) >= 3  # two first-order + the ∆∆ term


def test_batch_delta_of_non_matching_relation_is_zero():
    from repro.core.ast import is_zero_literal

    assert is_zero_literal(delta(parse("S(x)"), BatchUpdateEvent(1, "R", 1)))


# ---------------------------------------------------------------------------
# Compiled IR
# ---------------------------------------------------------------------------


def test_compiled_program_has_one_batch_trigger_per_event():
    """Over a ring the event is the relation: one signed trigger, keyed
    ``(R, +1)``; a proper semiring keeps an event per sign."""
    query = parse("Sum(R(x) * R(y) * (x = y))")
    program = compile_query(query, UNARY_SCHEMA, name="q")
    assert set(program.triggers) == {("R", 1)}
    trigger = program.trigger_for("R", 1)
    assert trigger.signed and program.trigger_for("R", -1) is None
    assert trigger.delta_map == delta_map_name("R")
    assert trigger.statements  # q and the base component map
    explained = program.explain()
    assert explained.count("TRIGGERS:") == 1 and "BATCH TRIGGERS:" in explained
    semiring = compile_query(query, UNARY_SCHEMA, name="q", ring=resolve_semiring("min-plus"))
    assert set(semiring.triggers) == {("R", 1), ("R", -1)}
    assert not any(trigger.signed for trigger in semiring.triggers.values())


def test_key_projection_analysis_marks_base_copy_statements():
    """A statement whose rhs is exactly ``±∆R`` projected onto the target keys
    carries the projection — executors fold the pre-aggregated batch straight
    onto the map, one read-modify-write per distinct key."""
    query = parse("Sum(R(x) * R(y) * (x = y))")

    def by_target(program):
        return {
            (statement.target, trigger.sign): statement
            for trigger in program.triggers.values()
            for statement in trigger.statements
        }

    program = compile_query(query, UNARY_SCHEMA, name="q")
    statements = by_target(program)
    [auxiliary] = [name for name in program.maps if name != "q"]
    assert set(statements) == {(auxiliary, 1), ("q", 1)}
    assert statements[(auxiliary, 1)].projection == (0,)
    assert statements[(auxiliary, 1)].coefficient == 1
    # The result statement is second-order in ∆R: no pure projection.
    assert statements[("q", 1)].projection is None
    # A semiring's delete event folds ``-∆R`` into its ℤ counter map.
    semiring = compile_query(query, UNARY_SCHEMA, name="q", ring=resolve_semiring("min-plus"))
    statements = by_target(semiring)
    [counter] = semiring.maintenance.counter_maps
    assert statements[(counter, 1)].projection == (0,)
    assert statements[(counter, 1)].coefficient == 1
    assert statements[(counter, -1)].projection == (0,)
    assert statements[(counter, -1)].coefficient == -1
    assert statements[("q", 1)].projection is None


def test_delta_maps_are_never_slice_indexed():
    from repro.compiler.indexes import compute_index_specs

    program = compile_query(
        parse("AggSum([a], R(a, b) * S(b, d) * d)"), GROUPED_SCHEMA, name="q"
    )
    specs = compute_index_specs(program)
    assert not any(is_delta_map(name) for name in specs)


# ---------------------------------------------------------------------------
# Whole batches vs one row at a time (runtime level)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query_name", list(PROPERTY_QUERIES))
def test_runtime_batch_matches_per_tuple_reference(query_name, apply_per_tuple):
    """Interpreted backend: apply_batch against one-row-at-a-time application
    (the reference)."""
    text, schema = PROPERTY_QUERIES[query_name]
    program = compile_query(parse(text), schema, name="q")
    stream = StreamGenerator(schema, seed=11, default_domain_size=4).generate(260)
    reference = TriggerRuntime(program)
    batched = TriggerRuntime(program)
    for batch in stream.batches(21):
        apply_per_tuple(reference, batch)
        batched.apply_batch(group_updates(batch))
    assert {name: dict(table) for name, table in reference.maps.items()} == {
        name: dict(table) for name, table in batched.maps.items()
    }


@pytest.mark.parametrize("query_name", list(PROPERTY_QUERIES))
def test_generated_batch_matches_per_tuple_reference(query_name, apply_per_tuple):
    text, schema = PROPERTY_QUERIES[query_name]
    program = compile_query(parse(text), schema, name="q")
    generated = generate_python(program)
    stream = StreamGenerator(schema, seed=17, default_domain_size=4).generate(260)
    reference = {name: {} for name in program.maps}
    batched = {name: {} for name in program.maps}
    changes_reference = {"q": {}}
    changes_batched = {"q": {}}
    for batch in stream.batches(19):
        apply_per_tuple(generated, batch, maps=reference, changes=changes_reference)
        generated.apply_batch(batched, group_updates(batch), changes=changes_batched)
    assert reference == batched
    # Change-data-capture accumulates identical per-key deltas on both paths.
    assert changes_reference == changes_batched


def test_batch_with_duplicate_tuples_matches_sequential():
    """Duplicates inside one batch exercise the multiplicity-weighted
    higher-order terms (m² for the self-join, not m)."""
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    batch = [insert("R", "c")] * 7 + [insert("R", "d")] * 3 + [delete("R", "c")] * 2
    sequential = TriggerRuntime(program)
    sequential.apply_all(batch)
    batched = TriggerRuntime(program)
    batched.apply_batch(group_updates(batch))
    assert sequential.result() == batched.result() == 25 + 9


def test_a_counted_single_update_equals_repeated_single_updates():
    """``count=3`` on a self-join is one one-row delta ``{t: 3}``: its ∆R·∆R
    term makes it equal three single applies (and the definition evaluated
    directly), on both executors' single-update entry points."""
    from repro.gmr.database import Database

    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    trace = [Update(1, "R", ("c",), 3), Update(1, "R", ("d",), 2), Update(-1, "R", ("c",), 2)]
    db = Database(UNARY_SCHEMA)
    counted, single = TriggerRuntime(program), TriggerRuntime(program)
    generated = generate_python(program)
    counted_maps = {name: {} for name in program.maps}
    single_maps = {name: {} for name in program.maps}
    for update in trace:
        db.apply(update)
        counted.apply(update)
        generated.apply(counted_maps, update.relation, update.sign, update.values, count=update.count)
        for _ in range(update.count):
            single.apply(Update(update.sign, update.relation, update.values))
            generated.apply(single_maps, update.relation, update.sign, update.values)
        direct = TriggerRuntime(program)
        direct.bootstrap(db)
        expected = {name: dict(table) for name, table in direct.maps.items()}
        assert {name: dict(table) for name, table in counted.maps.items()} == expected
        assert {name: dict(table) for name, table in single.maps.items()} == expected
        assert counted_maps == single_maps == expected
    assert counted.result() == 1 + 4  # c once, d twice: 1² + 2²
    assert counted.statistics.updates_processed == 7


# ---------------------------------------------------------------------------
# Batch-vs-sequential on all four backends, with a mid-trace snapshot
# ---------------------------------------------------------------------------


def _random_trace(schemas, length, seed):
    merged = {}
    for schema in schemas:
        merged.update(schema)
    generator = StreamGenerator(merged, seed=seed, default_domain_size=4)
    stream = generator.generate(length)
    # Salt the trace with exact duplicates so within-batch multiplicities > 1
    # and insert/delete pairs occur.
    rng = random.Random(seed)
    updates = list(stream.updates)
    for _ in range(length // 5):
        victim = rng.choice(updates)
        updates.append(Update(rng.choice((1, -1)), victim.relation, victim.values))
    return updates


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_session_batch_vs_sequential_all_backends(seed):
    """The same random trace, applied tuple-at-a-time vs in batches, yields
    identical view results on both compiled backends — including a
    nested-aggregate view — with a snapshot/restore round-trip in the middle
    of the batched trace, and both equal the classical and naive baselines
    fed the same batches standalone."""
    schema = {"R": ("A", "B"), "S": ("C", "D")}
    views = {
        "join": "AggSum([a], R(a, b) * S(b, d) * d)",
        "nested": "AggSum([g], S(g, x) * x * (Sum(S(g, y) * y) > 3))",
    }

    def build():
        session = Session(schema)
        for view_name, text in views.items():
            for backend in COMPILED_BACKENDS:
                session.view(f"{view_name}_{backend}", text, backend=backend)
        return session

    trace = _random_trace([schema], 180, seed)
    sequential = build()
    for update in trace:
        sequential.apply(update)

    batched = build()
    half = len(trace) // 2
    first_part, second_part = trace[:half], trace[half:]
    for start in range(0, len(first_part), 30):
        batched.apply_batch(first_part[start : start + 30])
    # Snapshot mid-trace, revive, and continue batching on the restored session.
    batched = Session.restore(batched.snapshot())
    for start in range(0, len(second_part), 30):
        batched.apply_batch(second_part[start : start + 30])

    expected = sequential.results()
    observed = batched.results()
    for view_name in expected:
        assert observed[view_name] == expected[view_name], view_name
    # Both backends agree with each other and with the baselines too.
    for view_name, text in views.items():
        reference = expected[f"{view_name}_generated"]
        assert expected[f"{view_name}_interpreted"] == reference, view_name
        for baseline in (ClassicalIVM, NaiveReevaluation):
            engine = baseline(parse(text), schema)
            for start in range(0, len(trace), 30):
                engine.apply_batch(trace[start : start + 30])
            assert engine.result() == reference, (view_name, baseline.name)


# ---------------------------------------------------------------------------
# Session.apply_batch cancels net-zero pairs before triggers run
# ---------------------------------------------------------------------------


def test_coalesce_updates_cancels_pairs_and_keeps_net_multiplicity():
    batch = [
        insert("R", 1),
        delete("R", 1),
        insert("R", 2),
        insert("R", 2),
        delete("R", 3),
    ]
    coalesced = coalesce_updates(batch)
    # One signed delta map per relation, net multiplicity per surviving tuple.
    assert coalesced.relations == {"R": {(2,): 2, (3,): -1}}
    assert coalesced.updates() == [Update(1, "R", (2,), count=2), delete("R", 3)]
    # A semiring's executors split it by sign, inserts first.
    assert coalesced.by_sign() == [(("R", 1), {(2,): 2}), (("R", -1), {(3,): 1})]
    assert not coalesce_updates([insert("R", 1), delete("R", 1)])


def test_coalesce_updates_compacts_duplicates_without_object_churn():
    """10k inserts of one tuple must become a single count-carrying entry."""
    batch = [insert("R", 7) for _ in range(10_000)]
    coalesced = coalesce_updates(batch)
    assert coalesced.relations == {"R": {(7,): 10_000}}
    assert (len(coalesced), coalesced.tuples) == (1, 10_000)
    # Count-carrying inputs net correctly against singles.
    assert coalesce_updates(
        [Update(1, "R", (5,), count=3), delete("R", 5), delete("R", 5)]
    ).updates() == [Update(1, "R", (5,), count=1)]


def test_session_apply_batch_cancels_before_triggers_run():
    """A fully self-cancelling batch must execute zero trigger statements —
    net-zero work used to run in full (regression for the PR-1 batch path)."""
    session = Session(UNARY_SCHEMA)
    view = session.view("q", "Sum(R(x) * R(y) * (x = y))", backend="generated")
    session.apply_batch([insert("R", "c"), insert("R", "c")])
    baseline = session._groups["generated"].statistics.statements_executed
    session.apply_batch([insert("R", "d"), delete("R", "d"), insert("R", "e"), delete("R", "e")])
    assert session._groups["generated"].statistics.statements_executed == baseline
    assert view.result() == 4
    # The original updates still count toward the session-level log.
    assert session.updates_applied == 6


def test_session_apply_batch_cancellation_preserves_results_and_cdc():
    session = Session(UNARY_SCHEMA)
    view = session.view("q", "Sum(R(x))", backend="generated")
    payloads = []
    view.on_change(lambda changes: payloads.append(changes))
    session.apply_batch(
        [insert("R", "a"), insert("R", "b"), delete("R", "a"), insert("R", "b")]
    )
    assert view.result() == 2  # net: two b inserts
    assert payloads == [{(): 2}]


def test_coalesce_updates_never_emits_count_zero():
    """Regression (PR 7): random signed churn must never surface a compact
    update with ``count=0`` — net-zero keys are dropped, not emitted."""
    import random

    rng = random.Random(23)
    for _ in range(50):
        batch = [
            Update(rng.choice([1, -1]), "R", (rng.randrange(4),), count=rng.randrange(1, 4))
            for _ in range(rng.randrange(0, 30))
        ]
        coalesced = coalesce_updates(batch).updates()
        assert all(update.count >= 1 for update in coalesced)
        net = {}
        for update in batch:
            key = update.values
            net[key] = net.get(key, 0) + update.sign * update.count
        expected = {key: count for key, count in net.items() if count != 0}
        observed = {u.values: u.sign * u.count for u in coalesced}
        assert observed == expected


def test_fully_cancelled_batch_touches_nothing_but_counters():
    """Regression (PR 7): an empty or fully-cancelled batch short-circuits
    ``Session.apply_batch`` — no history entry, no snapshot delta, no CDC —
    while the submitted-update counters still advance."""
    session = Session(UNARY_SCHEMA, track_history=True)
    view = session.view("q", "Sum(R(x))", backend="generated")
    payloads = []
    view.on_change(lambda changes: payloads.append(changes))
    session.apply_batch([insert("R", "a")])
    history_before = list(session._history)
    snapshot_before = session.snapshot()
    counted_before = session.updates_applied
    session.apply_batch([insert("R", "b"), delete("R", "b"), insert("R", "c"), delete("R", "c")])
    session.apply_batch([])
    assert list(session._history) == history_before
    # The snapshot is unchanged except for the submitted-update counter,
    # which deliberately keeps counting cancelled churn.
    snapshot_after = session.snapshot()
    assert snapshot_after.pop("updates_applied") == snapshot_before.pop("updates_applied") + 4
    assert snapshot_after == snapshot_before
    assert payloads == [{(): 1}]  # only the first (real) batch notified
    assert session.updates_applied == counted_before + 4
    assert view.result() == 1


def test_reserved_delta_prefix_is_rejected_as_a_program_name():
    from repro.core.errors import CompilationError

    with pytest.raises(CompilationError):
        compile_query(parse("Sum(R(x))"), UNARY_SCHEMA, name="__delta__R")


# ---------------------------------------------------------------------------
# The Delta: a batch as one ∆D
# ---------------------------------------------------------------------------


def _compact_reference(updates):
    """A batch's compact update list, computed directly: one update per
    surviving ``(relation, values)`` key, net sign and count, first-seen
    order."""
    net = {}
    for update in updates:
        key = (update.relation, update.values)
        net[key] = net.get(key, 0) + update.sign * update.count
    return [
        Update(1 if count > 0 else -1, relation, values, abs(count))
        for (relation, values), count in net.items()
        if count
    ]


def test_delta_cancels_and_keeps_compact_counts():
    delta = coalesce_updates(
        [insert("R", 1), Update(1, "R", (2,), 3), delete("R", 1), delete("R", 2), insert("S", 9)]
    )
    assert delta.relations == {"R": {(2,): 2}, "S": {(9,): 1}}
    assert (len(delta), delta.tuples, bool(delta)) == (2, 3, True)
    empty = coalesce_updates([insert("R", 1), delete("R", 1)])
    assert (empty.relations, len(empty), empty.tuples, bool(empty)) == ({}, 0, 0, False)
    assert empty.by_sign() == []
    assert empty.updates() == []


def test_delta_keeps_first_seen_event_and_key_order():
    delta = coalesce_updates(
        [insert("S", 1), delete("R", 5), insert("R", 2), insert("S", 0), delete("S", 7),
         insert("R", 1)]
    )
    assert list(delta.relations) == ["S", "R"]
    assert list(delta.relations["S"].items()) == [((1,), 1), ((0,), 1), ((7,), -1)]
    assert list(delta.relations["R"].items()) == [((5,), -1), ((2,), 1), ((1,), 1)]
    # A semiring's events: per relation in first-seen order, inserts first.
    assert delta.by_sign() == [
        (("S", 1), {(1,): 1, (0,): 1}),
        (("R", 1), {(2,): 1, (1,): 1}),
        (("S", -1), {(7,): 1}),
        (("R", -1), {(5,): 1}),
    ]
    # A key whose net sign flips keeps the position of its first occurrence
    # with its net count.
    flipped = coalesce_updates([insert("R", 1), insert("R", 2), Update(-1, "R", (1,), 3)])
    assert list(flipped.relations["R"].items()) == [((1,), -2), ((2,), 1)]
    assert flipped.by_sign() == [(("R", 1), {(2,): 1}), (("R", -1), {(1,): 2})]


def test_delta_from_net_drops_zero_entries():
    delta = Delta.from_net({("R", (1,)): 0, ("R", (2,)): -4, ("S", (3,)): 2})
    assert delta.relations == {"R": {(2,): -4}, "S": {(3,): 2}}
    assert all(count != 0 for rows in delta.relations.values() for count in rows.values())
    assert delta.tuples == 6
    assert delta.by_sign() == [(("S", 1), {(3,): 2}), (("R", -1), {(2,): 4})]


def test_group_updates_nets_signs_and_counts_every_tuple():
    """The engine form nets like ``coalesce_updates`` — one signed map per
    relation — but counts every tuple it was handed."""
    delta = group_updates([insert("R", 1), delete("R", 1), insert("R", 1), Update(1, "R", (2,), 4)])
    assert delta.relations == {"R": {(1,): 1, (2,): 4}}
    assert (len(delta), delta.tuples) == (2, 7)
    cancelled = group_updates([insert("R", 1), delete("R", 1)])
    assert (cancelled.relations, len(cancelled), cancelled.tuples) == ({}, 0, 2)


def test_delta_updates_equal_the_compact_reference_as_a_multiset():
    rng = random.Random(5)
    for _ in range(60):
        batch = [
            Update(rng.choice([1, -1]), rng.choice("RS"), (rng.randrange(4),), rng.randrange(1, 4))
            for _ in range(rng.randrange(0, 40))
        ]
        delta = coalesce_updates(batch)
        expected = _compact_reference(batch)
        assert Counter(delta.updates()) == Counter(expected)
        assert len(delta) == len(expected)
        assert delta.tuples == sum(update.count for update in expected)
        assert all(update.count >= 1 for update in delta.updates())


# ---------------------------------------------------------------------------
# Every way to hand in a batch ≡ the one-row-at-a-time oracle
# ---------------------------------------------------------------------------

#: ``P`` feeds every view; ``C`` feeds a bare count, whose events fuse on ℤ.
DELTA_SCHEMA = {"P": ("G", "S"), "C": ("X",)}

#: Per coefficient structure: the values ``s`` ranges over (floats that sum
#: exactly, so batched and per-tuple folds agree bit for bit), the views
#: registered up front, and the view registered late.
RING_CASES = {
    "Z": (
        [1, 2, 3, 4],
        {
            "sum": "AggSum([g], P(g, s) * s)",
            "pairs": "AggSum([g], P(g, s) * P(g, t))",
            "count": "Sum(C(x))",
        },
        "AggSum([s], P(g, s))",
    ),
    "R-float": (
        [0.5, 1.0, 1.5, 2.5],
        {"sum": "AggSum([g], P(g, s) * s)", "count": "Sum(C(x))"},
        "AggSum([s], P(g, s) * s)",
    ),
    "min-plus": (
        [1.0, 2.0, 3.0, 5.0],
        {"best": "AggSum([g], P(g, s) * s)"},
        "AggSum([s], P(g, s) * s)",
    ),
    "top3": (
        [1.0, 2.0, 3.0, 5.0],
        {"best": "AggSum([g], P(g, s) * s)"},
        "AggSum([s], P(g, s) * s)",
    ),
}


def _ring(name):
    return {"Z": INTEGER_RING, "R-float": FLOAT_FIELD}.get(name) or resolve_semiring(name)


@st.composite
def delta_traces(draw, max_length=50):
    """Batches over ``DELTA_SCHEMA`` with compact counts, duplicates and
    insert/delete churn, deleting only live rows (semirings need that)."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    length = draw(st.integers(min_value=0, max_value=max_length))
    live = Counter()
    trace = []
    for _ in range(length):
        row = ("C", (rng.randrange(3),)) if rng.random() < 0.25 else (
            "P", (rng.randrange(3), rng.randrange(4))
        )
        if live[row] and rng.random() < 0.4:
            count = rng.randint(1, live[row])
            live[row] -= count
            trace.append((-1, row, count))
        else:
            count = rng.choice([1, 1, 2])
            live[row] += count
            trace.append((1, row, count))
    cuts = sorted(rng.sample(range(1, length), min(3, length - 1))) if length > 1 else []
    return trace, [0] + cuts + [length]


def _batches(trace_spec, pool):
    """The trace as ``Update`` batches, ``P``'s value column drawn from ``pool``."""
    trace, cuts = trace_spec
    updates = [
        Update(sign, relation, (row[0], pool[row[1]]) if relation == "P" else row, count)
        for sign, (relation, row), count in trace
    ]
    return [updates[start:end] for start, end in zip(cuts, cuts[1:])]


def _absorb(shadow, ring, payload):
    """A CDC shadow: ring-add deltas (a ring) or overwrite-or-drop post-update
    values (a proper semiring)."""
    for key, value in payload.items():
        if ring.is_ring:
            value = ring.add(shadow.get(key, ring.zero), value)
        if ring.is_zero(value):
            shadow.pop(key, None)
        else:
            shadow[key] = value


def _subscribe(view, ring, shadows):
    shadow = shadows[view.name] = dict(result_as_mapping(view.result(), ring))
    view.on_change(lambda payload: _absorb(shadow, ring, payload))


@pytest.mark.parametrize("ring_name", list(RING_CASES))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(trace=delta_traces())
def test_executors_on_a_delta_match_the_per_tuple_oracle(ring_name, trace, apply_per_tuple):
    """Runtime level: the interpreted runtime and a generated module (with
    the support tier fed by their pair host) applying ``coalesce_updates``
    and ``group_updates`` Deltas end in the maps both executors reach one row
    at a time — which equal every definition evaluated directly over the
    database — and their CDC shadows equal the result."""
    ring = _ring(ring_name)
    pool, views, _late = RING_CASES[ring_name]
    program = compile_query(
        parse(next(iter(views.values()))), DELTA_SCHEMA, name="q",
        normalize=ring.commutative, ring=ring,
    )
    references = [
        CompiledExecutor(
            TriggerRuntime(program, ring=ring),
            generate_python(program, ring=ring) if backend == "generated" else None,
        )
        for backend in ("generated", "interpreted")
    ]
    candidates = {
        (backend, builder): CompiledExecutor(
            TriggerRuntime(program, ring=ring),
            generate_python(program, ring=ring) if backend == "generated" else None,
        )
        for backend in ("generated", "interpreted")
        for builder in (coalesce_updates, group_updates)
    }
    shadows = {key: {} for key in candidates}
    for batch in _batches(trace, pool):
        for reference in references:
            apply_per_tuple(reference, batch)
        for (backend, builder), executor in candidates.items():
            changes = {"q": {}}
            executor.apply_batch(builder(batch), changes)
            _absorb(shadows[(backend, builder)], ring, changes["q"])
    expected = {name: dict(table) for name, table in references[1].runtime.maps.items()}
    assert {name: dict(table) for name, table in references[0].runtime.maps.items()} == expected
    for key, executor in candidates.items():
        assert {name: dict(table) for name, table in executor.runtime.maps.items()} == expected, key
        assert shadows[key] == result_as_mapping(executor.runtime.result(), ring), key


@pytest.mark.parametrize("ring_name", list(RING_CASES))
@settings(max_examples=8, deadline=None)
@given(trace=delta_traces(max_length=40))
def test_every_batch_form_matches_the_per_tuple_session(ring_name, trace):
    """Session level: ``apply_batch(list)`` ≡ ``apply_batch(coalesce_updates
    (list))`` ≡ a pipeline flush ≡ one ``apply`` per logical tuple — on the
    generated and interpreted groups, every CDC shadow equal to its view, a
    late view bootstrapped from the history equal to the same view
    registered up front, and a standalone ``classical`` engine fed the same
    batches (its CDC shadow included) equal to the first view."""
    ring = _ring(ring_name)
    pool, views, late = RING_CASES[ring_name]

    def build(track_history=False, with_late=False):
        session = Session(
            DELTA_SCHEMA, ring=ring, track_history=track_history,
        )
        shadows = {}
        for name, text in views.items():
            for backend in ("generated", "interpreted"):
                _subscribe(session.view(f"{name}_{backend}", text, backend=backend), ring, shadows)
        if with_late:
            _subscribe(session.view("late", late), ring, shadows)
        return session, shadows

    batches = _batches(trace, pool)
    oracle, oracle_shadows = build(with_late=True)
    listed, listed_shadows = build(track_history=True)
    coalesced, coalesced_shadows = build()
    flushed, flushed_shadows = build()
    first = next(iter(views))
    engine = ClassicalIVM(parse(views[first]), DELTA_SCHEMA, ring=ring)
    engine_shadow = {}
    engine.on_change(lambda payload: _absorb(engine_shadow, ring, payload))
    pipe = flushed.ingest(max_pending=1_000_000, max_staleness_ms=None)
    try:
        for index, batch in enumerate(batches):
            engine.apply_batch(batch)
            for update in batch:
                for _ in range(update.count):
                    oracle.apply(Update(update.sign, update.relation, update.values))
            listed.apply_batch(batch)
            coalesced.apply_batch(coalesce_updates(batch))
            pipe.submit_many(batch)
            pipe.flush()
            if index == len(batches) // 2:
                _subscribe(listed.view("late", late), ring, listed_shadows)
    finally:
        pipe.close()
    try:
        expected = {
            name: result_as_mapping(result, ring) for name, result in oracle.results().items()
        }
        assert oracle_shadows == expected
        assert result_as_mapping(engine.result(), ring) == engine_shadow
        assert engine_shadow == expected[f"{first}_generated"]
        for session, shadows in (
            (listed, listed_shadows), (coalesced, coalesced_shadows), (flushed, flushed_shadows)
        ):
            observed = {
                name: result_as_mapping(result, ring)
                for name, result in session.results().items()
            }
            assert observed == {name: expected[name] for name in observed}
            assert shadows == observed
        assert "late" in listed.views
    finally:
        for session in (oracle, listed, coalesced, flushed):
            session.close()


#: Per non-integer ring, the values of ``P``'s second column and the views.
#: Floats take the native fold and the Kahan total; the semirings take the
#: generic fold, post-value change capture and the support tier.
RING_SCHEMA = {"P": ("G", "S")}
RING_VIEWS = {
    "R-float": (
        [0.5, 1.25, 2.5, 1e16],
        {"sum": "AggSum([g], P(g, s) * s)", "total": "Sum(P(g, s) * s)"},
    ),
    "min-plus": ([1.0, 2.0, 3.0, 5.0], {"best": "AggSum([g], P(g, s) * s)"}),
    "top3": ([1.0, 2.0, 3.0, 5.0], {"best": "AggSum([g], P(g, s) * s)"}),
}


#: Batch sizes a trace draws from; a one-update batch goes in by ``apply``.
BATCH_SHAPES = {"single": (1,), "small": (2, 12), "mixed": (1, 12, 90)}


@pytest.mark.parametrize("shape", list(BATCH_SHAPES))
@pytest.mark.parametrize("ring_name", list(RING_VIEWS))
def test_every_ring_matches_across_executors_and_the_per_tuple_session(ring_name, shape):
    """Under a float field and under the MIN / TOP-3 semirings (deletes only
    of live rows), single updates, small batches, or batches of 1 to 90
    updates leave the generated and the interpreted session with equal
    results and equal ``on_change`` payloads, and the semiring sessions where
    a session fed the same updates one ``apply`` at a time ends.  (Float sums
    next to 1e16 round differently batched and row at a time, so the float
    session has no per-tuple twin.)"""
    ring = _ring(ring_name)
    pool, views = RING_VIEWS[ring_name]
    sessions, cdc = {}, {backend: [] for backend in COMPILED_BACKENDS}
    for backend in COMPILED_BACKENDS:
        sessions[backend] = Session(RING_SCHEMA, ring=ring)
        for name, query in views.items():
            sessions[backend].view(name, query, backend=backend).on_change(
                lambda changes, _log=cdc[backend], _name=name: _log.append(
                    (_name, sorted(changes.items()))
                )
            )
    per_tuple = Session(RING_SCHEMA, ring=ring)
    for name, query in views.items():
        per_tuple.view(name, query, backend="interpreted")
    rng = random.Random(f"{ring_name}-{shape}")
    live = []
    for step in range(10):
        batch = []
        for _ in range(rng.choice(BATCH_SHAPES[shape])):
            if live and rng.random() < 0.35:
                batch.append(Update(-1, "P", live.pop(rng.randrange(len(live)))))
            else:
                row = (rng.randrange(20), rng.choice(pool))
                live.append(row)
                batch.append(Update(1, "P", row))
        for session in sessions.values():
            if len(batch) == 1:
                session.apply(batch[0])
            else:
                session.apply_batch(batch)
        for update in batch:
            per_tuple.apply(update)
        generated, interpreted = (session.results() for session in sessions.values())
        assert generated == interpreted, (ring_name, step)
        assert cdc["generated"] == cdc["interpreted"] != [], (ring_name, step)
        if not ring.is_ring:
            assert per_tuple.results() == generated, (ring_name, step)
