"""Relation-valued batch deltas: batch triggers vs per-tuple reference semantics.

The compiler now emits, per ``(relation, sign)`` event, a *batch trigger*
whose parameter is a whole delta map ``∆R : key → multiplicity``
(`repro.core.delta.BatchUpdateEvent`).  These tests pin down:

* the delta rules for relation-valued updates (delta-map references, the
  product rule's second-order terms);
* the compiled IR (``BatchTrigger``/``BatchStatement`` incl. the
  key-projection analysis);
* batch-vs-sequential equivalence of ``apply_batch`` on all four backends,
  randomized, including a nested-aggregate query and a snapshot/restore
  round-trip mid-trace — with per-tuple application
  (the ``apply_per_tuple`` fixture) as the reference semantics;
* the ``Session.apply_batch`` cancellation of insert/delete pairs before any
  trigger runs.
"""

import random

import pytest

from repro.compiler.codegen import generate_python
from repro.compiler.compile import compile_query
from repro.compiler.runtime import TriggerRuntime
from repro.core.ast import MapRef, Neg
from repro.core.delta import BatchUpdateEvent, delta, delta_map_name, is_delta_map
from repro.core.parser import parse
from repro.gmr.database import Update, coalesce_updates, delete, insert
from repro.session import Session
from repro.workloads.streams import StreamGenerator

UNARY_SCHEMA = {"R": ("A",)}
GROUPED_SCHEMA = {"R": ("A", "B"), "S": ("C", "D")}

ALL_BACKENDS = ("generated", "interpreted", "classical", "naive")

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
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    assert set(program.batch_triggers) == set(program.triggers)
    trigger = program.batch_trigger_for("R", 1)
    assert trigger.delta_map == delta_map_name("R")
    assert trigger.statements  # q and the base component map
    assert "BATCH TRIGGERS:" in program.explain()


def test_key_projection_analysis_marks_base_copy_statements():
    """A statement whose rhs is exactly ``±∆R`` projected onto the target keys
    carries the projection — executors fold the pre-aggregated batch straight
    onto the map, one read-modify-write per distinct key."""
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    by_target = {
        (statement.target, trigger.sign): statement
        for trigger in program.batch_triggers.values()
        for statement in trigger.statements
    }
    [auxiliary] = [name for name in program.maps if name != "q"]
    assert by_target[(auxiliary, 1)].projection == (0,)
    assert by_target[(auxiliary, 1)].coefficient == 1
    assert by_target[(auxiliary, -1)].projection == (0,)
    assert by_target[(auxiliary, -1)].coefficient == -1
    # The result statement is second-order in ∆R: no pure projection.
    assert by_target[("q", 1)].projection is None


def test_delta_maps_are_never_slice_indexed():
    from repro.compiler.indexes import compute_index_specs

    program = compile_query(
        parse("AggSum([a], R(a, b) * S(b, d) * d)"), GROUPED_SCHEMA, name="q"
    )
    specs = compute_index_specs(program)
    assert not any(is_delta_map(name) for name in specs)


# ---------------------------------------------------------------------------
# Batch triggers vs the per-tuple reference semantics (runtime level)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("query_name", list(PROPERTY_QUERIES))
def test_runtime_batch_matches_per_tuple_reference(query_name, apply_per_tuple):
    """Interpreted backend: apply_batch (batch triggers) against per-tuple
    application (the reference)."""
    text, schema = PROPERTY_QUERIES[query_name]
    program = compile_query(parse(text), schema, name="q")
    stream = StreamGenerator(schema, seed=11, default_domain_size=4).generate(260)
    reference = TriggerRuntime(program)
    batched = TriggerRuntime(program)
    for batch in stream.batches(21):
        apply_per_tuple(reference, batch)
        batched.apply_batch(batch)
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
        generated.apply_batch(batched, batch, changes=changes_batched)
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
    batched.apply_batch(batch)
    assert sequential.result() == batched.result() == 25 + 9


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
    identical view results on every backend — including a nested-aggregate
    view — with a snapshot/restore round-trip in the middle of the batched
    trace."""
    schema = {"R": ("A", "B"), "S": ("C", "D")}
    views = {
        "join": "AggSum([a], R(a, b) * S(b, d) * d)",
        "nested": "AggSum([g], S(g, x) * x * (Sum(S(g, y) * y) > 3))",
    }

    def build():
        session = Session(schema)
        for view_name, text in views.items():
            for backend in ALL_BACKENDS:
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
    # All backends agree with each other too.
    for view_name in views:
        reference = expected[f"{view_name}_generated"]
        for backend in ALL_BACKENDS[1:]:
            assert expected[f"{view_name}_{backend}"] == reference, (view_name, backend)


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
    # Compact form: one update per surviving tuple, net multiplicity in count.
    assert coalesced == [Update(1, "R", (2,), count=2), delete("R", 3)]
    assert coalesce_updates([insert("R", 1), delete("R", 1)]) == []


def test_coalesce_updates_compacts_duplicates_without_object_churn():
    """10k inserts of one tuple must become a single count-carrying update."""
    batch = [insert("R", 7) for _ in range(10_000)]
    coalesced = coalesce_updates(batch)
    assert coalesced == [Update(1, "R", (7,), count=10_000)]
    # An already-compact batch is handed back as-is (no rebuild).
    distinct = [insert("R", 1), delete("R", 2)]
    assert coalesce_updates(distinct) is distinct
    # Count-carrying inputs net correctly against singles.
    assert coalesce_updates(
        [Update(1, "R", (5,), count=3), delete("R", 5), delete("R", 5)]
    ) == [Update(1, "R", (5,), count=1)]


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
        coalesced = coalesce_updates(batch)
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
