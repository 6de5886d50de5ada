"""Tests for the three IVM engines and their shared interface."""

import pytest

from repro.core.parser import parse
from repro.core.semantics import evaluate
from repro.gmr.database import Database, delete, insert
from repro.gmr.records import EMPTY_RECORD
from repro.ivm.base import SubscriberError, result_as_mapping, results_agree
from repro.ivm.classical import ClassicalIVM
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.workloads.schemas import CUSTOMER_SCHEMA, UNARY_SCHEMA
from repro.workloads.streams import StreamGenerator

SELFJOIN = parse("Sum(R(x) * R(y) * (x = y))")
SAME_NATION = parse("AggSum([c], C(c, n) * C(c2, n2) * (n = n2))")

ENGINE_CLASSES = [RecursiveIVM, ClassicalIVM, NaiveReevaluation]


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
def test_engines_follow_the_example_1_2_trace(engine_class):
    engine = engine_class(SELFJOIN, UNARY_SCHEMA)
    trace = [
        (insert("R", "c"), 1),
        (insert("R", "c"), 4),
        (insert("R", "d"), 5),
        (insert("R", "c"), 10),
        (delete("R", "d"), 9),
        (insert("R", "c"), 16),
        (delete("R", "c"), 9),
    ]
    for update, expected in trace:
        engine.apply(update)
        assert engine.result() == expected
    assert engine.statistics.updates_processed == len(trace)
    assert engine.statistics.seconds_in_updates >= 0.0
    assert engine.statistics.seconds_per_update() >= 0.0


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
def test_engines_handle_group_by(engine_class):
    engine = engine_class(SAME_NATION, CUSTOMER_SCHEMA)
    engine.apply_all(
        [insert("C", 1, "FR"), insert("C", 2, "FR"), insert("C", 3, "JP"), delete("C", 2, "FR")]
    )
    assert result_as_mapping(engine.result()) == {(1,): 1, (3,): 1}
    assert engine.group_vars == ("c",)


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
def test_engines_match_direct_evaluation_on_random_streams(engine_class):
    stream = StreamGenerator(UNARY_SCHEMA, seed=3, default_domain_size=5).generate(150)
    engine = engine_class(SELFJOIN, UNARY_SCHEMA)
    db = Database(UNARY_SCHEMA)
    for update in stream:
        engine.apply(update)
        db.apply(update)
    assert engine.result() == evaluate(SELFJOIN, db)[EMPTY_RECORD]


def test_recursive_engine_exposes_the_compiled_program():
    engine = RecursiveIVM(SELFJOIN, UNARY_SCHEMA)
    assert "MAPS:" in engine.explain()
    assert engine.generated_source() is None
    assert engine.total_map_entries() == 0
    engine.apply(insert("R", 1))
    assert engine.total_map_entries() == 2
    assert set(engine.map_sizes()) == set(engine.program.maps)


def test_recursive_engine_generated_backend():
    engine = RecursiveIVM(SELFJOIN, UNARY_SCHEMA, backend="generated")
    assert engine.generated_source() is not None
    engine.apply_all([insert("R", "c"), insert("R", "c"), insert("R", "d")])
    assert engine.result() == 5
    with pytest.raises(ValueError):
        RecursiveIVM(SELFJOIN, UNARY_SCHEMA, backend="compiled-to-the-moon")


@pytest.mark.parametrize("engine_class", ENGINE_CLASSES)
def test_engines_can_bootstrap_from_a_database(engine_class, unary_db):
    engine = engine_class(SELFJOIN, UNARY_SCHEMA)
    engine.bootstrap(unary_db)
    assert engine.result() == 5
    engine.apply(insert("R", "c"))
    assert engine.result() == 10


def test_naive_and_classical_keep_their_own_database_copies(unary_db):
    classical = ClassicalIVM(SELFJOIN, UNARY_SCHEMA)
    classical.bootstrap(unary_db)
    classical.apply(insert("R", "c"))
    # The engine's copy changed, the caller's database did not.
    assert unary_db["R"].total() == 3
    assert classical.db["R"].total() == 4


def test_results_agree_normalization():
    assert results_agree(0, {})
    assert results_agree(5, {(): 5})
    assert results_agree({(1,): 2, (2,): 0}, {(1,): 2})
    assert not results_agree({(1,): 2}, {(1,): 3})
    assert result_as_mapping(7) == {(): 7}


def test_engine_repr_mentions_query():
    engine = NaiveReevaluation(SELFJOIN, UNARY_SCHEMA)
    assert "Sum" in repr(engine)


BY_A = parse("AggSum([a], R(a, b) * b)")


def test_a_callback_that_unsubscribes_itself_does_not_starve_its_sibling():
    engine = RecursiveIVM(BY_A, {"R": ("a", "b")})
    received = []

    def first(changes):
        engine.remove_on_change(first)

    engine.on_change(first)
    engine.on_change(received.append)
    engine.apply(insert("R", 1, 5))
    assert received == [{(1,): 5}]


@pytest.mark.parametrize("entry", ["apply", "apply_batch"])
@pytest.mark.parametrize("backend", ["generated", "interpreted"])
def test_a_raising_callback_does_not_starve_its_siblings(backend, entry):
    """Every subscriber is called; one ``SubscriberError`` follows the last
    call, after the update was applied."""
    engine = RecursiveIVM(BY_A, {"R": ("a", "b")}, backend=backend)
    received = []

    def broken(changes):
        raise KeyError("subscriber bug")

    engine.on_change(broken)
    engine.on_change(received.append)
    engine.on_change(broken)
    with pytest.raises(SubscriberError) as raised:
        if entry == "apply":
            engine.apply(insert("R", 1, 5))
        else:
            engine.apply_batch([insert("R", 1, 5), insert("R", 2, 1), delete("R", 2, 1)])
    assert len(raised.value.errors) == 2
    assert all(isinstance(error, KeyError) for error in raised.value.errors)
    assert received == [{(1,): 5}]
    assert engine.result() == {(1,): 5}


def test_a_subscription_made_during_a_delivery_starts_with_the_next_call():
    engine = RecursiveIVM(BY_A, {"R": ("a", "b")})
    late = []

    def subscribe_late(changes):
        if not late:
            late.append("subscribed")
            engine.on_change(late.append)

    engine.on_change(subscribe_late)
    engine.apply(insert("R", 1, 5))
    assert late == ["subscribed"]  # the in-flight payload is not delivered to it
    engine.apply(insert("R", 1, 2))
    assert late == ["subscribed", {(1,): 2}]
