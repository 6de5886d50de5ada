"""Fused bare-count totals: what survives of batch specialization.

A batch reaches both compiled executors as a :class:`~repro.gmr.database.Delta`
— one delta map per ``(relation, sign)`` event — so there is no batch left to
slice per event.  The one specialization left is the fused total: an event
whose every statement is a bare-count fold folds its net tuple count
``Σ∆R`` through ``total_batch_*`` instead of running its batch trigger on the
map, Kahan-compensated over the float field.  The contract under test: with
``specialize=True`` (the default) the fused path is *indistinguishable* from
``specialize=False`` — same states, same results, same ``on_change``
payloads, same errors — at any program width, and ineligible programs
(non-integer rings with a non-total event) fuse nothing.
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.semirings import FLOAT_FIELD
from repro.compiler.cost import batch_specialization_class, trigger_specialization
from repro.compiler.indexes import IndexedMaps
from repro.core.parser import parse
from repro.gmr.database import Update, group_updates
from repro.ivm.recursive import RecursiveIVM

COMPILED_BACKENDS = ("generated", "interpreted")

#: name -> (query text, schema, expected per-event specialization classes).
#: ``count`` and ``wide_count`` compile to all-total triggers (``wide_count``
#: has six events: no width gate keeps it off the fused path), the rest run
#: their batch triggers on the delta maps.
QUERIES = {
    "count": ("Sum(R(x))", {"R": ("A",)}, {"total"}),
    "wide_count": (
        "Sum(R(x) + S(y) + T(z))",
        {"R": ("A",), "S": ("A",), "T": ("A",)},
        {"total"},
    ),
    "group_count": ("AggSum([a], R(a, b))", {"R": ("A", "B")}, set()),
    "selfjoin": ("Sum(R(x) * R(y) * (x = y))", {"R": ("A",)}, set()),
    "join": ("AggSum([a], R(a, b) * S(b, c) * c)", {"R": ("A", "B"), "S": ("B", "C")}, set()),
}


def _random_trace(rng, schema, length, domain=9):
    relations = [(name, len(columns)) for name, columns in schema.items()]
    updates = []
    for _ in range(length):
        relation, arity = relations[rng.randrange(len(relations))]
        sign = 1 if rng.random() < 0.7 else -1
        values = tuple(rng.randint(0, domain) for _ in range(arity))
        # Compact (count > 1) updates: the fused total sums counts, not rows.
        count = rng.choice([1, 1, 1, 3])
        updates.append(Update(sign, relation, values, count))
    return updates


def _table_copies(engine):
    return {name: dict(table) for name, table in engine.runtime.maps.items()}


def _engines(name, backend, specialize):
    text, schema, _ = QUERIES[name]
    engine = RecursiveIVM(parse(text), schema, backend=backend, specialize=specialize)
    cdc = []
    engine.on_change(lambda changes: cdc.append(sorted(changes.items())))
    return engine, cdc


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("name", sorted(QUERIES))
def test_fused_matches_unfused_state_and_cdc(name, backend):
    """On mixed per-tuple/batched traces with compact multiplicities, the
    fused executor is byte-identical to the unfused one — results, full map
    states and CDC payloads — including across a snapshot/restore taken
    mid-trace."""
    rng = random.Random(hash((name, backend)) & 0xFFFF)
    _, schema, _ = QUERIES[name]
    plain, plain_cdc = _engines(name, backend, specialize=False)
    fused, fused_cdc = _engines(name, backend, specialize=True)
    copies = None
    for step in range(10):
        if rng.random() < 0.3:
            update = _random_trace(rng, schema, 1)[0]
            plain.apply(update)
            fused.apply(update)
        else:
            batch = _random_trace(rng, schema, rng.choice([4, 60, 150]))
            plain.apply_batch(batch)
            fused.apply_batch(batch)
        assert fused.result() == plain.result(), (name, backend, step)
        assert fused_cdc == plain_cdc, (name, backend, step)
        assert fused.runtime.maps == plain.runtime.maps, (name, backend, step)
        if step == 4:
            copies = (_table_copies(plain), _table_copies(fused))
    # Reinstall the mid-trace tables the way a session restore does.
    plain.runtime.restore_tables(copies[0])
    fused.runtime.restore_tables(copies[1])
    tail = _random_trace(random.Random(7), schema, 120)
    plain.apply_batch(tail)
    fused.apply_batch(tail)
    assert fused.result() == plain.result()
    assert fused.runtime.maps == plain.runtime.maps


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_fused_batch_equals_per_tuple_replay(backend):
    """Folding one batch equals applying its tuples one at a time."""
    for name, (text, schema, _) in QUERIES.items():
        trace = _random_trace(random.Random(len(name)), schema, 200)
        batched = RecursiveIVM(parse(text), schema, backend=backend)
        batched.apply_batch(trace)
        sequential = RecursiveIVM(parse(text), schema, backend=backend)
        sequential.apply_all(trace)
        assert batched.result() == sequential.result(), (name, backend)


def test_codegen_reports_specialization_classes():
    """The generated module names its fused events, the runtime decodes the
    same plan, and explain() labels every batch statement."""
    for name, (text, schema, expected) in QUERIES.items():
        engine = RecursiveIVM(parse(text), schema, backend="generated")
        verdicts = engine._generated.specializations
        assert set(verdicts.values()) == expected, (name, verdicts)
        assert verdicts == engine.runtime.plan.specializations, name
        if expected:
            # Every event fuses: no width gate.
            assert len(verdicts) == len(engine.program.triggers), name
        assert "[spec:" in engine.explain(), name
    disabled = RecursiveIVM(
        parse(QUERIES["count"][0]), QUERIES["count"][1], backend="generated", specialize=False
    )
    assert disabled._generated.specializations == {}
    # The module prints the statements only: no batch loop of its own.
    assert "def apply_batch" not in disabled.generated_source()


def test_specialization_classes_in_cost_model():
    """The static classifier distinguishes fused totals from bare counts whose
    event does not fuse."""
    engine = RecursiveIVM(parse("Sum(R(x))"), {"R": ("A",)})
    for trigger in engine.program.triggers.values():
        assert trigger_specialization(trigger) == "total"
        for statement in trigger.statements:
            assert batch_specialization_class(statement, trigger) == "fused-total"
    joined = RecursiveIVM(
        parse("AggSum([a], R(a, b) * S(b, c) * c)"), {"R": ("A", "B"), "S": ("B", "C")}
    )
    assert {
        trigger_specialization(trigger) for trigger in joined.program.triggers.values()
    } == {"generic"}
    classes = {
        batch_specialization_class(statement, trigger)
        for trigger in joined.program.triggers.values()
        for statement in trigger.statements
    }
    assert "generic" in classes or "fused-copy" in classes or "fused-marginal" in classes
    # A bare-count statement whose event does not fuse is the lint shape —
    # and the plan's label says so when the knob keeps the event unfused.
    bare = next(
        statement
        for trigger in engine.program.triggers.values()
        for statement in trigger.statements
    )
    assert batch_specialization_class(bare, trigger=None) == "generic-bare-count"
    unfused = RecursiveIVM(parse("Sum(R(x))"), {"R": ("A",)}, specialize=False)
    assert {label for event in unfused.runtime.plan.events for label in event.labels} == {
        "generic-bare-count"
    }


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_non_integer_rings_fuse_only_whole_total_programs(backend):
    """The float field pins its accumulation order: a program with a
    non-total event fuses nothing, yet still computes."""
    engine = RecursiveIVM(
        parse("AggSum([a], R(a, b) * b)"), {"R": ("A", "B")},
        ring=FLOAT_FIELD, backend=backend,
    )
    assert engine.runtime.plan.specializations == {}
    assert not engine.runtime.plan.kahan
    engine.apply_batch([Update(1, "R", (1, 2.5)), Update(1, "R", (1, 0.5)), Update(-1, "R", (2, 1.0))])
    assert engine.result() == {(1,): 3.0, (2,): -1.0}


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_arity_error_parity(backend):
    """A malformed tuple fails the same way on both paths and both executors:
    the per-event arity check over the delta map's keys raises before any
    state changed, so poisoned batches stay atomic."""
    text, schema, _ = QUERIES["group_count"]
    good = [Update(1, "R", (value % 5, value % 3)) for value in range(40)]
    poisoned = good + [Update(1, "R", (1, 2, 3))] + good
    outcomes = {}
    for specialize in (False, True):
        engine = RecursiveIVM(parse(text), schema, backend=backend, specialize=specialize)
        engine.apply_batch(good)
        before = _table_copies(engine)
        with pytest.raises(ValueError, match="arity") as raised:
            engine.apply_batch(poisoned)
        assert _table_copies(engine) == before, specialize
        outcomes[specialize] = str(raised.value)
    assert outcomes[False] == outcomes[True]
    assert "+R(1, 2, 3)" in outcomes[True]


# ---------------------------------------------------------------------------
# Kahan-compensated fused float totals
# ---------------------------------------------------------------------------


def test_float_all_total_programs_fuse_with_kahan_compensation():
    """The float field does not keep the unfused path just to pin
    accumulation order: an all-total program fuses, with a per-target Kahan
    compensation term making the fused sum *more* accurate, not less."""
    engine = RecursiveIVM(
        parse("Sum(R(x))"), {"R": ("A",)},
        ring=FLOAT_FIELD, backend="generated", specialize=True,
    )
    assert "_fold_total(" in engine.generated_source()
    assert engine._generated.specializations
    assert engine.runtime.plan.kahan


def test_kahan_fused_totals_accuracy_no_worse_than_fsum():
    """A float total sitting at 1e16 absorbs 1000 single-tuple batches: plain
    ``+=`` drops every increment (the ulp at 1e16 is 2.0), ``math.fsum`` over
    the same contributions keeps them all — the Kahan path must match fsum."""
    import math

    from repro.compiler.codegen import generate_python
    from repro.compiler.compile import compile_query
    from repro.gmr.database import insert

    program = compile_query(parse("Sum(R(x))"), {"R": ("A",)}, name="q")
    kahan = generate_python(program, ring=FLOAT_FIELD, specialize=True)
    plain = generate_python(program, ring=FLOAT_FIELD, specialize=False)
    contributions = [1e16] + [1.0] * 1000
    exact = math.fsum(contributions)
    results = {}
    for label, generated in (("kahan", kahan), ("plain", plain)):
        maps = {name: {} for name in program.maps}
        maps["q"][()] = 1e16
        for step in range(1000):
            generated.apply_batch(maps, group_updates([insert("R", step)]))
        results[label] = maps["q"][()]
    assert results["plain"] == 1e16  # the baseline really does lose the tail
    assert abs(results["kahan"] - exact) <= abs(results["plain"] - exact)
    assert results["kahan"] == exact


def test_kahan_compensation_lives_with_the_tables():
    """The carried low-order bits are stored on the map environment, so a
    wholly different environment does not replay a stale compensation term —
    and the runtime clears them whenever it rewrites tables wholesale."""
    from repro.compiler.codegen import generate_python
    from repro.compiler.compile import compile_query
    from repro.compiler.runtime import TriggerRuntime
    from repro.gmr.database import insert

    program = compile_query(parse("Sum(R(x))"), {"R": ("A",)}, name="q")
    generated = generate_python(program, ring=FLOAT_FIELD, specialize=True)
    maps = IndexedMaps({name: {} for name in program.maps})
    maps["q"][()] = 1e16
    generated.apply_batch(maps, group_updates([insert("R", 0)]))
    assert maps.compensation == {"q": -1.0}
    fresh = IndexedMaps({name: {} for name in program.maps})
    generated.apply_batch(fresh, group_updates([insert("R", 1), insert("R", 2)]))
    assert fresh["q"][()] == 2.0
    for backend_generated in (None, generated):
        runtime = TriggerRuntime(program, ring=FLOAT_FIELD)
        runtime.restore_tables({"q": {(): 1e16}})
        if backend_generated is None:
            runtime.apply_batch(group_updates([insert("R", 0)]))
        else:
            generated.apply_batch(runtime.maps, group_updates([insert("R", 0)]))
        assert runtime.maps.compensation == {"q": -1.0}
        runtime.restore_tables({"q": {(): 1e16}})
        assert runtime.maps.compensation == {}
