"""Tests for the compiler IR objects (map definitions, statements, triggers, programs)."""

import pytest

from repro.compiler.compile import compile_query
from repro.compiler.maps import MapDefinition
from repro.compiler.runtime import TriggerRuntime
from repro.compiler.triggers import BatchStatement, BatchTrigger, TriggerProgram
from repro.core.ast import MapRef, Mul, Rel, Var
from repro.core.parser import parse
from repro.workloads.schemas import CUSTOMER_SCHEMA, UNARY_SCHEMA


def test_map_definition_properties():
    definition = MapDefinition(
        name="m", key_vars=("k0",), definition=parse("R(v0) * (k0 := v0)"), level=1
    )
    assert definition.arity == 1
    assert definition.relations == frozenset({"R"})
    assert definition.degree == 1
    aggregate = definition.as_aggregate()
    assert aggregate.group_vars == ("k0",)
    assert "m[k0]" in definition.describe()
    assert "MapDefinition" in repr(definition)


def test_statement_maps_read_and_describe():
    statement = BatchStatement(
        target="q",
        target_keys=("c",),
        rhs=Mul((MapRef("__delta__R", ("c",)), MapRef("m1", ("c",)), MapRef("m1", ("c",)), Var("x"))),
        delta_map="__delta__R",
    )
    assert statement.maps_read() == ("__delta__R", "m1")
    assert statement.as_aggregate().group_vars == ("c",)
    assert statement.describe().startswith("q[c] += fold(Δ=__delta__R)")
    assert "BatchStatement" in repr(statement)


def test_trigger_event_name_and_describe():
    statement = BatchStatement("q", (), MapRef("__delta__R", ("x",)), "__delta__R")
    up = BatchTrigger(relation="R", sign=1, delta_map="__delta__R", statements=(statement,))
    down = BatchTrigger(relation="R", sign=-1, delta_map="__delta__R", statements=())
    assert up.event_name == "on_insert_R"
    assert down.event_name == "on_delete_R"
    assert "ON BATCH +R AS __delta__R:" in up.describe()
    assert "(no-op)" in down.describe()
    assert "on_insert_R" in repr(up)
    # A ring program's one trigger per relation runs both signs.
    signed = BatchTrigger(
        relation="R", sign=1, delta_map="__delta__R", statements=(statement,), signed=True
    )
    assert signed.event_name == "on_update_R"
    assert "ON BATCH ±R AS __delta__R:" in signed.describe()


def test_a_ring_runtime_rejects_a_delete_trigger():
    """Over a ring deletions run the relation's signed trigger: a program
    handing a ring executor a ``(relation, -1)`` trigger is malformed."""
    statement = BatchStatement("q", (), MapRef("__delta__R", ("x",)), "__delta__R")
    program = TriggerProgram(
        result_map="q",
        maps={"q": MapDefinition("q", (), Rel("R", ("x",)), 0)},
        triggers={
            ("R", 1): BatchTrigger("R", 1, "__delta__R", (statement,), signed=True),
            ("R", -1): BatchTrigger("R", -1, "__delta__R", (statement,)),
        },
        schema={"R": ("A",)},
    )
    with pytest.raises(ValueError, match="one signed trigger"):
        TriggerRuntime(program)


def test_program_accessors():
    program = compile_query(
        parse("AggSum([c], C(c, n) * C(c2, n2) * (n = n2))"), CUSTOMER_SCHEMA, name="same"
    )
    assert program.trigger_for("C", 1) is not None
    assert program.trigger_for("Missing", 1) is None
    auxiliaries = program.auxiliary_maps()
    assert all(definition.name != "same" for definition in auxiliaries)
    assert [d.level for d in auxiliaries] == sorted(d.level for d in auxiliaries)
    assert program.statement_count() >= len(program.triggers)
    assert program.group_vars == ("c",)


def test_statements_within_a_trigger_are_ordered_parents_first():
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    for trigger in program.triggers.values():
        levels = [program.maps[statement.target].level for statement in trigger.statements]
        assert levels == sorted(levels)
