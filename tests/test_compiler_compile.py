"""Tests for the recursive trigger compiler (structure of the produced programs)."""

import pytest

from repro.algebra.semirings import resolve_semiring
from repro.compiler.compile import Compiler, compile_query
from repro.core.ast import Rel, walk
from repro.core.delta import delta_map_name, is_delta_map
from repro.core.errors import CompilationError, SchemaError, UnsafeQueryError
from repro.core.parser import parse
from repro.workloads.schemas import CUSTOMER_SCHEMA, RST_SCHEMA, UNARY_SCHEMA


def test_result_map_and_group_vars():
    program = compile_query(parse("AggSum([c], C(c, n) * C(c2, n2) * (n = n2))"), CUSTOMER_SCHEMA, name="same")
    assert program.result_map == "same"
    assert program.group_vars == ("c",)
    assert program.result_definition.level == 0
    assert program.maps["same"].relations == frozenset({"C"})


def test_group_vars_can_be_passed_separately():
    body = parse("C(c, n) * C(c2, n2) * (n = n2)")
    program = compile_query(body, CUSTOMER_SCHEMA, group_vars=("c",))
    assert program.group_vars == ("c",)
    with pytest.raises(CompilationError):
        compile_query(parse("AggSum([c], C(c, n))"), CUSTOMER_SCHEMA, group_vars=("n",))


def test_one_trigger_per_relation_and_sign():
    """Over a ring one signed trigger per relation, keyed ``(relation, +1)``;
    a proper semiring keeps one trigger per relation and sign."""
    query = parse("Sum(R(a, b) * S(c, d) * T(e, f) * (b = c) * (d = e) * a * f)")
    program = compile_query(query, RST_SCHEMA)
    assert set(program.triggers) == {("R", 1), ("S", 1), ("T", 1)}
    assert [trigger.event_name for trigger in program.triggers.values()] == [
        "on_update_R", "on_update_S", "on_update_T",
    ]
    semiring = compile_query(query, RST_SCHEMA, ring=resolve_semiring("min-plus"))
    assert set(semiring.triggers) == {
        ("R", 1), ("R", -1), ("S", 1), ("S", -1), ("T", 1), ("T", -1),
    }
    for compiled, signed in ((program, True), (semiring, False)):
        for (relation, sign), trigger in compiled.triggers.items():
            assert (trigger.relation, trigger.sign, trigger.signed) == (relation, sign, signed)
            assert trigger.delta_map == delta_map_name(relation)
            for statement in trigger.statements:
                assert statement.delta_arity == len(RST_SCHEMA[relation])


def test_example_1_3_produces_factorized_maps():
    """On ±S the result is maintained from two unary maps (the paper's (∆Q)1, (∆Q)2)."""
    program = compile_query(
        parse("Sum(R(a, b) * S(c, d) * T(e, f) * (b = c) * (d = e) * a * f)"), RST_SCHEMA, name="q"
    )
    trigger = program.trigger_for("S", 1)
    [statement_for_q] = [s for s in trigger.statements if s.target == "q"]
    referenced = [name for name in statement_for_q.maps_read() if not is_delta_map(name)]
    assert len(referenced) == 2
    for name in referenced:
        assert program.maps[name].arity == 1
        assert program.maps[name].level == 1


def test_delta_hierarchy_levels_are_bounded_by_degree():
    program = compile_query(
        parse("Sum(R(a, b) * S(c, d) * T(e, f) * (b = c) * (d = e) * a * f)"), RST_SCHEMA
    )
    max_level = max(definition.level for definition in program.maps.values())
    assert max_level <= 2  # degree 3 query: levels 0, 1, 2
    for definition in program.maps.values():
        assert definition.degree <= 3 - definition.level


def test_degree_one_query_needs_no_auxiliary_maps():
    program = compile_query(parse("Sum(R(x) * x)"), UNARY_SCHEMA)
    assert len(program.maps) == 1
    assert program.auxiliary_maps() == ()
    # Its triggers are pure functions of the delta map.
    for trigger in program.triggers.values():
        for statement in trigger.statements:
            assert statement.maps_read() == (trigger.delta_map,)


def test_structurally_equal_components_are_deduplicated():
    """The self-join delta has two symmetric components that share one map."""
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA)
    assert len(program.maps) == 2  # the result plus a single count-by-value map
    trigger = program.trigger_for("R", 1)
    [result_statement] = [s for s in trigger.statements if s.target == program.result_map]
    # The combined statement reads the shared map once, scaled by 2 (beside
    # the ∆R·∆R term).
    assert result_statement.maps_read() == (trigger.delta_map, "q_m1")
    assert "2 * " in str(result_statement.rhs)


def test_compiled_rhs_contains_no_base_relations():
    for text, schema in [
        ("Sum(R(x) * R(y) * (x = y))", UNARY_SCHEMA),
        ("AggSum([c], C(c, n) * C(c2, n2) * (n = n2))", CUSTOMER_SCHEMA),
        ("Sum(R(a, b) * S(c, d) * T(e, f) * (b = c) * (d = e) * a * f)", RST_SCHEMA),
    ]:
        program = compile_query(parse(text), schema)
        for trigger in program.triggers.values():
            for statement in trigger.statements:
                assert not any(isinstance(node, Rel) for node in walk(statement.rhs)), statement


def test_map_definitions_use_canonical_key_names():
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA)
    for definition in program.auxiliary_maps():
        assert all(key.startswith("k") for key in definition.key_vars)


def test_inequality_join_defers_boundary_condition():
    schema = {"R": ("A", "B"), "S": ("C", "D")}
    program = compile_query(parse("Sum(R(a, b) * S(c, d) * (b = c) * (a < d) * d)"), schema)
    trigger = program.trigger_for("S", 1)
    [statement] = [s for s in trigger.statements if s.target == program.result_map]
    # The inequality stays in the statement; the referenced map is keyed by
    # the equality key plus the inequality's component variable.
    assert "<" in str(statement.rhs)
    [map_name] = [name for name in statement.maps_read() if not is_delta_map(name)]
    assert program.maps[map_name].arity == 2


def test_nested_aggregates_compile_into_a_hierarchy():
    """The closure theorem in action: the inner aggregate becomes an auxiliary
    map and the outer map is maintained by a recompute statement."""
    program = compile_query(parse("Sum(R(x) * (Sum(R(y)) > 2))"), UNARY_SCHEMA)
    auxiliary = program.auxiliary_maps()
    assert len(auxiliary) >= 1
    assert all(definition.level >= 1 for definition in auxiliary)
    trigger = program.trigger_for("R", 1)
    assert trigger.recomputes, "nested readers must be maintained by recompute"
    [recompute] = trigger.recomputes
    assert recompute.target == program.result_map
    # The re-evaluation body reads materialized maps only, never base relations.
    from repro.core.ast import relation_atoms

    assert not relation_atoms(recompute.body)


def test_bare_relations_in_condition_operands_are_rejected():
    with pytest.raises(CompilationError):
        compile_query(parse("Sum(R(x) * (R(y) > 2))"), UNARY_SCHEMA)


def test_map_references_in_user_queries_are_rejected():
    with pytest.raises(CompilationError):
        compile_query(parse("Sum(m[x] * R(x))"), UNARY_SCHEMA)


def test_unknown_relation_and_arity_mismatch():
    with pytest.raises(SchemaError):
        compile_query(parse("Sum(Q(x))"), UNARY_SCHEMA)
    with pytest.raises(SchemaError):
        compile_query(parse("Sum(R(x, y))"), UNARY_SCHEMA)


def test_unsafe_queries_are_rejected():
    with pytest.raises(UnsafeQueryError):
        compile_query(parse("Sum(R(x) * y)"), UNARY_SCHEMA)


def test_explain_lists_maps_and_triggers():
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    text = program.explain()
    assert "MAPS:" in text and text.count("TRIGGERS:") == 1
    assert text.count("ON BATCH ") == 1 and "ON BATCH ±R AS __delta__R:" in text
    assert "q[]" in text
    assert repr(program).startswith("TriggerProgram(")
    semiring = compile_query(
        parse("Sum(R(x) * R(y) * (x = y) * x)"), UNARY_SCHEMA, name="q",
        ring=resolve_semiring("min-plus"),
    ).explain()
    assert semiring.count("ON BATCH ") == 2
    assert "ON BATCH +R AS __delta__R:" in semiring and "ON BATCH -R AS __delta__R:" in semiring


def test_compiler_instance_is_reusable():
    compiler = Compiler(UNARY_SCHEMA)
    first = compiler.compile(parse("Sum(R(x))"), name="a")
    second = compiler.compile(parse("Sum(R(x) * x)"), name="b")
    assert first.result_map == "a" and second.result_map == "b"
    assert set(first.maps) == {"a"} and set(second.maps) == {"b"}
