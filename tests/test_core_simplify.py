"""Tests for algebraic simplification, substitution and safety reordering."""

from hypothesis import given, settings

from repro.core.ast import Assign, Compare, Const, MapRef, Rel, Var
from repro.core.delta import UpdateEvent, delta
from repro.core.parser import parse, to_string
from repro.core.semantics import evaluate
from repro.core.simplify import (
    make_safe,
    order_for_safety,
    rename_variables,
    simplify,
    simplify_monomial,
    substitute,
)
from repro.core.normalization import Monomial
from repro.gmr.database import Database
from repro.gmr.records import Record
from tests.conftest import simple_unary_queries, unary_update_streams


# ---------------------------------------------------------------------------
# substitution / renaming
# ---------------------------------------------------------------------------


def test_substitute_variables_and_constants():
    expr = parse("R(x, y) * (x < z) * z")
    substituted = substitute(expr, {"z": Const(5), "x": Var("a")})
    assert to_string(substituted) == "R(a, y) * (a < 5) * 5"


def test_substitute_does_not_touch_assignment_targets():
    expr = Assign("x", Var("y"))
    assert substitute(expr, {"x": Var("z"), "y": Const(3)}) == Assign("x", Const(3))


def test_substitute_constant_into_binding_position_is_skipped():
    expr = Rel("R", ("x", "y"))
    # Constants cannot appear as relation columns; the atom is left unchanged.
    assert substitute(expr, {"x": Const(3)}) == expr
    assert substitute(MapRef("m", ("x",)), {"x": Const(3)}) == MapRef("m", ("x",))


def test_rename_variables_renames_binding_positions_too():
    expr = parse("AggSum([g], R(x, y) * (x := 3) * m[x, g])")
    renamed = rename_variables(expr, {"x": "k0", "g": "k1"})
    assert to_string(renamed) == "AggSum([k1], R(k0, y) * (k0 := 3) * m[k0, k1])"


# ---------------------------------------------------------------------------
# monomial simplification
# ---------------------------------------------------------------------------


def test_static_condition_folding():
    assert simplify(parse("R(x) * (1 < 2)")) == parse("R(x)")
    assert simplify(parse("R(x) * (2 < 1)")) == Const(0)
    assert simplify(parse("R(x) * (y = y)"), bound_vars={"y"}) == parse("R(x)")
    assert simplify(parse("R(x) * (x != x)")) == Const(0)


def test_constant_folding_into_coefficients():
    assert simplify(parse("2 * R(x) * 3")) == parse("6 * R(x)")
    assert simplify(parse("R(x) * 0")) == Const(0)
    assert simplify(parse("R(x) * 1")) == parse("R(x)")


def test_like_terms_are_combined():
    assert simplify(parse("R(x) + R(x)")) == parse("2 * R(x)")
    assert simplify(parse("R(x) - R(x)")) == Const(0)


def test_assignment_elimination_with_variable_source():
    expr = parse("(x := u) * R(x) * x")
    tidy = simplify(expr, bound_vars={"u"}, needed_vars={"u"})
    assert to_string(tidy) == "R(u) * u"


def test_assignment_kept_when_needed():
    expr = parse("(x := u) * R(y)")
    tidy = simplify(expr, bound_vars={"u"}, needed_vars={"x", "u"})
    assert "x := u" in to_string(tidy)


def test_assignment_with_constant_source_kept_for_relation_columns():
    expr = parse("(x := 3) * R(x)")
    tidy = simplify(expr, bound_vars=(), needed_vars=set())
    # The constant cannot be inlined into the relation atom, so the assignment stays.
    assert to_string(tidy) == "(x := 3) * R(x)"


def test_equality_converted_to_assignment_when_one_side_unbound():
    expr = parse("R(x) * (y = x) * S(y)")
    tidy = simplify(expr, needed_vars={"x", "y"})
    assert "y := x" in to_string(tidy)


def test_repeated_assignment_acts_as_equality():
    expr = parse("(x := 1) * (x := 2)")
    assert simplify(expr, needed_vars={"x"}) == Const(0)
    expr_same = parse("(x := 1) * (x := 1)")
    assert to_string(simplify(expr_same, needed_vars={"x"})) == "x := 1"


def test_simplify_recurses_into_aggregates():
    expr = parse("Sum(R(x) * (1 = 1) * 2)")
    assert simplify(expr) == parse("Sum(2 * R(x))")


def test_simplify_monomial_returns_none_for_zero():
    monomial = Monomial(1, (Compare(Const(1), "=", Const(2)),))
    assert simplify_monomial(monomial) is None
    assert simplify_monomial(Monomial(0, ())) is None


# ---------------------------------------------------------------------------
# safety-driven reordering
# ---------------------------------------------------------------------------


def test_order_for_safety_moves_producers_first():
    factors = (Compare(Var("x"), "<", Const(3)), Rel("R", ("x",)))
    ordered = order_for_safety(factors)
    assert isinstance(ordered[0], Rel)


def test_order_for_safety_converts_blocking_equalities():
    factors = (Compare(Var("k"), "=", Var("x")), Rel("R", ("x",)))
    ordered = order_for_safety(factors)
    assert isinstance(ordered[0], Rel)
    assert isinstance(ordered[1], Assign)


def test_order_for_safety_leaves_hopeless_factors_at_the_end():
    factors = (Compare(Var("a"), "<", Var("b")),)
    assert order_for_safety(factors) == factors


def test_make_safe_produces_evaluable_expression(customers_db):
    expr = parse("(n = n2) * C(c, n) * C(c2, n2)")
    safe = make_safe(expr)
    direct = evaluate(parse("C(c, n) * C(c2, n2) * (n = n2)"), customers_db)
    assert evaluate(safe, customers_db) == direct


# ---------------------------------------------------------------------------
# semantics preservation
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(simple_unary_queries(), unary_update_streams())
def test_simplify_preserves_semantics(query, updates):
    db = Database({"R": ("A",)})
    db.apply_all(updates[:10])
    assert evaluate(query, db) == evaluate(simplify(query), db)


@settings(max_examples=30, deadline=None)
@given(simple_unary_queries(), unary_update_streams())
def test_simplified_deltas_preserve_semantics(query, updates):
    """Simplifying a symbolic delta and binding the update values afterwards is sound."""
    db = Database({"R": ("A",)})
    db.apply_all(updates[:8])
    event = UpdateEvent.symbolic(1, "R", 1)
    raw = delta(query, event)
    tidy = simplify(raw, bound_vars=event.argument_names, needed_vars=set(event.argument_names))
    bindings = Record.from_values(event.argument_names, (1,))
    assert evaluate(raw, db, bindings) == evaluate(tidy, db, bindings)


def test_repeated_assignment_to_eliminated_variable_keeps_equality():
    """Regression: ``(x := u0) * (x := u1)`` with ``x`` eliminated must keep the
    ``u0 = u1`` filter — it is the delta of a repeated-column atom ``R(x, x)``."""
    from repro.core.ast import Assign, Compare, Var
    from repro.core.normalization import Monomial
    from repro.core.simplify import simplify_monomial

    monomial = Monomial(
        1, (Assign("x", Var("u0")), Assign("x", Var("u1")), Var("x"))
    )
    result = simplify_monomial(monomial, bound_vars=("u0", "u1"), needed_vars=("u0", "u1"))
    comparisons = [f for f in result.factors if isinstance(f, Compare)]
    assert comparisons and comparisons[0].op == "="


def test_repeated_column_atom_compiles_with_equality_guard():
    from repro.compiler.compile import compile_query
    from repro.core.parser import parse
    from repro.compiler.runtime import TriggerRuntime
    from repro.gmr.database import insert
    from repro.ivm.naive import NaiveReevaluation

    schema = {"R": ("A", "B")}
    query = parse("Sum(R(x, x) * x)")
    runtime = TriggerRuntime(compile_query(query, schema, name="q"))
    naive = NaiveReevaluation(query, schema)
    for update in [insert("R", 2, 2), insert("R", 0, 1), insert("R", 3, 3)]:
        runtime.apply(update)
        naive.apply(update)
    assert runtime.result() == naive.result() == 5
