"""Tests for monomial factorization into variable-connected components (Example 1.3)."""

from repro.core.ast import Compare, Rel
from repro.core.delta import UpdateEvent, delta
from repro.core.factorization import (
    connected_components,
    factorization_width,
    factorize_monomial,
)
from repro.core.normalization import Monomial, monomials_of
from repro.core.parser import parse, to_string
from repro.core.simplify import simplify


def factors_of(text):
    [monomial] = monomials_of(parse(text))
    return monomial.factors


def test_single_component_when_variables_chain():
    components = connected_components(factors_of("R(a, b) * S(b, c) * T(c, d)"))
    assert len(components) == 1
    assert components[0].has_relations


def test_disconnected_relations_split():
    components = connected_components(factors_of("R(a, b) * S(c, d)"))
    assert len(components) == 2
    assert all(component.has_relations for component in components)


def test_separator_variables_do_not_connect():
    factors = factors_of("R(a, b) * (b = u) * S(c, d) * (d = u)")
    joined = connected_components(factors)
    assert len(joined) == 1
    split = connected_components(factors, separator_vars={"u"})
    assert len(split) == 2


def test_conditions_stay_with_their_relations():
    factors = factors_of("R(a, b) * (a < 3) * S(c, d) * (c = 5)")
    components = connected_components(factors)
    assert len(components) == 2
    first, second = components
    assert any(isinstance(factor, Compare) for factor in first.factors)
    assert any(isinstance(factor, Compare) for factor in second.factors)


def test_component_order_and_variables():
    factors = factors_of("R(a, b) * S(c, d)")
    first, second = connected_components(factors)
    assert first.variables == frozenset({"a", "b"})
    assert second.variables == frozenset({"c", "d"})
    assert to_string(first.to_expr()) == "R(a, b)"
    assert "Component" in repr(first)


def test_pure_value_factors_form_their_own_component():
    factors = factors_of("R(a, b) * u")
    components = connected_components(factors, separator_vars={"u"})
    assert len(components) == 2
    assert not components[1].has_relations


def test_empty_monomial():
    assert connected_components(()) == []
    assert factorization_width(Monomial(1, ())) == 0


def test_example_1_3_delta_factorizes_into_two_linear_views():
    """The delta of the three-way join w.r.t. ±S factorizes into an R-part and a T-part."""
    query = parse("Sum(R(a, b) * S(c, d) * T(e, f) * (b = c) * (d = e) * a * f)")
    event = UpdateEvent.symbolic(1, "S", 2)
    simplified = simplify(
        delta(query, event),
        bound_vars=event.argument_names,
        needed_vars=set(event.argument_names),
    )
    # The simplified delta is a single aggregate over one monomial.
    [monomial] = monomials_of(simplified.expr)
    coefficient, components = factorize_monomial(monomial, separator_vars=event.argument_names)
    assert coefficient == 1
    relation_components = [component for component in components if component.has_relations]
    assert len(relation_components) == 2
    names = {atom.name for component in relation_components for atom in component.factors if isinstance(atom, Rel)}
    assert names == {"R", "T"}
    assert factorization_width(monomial, separator_vars=event.argument_names) == 2
    # The original (un-differentiated) body is a single connected component:
    # without taking the delta there is nothing to factorize.
    [body_monomial] = monomials_of(parse(
        "R(a, b) * S(c, d) * T(e, f) * (b = c) * (d = e) * a * f"
    ))
    assert factorization_width(body_monomial) == 1
