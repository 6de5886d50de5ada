"""Denotational semantics of AGCA (Section 4).

``evaluate(q, db, bindings)`` computes the gmr ``[[q]](A)(~b)``; wrapping the
same computation in a :class:`repro.gmr.parametrized.PGMR` via
:func:`meaning` yields the full element of ``=>A[T]`` that the paper assigns
to a query.

Design notes
------------
* Products are evaluated left to right with sideways binding passing: each
  factor is evaluated under the incoming binding joined with the record
  produced by the factors to its left (the avalanche product of Section 3.2).
* Comparison operands and assignment sources are evaluated to *data values*:
  variables and constants yield their raw value (which may be a string), any
  other expression must evaluate to a gmr supported on the nullary tuple only
  and yields that multiplicity.  This matches the paper's ``q θ 0`` (the
  operand is an aggregate-valued subquery) while also supporting equality with
  non-numeric data values.
* ``AggSum(group_vars, q)`` projects each result record onto the group-by
  variables and adds multiplicities; ``AggSum((), q)`` is the paper's ``Sum``.
* Map references evaluate the stored map as if it were a base relation whose
  multiplicities are the stored values (used only by compiled triggers).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.ast import (
    COMPARATORS,
    Add,
    AggSum,
    Assign,
    Compare,
    Const,
    Expr,
    MapRef,
    Mul,
    Neg,
    Rel,
    Var,
)
from repro.core.errors import NotScalarError, SchemaError, UnboundVariableError
from repro.gmr.database import Database
from repro.gmr.parametrized import PGMR
from repro.gmr.records import EMPTY_RECORD, Record
from repro.gmr.relation import GMR

#: Type of the optional materialized-map environment: name -> {key tuple: value}.
MapEnvironment = Mapping[str, Mapping[Tuple[Any, ...], Any]]


def evaluate(
    expr: Expr,
    db: Database,
    bindings: Record = EMPTY_RECORD,
    maps: Optional[MapEnvironment] = None,
) -> GMR:
    """Evaluate ``[[expr]](db)(bindings)`` to a generalized multiset relation."""
    ring = db.ring

    if isinstance(expr, Const):
        value = ring.coerce(expr.value)
        if ring.is_zero(value):
            return GMR.zero(ring=ring)
        return GMR.scalar(value, ring=ring)

    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise UnboundVariableError(expr.name)
        return GMR.scalar(ring.coerce(bindings[expr.name]), ring=ring)

    if isinstance(expr, Rel):
        return _evaluate_relation(expr, db, bindings)

    if isinstance(expr, MapRef):
        return _evaluate_map_reference(expr, db, bindings, maps)

    if isinstance(expr, Neg):
        return -evaluate(expr.expr, db, bindings, maps)

    if isinstance(expr, Add):
        result = GMR.zero(ring=ring)
        for term in expr.terms:
            result = result + evaluate(term, db, bindings, maps)
        return result

    if isinstance(expr, Mul):
        return _evaluate_product(expr, db, bindings, maps)

    if isinstance(expr, AggSum):
        return _evaluate_aggregate(expr, db, bindings, maps)

    if isinstance(expr, Compare):
        return _evaluate_comparison(expr, db, bindings, maps)

    if isinstance(expr, Assign):
        value = evaluate_value(expr.expr, db, bindings, maps)
        if expr.var in bindings and bindings[expr.var] != value:
            # An already-bound variable turns the assignment into an equality test.
            return GMR.zero(ring=ring)
        return GMR.singleton(Record({expr.var: value}), multiplicity=ring.one, ring=ring)

    raise TypeError(f"unknown AGCA expression node: {expr!r}")


def evaluate_value(
    expr: Expr,
    db: Database,
    bindings: Record = EMPTY_RECORD,
    maps: Optional[MapEnvironment] = None,
) -> Any:
    """Evaluate an expression to a single data value (for conditions and assignments)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        if expr.name not in bindings:
            raise UnboundVariableError(expr.name)
        return bindings[expr.name]
    if isinstance(expr, MapRef):
        # A map reference in value position (condition operand, assignment
        # source) is a scalar read of one stored aggregate: all key variables
        # must be bound, an absent entry reads as the ring zero.  This is how
        # compiled nested aggregates — materialized as auxiliary maps — are
        # consulted inside conditions.
        if maps is None or expr.name not in maps:
            raise SchemaError(f"map {expr.name!r} is not available in the evaluation environment")
        key = []
        for key_var in expr.key_vars:
            if key_var not in bindings:
                raise UnboundVariableError(key_var)
            key.append(bindings[key_var])
        return maps[expr.name].get(tuple(key), db.ring.zero)
    if isinstance(expr, Neg):
        inner = evaluate_value(expr.expr, db, bindings, maps)
        return -inner
    if isinstance(expr, Add):
        total = 0
        for term in expr.terms:
            total = total + evaluate_value(term, db, bindings, maps)
        return total
    if isinstance(expr, Mul):
        product = 1
        for factor in expr.factors:
            product = product * evaluate_value(factor, db, bindings, maps)
        return product
    result = evaluate(expr, db, bindings, maps)
    return _scalar_of(result)


def meaning(expr: Expr, db: Database, maps: Optional[MapEnvironment] = None) -> PGMR:
    """The query's meaning as a parametrized gmr ``[[q]](db) ∈ =>A[T]``."""
    return PGMR(lambda binding: evaluate(expr, db, binding, maps), ring=db.ring)


# ---------------------------------------------------------------------------
# Node-specific helpers
# ---------------------------------------------------------------------------


def _scalar_of(result: GMR) -> Any:
    """The multiplicity at ⟨⟩ of a gmr that must be supported only there."""
    for record in result.support():
        if not record.is_empty():
            raise NotScalarError(
                f"expression used as a scalar produced a non-nullary record {record!r}"
            )
    return result[EMPTY_RECORD]


def _evaluate_comparison(
    expr: Compare,
    db: Database,
    bindings: Record,
    maps: Optional[MapEnvironment],
) -> GMR:
    """Conditions, including the paper's binding-producing equalities (Example 4.2).

    An equality ``x = t`` (or ``t = x``) whose variable is still unbound while
    the other side is evaluable behaves like the assignment ``x := t`` — this
    is the sideways binding passing that makes ``R(x, y) * (x = y)`` meaningful
    on schema-polymorphic inputs.  Comparisons whose operands cannot be
    evaluated under the current binding contribute nothing (the empty gmr);
    genuinely unsafe queries are rejected statically by
    :func:`repro.core.variables.check_safety`.
    """
    ring = db.ring
    if expr.op == "=":
        for variable_side, other_side in ((expr.left, expr.right), (expr.right, expr.left)):
            if isinstance(variable_side, Var) and variable_side.name not in bindings:
                try:
                    value = evaluate_value(other_side, db, bindings, maps)
                except UnboundVariableError:
                    continue
                return GMR.singleton(
                    Record({variable_side.name: value}), multiplicity=ring.one, ring=ring
                )
    try:
        left = evaluate_value(expr.left, db, bindings, maps)
        right = evaluate_value(expr.right, db, bindings, maps)
    except UnboundVariableError:
        return GMR.zero(ring=ring)
    if COMPARATORS[expr.op](left, right):
        return GMR.one(ring=ring)
    return GMR.zero(ring=ring)


def _evaluate_relation(expr: Rel, db: Database, bindings: Record) -> GMR:
    ring = db.ring
    schema_columns = db.columns(expr.name)
    if len(schema_columns) != len(expr.columns):
        raise SchemaError(
            f"relation atom {expr.name}{expr.columns} does not match declared arity "
            f"{len(schema_columns)}"
        )
    stored = db.relation(expr.name)
    accumulator: Dict[Record, Any] = {}
    for record, multiplicity in stored.items():
        renamed = _rename_tuple(record, schema_columns, expr.columns)
        if renamed is None:
            continue
        if bindings.join(renamed) is None:
            continue
        if renamed in accumulator:
            accumulator[renamed] = ring.add(accumulator[renamed], multiplicity)
        else:
            accumulator[renamed] = multiplicity
    return GMR(accumulator, ring=ring)


def _rename_tuple(record: Record, schema_columns, variable_names) -> Optional[Record]:
    """Rename a stored tuple's columns to the atom's variable names.

    Repeated variables in the atom (e.g. ``R(x, x)``) act as an equality
    filter; ``None`` is returned when the tuple does not satisfy it.
    """
    values: Dict[str, Any] = {}
    for column, variable in zip(schema_columns, variable_names):
        value = record[column]
        if variable in values and values[variable] != value:
            return None
        values[variable] = value
    return Record(values)


def _evaluate_map_reference(
    expr: MapRef,
    db: Database,
    bindings: Record,
    maps: Optional[MapEnvironment],
) -> GMR:
    ring = db.ring
    if maps is None or expr.name not in maps:
        raise SchemaError(f"map {expr.name!r} is not available in the evaluation environment")
    table = maps[expr.name]
    repeated = len(set(expr.key_vars)) != len(expr.key_vars)
    bound_positions = tuple(
        position for position, key_var in enumerate(expr.key_vars) if key_var in bindings
    )
    if len(bound_positions) == len(expr.key_vars):
        # Fully-bound reference: a single hash lookup instead of a scan.
        key = tuple(bindings[key_var] for key_var in expr.key_vars)
        value = table.get(key, ring.zero)
        if ring.is_zero(value):
            return GMR.zero(ring=ring)
        return GMR.singleton(Record.from_values(expr.key_vars, key), multiplicity=value, ring=ring)
    candidates = table.items()
    if bound_positions:
        # Partially-bound reference: when the map environment carries slice
        # indexes (an IndexedMaps from repro.compiler.indexes), iterate only
        # the keys matching the bound prefix instead of scanning the table.
        indexes = getattr(maps, "indexes", None)
        if indexes is not None and indexes.bucket(expr.name, bound_positions) is not None:
            prefix = tuple(bindings[expr.key_vars[position]] for position in bound_positions)
            keys = indexes.lookup(expr.name, bound_positions, prefix)
            candidates = ((key, table[key]) for key in keys if key in table)
    accumulator: Dict[Record, Any] = {}
    for key, value in candidates:
        if ring.is_zero(value):
            continue
        if repeated and not _repeated_keys_agree(expr.key_vars, key):
            # A repeated key variable (like a repeated column in a relation
            # atom) acts as an equality filter; Record.from_values would
            # silently keep only the last value otherwise.
            continue
        record = Record.from_values(expr.key_vars, key)
        if bindings.join(record) is None:
            continue
        if record in accumulator:
            accumulator[record] = ring.add(accumulator[record], value)
        else:
            accumulator[record] = value
    return GMR(accumulator, ring=ring)


def _repeated_keys_agree(key_vars, key) -> bool:
    """True when positions sharing a key variable hold equal values."""
    seen: Dict[str, Any] = {}
    for variable, value in zip(key_vars, key):
        if variable in seen:
            if seen[variable] != value:
                return False
        else:
            seen[variable] = value
    return True


def _evaluate_product(
    expr: Mul,
    db: Database,
    bindings: Record,
    maps: Optional[MapEnvironment],
) -> GMR:
    ring = db.ring
    # Partial results: record produced so far -> accumulated multiplicity.
    partials: Dict[Record, Any] = {EMPTY_RECORD: ring.one}
    for factor in expr.factors:
        next_partials: Dict[Record, Any] = {}
        for produced, multiplicity in partials.items():
            extended_binding = bindings.join(produced)
            if extended_binding is None:
                continue
            factor_value = evaluate(factor, db, extended_binding, maps)
            for factor_record, factor_multiplicity in factor_value.items():
                joined = produced.join(factor_record)
                if joined is None:
                    continue
                contribution = ring.mul(multiplicity, factor_multiplicity)
                if joined in next_partials:
                    next_partials[joined] = ring.add(next_partials[joined], contribution)
                else:
                    next_partials[joined] = contribution
        partials = next_partials
        if not partials:
            break
    return GMR(partials, ring=ring)


def _evaluate_aggregate(
    expr: AggSum,
    db: Database,
    bindings: Record,
    maps: Optional[MapEnvironment],
) -> GMR:
    ring = db.ring
    inner = evaluate(expr.expr, db, bindings, maps)
    group_vars = expr.group_vars
    accumulator: Dict[Record, Any] = {}
    for record, multiplicity in inner.items():
        if ring.is_zero(multiplicity):
            # A cancelled contribution touches nothing; skipping it before the
            # group-variable lookup keeps partially-cancelled inner results
            # (whose records may lack some group variables) from failing.
            continue
        key_values: Dict[str, Any] = {}
        for variable in group_vars:
            if variable in record:
                key_values[variable] = record[variable]
            elif variable in bindings:
                key_values[variable] = bindings[variable]
            else:
                raise UnboundVariableError(variable)
        key = Record(key_values)
        if key in accumulator:
            accumulator[key] = ring.add(accumulator[key], multiplicity)
        else:
            accumulator[key] = multiplicity
    return GMR(accumulator, ring=ring)
