"""Algebraic simplification of AGCA expressions (Section 5 and the compiler sections).

The simplifier works on the polynomial normal form and performs, per monomial:

* constant folding of conditions whose operands are literals;
* conversion of equalities ``x = t`` into assignments ``x := t`` when ``x`` is
  not yet bound but ``t`` is (range-restriction as algebra, not as a separate
  selection operator);
* propagation of assignment bindings into later factors and *elimination* of
  assignments whose variable is not needed by the caller (this is what turns
  the raw product-rule deltas into the small factorizable forms of Example 1.3);
* safety-driven reordering of factors so that binding producers come before
  binding consumers (used when a compiled map definition must be evaluable
  with its key variables unbound, e.g. for bootstrapping).

The entry points are :func:`simplify` and :func:`make_safe`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.ast import (
    COMPARATORS,
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
from repro.core.delta import is_delta_map
from repro.core.normalization import (
    Monomial,
    combine_like_terms,
    from_polynomial,
    to_polynomial,
)
from repro.core.variables import all_variables, binding_analysis

Substitution = Dict[str, Expr]


# ---------------------------------------------------------------------------
# Substitution
# ---------------------------------------------------------------------------


def substitute(expr: Expr, substitution: Substitution) -> Expr:
    """Replace variables according to ``substitution`` (values are Const or Var nodes).

    Variable-to-variable substitutions also rename relation-atom columns,
    map-reference keys and group-by variables; variable-to-constant
    substitutions only apply where a constant is representable (value
    positions), leaving binding positions untouched — the caller is
    responsible for keeping the corresponding assignment factor in that case.
    """
    if not substitution:
        return expr

    if isinstance(expr, Var):
        return substitution.get(expr.name, expr)

    if isinstance(expr, Const):
        return expr

    if isinstance(expr, Rel):
        renamed = tuple(_rename_variable(column, substitution) for column in expr.columns)
        return Rel(expr.name, renamed) if renamed != expr.columns else expr

    if isinstance(expr, MapRef):
        renamed = tuple(_rename_variable(key, substitution) for key in expr.key_vars)
        return MapRef(expr.name, renamed) if renamed != expr.key_vars else expr

    if isinstance(expr, Assign):
        # The assigned variable itself is never substituted; only its source is.
        return Assign(expr.var, substitute(expr.expr, substitution))

    if isinstance(expr, Compare):
        return Compare(substitute(expr.left, substitution), expr.op, substitute(expr.right, substitution))

    if isinstance(expr, AggSum):
        renamed_groups = tuple(_rename_variable(name, substitution) for name in expr.group_vars)
        return AggSum(renamed_groups, substitute(expr.expr, substitution))

    rebuilt_children = tuple(substitute(child, substitution) for child in expr.children())
    if rebuilt_children == expr.children():
        return expr
    return type(expr)(rebuilt_children) if not hasattr(expr, "expr") else type(expr)(rebuilt_children[0])


def _rename_variable(name: str, substitution: Substitution) -> str:
    replacement = substitution.get(name)
    if isinstance(replacement, Var):
        return replacement.name
    return name


def rename_variables(expr: Expr, renaming: Dict[str, str]) -> Expr:
    """Alpha-rename variables everywhere, including binding positions.

    Unlike :func:`substitute`, this renames assignment targets, relation-atom
    columns, map-reference keys and group-by variables as well; it is used by
    the compiler to bring map definitions into a canonical variable naming for
    structural deduplication.
    """
    if not renaming:
        return expr

    if isinstance(expr, Var):
        return Var(renaming.get(expr.name, expr.name))

    if isinstance(expr, Const):
        return expr

    if isinstance(expr, Rel):
        return Rel(expr.name, tuple(renaming.get(column, column) for column in expr.columns))

    if isinstance(expr, MapRef):
        return MapRef(expr.name, tuple(renaming.get(key, key) for key in expr.key_vars))

    if isinstance(expr, Assign):
        return Assign(renaming.get(expr.var, expr.var), rename_variables(expr.expr, renaming))

    if isinstance(expr, Compare):
        return Compare(
            rename_variables(expr.left, renaming),
            expr.op,
            rename_variables(expr.right, renaming),
        )

    if isinstance(expr, AggSum):
        return AggSum(
            tuple(renaming.get(name, name) for name in expr.group_vars),
            rename_variables(expr.expr, renaming),
        )

    if isinstance(expr, Mul):
        return Mul(tuple(rename_variables(factor, renaming) for factor in expr.factors))

    children = expr.children()
    if not children:
        return expr
    rebuilt = tuple(rename_variables(child, renaming) for child in children)
    if isinstance(expr, Neg):
        return Neg(rebuilt[0])
    return type(expr)(rebuilt)


# ---------------------------------------------------------------------------
# Per-monomial simplification
# ---------------------------------------------------------------------------


def _static_comparison(factor: Compare) -> Optional[bool]:
    """Evaluate a comparison statically when possible (literal operands or x θ x)."""
    if isinstance(factor.left, Const) and isinstance(factor.right, Const):
        return COMPARATORS[factor.op](factor.left.value, factor.right.value)
    if factor.left == factor.right:
        # Reflexive comparisons of identical expressions fold without evaluation.
        if factor.op in ("=", "<=", ">="):
            return True
        if factor.op in ("!=", "<", ">"):
            return False
    return None


def _later_binding_positions(factors: Sequence[Expr]) -> FrozenSet[str]:
    """Variables occurring in binding positions (relation columns / map keys) of the factors."""
    names = set()
    for factor in factors:
        if isinstance(factor, Rel):
            names.update(factor.columns)
        elif isinstance(factor, MapRef):
            names.update(factor.key_vars)
        elif isinstance(factor, AggSum):
            names.update(all_variables(factor))
    return frozenset(names)


def simplify_monomial(
    monomial: Monomial,
    bound_vars: Iterable[str] = (),
    needed_vars: Optional[Iterable[str]] = None,
) -> Optional[Monomial]:
    """Simplify one monomial; returns ``None`` when it is identically zero.

    ``bound_vars`` are variables guaranteed bound by the environment (trigger
    arguments, group-by keys); ``needed_vars`` are variables that must remain
    visible in the result (``None`` keeps every variable).
    """
    if monomial.is_zero():
        return None
    keep_everything = needed_vars is None
    needed = frozenset(needed_vars or ())
    bound = set(bound_vars)
    substitution: Substitution = {}
    coefficient = monomial.coefficient
    output: List[Expr] = []
    factors = list(monomial.factors)

    for index, original_factor in enumerate(factors):
        factor = substitute(original_factor, substitution)

        # Equalities with one unbound lone-variable side become assignments.
        if isinstance(factor, Compare) and factor.op == "=":
            factor = _equality_to_assignment(factor, bound)

        if isinstance(factor, Compare):
            verdict = _static_comparison(factor)
            if verdict is True:
                continue
            if verdict is False:
                return None
            output.append(factor)
            continue

        if isinstance(factor, Const):
            if not isinstance(factor.value, (int, float)):
                output.append(factor)
                continue
            if factor.value == 0:
                return None
            coefficient = coefficient * factor.value
            continue

        if isinstance(factor, Var):
            output.append(factor)
            continue

        if isinstance(factor, Rel):
            bound.update(factor.columns)
            output.append(factor)
            continue

        if isinstance(factor, MapRef):
            bound.update(factor.key_vars)
            output.append(factor)
            continue

        if isinstance(factor, AggSum):
            # Simplify the aggregate body recursively; the group-by variables
            # (plus everything visible outside) stay needed.
            inner_needed = None
            if not keep_everything:
                inner_needed = needed | set(factor.group_vars) | bound
            body = simplify(factor.expr, bound_vars=bound, needed_vars=inner_needed)
            output.append(AggSum(factor.group_vars, body))
            bound.update(factor.group_vars)
            continue

        if isinstance(factor, Assign):
            variable = factor.var
            source = factor.expr
            if variable in bound:
                # The variable already has a value: the assignment is an equality test.
                verdict = None
                if isinstance(source, Const):
                    current = substitution.get(variable)
                    if isinstance(current, Const):
                        verdict = current.value == source.value
                if verdict is True:
                    continue
                if verdict is False:
                    return None
                output.append(Compare(Var(variable), "=", source))
                continue
            substitutable = isinstance(source, (Const, Var))
            if substitutable:
                existing = substitution.get(variable)
                if existing is not None:
                    # The variable was already bound by an *eliminated*
                    # assignment (it is in the substitution but not in
                    # ``bound``): a second assignment is an equality
                    # constraint between the two sources, e.g. the
                    # ``(x := u0) * (x := u1)`` pair produced by the delta of
                    # a repeated-column atom ``R(x, x)`` — dropping it would
                    # lose the u0 = u1 filter.
                    if existing == source:
                        continue
                    if isinstance(existing, Const) and isinstance(source, Const):
                        return None  # two different constants: statically empty
                    output.append(Compare(existing, "=", source))
                    continue
                substitution[variable] = source
            must_keep = (
                keep_everything
                or variable in needed
                or not substitutable
                or (
                    isinstance(source, Const)
                    and variable in _later_binding_positions(factors[index + 1 :])
                )
            )
            if must_keep:
                bound.add(variable)
                output.append(factor)
            continue

        output.append(factor)

    if coefficient == 0:
        return None
    return Monomial(coefficient, tuple(output))


def _equality_to_assignment(factor: Compare, bound: Iterable[str]) -> Expr:
    """Turn ``x = t`` into ``x := t`` when ``x`` is unbound and ``t`` is grounded."""
    bound = set(bound)
    left, right = factor.left, factor.right
    if isinstance(left, Var) and left.name not in bound and all_variables(right) <= bound:
        return Assign(left.name, right)
    if isinstance(right, Var) and right.name not in bound and all_variables(left) <= bound:
        return Assign(right.name, left)
    return factor


# ---------------------------------------------------------------------------
# Safety-driven factor reordering
# ---------------------------------------------------------------------------


def _read_cost_rank(factor: Expr, bound: "set[str]") -> int:
    """The per-evaluation cost class of one safe factor under ``bound``.

    Used by the cost-aware (eager) schedule of :func:`order_for_safety` to
    pick the cheapest safe factor instead of the first one.  Classes, cheap
    to expensive:

    0. non-read factors — conditions, values, assignments: O(1) and prune;
    1. fully-bound map/relation reads (single lookup) and *delta-map* reads
       (the per-batch tables that drive iteration — scanning them is the
       intended O(|Δ|), and they must stay ahead of same-class reads so the
       batch fold's key-projection fast path keeps seeing ``∆R`` first);
    2. partially-bound reads (an indexed slice: O(matching entries));
    3. unbound reads (a full O(|M|) table scan — the class the repro-lint
       ``scan`` finding reports when no cheaper order exists).
    """
    while isinstance(factor, Neg):
        factor = factor.expr
    if isinstance(factor, MapRef):
        key_vars: Tuple[str, ...] = factor.key_vars
        if is_delta_map(factor.name):
            return 1
    elif isinstance(factor, Rel):
        key_vars = factor.columns
    else:
        return 0
    unbound = sum(1 for var in key_vars if var not in bound)
    if unbound == 0:
        return 1
    return 2 if unbound < len(key_vars) else 3


def order_for_safety(
    factors: Sequence[Expr],
    bound_vars: Iterable[str] = (),
    eager_assignments: bool = False,
) -> Tuple[Expr, ...]:
    """Reorder monomial factors so that binding producers precede consumers.

    A greedy schedule: repeatedly emit a remaining factor that is safe under
    the currently bound variables, converting stuck equalities into
    assignments when that unblocks progress.  Factors that can never become
    safe are appended at the end in their original order (the evaluator will
    report the unbound variable, which is the correct diagnostic for a
    genuinely unsafe query).

    With ``eager_assignments`` (used when ordering trigger-statement bodies),
    an equality whose one unbound side is computable from the current bindings
    is converted *before* any relation or map factor is emitted: the
    assignment binds its variable for free, and a map reference evaluated
    afterwards sees one more bound key position — an indexed slice (or a
    single lookup) instead of a scan followed by an equality filter.  The
    eager schedule is additionally *cost-aware*: among the safe factors it
    emits the cheapest read class first (:func:`_read_cost_rank`, ties by
    original position), so a slice-bound read runs before a read that would
    scan its whole table — and the scan, evaluated after the slice bound its
    key variables, usually collapses into a lookup.  Map *definitions* keep
    the conservative first-safe order (structure-preserving, so symmetric
    delta components still canonicalize identically and share one map).
    """
    remaining = list(factors)
    bound = set(bound_vars)
    ordered: List[Expr] = []
    while remaining:
        progressed = False
        if eager_assignments:
            # Assignments (pre-existing or converted from a stuck equality)
            # bind their variable for free; emitting every safe one before any
            # relation or map factor maximizes the bound key positions of the
            # reads that follow, whatever order the factors arrived in.
            for index, factor in enumerate(remaining):
                converted = factor
                if isinstance(factor, Compare) and factor.op == "=":
                    converted = _equality_to_assignment(factor, bound)
                if isinstance(converted, Assign):
                    needed, produced = binding_analysis(converted, bound)
                    if not needed:
                        ordered.append(converted)
                        bound.update(produced)
                        del remaining[index]
                        progressed = True
                        break
            if progressed:
                continue
        best: Optional[int] = None
        best_rank = 0
        for index, factor in enumerate(remaining):
            needed, _produced = binding_analysis(factor, bound)
            if needed:
                continue
            if not eager_assignments:
                best = index
                break
            rank = _read_cost_rank(factor, bound)
            if best is None or rank < best_rank:
                best, best_rank = index, rank
                if rank == 0:
                    break
        if best is not None:
            factor = remaining.pop(best)
            _needed, produced = binding_analysis(factor, bound)
            ordered.append(factor)
            bound.update(produced)
            progressed = True
        if progressed:
            continue
        # Try to unblock by turning an equality into an assignment.
        for index, factor in enumerate(remaining):
            if isinstance(factor, Compare) and factor.op == "=":
                converted = _equality_to_assignment(factor, bound)
                if isinstance(converted, Assign):
                    needed, produced = binding_analysis(converted, bound)
                    if not needed:
                        ordered.append(converted)
                        bound.update(produced)
                        del remaining[index]
                        progressed = True
                        break
        if not progressed:
            ordered.extend(remaining)
            break
    return tuple(ordered)


def reorder_monomials_for_safety(
    monomials: Sequence[Monomial],
    bound_vars: Iterable[str] = (),
    eager_assignments: bool = False,
) -> List[Monomial]:
    """Apply :func:`order_for_safety` to every monomial of a polynomial.

    Shared by :func:`make_safe` and the compiler's AC canonicalizer
    (:mod:`repro.compiler.normal_form`), which sorts factors into a canonical
    order first and then needs each monomial restored to an evaluable
    left-to-right plan.
    """
    return [
        Monomial(
            monomial.coefficient,
            order_for_safety(monomial.factors, bound_vars, eager_assignments),
        )
        for monomial in monomials
    ]


# ---------------------------------------------------------------------------
# Whole-expression entry points
# ---------------------------------------------------------------------------


def simplify(
    expr: Expr,
    bound_vars: Iterable[str] = (),
    needed_vars: Optional[Iterable[str]] = None,
) -> Expr:
    """Polynomial expansion + per-monomial simplification + like-term combination."""
    if isinstance(expr, AggSum):
        inner_needed = None
        if needed_vars is not None:
            inner_needed = set(needed_vars) | set(expr.group_vars) | set(bound_vars)
        body = simplify(expr.expr, bound_vars=bound_vars, needed_vars=inner_needed)
        return AggSum(expr.group_vars, body)
    simplified: List[Monomial] = []
    for monomial in to_polynomial(expr):
        result = simplify_monomial(monomial, bound_vars=bound_vars, needed_vars=needed_vars)
        if result is not None:
            simplified.append(result)
    return from_polynomial(combine_like_terms(simplified))


def make_safe(expr: Expr, bound_vars: Iterable[str] = ()) -> Expr:
    """Reorder every monomial of ``expr`` for safe left-to-right evaluation."""
    reordered = reorder_monomials_for_safety(to_polynomial(expr), bound_vars)
    return from_polynomial(combine_like_terms(reordered))


def simplify_aggregate(
    expr: AggSum,
    bound_vars: Iterable[str] = (),
    extra_needed: Iterable[str] = (),
) -> AggSum:
    """Simplify the body of an aggregate, keeping its group-by variables visible."""
    needed = set(expr.group_vars) | set(extra_needed) | set(bound_vars)
    body = simplify(expr.expr, bound_vars=bound_vars, needed_vars=needed)
    return AggSum(expr.group_vars, body)
