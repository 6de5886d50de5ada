"""Ring-normal-form canonicalization of compiled trigger statements.

AGCA lives in a commutative ring of databases, so a statement right-hand
side has a *normal form* under associativity and commutativity: expand to a
polynomial, sort every monomial's factors by a total structural order, merge
monomials with equal factor multisets by adding coefficients, and sort the
monomial list.  Two right-hand sides that differ only by ring axioms (factor
order, term order, ``+dR`` against ``-dR``) then become literally equal —
or literally zero, in which case the statement can be dropped.

Two distinct services are built on that order:

* :func:`normalize_rhs` — the *operational* normal form for statement
  right-hand sides.  After the AC sort, every monomial is re-ordered by
  :func:`repro.core.simplify.order_for_safety` so the stored factor order
  remains evaluable left-to-right (products pass bindings sideways); the AC
  sort only decides which of the safety-equivalent orders is canonical.
  Factors ranked as *drivers* (delta-map references, then relations/maps)
  sort first, so batch statements keep their delta reference in the leading
  position the key-projection analysis expects.

* :func:`ac_canonical_identity` — the *identity* of a map as a function of
  its keys, the one key both sharing registries use (the compiler's
  component registry and the multi-view
  :class:`~repro.session.catalog.MapCatalog`).  A map is a function, so its
  identity sees through everything that does not change the function:

  - *binding spelling*: ``(a := b)`` between two variables is the indicator
    ``a = b``, so it is substituted away first (``Customer(v0, v1) * (k0 :=
    v0)`` is ``Customer(k0, v1)``) — AutoGnP's "equations simplified" step;
  - *commutativity* (over commutative rings): every product and sum is
    sorted with a name-blind structural key;
  - *variable naming and key order*: keys are renamed ``k0, k1, ...`` by
    their first occurrence in the sorted body — not by their position — and
    everything else ``v0, v1, ...``; sort and rename repeat until the naming
    settles.

  It returns the canonical ``(body, keys)`` plus the *key order*: canonical
  key ``i`` is the caller's key ``order[i]``.  Two definitions with equal
  identities are one function up to that permutation, so the second is read
  as the first with its keys permuted (:func:`read_positions`) — a transposed
  read is just a read bound at other positions.  The construction is sound
  (identities are equal only when the renamed definitions are literally
  identical) but not complete: pathological symmetric definitions may fail to
  merge, costing only a missed sharing opportunity.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Tuple

from repro.core.ast import (
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
    walk,
)
from repro.core.delta import is_delta_map
from repro.core.normalization import combine_sorted, to_polynomial, from_polynomial
from repro.core.simplify import order_for_safety, rename_variables, reorder_monomials_for_safety

SortKey = Tuple


# ---------------------------------------------------------------------------
# Structural total orders
# ---------------------------------------------------------------------------


def _factor_rank(factor: Expr) -> int:
    """Coarse factor classes: drivers first, then binders, then filters.

    Delta-map references rank before everything else so that the normal form
    of a batch statement keeps ``∆R`` in the leading position —
    ``order_for_safety`` emits the first safe factor and map references are
    always safe, which preserves the key-projection fast path.
    """
    if isinstance(factor, MapRef):
        return 0 if is_delta_map(factor.name) else 1
    if isinstance(factor, Rel):
        return 1
    if isinstance(factor, AggSum):
        return 2
    if isinstance(factor, Assign):
        return 3
    if isinstance(factor, Compare):
        return 4
    return 5


def _structure_key(expr: Expr) -> SortKey:
    """A name-sensitive total order on expressions (tag first, then contents)."""
    if isinstance(expr, Const):
        return ("const", type(expr.value).__name__, repr(expr.value))
    if isinstance(expr, Var):
        return ("var", expr.name)
    if isinstance(expr, Rel):
        return ("rel", expr.name, expr.columns)
    if isinstance(expr, MapRef):
        return ("map", expr.name, expr.key_vars)
    if isinstance(expr, Assign):
        return ("assign", expr.var, _structure_key(expr.expr))
    if isinstance(expr, Compare):
        return ("cmp", expr.op, _structure_key(expr.left), _structure_key(expr.right))
    if isinstance(expr, AggSum):
        return ("agg", expr.group_vars, _structure_key(expr.expr))
    if isinstance(expr, Neg):
        return ("neg", _structure_key(expr.expr))
    if isinstance(expr, Add):
        return ("add", tuple(_structure_key(term) for term in expr.terms))
    if isinstance(expr, Mul):
        return ("mul", tuple(_structure_key(factor) for factor in expr.factors))
    raise TypeError(f"unknown AGCA expression node: {expr!r}")


def factor_sort_key(factor: Expr) -> SortKey:
    """The canonical factor order: rank class, then full structural order."""
    return (_factor_rank(factor), _structure_key(factor))


def _skeleton_key(expr: Expr) -> SortKey:
    """A name-*blind* structural order: variables are numbered by first occurrence.

    Used as the first sorting pass of the canonical-identity construction,
    where the variable names are arbitrary and about to be rewritten — two
    alpha-equivalent factors must sort identically before the renaming runs.
    """
    numbering = {}

    def number(name: str) -> int:
        if name not in numbering:
            numbering[name] = len(numbering)
        return numbering[name]

    def key(expr: Expr) -> SortKey:
        if isinstance(expr, Const):
            return ("const", type(expr.value).__name__, repr(expr.value))
        if isinstance(expr, Var):
            return ("var", number(expr.name))
        if isinstance(expr, Rel):
            return ("rel", expr.name, tuple(number(column) for column in expr.columns))
        if isinstance(expr, MapRef):
            return ("map", expr.name, tuple(number(key_var) for key_var in expr.key_vars))
        if isinstance(expr, Assign):
            return ("assign", number(expr.var), key(expr.expr))
        if isinstance(expr, Compare):
            return ("cmp", expr.op, key(expr.left), key(expr.right))
        if isinstance(expr, AggSum):
            return ("agg", tuple(number(name) for name in expr.group_vars), key(expr.expr))
        if isinstance(expr, Neg):
            return ("neg", key(expr.expr))
        if isinstance(expr, Add):
            return ("add", tuple(key(term) for term in expr.terms))
        if isinstance(expr, Mul):
            return ("mul", tuple(key(factor) for factor in expr.factors))
        raise TypeError(f"unknown AGCA expression node: {expr!r}")

    return key(expr)


def _skeleton_factor_key(factor: Expr) -> SortKey:
    return (_factor_rank(factor), _skeleton_key(factor))


# ---------------------------------------------------------------------------
# The operational normal form (statement right-hand sides)
# ---------------------------------------------------------------------------


def normalize_rhs(expr: Expr, bound_vars: Iterable[str] = ()) -> Expr:
    """AC-normalize a statement right-hand side, preserving evaluability.

    Expands to a polynomial, sorts factors and monomials by
    :func:`factor_sort_key`, merges like terms (cancelling ``+dR``/``-dR``
    pairs whatever their original factor order), then re-orders every
    surviving monomial with ``order_for_safety(..., eager_assignments=True)``
    under ``bound_vars`` (bound before the statement runs: none in a trigger
    statement, whose delta map binds its keys) so the stored order stays a
    valid left-to-right evaluation plan.  Returns the literal constant 0
    when everything cancels.
    """
    combined = combine_sorted(to_polynomial(expr), factor_sort_key)
    safe = reorder_monomials_for_safety(combined, bound_vars, eager_assignments=True)
    return from_polynomial(safe)


def normalizes_to_zero(expr: Expr, bound_vars: Iterable[str] = ()) -> bool:
    """True when the AC normal form of ``expr`` is identically zero."""
    return not combine_sorted(to_polynomial(expr), factor_sort_key)


def is_normalized(expr: Expr, bound_vars: Iterable[str] = ()) -> bool:
    """True when ``expr`` is already in the operational AC normal form.

    Non-polynomial expressions (e.g. right-hand sides carrying non-numeric
    constants in factor position) count as normalized — there is no normal
    form to compare against.
    """
    try:
        return normalize_rhs(expr, bound_vars) == expr
    except TypeError:
        return True


# ---------------------------------------------------------------------------
# Canonical map identity (AC + alpha)
# ---------------------------------------------------------------------------


def _ac_sorted(expr: Expr, key_fn: Callable[[Expr], SortKey]) -> Expr:
    """Recursively sort the operands of every ``Mul``/``Add`` by ``key_fn``.

    Operand keys are computed on the recursively sorted children, so inner
    commutations cannot leak into the outer order.  Comparison operands and
    assignment sources are recursed into but never reordered (subtraction in
    conditions is not commutative).
    """
    if isinstance(expr, Mul):
        factors = tuple(_ac_sorted(factor, key_fn) for factor in expr.factors)
        return Mul(tuple(sorted(factors, key=key_fn)))
    if isinstance(expr, Add):
        terms = tuple(_ac_sorted(term, key_fn) for term in expr.terms)
        return Add(tuple(sorted(terms, key=key_fn)))
    if isinstance(expr, Neg):
        return Neg(_ac_sorted(expr.expr, key_fn))
    if isinstance(expr, AggSum):
        return AggSum(expr.group_vars, _ac_sorted(expr.expr, key_fn))
    if isinstance(expr, Assign):
        return Assign(expr.var, _ac_sorted(expr.expr, key_fn))
    if isinstance(expr, Compare):
        return Compare(_ac_sorted(expr.left, key_fn), expr.op, _ac_sorted(expr.right, key_fn))
    return expr


def _ordered_variables(expr: Expr) -> List[str]:
    """Every variable name in pre-order walk order (first occurrence only)."""
    seen: List[str] = []

    def note(name: str) -> None:
        if name not in seen:
            seen.append(name)

    def visit(expr: Expr) -> None:
        if isinstance(expr, Var):
            note(expr.name)
        elif isinstance(expr, Rel):
            for column in expr.columns:
                note(column)
        elif isinstance(expr, MapRef):
            for key_var in expr.key_vars:
                note(key_var)
        elif isinstance(expr, Assign):
            note(expr.var)
            visit(expr.expr)
        elif isinstance(expr, AggSum):
            for name in expr.group_vars:
                note(name)
            visit(expr.expr)
        else:
            for child in expr.children():
                visit(child)

    visit(expr)
    return seen


def _eliminate_bindings(expr: Expr, keys: FrozenSet[str]) -> Expr:
    """Substitute every variable-to-variable assignment ``(a := b)`` away.

    Under the sum-over-valuations semantics of ``AggSum(keys, body)`` the
    factor ``(a := b)`` is the indicator ``a = b``, so dropping it and
    renaming one side to the other denotes the same function.  The summed
    side goes: a key is never renamed, and ``(k0 := k1)`` between two keys (a
    diagonal) stays.  Each monomial is rewritten on its own (a sum sums its
    terms' variables separately); a monomial with nested relational structure
    — a sum, product or negation as a factor, or an aggregate anywhere, whose
    variable scope depends on evaluation order — is left as it is.
    """
    if isinstance(expr, Add):
        return Add(tuple(_eliminate_bindings(term, keys) for term in expr.terms))
    if isinstance(expr, Neg):
        return Neg(_eliminate_bindings(expr.expr, keys))
    factors = list(expr.factors) if isinstance(expr, Mul) else [expr]

    def next_binding():
        for factor in factors:
            if (
                isinstance(factor, Assign)
                and isinstance(factor.expr, Var)
                and factor.var != factor.expr.name
                and not (factor.var in keys and factor.expr.name in keys)
            ):
                return factor
        return None

    binding = next_binding()
    if binding is None or any(
        isinstance(factor, (Add, Mul, Neg))
        or any(isinstance(node, AggSum) for node in walk(factor))
        for factor in factors
    ):
        return expr
    while binding is not None:
        target, source = binding.var, binding.expr.name
        renaming = {source: target} if target in keys else {target: source}
        factors.remove(binding)
        factors = [rename_variables(factor, renaming) for factor in factors]
        binding = next_binding()
    if not factors:
        return Const(1)
    return factors[0] if len(factors) == 1 else Mul(tuple(factors))


def _canonical_rename(
    expr: Expr, key_vars: Tuple[str, ...]
) -> Tuple[Expr, Tuple[int, ...]]:
    """Rename keys to ``k0...`` by first occurrence, the rest to ``v0...``.

    Returns the renamed body and the key order: ``k{i}`` is ``key_vars[order[i]]``.
    Keys the body never mentions keep their relative order, last.  The
    renaming is injective and applied simultaneously
    (:func:`repro.core.simplify.rename_variables`), so it is capture-free
    even when the source names overlap the target alphabet.
    """
    occurrence = _ordered_variables(expr)
    key_set = set(key_vars)
    ranked = [name for name in occurrence if name in key_set]
    ranked += [name for name in key_vars if name not in ranked]
    renaming = {name: f"k{rank}" for rank, name in enumerate(ranked)}
    fresh = 0
    for name in occurrence:
        if name not in renaming:
            renaming[name] = f"v{fresh}"
            fresh += 1
    return rename_variables(expr, renaming), tuple(key_vars.index(name) for name in ranked)


def _unsorted(expr: Expr, key_fn: Callable[[Expr], SortKey]) -> Expr:
    return expr


def ac_canonical_identity(
    expr: Expr, key_vars: Iterable[str], commutative: bool = True
) -> Tuple[Tuple[Expr, Tuple[str, ...]], Tuple[int, ...]]:
    """The identity of ``AggSum(key_vars, expr)`` as a function, and its key order.

    Bindings substituted away, then a name-blind sort and a
    first-occurrence rename, then two name-sensitive sort-and-rename rounds
    to let the fresh names settle.  Returns ``((body, keys), order)``:
    canonical key ``k{i}`` is ``key_vars[order[i]]``.  Equal identities
    guarantee the definitions denote the same function of their keys taken
    in canonical order.  ``commutative=False`` skips the sorting (reordering
    a product is not an equivalence over a non-commutative ring); bindings
    and key order are canonicalized either way.
    """
    key_vars = tuple(key_vars)
    sort = _ac_sorted if commutative else _unsorted
    canonical = _eliminate_bindings(expr, frozenset(key_vars))
    canonical, order = _canonical_rename(sort(canonical, _skeleton_factor_key), key_vars)
    keys = tuple(f"k{rank}" for rank in range(len(key_vars)))
    for _ in range(2):
        renamed, settled = _canonical_rename(sort(canonical, factor_sort_key), keys)
        if renamed == canonical:
            break  # a fixed point: another round would change nothing
        canonical = renamed
        order = tuple(order[rank] for rank in settled)
    return (sort(canonical, factor_sort_key), keys), order


def ac_canonical_map_key(definition):
    """:func:`ac_canonical_identity` of a :class:`MapDefinition`."""
    return ac_canonical_identity(definition.definition, definition.key_vars)


def sharing_key(
    expr: Expr, key_vars: Iterable[str], commutative: bool = True, semiring: bool = False
):
    """The registry key of a map definition, and its key order.

    Both sharing registries key on this.  Over a ring it is the
    :func:`ac_canonical_identity`.  Under a semiring maintenance plan the
    key also carries the key order — support plans and tracked recomputes
    read a counter map at fixed positions, so transposes are not shared — and
    whether the body is a bare relation atom, which makes the map an
    ℤ-valued counter rather than a ring-valued function of the same spelling.
    """
    identity, order = ac_canonical_identity(expr, key_vars, commutative)
    if semiring:
        return (identity, order, isinstance(expr, Rel)), order
    return identity, order


def read_positions(registered: Tuple[int, ...], order: Tuple[int, ...]) -> Tuple[int, ...]:
    """How to read a registered map in place of an equal definition.

    ``registered`` is the key order of the map in the registry, ``order``
    that of a definition with the same identity.  Position ``j`` of the
    registered map is read with the definition's key ``positions[j]``.
    """
    rank = {position: canonical for canonical, position in enumerate(registered)}
    return tuple(order[rank[position]] for position in range(len(registered)))


__all__ = [
    "factor_sort_key",
    "normalize_rhs",
    "normalizes_to_zero",
    "is_normalized",
    "ac_canonical_identity",
    "ac_canonical_map_key",
    "sharing_key",
    "read_positions",
    "order_for_safety",
]
