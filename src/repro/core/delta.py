"""Delta queries ``∆_u q`` and recursive (higher-order) deltas (Section 6).

Given an update event ``±R(t)``, the rules below construct an AGCA expression
``∆_u q`` such that ``[[q]](A + u) = [[q]](A) + [[∆_u q]](A)`` (Proposition 6.1).
The update tuple components may be concrete constants (for direct evaluation,
as in the classical IVM baseline) or symbolic update variables (for the
trigger compiler, which needs the delta as a query parametrized by the update).

AGCA is closed under deltas, so the operator can be applied repeatedly
(:func:`nth_delta`); by Theorem 6.4 every application reduces the degree of a
query with simple conditions by one, so the ``deg(q)``-th delta no longer
depends on the database.

Deltas are also defined with respect to a *relation-valued* update: the paper
takes ``∆_{∆R} q`` for an arbitrary gmr ``∆R`` added to relation ``R``, not
just a single tuple.  :class:`BatchUpdateEvent` represents such an update
symbolically — the delta of a matching relation atom is a reference to the
*delta map* ``∆R : key → multiplicity`` instead of a product of assignments —
and the ordinary rules (in particular the product rule's ``∆α·∆β`` term, which
captures the interaction between distinct tuples of one batch) yield the exact
batch delta.  The delta map itself has delta zero, so one application of
:func:`delta` produces the full polynomial in ``∆R``.  This is what the
compiler's batch triggers are built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

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
    ZERO,
    as_expr,
    is_zero_literal,
    mul,
)
from repro.core.errors import DeltaError
from repro.gmr.database import Update

#: Name prefix of the transient per-relation delta maps batch triggers read.
#: The prefix is reserved: compiled map hierarchies never use it, the slice
#: indexes never index it, and the runtimes overlay/remove it per batch group.
DELTA_MAP_PREFIX = "__delta__"


def delta_map_name(relation: str) -> str:
    """The reserved name of the delta map ``∆R`` for one base relation."""
    return DELTA_MAP_PREFIX + relation


def is_delta_map(name: str) -> bool:
    """True for the transient delta-map names produced by :func:`delta_map_name`."""
    return name.startswith(DELTA_MAP_PREFIX)


@dataclass(frozen=True)
class UpdateEvent:
    """A single-tuple update event ``±R(a1, ..., ak)`` with expression-valued components.

    ``args`` are :class:`Const` nodes for concrete updates or :class:`Var`
    nodes for symbolic ones (trigger parameters).
    """

    sign: int
    relation: str
    args: Tuple[Expr, ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("update sign must be +1 or -1")
        object.__setattr__(self, "args", tuple(as_expr(arg) for arg in self.args))

    @property
    def is_insert(self) -> bool:
        return self.sign == 1

    @classmethod
    def from_update(cls, update: Update) -> "UpdateEvent":
        """A concrete event from a runtime :class:`repro.gmr.database.Update`."""
        return cls(update.sign, update.relation, tuple(Const(value) for value in update.values))

    @classmethod
    def symbolic(cls, sign: int, relation: str, arity: int, prefix: str = "__d") -> "UpdateEvent":
        """A symbolic event whose components are fresh trigger variables.

        The generated names (``__d_R_0``, ``__d_R_1``, ...) are stable, so the
        compiler can refer to them in trigger argument lists.
        """
        args = tuple(Var(f"{prefix}_{relation}_{index}") for index in range(arity))
        return cls(sign, relation, args)

    @property
    def argument_names(self) -> Tuple[str, ...]:
        """The variable names of a symbolic event (raises for concrete components)."""
        names = []
        for arg in self.args:
            if not isinstance(arg, Var):
                raise DeltaError("event is not fully symbolic; concrete component found")
            names.append(arg.name)
        return tuple(names)

    def __repr__(self) -> str:
        sign = "+" if self.is_insert else "-"
        inner = ", ".join(str(arg) for arg in self.args)
        return f"{sign}{self.relation}({inner})"


@dataclass(frozen=True)
class BatchUpdateEvent:
    """A relation-valued update event ``±∆R`` (a whole batch as one delta map).

    The update adds ``sign · ∆R`` to relation ``relation``, where ``∆R`` is a
    finite map from key tuples to multiplicities (the pre-aggregated batch:
    duplicate tuples add up).  Under :func:`delta`, a matching relation atom
    becomes a :class:`~repro.core.ast.MapRef` to the delta map — its key
    variables stay free, so the compiled statement iterates the batch — and
    every other rule applies unchanged.
    """

    sign: int
    relation: str
    arity: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("update sign must be +1 or -1")

    @property
    def is_insert(self) -> bool:
        return self.sign == 1

    @property
    def delta_map(self) -> str:
        return delta_map_name(self.relation)

    def __repr__(self) -> str:
        sign = "+" if self.is_insert else "-"
        return f"{sign}Δ{self.relation}/{self.arity}"


def delta(expr: Expr, event: "UpdateEvent | BatchUpdateEvent") -> Expr:
    """The delta query ``∆_u expr`` for the given update event (the rules of §6)."""
    if isinstance(expr, (Const, Var, MapRef)):
        return ZERO

    if isinstance(expr, Rel):
        return _delta_relation(expr, event)

    if isinstance(expr, Neg):
        inner = delta(expr.expr, event)
        return ZERO if is_zero_literal(inner) else Neg(inner)

    if isinstance(expr, Add):
        term_deltas = [delta(term, event) for term in expr.terms]
        nonzero = tuple(term for term in term_deltas if not is_zero_literal(term))
        if not nonzero:
            return ZERO
        if len(nonzero) == 1:
            return nonzero[0]
        return Add(nonzero)

    if isinstance(expr, Mul):
        return _delta_product(expr.factors, event)

    if isinstance(expr, AggSum):
        inner = delta(expr.expr, event)
        return ZERO if is_zero_literal(inner) else AggSum(expr.group_vars, inner)

    if isinstance(expr, Compare):
        return _delta_comparison(expr, event)

    if isinstance(expr, Assign):
        inner_delta = delta(expr.expr, event)
        if is_zero_literal(inner_delta):
            return ZERO
        raise DeltaError(
            "assignment with a database-dependent source expression is not supported by the "
            "delta rules (treat it as an equality condition with a nested aggregate)"
        )

    raise TypeError(f"unknown AGCA expression node: {expr!r}")


def _delta_relation(expr: Rel, event: "UpdateEvent | BatchUpdateEvent") -> Expr:
    if expr.name != event.relation:
        return ZERO
    if isinstance(event, BatchUpdateEvent):
        if len(expr.columns) != event.arity:
            raise DeltaError(
                f"update arity mismatch: event {event!r} applied to atom "
                f"{expr.name}{expr.columns}"
            )
        reference = MapRef(event.delta_map, expr.columns)
        return reference if event.sign == 1 else Neg(reference)
    if len(expr.columns) != len(event.args):
        raise DeltaError(
            f"update arity mismatch: event {event!r} applied to atom {expr.name}{expr.columns}"
        )
    assignments = mul(*(Assign(column, arg) for column, arg in zip(expr.columns, event.args)))
    if event.sign == 1:
        return assignments
    return Neg(assignments)


def _delta_product(factors: Sequence[Expr], event: UpdateEvent) -> Expr:
    """The product rule ``∆(α*β) = ∆α*β + α*∆β + ∆α*∆β``, applied right-nested for n factors.

    Terms whose delta factor is the literal 0 are dropped eagerly; this keeps
    the constructed delta structurally at degree ``deg(α) - 1`` (Theorem 6.4)
    rather than relying on later simplification.
    """
    if not factors:
        return ZERO
    head, tail = factors[0], factors[1:]
    if not tail:
        return delta(head, event)
    rest = mul(*tail)
    delta_head = delta(head, event)
    delta_rest = _delta_product(tail, event)
    terms = []
    if not is_zero_literal(delta_head):
        terms.append(Mul((delta_head, rest)))
    if not is_zero_literal(delta_rest):
        terms.append(Mul((head, delta_rest)))
    if not is_zero_literal(delta_head) and not is_zero_literal(delta_rest):
        terms.append(Mul((delta_head, delta_rest)))
    if not terms:
        return ZERO
    if len(terms) == 1:
        return terms[0]
    return Add(tuple(terms))


def _delta_comparison(expr: Compare, event: UpdateEvent) -> Expr:
    """``∆(t θ 0)``: zero for simple conditions, the truth-table rule otherwise."""
    delta_left = delta(expr.left, event)
    delta_right = delta(expr.right, event)
    if is_zero_literal(delta_left) and is_zero_literal(delta_right):
        return ZERO
    new_left = expr.left if is_zero_literal(delta_left) else Add((expr.left, delta_left))
    new_right = expr.right if is_zero_literal(delta_right) else Add((expr.right, delta_right))
    new_condition = Compare(new_left, expr.op, new_right)
    old_condition = expr
    became_true = Mul((new_condition, old_condition.complement()))
    became_false = Mul((old_condition, new_condition.complement()))
    return Add((became_true, Neg(became_false)))


def delta_for_update(expr: Expr, update: Update) -> Expr:
    """Delta with respect to a concrete runtime update (convenience wrapper)."""
    return delta(expr, UpdateEvent.from_update(update))


def nth_delta(expr: Expr, events: Iterable[UpdateEvent]) -> Expr:
    """Iterated deltas ``∆_{u_k} ... ∆_{u_1} expr`` (events applied left to right)."""
    result = expr
    for event in events:
        result = delta(result, event)
    return result


def symbolic_events_for(
    relation: str,
    arity: int,
    prefix: str = "__d",
) -> Tuple[UpdateEvent, UpdateEvent]:
    """The pair of symbolic insert/delete events for one relation."""
    return (
        UpdateEvent.symbolic(1, relation, arity, prefix=prefix),
        UpdateEvent.symbolic(-1, relation, arity, prefix=prefix),
    )
