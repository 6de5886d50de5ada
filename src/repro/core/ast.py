"""Abstract syntax of the AGCA aggregate calculus (Section 4).

The EBNF of the paper is

    q ::= q * q | q + q | -q | Sum(q) | c | x | R(~x) | q θ 0 | x := q

Nodes are immutable and hashable, so they can be used as dictionary keys for
structural deduplication in the compiler.  Two engineering extensions, both
discussed in DESIGN.md:

* ``AggSum(group_vars, q)`` generalizes ``Sum`` to group-by aggregation
  (``Sum(q)`` is ``AggSum((), q)``); group-by is expressed in the paper through
  bound variables, and AggSum is the standard way (DBToaster) of making those
  bound variables explicit in the expression itself.
* ``MapRef(name, key_vars)`` references a materialized map.  It never appears
  in user queries — only in compiled trigger right-hand sides, where the map
  contents play the role of a base relation.

Expressions support Python operator overloading (``+``, ``-``, ``*``, unary
``-``) plus comparison builders, so queries can be written compactly::

    from repro.core.ast import Rel, Var, AggSum
    q = AggSum((), Rel("R", ("x", "y")) * Rel("S", ("y", "z")) * Var("x"))
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Iterable, Tuple, Union

#: The comparison operators θ of :class:`Compare` as functions of two data
#: values — the one table the evaluator, the simplifier's constant folding and
#: the lowered closures all decode.
COMPARATORS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Comparison operator symbols accepted by :class:`Compare`.
COMPARISON_OPS = tuple(COMPARATORS)

#: The complement θ̄ of each comparison operator (used by the condition delta rule).
COMPLEMENT_OP = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    ">=": "<",
    ">": "<=",
    "<=": ">",
}


class Expr:
    """Base class of all AGCA expressions."""

    __slots__ = ()

    # -- operator sugar ---------------------------------------------------------

    def __add__(self, other: "ExprLike") -> "Expr":
        return Add((self, as_expr(other)))

    def __radd__(self, other: "ExprLike") -> "Expr":
        return Add((as_expr(other), self))

    def __mul__(self, other: "ExprLike") -> "Expr":
        return Mul((self, as_expr(other)))

    def __rmul__(self, other: "ExprLike") -> "Expr":
        return Mul((as_expr(other), self))

    def __neg__(self) -> "Expr":
        return Neg(self)

    def __sub__(self, other: "ExprLike") -> "Expr":
        return Add((self, Neg(as_expr(other))))

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return Add((as_expr(other), Neg(self)))

    # Comparison builders are methods (not ``__eq__`` etc.) so that structural
    # equality of AST nodes keeps working.

    def eq(self, other: "ExprLike") -> "Compare":
        return Compare(self, "=", as_expr(other))

    def ne(self, other: "ExprLike") -> "Compare":
        return Compare(self, "!=", as_expr(other))

    def lt(self, other: "ExprLike") -> "Compare":
        return Compare(self, "<", as_expr(other))

    def le(self, other: "ExprLike") -> "Compare":
        return Compare(self, "<=", as_expr(other))

    def gt(self, other: "ExprLike") -> "Compare":
        return Compare(self, ">", as_expr(other))

    def ge(self, other: "ExprLike") -> "Compare":
        return Compare(self, ">=", as_expr(other))

    # -- traversal ---------------------------------------------------------------

    def children(self) -> Tuple["Expr", ...]:
        """Direct sub-expressions (empty for leaves)."""
        return ()

    def __str__(self) -> str:
        from repro.core.parser import to_string

        return to_string(self)


ExprLike = Union[Expr, int, float, str]


def as_expr(value: ExprLike) -> Expr:
    """Coerce Python literals into :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float, str)):
        return Const(value)
    raise TypeError(f"cannot interpret {value!r} as an AGCA expression")


# ---------------------------------------------------------------------------
# Leaves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Const(Expr):
    """A constant ``c`` from the coefficient structure (or a data value in comparisons)."""

    value: Any

    def __repr__(self) -> str:
        return f"Const({self.value!r})"


@dataclass(frozen=True)
class Var(Expr):
    """A variable ``x`` — evaluates to its bound value, fails when unbound."""

    name: str

    def __repr__(self) -> str:
        return f"Var({self.name!r})"


@dataclass(frozen=True)
class Rel(Expr):
    """A relational atom ``R(x1, ..., xk)``; the ``x_i`` are variable names."""

    name: str
    columns: Tuple[str, ...]

    def __init__(self, name: str, columns: Iterable[str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "columns", tuple(columns))

    def __repr__(self) -> str:
        return f"Rel({self.name!r}, {self.columns!r})"


@dataclass(frozen=True)
class MapRef(Expr):
    """A reference to a materialized map, keyed by the given variables.

    Compiler-internal: the map's entries behave like a base relation whose
    multiplicities are the stored aggregate values.
    """

    name: str
    key_vars: Tuple[str, ...]

    def __init__(self, name: str, key_vars: Iterable[str]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "key_vars", tuple(key_vars))

    def __repr__(self) -> str:
        return f"MapRef({self.name!r}, {self.key_vars!r})"


# ---------------------------------------------------------------------------
# Connectives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Add(Expr):
    """A sum of terms ``q1 + q2 + ...`` (n-ary for convenience)."""

    terms: Tuple[Expr, ...]

    def __init__(self, terms: Iterable[Expr]):
        object.__setattr__(self, "terms", tuple(terms))

    def children(self) -> Tuple[Expr, ...]:
        return self.terms

    def __repr__(self) -> str:
        return f"Add({self.terms!r})"


@dataclass(frozen=True)
class Mul(Expr):
    """A product of factors ``q1 * q2 * ...``.

    Order matters operationally: bindings produced by earlier factors are
    passed sideways to later factors (the avalanche product).
    """

    factors: Tuple[Expr, ...]

    def __init__(self, factors: Iterable[Expr]):
        object.__setattr__(self, "factors", tuple(factors))

    def children(self) -> Tuple[Expr, ...]:
        return self.factors

    def __repr__(self) -> str:
        return f"Mul({self.factors!r})"


@dataclass(frozen=True)
class Neg(Expr):
    """The additive inverse ``-q``."""

    expr: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def __repr__(self) -> str:
        return f"Neg({self.expr!r})"


@dataclass(frozen=True)
class AggSum(Expr):
    """Aggregate sum with explicit group-by variables.

    ``AggSum((), q)`` is the paper's ``Sum(q)`` (one number, at the nullary
    tuple); ``AggSum(("c",), q)`` materializes one aggregate per value of
    ``c`` — the "function from groups to aggregate values" of Section 5.
    """

    group_vars: Tuple[str, ...]
    expr: Expr

    def __init__(self, group_vars: Iterable[str], expr: Expr):
        object.__setattr__(self, "group_vars", tuple(group_vars))
        object.__setattr__(self, "expr", expr)

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def __repr__(self) -> str:
        return f"AggSum({self.group_vars!r}, {self.expr!r})"


def Sum(expr: Expr) -> AggSum:
    """The paper's ``Sum(q)``: aggregate everything down to the nullary tuple."""
    return AggSum((), expr)


@dataclass(frozen=True)
class Compare(Expr):
    """A condition atom ``left θ right`` (the paper's ``q θ 0`` with ``q = left - right``).

    Evaluates to the nullary tuple with multiplicity 1 when the comparison
    holds, and to the empty gmr otherwise.
    """

    left: Expr
    op: str
    right: Expr

    def __post_init__(self):
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def complement(self) -> "Compare":
        """The condition with the complemented operator θ̄ (used by delta rules)."""
        return Compare(self.left, COMPLEMENT_OP[self.op], self.right)

    def __repr__(self) -> str:
        return f"Compare({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Assign(Expr):
    """A variable assignment ``x := t``.

    Evaluates to the singleton ``{x -> value of t}`` with multiplicity 1; it is
    the range-restricted form of the equality ``x = t`` for a variable that is
    not yet bound.
    """

    var: str
    expr: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.expr,)

    def __repr__(self) -> str:
        return f"Assign({self.var!r} := {self.expr!r})"


# ---------------------------------------------------------------------------
# Convenience constructors and small structural helpers
# ---------------------------------------------------------------------------

#: The constant 1 (the multiplicative identity of the calculus).
ONE = Const(1)
#: The constant 0 (the additive identity of the calculus).
ZERO = Const(0)


def add(*terms: ExprLike) -> Expr:
    """N-ary sum; returns 0 for no arguments and unwraps a single argument."""
    expressions = tuple(as_expr(term) for term in terms)
    if not expressions:
        return ZERO
    if len(expressions) == 1:
        return expressions[0]
    return Add(expressions)


def mul(*factors: ExprLike) -> Expr:
    """N-ary product; returns 1 for no arguments and unwraps a single argument."""
    expressions = tuple(as_expr(factor) for factor in factors)
    if not expressions:
        return ONE
    if len(expressions) == 1:
        return expressions[0]
    return Mul(expressions)


def is_zero_literal(expr: Expr) -> bool:
    """True for the literal constant 0 (including negations of it)."""
    if isinstance(expr, Const):
        return expr.value == 0
    if isinstance(expr, Neg):
        return is_zero_literal(expr.expr)
    if isinstance(expr, Add):
        return all(is_zero_literal(term) for term in expr.terms)
    return False


def is_one_literal(expr: Expr) -> bool:
    """True for the literal constant 1."""
    return isinstance(expr, Const) and expr.value == 1


def walk(expr: Expr):
    """Yield every node of the expression tree (pre-order)."""
    yield expr
    for child in expr.children():
        yield from walk(child)


def relation_atoms(expr: Expr) -> Tuple[Rel, ...]:
    """All relational atoms (base relations only, not map references), in order."""
    return tuple(node for node in walk(expr) if isinstance(node, Rel))


def map_references(expr: Expr) -> Tuple[MapRef, ...]:
    """All map references, in order."""
    return tuple(node for node in walk(expr) if isinstance(node, MapRef))


def relations_mentioned(expr: Expr) -> frozenset:
    """The set of base relation names occurring in the expression."""
    return frozenset(atom.name for atom in relation_atoms(expr))
