"""Coefficient (semi)rings for multiplicities (Definition 2.1 / Example 2.2).

A :class:`Semiring` instance describes how multiplicities are added,
multiplied and (for rings) negated.  Generalized multiset relations
(:mod:`repro.gmr.relation`) and monoid rings (:mod:`repro.algebra.monoid_ring`)
are parameterized by one of these structures; the default used throughout the
library is :data:`INTEGER_RING` (the paper's ℤ[T]).

The structures operate on plain Python values (``int``, ``Fraction``,
``float``, ``bool``) so that user code never has to wrap numbers.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Callable, Optional

#: Maintenance strategies a structure can declare for deletion handling
#: (threaded from here through the trigger compiler to both executors).
INVERTIBLE = "invertible"
TRACKED_RECOMPUTE = "tracked-recompute"
SUPPORT_STRUCTURE = "support-structure"

MAINTENANCE_STRATEGIES = (INVERTIBLE, TRACKED_RECOMPUTE, SUPPORT_STRUCTURE)

#: :meth:`Semiring.from_int` memoizes the images of ``0 <= n <`` this.
SMALL_INT_MEMO = 256


class Semiring:
    """A (semi)ring over plain Python values.

    Parameters
    ----------
    zero, one:
        The additive and multiplicative neutral elements.
    add, mul:
        Binary operations; must satisfy the (semi)ring axioms (verified for the
        built-in instances by the property tests in ``tests/algebra``).
    neg:
        Additive inverse, or ``None`` for a proper semiring (no inverse).
    coerce:
        Normalizes arbitrary input values into the carrier (e.g. ``int(x)``).
    name:
        Human-readable name used in reprs and error messages.
    commutative:
        Whether multiplication commutes.
    maintenance:
        How deletions are maintained: :data:`INVERTIBLE` (negated delta
        folds), :data:`TRACKED_RECOMPUTE` (per-affected-group re-derivation
        from base maps), or :data:`SUPPORT_STRUCTURE` (a bounded best-k
        sidecar per group, recompute only on exhaustion).  Defaults to
        ``invertible`` when ``neg`` is given, ``support-structure`` when a
        ``sort_key`` is given, and ``tracked-recompute`` otherwise.
    sort_key:
        For support-structure semirings: maps a per-row contribution to a
        sortable key, *best contribution first* (smallest key wins).
    support_capacity:
        Number of distinct contributions the per-group support keeps.
    support_needed:
        Trusted multiplicity the support must retain for its fold to equal
        the true group fold (1 for MIN/MAX, ``k`` for top-k).
    """

    __slots__ = (
        "zero",
        "one",
        "_add",
        "_mul",
        "_neg",
        "_coerce",
        "name",
        "commutative",
        "maintenance",
        "sort_key",
        "support_capacity",
        "support_needed",
        "_small_ints",
    )

    def __init__(
        self,
        zero: Any,
        one: Any,
        add: Callable[[Any, Any], Any],
        mul: Callable[[Any, Any], Any],
        neg: Optional[Callable[[Any], Any]] = None,
        coerce: Optional[Callable[[Any], Any]] = None,
        name: str = "semiring",
        commutative: bool = True,
        maintenance: Optional[str] = None,
        sort_key: Optional[Callable[[Any], Any]] = None,
        support_capacity: int = 8,
        support_needed: int = 1,
    ):
        self.zero = zero
        self.one = one
        self._add = add
        self._mul = mul
        self._neg = neg
        self._coerce = coerce
        self.name = name
        self.commutative = commutative
        if maintenance is None:
            if neg is not None:
                maintenance = INVERTIBLE
            elif sort_key is not None:
                maintenance = SUPPORT_STRUCTURE
            else:
                maintenance = TRACKED_RECOMPUTE
        if maintenance not in MAINTENANCE_STRATEGIES:
            raise ValueError(f"unknown maintenance strategy {maintenance!r}")
        if maintenance == SUPPORT_STRUCTURE and sort_key is None:
            raise ValueError("support-structure maintenance requires a sort_key")
        self.maintenance = maintenance
        self.sort_key = sort_key
        self.support_capacity = support_capacity
        self.support_needed = support_needed
        self._small_ints: dict = {}  # from_int's memo

    # -- ring interface ------------------------------------------------------

    def add(self, left: Any, right: Any) -> Any:
        """Return ``left + right`` in this structure."""
        return self._add(left, right)

    def mul(self, left: Any, right: Any) -> Any:
        """Return ``left * right`` in this structure."""
        return self._mul(left, right)

    def neg(self, value: Any) -> Any:
        """Return the additive inverse of ``value``.

        Raises
        ------
        TypeError
            If the structure is a semiring without additive inverses.
        """
        if self._neg is None:
            raise TypeError(f"{self.name} is a semiring without an additive inverse")
        return self._neg(value)

    def sub(self, left: Any, right: Any) -> Any:
        """Return ``left - right`` (requires an additive inverse)."""
        return self.add(left, self.neg(right))

    def coerce(self, value: Any) -> Any:
        """Normalize ``value`` into the carrier set."""
        if self._coerce is None:
            return value
        return self._coerce(value)

    # -- predicates ----------------------------------------------------------

    @property
    def is_ring(self) -> bool:
        """True when the structure has an additive inverse."""
        return self._neg is not None

    def is_zero(self, value: Any) -> bool:
        """True when ``value`` equals the additive identity."""
        return value == self.zero

    def is_one(self, value: Any) -> bool:
        """True when ``value`` equals the multiplicative identity."""
        return value == self.one

    # -- helpers -------------------------------------------------------------

    def sum(self, values) -> Any:
        """Add up an iterable of values (empty sum is ``zero``)."""
        accumulator = self.zero
        for value in values:
            accumulator = self.add(accumulator, value)
        return accumulator

    def product(self, values) -> Any:
        """Multiply an iterable of values (empty product is ``one``)."""
        accumulator = self.one
        for value in values:
            accumulator = self.mul(accumulator, value)
        return accumulator

    def pow(self, value: Any, exponent: int) -> Any:
        """Return ``value`` raised to a non-negative integer power."""
        if exponent < 0:
            raise ValueError("negative exponents are not defined in a (semi)ring")
        return self.product(value for _ in range(exponent))

    def from_int(self, n: int) -> Any:
        """The image of the integer ``n`` under the canonical map ℤ → A (or ℕ → A).

        Computed by binary doubling — O(log n) additions — so net batch
        multiplicities (``Update.count``) map into the structure in constant
        practical time even for very large counts.  The images of
        ``0 <= n < SMALL_INT_MEMO`` are memoized per structure (carrier
        values are immutable, so callers may share them): the hot paths lift
        the same small counts — mostly 1 — over and over.
        """
        memo = self._small_ints
        cached = memo.get(n)
        if cached is not None:
            return cached
        if n < 0:
            return self.neg(self.from_int(-n))
        result = self.zero
        addend = self.one
        remaining = n
        while remaining:
            if remaining & 1:
                result = self.add(result, addend)
            remaining >>= 1
            if remaining:
                addend = self.add(addend, addend)
        if n < SMALL_INT_MEMO:
            memo[n] = result
        return result

    def __reduce__(self):
        """Pickle by name: the operation lambdas are not picklable, and every
        structure used by the runtime is resolvable via
        :func:`resolve_semiring` (built-ins and the ``top{k}`` family), so a
        pickled ring comes back as the same structure."""
        return (resolve_semiring, (self.name,))

    def __repr__(self) -> str:
        kind = "ring" if self.is_ring else "semiring"
        return f"<{kind} {self.name}>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Semiring) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Semiring", self.name))


class IntegerRing(Semiring):
    """The ring of integers ℤ — the paper's default multiplicity ring."""

    def __init__(self):
        super().__init__(
            zero=0,
            one=1,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
            neg=lambda a: -a,
            coerce=int,
            name="Z",
        )


class RationalField(Semiring):
    """The field of rationals ℚ, with exact ``fractions.Fraction`` arithmetic."""

    def __init__(self):
        super().__init__(
            zero=Fraction(0),
            one=Fraction(1),
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
            neg=lambda a: -a,
            coerce=Fraction,
            name="Q",
        )


class FloatField(Semiring):
    """Floating-point reals (approximate; useful for large numeric workloads)."""

    def __init__(self):
        super().__init__(
            zero=0.0,
            one=1.0,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
            neg=lambda a: -a,
            coerce=float,
            name="R-float",
        )


class BooleanSemiring(Semiring):
    """The boolean semiring (B, ∨, ∧, false, true) — set semantics (Example 2.2)."""

    def __init__(self):
        super().__init__(
            zero=False,
            one=True,
            add=lambda a, b: a or b,
            mul=lambda a, b: a and b,
            neg=None,
            coerce=bool,
            name="B",
        )


class NaturalSemiring(Semiring):
    """The semiring of natural numbers ℕ (no additive inverse — Example 2.2)."""

    def __init__(self):
        def coerce(value):
            value = int(value)
            if value < 0:
                raise ValueError("natural numbers cannot be negative")
            return value

        super().__init__(
            zero=0,
            one=1,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
            neg=None,
            coerce=coerce,
            name="N",
        )


class MinPlusSemiring(Semiring):
    """The tropical (min, +) semiring — shortest-path style provenance."""

    INFINITY = float("inf")

    def __init__(self):
        super().__init__(
            zero=self.INFINITY,
            one=0.0,
            add=min,
            mul=lambda a, b: a + b,
            neg=None,
            coerce=float,
            name="min-plus",
            sort_key=lambda value: value,
        )


class MaxPlusSemiring(Semiring):
    """The (max, +) semiring — dual of :class:`MinPlusSemiring`."""

    NEG_INFINITY = float("-inf")

    def __init__(self):
        super().__init__(
            zero=self.NEG_INFINITY,
            one=0.0,
            add=max,
            mul=lambda a, b: a + b,
            neg=None,
            coerce=float,
            name="max-plus",
            sort_key=lambda value: -value,
        )


#: Shared default instances (semirings are stateless, so sharing is safe).
INTEGER_RING = IntegerRing()
RATIONAL_FIELD = RationalField()
FLOAT_FIELD = FloatField()
BOOLEAN_SEMIRING = BooleanSemiring()
NATURAL_SEMIRING = NaturalSemiring()
MIN_PLUS = MinPlusSemiring()
MAX_PLUS = MaxPlusSemiring()

#: All built-in structures, keyed by name (used by tests and the CLI examples).
BUILTIN_SEMIRINGS = {
    structure.name: structure
    for structure in (
        INTEGER_RING,
        RATIONAL_FIELD,
        FLOAT_FIELD,
        BOOLEAN_SEMIRING,
        NATURAL_SEMIRING,
        MIN_PLUS,
        MAX_PLUS,
    )
}


def resolve_semiring(name: str) -> Semiring:
    """Resolve a structure by name, including parametrized top-k semirings.

    ``BUILTIN_SEMIRINGS`` covers the fixed structures; names of the form
    ``top{k}`` / ``top{k}-min`` resolve to k-best tropical semirings built on
    demand (used by snapshot restore, which records rings by name).
    """
    structure = BUILTIN_SEMIRINGS.get(name)
    if structure is not None:
        return structure
    if name.startswith("top"):
        from repro.algebra.lattices import top_k

        spec = name[3:]
        largest = True
        if spec.endswith("-min"):
            largest = False
            spec = spec[: -len("-min")]
        if spec.isdigit() and int(spec) > 0:
            return top_k(int(spec), largest=largest)
    raise KeyError(f"unknown semiring {name!r}")
