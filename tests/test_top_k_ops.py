"""The k-best semiring's fast operations equal their normalizing definitions.

:func:`repro.algebra.lattices.top_k` relies on its carrier invariant — every
value a best-first tuple of at most ``k`` floats — so ``add`` and ``mul``
neither re-convert nor re-sort their operands, and ``from_int`` is memoized.
Here each is checked, bit for bit (``float.hex`` of every element, so a
``-0.0`` in the wrong place fails), against the definition that normalizes
every result: ``normalize(a + b)``, ``normalize(x + y for x in a for y in
b)`` and binary doubling over that ``add``.  Operands are carrier values made
by ``coerce``, with ties, ``±inf`` and empty tuples; a product that would add
``inf`` to ``-inf`` (NaN in both definitions) is left out.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algebra.lattices import top_k

KS = [1, 3, 5]
ORDERS = [True, False]

#: Few distinct scores, so ties and signed zeros are common.
TIED = st.sampled_from([-math.inf, -2.5, -0.0, 0.0, 1.0, 3.0, 3.0, math.inf])
SCORES = st.one_of(TIED, st.floats(allow_nan=False, width=32), st.integers(-5, 5))


def _reference(k, largest):
    def normalize(values):
        return tuple(sorted((float(v) for v in values), reverse=largest)[:k])

    def add(a, b):
        return normalize(a + b)

    def mul(a, b):
        return normalize(x + y for x in a for y in b)

    def from_int(n):
        result, addend = (), (0.0,)
        while n:
            if n & 1:
                result = add(result, addend)
            n >>= 1
            if n:
                addend = add(addend, addend)
        return result

    return normalize, add, mul, from_int


def _bits(value):
    assert type(value) is tuple
    return [(type(x), float.hex(x)) for x in value]


def _undefined(a, b):
    """Whether a product of ``a`` and ``b`` adds ``inf`` to ``-inf``."""
    return any(math.isinf(x) and math.isinf(y) and x != y for x in a for y in b)


@pytest.mark.parametrize("largest", ORDERS)
@pytest.mark.parametrize("k", KS)
@settings(max_examples=300, deadline=None)
@given(a=st.lists(SCORES, max_size=7), b=st.lists(SCORES, max_size=7))
def test_add_equals_the_normalizing_definition(k, largest, a, b):
    ring = top_k(k, largest)
    normalize, add, _mul, _from_int = _reference(k, largest)
    a, b = ring.coerce(a), ring.coerce(b)
    assert _bits(a) == _bits(normalize(a))
    assert _bits(ring.add(a, b)) == _bits(add(a, b))
    assert _bits(ring.add(b, a)) == _bits(add(b, a))


@pytest.mark.parametrize("largest", ORDERS)
@pytest.mark.parametrize("k", KS)
@settings(max_examples=300, deadline=None)
@given(a=st.lists(SCORES, max_size=7), b=st.lists(SCORES, max_size=7))
def test_mul_equals_the_normalizing_definition(k, largest, a, b):
    ring = top_k(k, largest)
    _normalize, _add, mul, _from_int = _reference(k, largest)
    a, b = ring.coerce(a), ring.coerce(b)
    assume(not _undefined(a, b))
    assert _bits(ring.mul(a, b)) == _bits(mul(a, b))
    assert _bits(ring.mul(b, a)) == _bits(mul(b, a))


@pytest.mark.parametrize("largest", ORDERS)
@pytest.mark.parametrize("k", KS)
@settings(max_examples=100, deadline=None)
@given(
    a=st.lists(SCORES, max_size=4),
    b=st.lists(SCORES, max_size=4),
    c=st.lists(SCORES, max_size=4),
)
def test_a_fold_equals_the_normalizing_fold(k, largest, a, b, c):
    """Chained operations stay in the carrier: ``(a ⊕ b) ⊗ c ⊕ c`` matches."""
    ring = top_k(k, largest)
    _normalize, add, mul, _from_int = _reference(k, largest)
    a, b, c = ring.coerce(a), ring.coerce(b), ring.coerce(c)
    assume(not _undefined(a + b, c))
    fast = ring.add(ring.mul(ring.add(a, b), c), c)
    assert _bits(fast) == _bits(add(mul(add(a, b), c), c))


@pytest.mark.parametrize("largest", ORDERS)
@pytest.mark.parametrize("k", KS)
def test_from_int_equals_binary_doubling(k, largest):
    """Every ``n`` in 0..200, computed (memo cleared) and then memoized."""
    ring = top_k(k, largest)
    *_ops, from_int = _reference(k, largest)
    ring._small_ints.clear()
    for n in range(201):
        expected = _bits(from_int(n))
        assert _bits(ring.from_int(n)) == expected, n
        assert _bits(ring.from_int(n)) == expected, n
        assert expected == _bits((0.0,) * min(n, k))
