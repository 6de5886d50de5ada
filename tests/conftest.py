"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from repro.core.ast import AggSum, Compare, Const, Mul, Rel, Var
from repro.gmr.database import Database, delete, insert
from repro.gmr.records import Record
from repro.gmr.relation import GMR

# ---------------------------------------------------------------------------
# Plain fixtures
# ---------------------------------------------------------------------------


@pytest.fixture
def unary_db() -> Database:
    """R(A) loaded with the multiset {c, c, d} (the Example 1.2 database)."""
    db = Database({"R": ("A",)})
    db.load("R", [("c",), ("c",), ("d",)])
    return db


@pytest.fixture
def customers_db() -> Database:
    """C(cid, nation) with a small population over three nations."""
    db = Database({"C": ("cid", "nation")})
    db.load(
        "C",
        [
            (1, "FRANCE"),
            (2, "FRANCE"),
            (3, "GERMANY"),
            (4, "JAPAN"),
            (5, "JAPAN"),
            (6, "JAPAN"),
        ],
    )
    return db


@pytest.fixture
def rst_db() -> Database:
    """R(A,B), S(C,D), T(E,F) with small integer contents (Example 1.3 shape)."""
    db = Database({"R": ("A", "B"), "S": ("C", "D"), "T": ("E", "F")})
    db.load("R", [(1, 10), (2, 10), (3, 20)])
    db.load("S", [(10, 100), (20, 100), (20, 200)])
    db.load("T", [(100, 7), (200, 9)])
    return db


# ---------------------------------------------------------------------------
# The per-tuple reference semantics of a batch
# ---------------------------------------------------------------------------


def _apply_per_tuple(executor, batch, maps=None, changes=None):
    """Apply ``batch`` one full trigger execution per logical tuple.

    This *is* the reference semantics batch triggers are checked against
    (Equation (1) of the paper, once per update).  ``executor`` is a
    ``TriggerRuntime`` (``maps`` omitted) or a ``GeneratedTriggers`` module
    driven over the map environment ``maps``.
    """
    for update in batch:
        if maps is None:
            executor.apply(update, changes=changes)
            continue
        for _ in range(update.count):
            executor.apply(maps, update.relation, update.sign, update.values, changes=changes)


@pytest.fixture
def apply_per_tuple():
    """The per-tuple reference helper (a fixture: ``benchmarks/`` has a
    ``conftest`` module of its own, so importing this one by name is fragile)."""
    return _apply_per_tuple


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

#: Small data values: keeps joins likely and shrinks nicely.
small_values = st.integers(min_value=0, max_value=4)

#: Column names drawn from a tiny vocabulary so that schemas overlap.
column_names = st.sampled_from(["A", "B", "C"])


@st.composite
def records(draw, columns=column_names, values=small_values, max_size=3):
    """Random schema-polymorphic records."""
    size = draw(st.integers(min_value=0, max_value=max_size))
    chosen = draw(
        st.lists(columns, min_size=size, max_size=size, unique=True)
    )
    return Record({column: draw(values) for column in chosen})


@st.composite
def gmrs(draw, max_rows=4, multiplicities=st.integers(min_value=-3, max_value=3)):
    """Random generalized multiset relations over ℤ."""
    rows = draw(st.lists(st.tuples(records(), multiplicities), max_size=max_rows))
    data = {}
    for record, multiplicity in rows:
        data[record] = data.get(record, 0) + multiplicity
    return GMR(data)


@st.composite
def unary_update_streams(draw, max_length=30, domain=(0, 1, 2, 3)):
    """Streams over the unary schema R(A) that never delete a missing tuple."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    live = []
    updates = []
    for _ in range(length):
        if live and rng.random() < 0.35:
            value = live.pop(rng.randrange(len(live)))
            updates.append(delete("R", value))
        else:
            value = rng.choice(domain)
            live.append(value)
            updates.append(insert("R", value))
    return updates


@st.composite
def binary_update_streams(draw, relations=("R", "S"), max_length=40, domain_size=4):
    """Streams over binary relations R(A,B), S(C,D) with valid deletions."""
    length = draw(st.integers(min_value=0, max_value=max_length))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    live = {relation: [] for relation in relations}
    updates = []
    for _ in range(length):
        relation = rng.choice(relations)
        if live[relation] and rng.random() < 0.3:
            values = live[relation].pop(rng.randrange(len(live[relation])))
            updates.append(delete(relation, *values))
        else:
            values = (rng.randrange(domain_size), rng.randrange(domain_size))
            live[relation].append(values)
            updates.append(insert(relation, *values))
    return updates


@st.composite
def simple_unary_queries(draw):
    """Random small AGCA aggregates over the unary relation R(A).

    Shapes: counts, self-join counts, value sums, and conditioned variants —
    enough variety to exercise the delta/compiler machinery while staying in
    the supported (non-nested) fragment.
    """
    shape = draw(st.sampled_from(["count", "sum", "selfjoin", "cond_count", "selfjoin_lt"]))
    if shape == "count":
        return AggSum((), Rel("R", ("x",)))
    if shape == "sum":
        return AggSum((), Mul((Rel("R", ("x",)), Var("x"))))
    if shape == "selfjoin":
        return AggSum((), Mul((Rel("R", ("x",)), Rel("R", ("y",)), Compare(Var("x"), "=", Var("y")))))
    if shape == "cond_count":
        threshold = draw(st.integers(min_value=0, max_value=3))
        return AggSum((), Mul((Rel("R", ("x",)), Compare(Var("x"), ">=", Const(threshold)))))
    return AggSum(
        (),
        Mul((Rel("R", ("x",)), Rel("R", ("y",)), Compare(Var("x"), "<", Var("y")))),
    )
