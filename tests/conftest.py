"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import io
import random
import runpy
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import strategies as st

from repro.core.ast import AggSum, Compare, Const, Mul, Rel, Var
from repro.gmr.database import Database, Update, delete, insert
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
# The one-at-a-time reference semantics of a batch, checked against direct
# evaluation
# ---------------------------------------------------------------------------


def plain_tables(maps):
    """A plain-dict copy of every map table of an environment."""
    return {name: dict(table.items()) for name, table in maps.items()}


def direct_tables(program, db):
    """Every map of ``program`` evaluated directly from its definition over
    the database ``db`` (a fresh runtime's bootstrap), as plain dicts."""
    from repro.compiler.runtime import TriggerRuntime

    runtime = TriggerRuntime(program, ring=db.ring)
    runtime.bootstrap(db)
    return plain_tables(runtime.maps)


class _PerTupleOracle:
    """Apply a batch one logical tuple at a time, then check every map
    against direct evaluation.

    Each tuple is a one-row delta ``{values: 1}`` handed to the executor's
    single-update entry point — the batch triggers on their smallest input,
    so a batch checked against this is checked against a *sequence* of
    single rows (Equation (1) once per update).  ``executor`` is a
    ``TriggerRuntime`` or a ``CompiledExecutor`` (``maps`` omitted), or a
    ``GeneratedTriggers`` module driven over the map environment ``maps``.

    The same updates also go into a :class:`~repro.gmr.database.Database`
    kept per map environment; after every call each table must equal its
    map's definition evaluated directly over that database
    (:func:`direct_tables`) — an oracle that shares no trigger with the
    executors under test.
    """

    def __init__(self):
        self._databases = {}

    def __call__(self, executor, batch, maps=None, changes=None):
        runtime = getattr(executor, "runtime", executor)
        tables = runtime.maps if maps is None else maps
        for update in batch:
            single = Update(update.sign, update.relation, update.values)
            for _ in range(update.count):
                if maps is None:
                    executor.apply(single, changes=changes)
                else:
                    executor.apply(maps, single.relation, single.sign, single.values, changes=changes)
        entry = self._databases.get(id(tables))
        if entry is None:
            # (The tables are kept with their database, so the id stays theirs.)
            entry = self._databases[id(tables)] = (
                tables, Database(runtime.program.schema, ring=runtime.ring),
            )
        db = entry[1]
        db.apply_all(batch)
        assert plain_tables(tables) == direct_tables(runtime.program, db)


@pytest.fixture
def apply_per_tuple():
    """The one-at-a-time reference helper (a fixture: ``benchmarks/`` has a
    ``conftest`` module of its own, so importing this one by name is fragile)."""
    return _PerTupleOracle()


# ---------------------------------------------------------------------------
# A three-view session over a grouped schema, and random batches for it
# ---------------------------------------------------------------------------

GROUPED_SCHEMA = {"R": ("A",), "S": ("A", "B")}
GROUPED_VIEWS = {
    "selfjoin": "Sum(R(x) * R(y) * (x = y))",
    "gsum": "AggSum([a], S(a, b) * b)",
    "count": "Sum(S(a, b))",
}


def grouped_session(backend):
    """``(session, cdc)``: the three views on ``backend``, each logging its
    sorted ``on_change`` payloads into ``cdc[view name]``."""
    from repro.session import Session

    session = Session(GROUPED_SCHEMA)
    cdc = {name: [] for name in GROUPED_VIEWS}
    for name, query in GROUPED_VIEWS.items():
        session.view(name, query, backend=backend).on_change(
            lambda changes, _name=name: cdc[_name].append(sorted(changes.items()))
        )
    return session, cdc


def grouped_batch(rng, size, domain):
    """``size`` random inserts (70 %) and deletes over ``R`` and ``S``."""
    batch = []
    for _ in range(size):
        on_r = rng.random() < 0.4
        sign = 1 if rng.random() < 0.7 else -1
        if on_r:
            batch.append(Update(sign, "R", (rng.randint(0, domain),)))
        else:
            batch.append(Update(sign, "S", (rng.randint(0, domain), rng.randint(0, 9))))
    return batch


# ---------------------------------------------------------------------------
# The example scripts, each run once per test session
# ---------------------------------------------------------------------------

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="session")
def run_example():
    """``run(script_name) -> (stdout, sessions)``: the ``examples/`` script's
    output and every :class:`~repro.session.Session` it created, in order.
    Each script runs once per test session, however many tests read it."""
    from repro.session import Session

    runs = {}

    def run(script_name):
        if script_name not in runs:
            created = []
            original = Session.__init__

            def recording(self, *args, **kwargs):
                original(self, *args, **kwargs)
                created.append(self)

            captured = io.StringIO()
            with mock.patch.object(Session, "__init__", recording), redirect_stdout(captured):
                runpy.run_path(str(EXAMPLES_DIR / script_name), run_name="__main__")
            runs[script_name] = (captured.getvalue(), tuple(created))
        return runs[script_name]

    return run


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
