"""Compiled maintenance against re-evaluation from scratch, on random traces.

Every check here compares a compiled executor (``generated`` or
``interpreted``) with :class:`~repro.ivm.naive.NaiveReevaluation`, which
applies each update to a stored database and evaluates the query in full —
an oracle that shares no trigger, map or fold with the code under test.  The
properties cover the four ways state reaches a compiled map:

* updates folded as they arrive, one ``apply`` at a time, in batches, or both
  interleaved (:func:`test_engine_matches_reevaluation`);
* a bootstrap from an already populated database, then further updates
  (:func:`test_bootstrap_matches_reevaluation`);
* a session view registered after updates flowed, bootstrapped from the
  replayed history (:func:`test_late_view_matches_reevaluation`);
* ``on_change`` payloads, which must be the net per-key change the oracle's
  results show (:func:`test_session_change_capture_matches_reevaluation`).

Each is run over five query shapes — a count, a grouped sum, a self-join, a
grouped join and a nested aggregate whose trigger carries a tracked
recompute — so the total, counter, generic fold and recompute paths of both
executors all meet the oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.core.parser import parse
from repro.gmr.database import Database, Update
from repro.ivm.base import result_as_mapping
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.session import Session

EXECUTORS = ("generated", "interpreted")

GROUPED_SCHEMA = {"R": ("A",), "S": ("A", "B")}
NESTED_SCHEMA = {"R": ("G", "X"), "S": ("G", "Y")}

#: name -> (schema, query text).
QUERIES = {
    "count": (GROUPED_SCHEMA, "Sum(S(a, b))"),
    "gsum": (GROUPED_SCHEMA, "AggSum([a], S(a, b) * b)"),
    "selfjoin": (GROUPED_SCHEMA, "Sum(R(x) * R(y) * (x = y))"),
    "join": (GROUPED_SCHEMA, "AggSum([a], R(a) * S(a, b) * b)"),
    "nested": (NESTED_SCHEMA, "AggSum([g], R(g, x) * (x < Sum(S(g, y) * y)) * x)"),
}

#: How a trace is handed in: batch sizes, 1 meaning a single ``apply``.
SHAPES = {
    "per-tuple": (1,),
    "batched": (5, 40, 120),
    "mixed": (1, 1, 12, 90),
}


def _random_updates(rng, schema, size, domain=8):
    """``size`` random inserts (70 %) and deletes over every relation of
    ``schema``; a delete may drive a multiplicity negative, as ℤ allows."""
    relations = sorted(schema)
    updates = []
    for _ in range(size):
        relation = rng.choice(relations)
        sign = 1 if rng.random() < 0.7 else -1
        values = tuple(rng.randint(0, domain) for _ in schema[relation])
        updates.append(Update(sign, relation, values))
    return updates


def _feed(targets, batch):
    """Hand ``batch`` to every target: as one ``apply`` when it holds one
    update, as one ``apply_batch`` otherwise."""
    for target in targets:
        if len(batch) == 1:
            target.apply(batch[0])
        else:
            target.apply_batch(batch)


def _seed(*parts):
    return sum((index + 1) * sum(map(ord, str(part))) for index, part in enumerate(parts))


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("query_name", list(QUERIES))
def test_engine_matches_reevaluation(query_name, executor, shape):
    """After every call the compiled engine's result equals full
    re-evaluation over the same updates."""
    schema, text = QUERIES[query_name]
    query = parse(text)
    engine = RecursiveIVM(query, schema, backend=executor)
    oracle = NaiveReevaluation(query, schema)
    rng = random.Random(_seed(query_name, executor, shape))
    for step in range(8):
        batch = _random_updates(rng, schema, rng.choice(SHAPES[shape]))
        _feed((engine, oracle), batch)
        assert engine.result() == oracle.result(), (query_name, executor, shape, step)


@pytest.mark.parametrize("preload", [0, 1, 60])
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("query_name", list(QUERIES))
def test_bootstrap_matches_reevaluation(query_name, executor, preload):
    """An engine bootstrapped from a populated database (empty, one row, or
    many rows with repeated keys) starts at the oracle's result and keeps
    agreeing under further per-tuple and batched updates."""
    schema, text = QUERIES[query_name]
    query = parse(text)
    rng = random.Random(_seed(query_name, executor, preload))
    db = Database(schema=schema)
    db.apply_all(
        Update(1, update.relation, update.values)
        for update in _random_updates(rng, schema, preload, domain=5)
    )
    engine = RecursiveIVM(query, schema, backend=executor)
    oracle = NaiveReevaluation(query, schema)
    engine.bootstrap(db)
    oracle.bootstrap(db)
    assert engine.result() == oracle.result()
    for size in (1, 30, 1, 80):
        _feed((engine, oracle), _random_updates(rng, schema, size, domain=5))
        assert engine.result() == oracle.result(), (query_name, executor, preload, size)


#: The history a session holds before the late view arrives: batch sizes,
#: 1 meaning a single ``apply``.
HISTORIES = {"empty": (), "one-update": (1,), "batches": (150, 1, 40)}


@pytest.mark.parametrize("history", list(HISTORIES))
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("query_name", list(QUERIES))
def test_late_view_matches_reevaluation(query_name, executor, history):
    """A view registered after the session's history is bootstrapped from
    that history to the oracle's result, and is maintained from then on."""
    schema, text = QUERIES[query_name]
    query = parse(text)
    session = Session(schema)
    session.view("early", "Sum(S(a, b))", backend=executor)
    oracle = NaiveReevaluation(query, schema)
    rng = random.Random(_seed(query_name, executor, history))
    for size in HISTORIES[history]:
        _feed((session, oracle), _random_updates(rng, schema, size))
    late = session.view("late", text, backend=executor)
    assert late.result_mapping() == result_as_mapping(oracle.result())
    for size in (60, 1, 25):
        _feed((session, oracle), _random_updates(rng, schema, size))
        assert late.result_mapping() == result_as_mapping(oracle.result()), size


@pytest.mark.parametrize("shape", list(SHAPES))
@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("query_name", list(QUERIES))
def test_session_change_capture_matches_reevaluation(query_name, executor, shape):
    """Each ``on_change`` payload of a session view is the oracle's: the net
    change of every group whose value moved, and no call when none did."""
    schema, text = QUERIES[query_name]
    query = parse(text)
    session = Session(schema)
    view = session.view("q", text, backend=executor)
    oracle = NaiveReevaluation(query, schema)
    logs = {"view": [], "oracle": []}
    view.on_change(lambda changes: logs["view"].append(dict(changes)))
    oracle.on_change(lambda changes: logs["oracle"].append(dict(changes)))
    rng = random.Random(_seed(query_name, executor, shape, "cdc"))
    for step in range(16):
        batch = _random_updates(rng, schema, rng.choice(SHAPES[shape]), domain=4)
        _feed((session, oracle), batch)
        assert logs["view"] == logs["oracle"], (query_name, executor, shape, step)
        assert view.result_mapping() == result_as_mapping(oracle.result())
    assert logs["view"], "the trace never changed the view"
