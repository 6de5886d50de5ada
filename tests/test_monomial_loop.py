"""The interpreted executor's monomial loop against the AGCA evaluator.

:class:`~repro.compiler.runtime.TriggerRuntime` runs every batch statement
and recompute as one loop over the statement's decoded monomials;
:func:`repro.core.semantics.evaluate` stays the oracle.  On seeded random map
states and delta maps, each statement's increments and each recompute's
per-group values must equal ``evaluate(statement.as_aggregate(), …)`` over
the same maps: exactly over ℤ, ℚ and the semirings, per key with
``math.isclose`` (over the exact same key set) over the float field.

The second half pins the interpreted executor's hot path to zero
``evaluate`` calls, and one defect the loop mends: a semiring ``HAVING
COUNT(*)`` guard compares the ℤ count, not its ``from_int`` image.
"""

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, RATIONAL_FIELD, resolve_semiring
from repro.analysis.ir_lint import _lint_targets
from repro.compiler.compile import compile_query
from repro.compiler.indexes import SliceIndexes
from repro.compiler.runtime import TriggerRuntime
from repro.core.parser import parse
from repro.core.semantics import evaluate
from repro.gmr.database import Database, delete, insert
from repro.gmr.records import Record
from repro.session import Session

POSTS = {"P": ("community", "post", "score")}

#: Semiring sessions beside the lint targets: the end-to-end benchmark's MIN
#: and TOPK views, and a HAVING view whose tracked recomputes read a ring map
#: in a guard and the ℤ base copy as a value term.
SEMIRING_SESSIONS = (
    ("min-plus", "SELECT p.community, MIN(p.score) FROM P p GROUP BY p.community"),
    ("top3", "SELECT p.community, TOPK(3, p.score) FROM P p GROUP BY p.community"),
    (
        "min-plus",
        "SELECT p.community, MIN(p.score) FROM P p GROUP BY p.community "
        "HAVING MIN(p.score) < 10",
    ),
)


#: A map read with a repeated key variable (an equality test inside the read).
REPEATED_KEY = (
    "repeated_key", parse("Sum(R(x, x) * S(x, y) * y)"), {"R": ("A", "B"), "S": ("C", "D")}, None
)


def _targets():
    """``(label, program, ring)``: every lint target and the repeated-key
    query (the ℤ ones also over ℚ and the float field), then the semiring
    sessions' programs."""
    for name, aggregate, schema, ring in (*_lint_targets(), REPEATED_KEY):
        program = compile_query(aggregate, schema, name=name, ring=ring)
        rings = (ring,) if ring is not None else (INTEGER_RING, RATIONAL_FIELD, FLOAT_FIELD)
        for run_ring in rings:
            yield f"{name}-{run_ring.name}", program, run_ring
    for index, (ring_name, sql) in enumerate(SEMIRING_SESSIONS):
        ring = resolve_semiring(ring_name)
        session = Session(POSTS, ring=ring)
        session.view("v", sql, backend="interpreted")
        program = session._groups["interpreted"].runtime.program
        yield f"session{index}-{ring_name}", program, ring


TARGETS = list(_targets())


def _ring_value(rng, ring):
    """A random non-zero value, now and then past the HAVING thresholds."""
    if ring is INTEGER_RING:
        return rng.choice((-3, -2, -1, 1, 2, 3, 1500))
    if ring is RATIONAL_FIELD:
        return Fraction(rng.choice((-5, -3, -1, 1, 2, 7, 4500)), rng.randint(1, 4))
    if ring is FLOAT_FIELD:
        return rng.choice((-1, 1, 700)) * round(rng.uniform(0.1, 3.0), 2)
    return ring.sum(ring.coerce(rng.randint(0, 20)) for _ in range(rng.randint(1, 3)))


def _random_state(rng, program, ring, counters):
    """A random table per map: keys over a three-value domain (so joins and
    slices match), non-zero values (ℤ counts in counter maps)."""
    tables = {}
    for name, definition in program.maps.items():
        tables[name] = {
            tuple(rng.randrange(3) for _ in range(definition.arity)): (
                rng.randint(1, 3) if name in counters else _ring_value(rng, ring)
            )
            for _ in range(rng.randint(0, 12))
        }
    return tables


def _random_delta(rng, arity, ring):
    """A pre-aggregated delta map as the update loop hands it over: ℤ counts,
    lifted through ``from_int`` for a ring other than ℤ and the float field."""
    delta = {tuple(rng.randrange(3) for _ in range(arity)): rng.randint(1, 3) for _ in range(4)}
    if ring is RATIONAL_FIELD:
        return {key: ring.from_int(count) for key, count in delta.items()}
    return delta


def _oracle_env(runtime, lift, extra=None):
    """Plain-dict maps for ``evaluate``: ℤ counter maps (and the extra ℤ
    delta) read as their ``from_int`` images when ``lift``."""
    ring = runtime.ring
    env = {name: dict(table) for name, table in runtime.maps.items()}
    env.update(extra or {})
    if lift:
        counts = set(runtime._counter_maps) | set(extra or ())
        for name in counts:
            env[name] = {key: ring.from_int(count) for key, count in env[name].items()}
    return env


def _nonzero(table, zero):
    return {key: value for key, value in table.items() if value != zero}


def _assert_same(actual, expected, ring, zero, label):
    actual, expected = _nonzero(actual, zero), _nonzero(expected, zero)
    assert actual.keys() == expected.keys(), label
    if ring is FLOAT_FIELD:
        for key, value in actual.items():
            assert math.isclose(value, expected[key], rel_tol=1e-9, abs_tol=1e-9), (label, key)
    else:
        assert actual == expected, label


def _check_statements(runtime, rng, label):
    ring, program = runtime.ring, runtime.program
    semiring = not ring.is_ring
    captured = []
    runtime._fold_increments = lambda target, increments, *rest: captured.append(increments)
    runtime._run_recompute = lambda *arguments: None
    try:
        for (relation, sign), trigger in program.triggers.items():
            delta = _random_delta(rng, len(program.schema[relation]), ring)
            captured.clear()
            runtime._apply_batch_trigger(trigger, (), delta)
            for statement, increments in zip(trigger.statements, captured, strict=True):
                counter = statement.target in runtime._counter_maps
                env = _oracle_env(runtime, semiring and not counter, {trigger.delta_map: delta})
                db = Database(schema=program.schema, ring=INTEGER_RING if counter else ring)
                expected = {
                    record.values_for(statement.target_keys): value
                    for record, value in evaluate(statement.as_aggregate(), db, maps=env).items()
                }
                zero = 0 if counter else ring.zero
                _assert_same(increments, expected, ring, zero, (label, relation, sign, statement))
    finally:
        del runtime._fold_increments, runtime._run_recompute


def _check_recomputes(runtime, rng, label):
    ring, program = runtime.ring, runtime.program
    db = Database(schema=program.schema, ring=ring)
    env = _oracle_env(runtime, not ring.is_ring)
    captured = []

    def write_back(table, new_values, *rest):
        captured.append(dict(new_values))
        return 0

    kernels, runtime._kernels = runtime._kernels, SimpleNamespace(write_back=write_back)
    try:
        recomputes = {id(r): r for t in program.triggers.values() for r in t.recomputes}
        for recompute in recomputes.values():
            aggregate = recompute.as_aggregate()
            tracked = None
            if recompute.tracked:
                tracked = {
                    source: set(runtime.maps[source])
                    | {tuple(rng.randrange(3) for _ in range(program.maps[source].arity))}
                    for source, _positions in recompute.source_projections
                }
                groups = {
                    tuple(key[position] for position in positions)
                    for source, positions in recompute.source_projections
                    for key in tracked[source]
                }
                expected = {}
                for group in groups:
                    bindings = Record.from_values(recompute.target_keys, group)
                    result = evaluate(aggregate, db, bindings, maps=env)
                    expected[group] = ring.sum(value for _record, value in result.items())
            else:
                expected = {
                    record.values_for(recompute.target_keys): value
                    for record, value in evaluate(aggregate, db, maps=env).items()
                }
            # Once through the runtime's own dispatch (a pointwise body runs its
            # lowered closure), once through the monomial loop alone.
            for pointwise in (dict(runtime._pointwise), {}):
                runtime._pointwise = pointwise
                captured.clear()
                runtime._run_recompute(recompute, None, tracked)
                _assert_same(captured[0], expected, ring, ring.zero, (label, recompute))
    finally:
        runtime._kernels = kernels


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "scans"])
@pytest.mark.parametrize("label, program, ring", TARGETS, ids=[t[0] for t in TARGETS])
def test_the_monomial_loop_matches_the_evaluator(label, program, ring, indexed):
    """Without slice indexes every partially-bound read is a scan that tests
    its bound key positions."""
    rng = random.Random(label)
    runtime = TriggerRuntime(program, ring=ring)
    if not indexed:
        runtime.indexes = runtime.maps.indexes = SliceIndexes()
    counters = runtime._counter_maps
    for _ in range(3):
        runtime.restore_tables(_random_state(rng, program, ring, counters))
        _check_statements(runtime, rng, label)
        _check_recomputes(runtime, rng, label)


# ---------------------------------------------------------------------------
# The update path calls no evaluator
# ---------------------------------------------------------------------------

#: One HAVING view (a tracked recompute) per coefficient structure.
HAVING_VIEWS = (
    (
        None,
        "SELECT p.community, SUM(p.score) FROM P p GROUP BY p.community HAVING SUM(p.score) > 40",
    ),
    (
        "min-plus",
        "SELECT p.community, MIN(p.score) FROM P p GROUP BY p.community HAVING COUNT(*) > 2",
    ),
    (
        "top3",
        "SELECT p.community, TOPK(3, p.score) FROM P p GROUP BY p.community HAVING COUNT(*) > 2",
    ),
)


def _posts(rng, start, count):
    return [(rng.randrange(5), post, rng.randrange(30)) for post in range(start, start + count)]


def _expected_having(ring_name, live):
    """The HAVING view's result by a direct fold of the live rows."""
    groups = {}
    for community, _post, score in live:
        groups.setdefault(community, []).append(score)
    if ring_name is None:
        return {(c,): sum(s) for c, s in groups.items() if sum(s) > 40}
    if ring_name == "min-plus":
        return {(c,): float(min(s)) for c, s in groups.items() if len(s) > 2}
    return {
        (c,): tuple(sorted(map(float, s), reverse=True)[:3])
        for c, s in groups.items()
        if len(s) > 2
    }


@pytest.mark.parametrize("ring_name, sql", HAVING_VIEWS, ids=["Z", "min-plus", "top3"])
def test_the_update_path_never_calls_evaluate(monkeypatch, ring_name, sql):
    """``apply``, ``apply_batch`` and an ingest flush run every statement and
    recompute without :func:`~repro.core.semantics.evaluate`; only
    ``bootstrap`` may call it."""
    session = Session(POSTS, ring=resolve_semiring(ring_name)) if ring_name else Session(POSTS)
    view = session.view("v", sql, backend="interpreted")
    assert any(
        recompute.tracked
        for trigger in session._groups["interpreted"].runtime.program.triggers.values()
        for recompute in trigger.recomputes
    )
    calls = []

    def counting(*arguments, **keywords):
        calls.append(1)
        return evaluate(*arguments, **keywords)

    monkeypatch.setattr("repro.compiler.runtime.evaluate", counting)
    rng = random.Random(7)
    live = _posts(rng, 0, 60)
    session.apply_batch([insert("P", *row) for row in live])
    doomed = [live.pop(rng.randrange(len(live))) for _ in range(15)]
    fresh = _posts(rng, 60, 10)
    session.apply_batch(
        [delete("P", *row) for row in doomed] + [insert("P", *row) for row in fresh]
    )
    live += fresh
    for row in _posts(rng, 70, 5):
        session.apply(insert("P", *row))
        live.append(row)
    gone = live.pop(0)
    session.apply(delete("P", *gone))
    with session.ingest(max_staleness_ms=None) as pipe:
        rows = _posts(rng, 75, 20)
        pipe.submit_many([insert("P", *row) for row in rows])
        pipe.submit(delete("P", *live.pop(3)))
        live += rows
        pipe.flush()
    assert calls == []
    assert view.result() == _expected_having(ring_name, live)


#: A view grouped by every column compiles to a pointwise recompute that
#: reads the ℤ counter map as a value term and in its guard.
PER_ROW = (
    "SELECT p.community, p.post, p.score, {} FROM P p "
    "GROUP BY p.community, p.post, p.score HAVING COUNT(*) > 0"
)


@pytest.mark.parametrize(
    "ring_name, sql",
    [
        ("min-plus", dict(HAVING_VIEWS)["min-plus"]),
        ("top3", dict(HAVING_VIEWS)["top3"]),
        ("min-plus", PER_ROW.format("MIN(p.score)")),
        ("top3", PER_ROW.format("TOPK(3, p.score)")),
    ],
    ids=["min-plus", "top3", "min-plus-per-row", "top3-per-row"],
)
def test_a_semiring_count_guard_compares_the_integer_count(ring_name, sql):
    """A semiring ``HAVING COUNT(*)`` guard reads the ℤ counter map in a
    comparison: both executors compare the count itself.  (Evaluated over
    the ring view, the interpreted executor once compared ``from_int(count)``
    — ``0.0`` under min-plus — and dropped every group, or raised on a
    delete.)  A deleted row's count is absent from the counter map, and the
    guard reads it as ``0``, not as the ring zero (``()`` under top-3, which
    ``> 0`` rejected with a ``TypeError``)."""
    rng = random.Random(3)
    live = _posts(rng, 0, 40)
    results = []
    for backend in ("interpreted", "generated"):
        session = Session(POSTS, ring=resolve_semiring(ring_name))
        view = session.view("v", sql, backend=backend)
        session.apply_batch([insert("P", *row) for row in live])
        session.apply_batch([delete("P", *row) for row in live[:10]])
        results.append(view.result())
    if "p.post" in sql:
        ring = resolve_semiring(ring_name)
        expected = {row: ring.coerce(row[2]) for row in live[10:]}
    else:
        expected = _expected_having(ring_name, live[10:])
    assert expected and results == [expected, expected]
