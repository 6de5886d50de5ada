"""Sharded map tables and their per-shard folds: the partition contract.

The contract under test: for every shard count N, a sharded session/engine is
*indistinguishable* from the unsharded one — same view results, same
``on_change`` payloads, same replay/bootstrap behavior — and ``shards=1``
keeps plain dict tables (the pre-sharding code path).
"""

from __future__ import annotations

import random

import pytest

from repro.algebra.semirings import resolve_semiring
from repro.compiler.partition import (
    ShardedMapTable,
    partition_map,
    resolve_shard_count,
    shard_of,
)
from repro.gmr.database import Update, insert
from repro.ivm.recursive import RecursiveIVM
from repro.session.session import Session
from repro.workloads.schemas import UNARY_SCHEMA

GROUPED_SCHEMA = {"R": ("A",), "S": ("A", "B")}

SHARD_COUNTS = (2, 3, 8)
COMPILED_BACKENDS = ("generated", "interpreted")


# ---------------------------------------------------------------------------
# The partitioner and the table facade
# ---------------------------------------------------------------------------


def test_shard_of_is_stable_and_in_range():
    for key in [(), (1,), ("a", 2), (None, "x", 3.5)]:
        for count in (1, 2, 7):
            shard = shard_of(key, count)
            assert 0 <= shard < count
            assert shard == shard_of(key, count)  # pure function of the key


@pytest.mark.parametrize("count", (1, 4, 7))
def test_partition_map_is_a_disjoint_cover(count):
    mapping = {(i, i % 3): i for i in range(100)}
    parts = partition_map(mapping, count)
    assert len(parts) == count
    merged = {}
    for index, part in enumerate(parts):
        for key in part:
            assert shard_of(key, count) == index
        merged.update(part)
    assert merged == mapping


@pytest.mark.parametrize("count", (1, 3, 8))
def test_sharded_map_table_mapping_protocol(count):
    table = ShardedMapTable(count, {(i,): i * 10 for i in range(20)})
    assert len(table) == 20
    assert table[(4,)] == 40
    assert table.get((4,)) == 40
    assert table.get((99,), "default") == "default"
    assert (4,) in table and (99,) not in table
    table[(99,)] = 1
    assert table.pop((99,)) == 1
    assert table.pop((99,), None) is None
    with pytest.raises(KeyError):
        table.pop((99,))
    assert dict(table.items()) == {(i,): i * 10 for i in range(20)}
    assert dict(table) == {(i,): i * 10 for i in range(20)}
    assert set(table) == {(i,) for i in range(20)}
    assert sorted(table.values()) == sorted(i * 10 for i in range(20))
    assert table == {(i,): i * 10 for i in range(20)}
    assert table == ShardedMapTable(5, dict(table.items()))  # layout-independent
    assert table.copy() == dict(table.items())
    # The shards really partition the key space.
    assert len(table.shards) == count
    for index, shard in enumerate(table.shards):
        for key in shard:
            assert shard_of(key, count) == index
    table.clear()
    assert len(table) == 0 and not table


def test_resolve_shard_count_env_default(monkeypatch):
    monkeypatch.delenv("REPRO_SHARDS", raising=False)
    assert resolve_shard_count(None) == 1
    monkeypatch.setenv("REPRO_SHARDS", "4")
    assert resolve_shard_count(None) == 4
    assert resolve_shard_count(2) == 2  # explicit argument wins
    with pytest.raises(ValueError):
        resolve_shard_count(0)


@pytest.mark.parametrize(
    "value, shards",
    [("abc", None), ("0", None), ("-3", None), ("1.5", None), (" 3 ", 3), ("8", 8)],
)
def test_repro_shards_is_checked_outside_input(monkeypatch, value, shards):
    """A value that is not a positive integer raises, naming the variable and
    the value, rather than silently running unsharded."""
    monkeypatch.setenv("REPRO_SHARDS", value)
    if shards is None:
        with pytest.raises(ValueError, match=f"REPRO_SHARDS.*{value}"):
            resolve_shard_count(None)
        with pytest.raises(ValueError, match="REPRO_SHARDS"):
            Session(UNARY_SCHEMA)
    else:
        assert Session(UNARY_SCHEMA).shards == shards
    assert resolve_shard_count(2) == 2  # an explicit argument never reads it


def test_shards_1_keeps_plain_dict_tables():
    session = Session(UNARY_SCHEMA, shards=1)
    session.view("q", "Sum(R(x))", backend="generated")
    runtime = session._groups["generated"].runtime
    assert all(type(table) is dict for table in runtime.maps.values())
    sharded = Session(UNARY_SCHEMA, shards=2)
    sharded.view("q", "Sum(R(x))", backend="generated")
    runtime = sharded._groups["generated"].runtime
    assert all(type(table) is ShardedMapTable for table in runtime.maps.values())


def test_repro_shards_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "3")
    session = Session(UNARY_SCHEMA)
    assert session.shards == 3
    session.view("q", "Sum(R(x) * R(y) * (x = y))", backend="generated")
    session.apply_batch([insert("R", value % 5) for value in range(100)])
    unsharded = Session(UNARY_SCHEMA, shards=1)
    unsharded.view("q", "Sum(R(x) * R(y) * (x = y))", backend="generated")
    unsharded.apply_batch([insert("R", value % 5) for value in range(100)])
    assert session["q"].result() == unsharded["q"].result()


# ---------------------------------------------------------------------------
# Engine-level equivalence (RecursiveIVM shards=N)
# ---------------------------------------------------------------------------


def _mixed_trace(rng, relations, length, domain):
    updates = []
    for _ in range(length):
        relation, arity = relations[rng.randrange(len(relations))]
        sign = 1 if rng.random() < 0.65 else -1
        values = tuple(rng.randint(0, domain) for _ in range(arity))
        updates.append(Update(sign, relation, values))
    return updates


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_engine_matches_unsharded(backend, shards):
    from repro.core.parser import parse

    query = parse("AggSum([a], S(a, b) * b)")
    rng = random.Random(shards * 17 + len(backend))
    base = RecursiveIVM(query, GROUPED_SCHEMA, backend=backend)
    sharded = RecursiveIVM(query, GROUPED_SCHEMA, backend=backend, shards=shards)
    for _ in range(6):
        batch = _mixed_trace(rng, [("S", 2)], rng.choice([5, 80, 300]), 60)
        base.apply_batch(batch)
        sharded.apply_batch(batch)
        assert sharded.result() == base.result()
    # Per-tuple application on sharded tables also agrees.
    for update in _mixed_trace(rng, [("S", 2)], 40, 60):
        base.apply(update)
        sharded.apply(update)
    assert sharded.result() == base.result()


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", (2, 4))
def test_sharded_bootstrap_matches_unsharded(shards, backend):
    from repro.core.parser import parse
    from repro.gmr.database import Database

    query = parse("Sum(R(x) * R(y) * (x = y))")
    db = Database(schema=UNARY_SCHEMA)
    db.load("R", [(value % 7,) for value in range(50)])
    base = RecursiveIVM(query, UNARY_SCHEMA, backend=backend)
    sharded = RecursiveIVM(query, UNARY_SCHEMA, backend=backend, shards=shards)
    base.bootstrap(db)
    sharded.bootstrap(db)
    assert sharded.result() == base.result()
    for table in sharded.runtime.maps.values():
        assert type(table) is ShardedMapTable
    batch = [insert("R", value % 7) for value in range(200)]
    base.apply_batch(batch)
    sharded.apply_batch(batch)
    assert sharded.result() == base.result()


# ---------------------------------------------------------------------------
# The randomized session property: state- and CDC-equivalence at every N
# ---------------------------------------------------------------------------


VIEWS = {
    "selfjoin": "Sum(R(x) * R(y) * (x = y))",
    "gsum": "AggSum([a], S(a, b) * b)",
    "count": "Sum(S(a, b))",
}


def _build_session(shards, backend):
    session = Session(GROUPED_SCHEMA, shards=shards)
    views, cdc = {}, {name: [] for name in VIEWS}
    for name, query in VIEWS.items():
        views[name] = session.view(name, query, backend=backend)
        views[name].on_change(
            lambda changes, _name=name: cdc[_name].append(sorted(changes.items()))
        )
    return session, cdc


def _random_batch(rng, size, domain):
    batch = []
    for _ in range(size):
        if rng.random() < 0.4:
            batch.append(
                Update(1 if rng.random() < 0.7 else -1, "R", (rng.randint(0, domain),))
            )
        else:
            batch.append(
                Update(
                    1 if rng.random() < 0.7 else -1,
                    "S",
                    (rng.randint(0, domain), rng.randint(0, 9)),
                )
            )
    return batch


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_sharded_session_state_and_cdc_equivalent(backend, shards):
    """The acceptance property: a sharded session is indistinguishable from the
    unsharded one on mixed single/batch traces — results *and* CDC streams —
    from one-key batches to batches touching most keys of every shard."""
    rng = random.Random(1000 * shards + len(backend))
    base, base_cdc = _build_session(1, backend)
    sharded, sharded_cdc = _build_session(shards, backend)
    for step in range(12):
        if rng.random() < 0.3:
            update = _random_batch(rng, 1, 40)[0]
            base.apply(update)
            sharded.apply(update)
        else:
            size = rng.choice([3, 40, 256])
            batch = _random_batch(rng, size, 40)
            base.apply_batch(batch)
            sharded.apply_batch(batch)
        assert sharded.results() == base.results(), (backend, shards, step)
        assert sharded_cdc == base_cdc, (backend, shards, step)


#: Per non-integer ring, the values of ``P``'s second column and the views.
#: Floats take the native fold and the Kahan total; the semirings take the
#: generic fold, post-value change capture and the support tier.
RING_SCHEMA = {"P": ("G", "S")}
RING_VIEWS = {
    "R-float": (
        [0.5, 1.25, 2.5, 1e16],
        {"sum": "AggSum([g], P(g, s) * s)", "total": "Sum(P(g, s) * s)"},
    ),
    "min-plus": ([1.0, 2.0, 3.0, 5.0], {"best": "AggSum([g], P(g, s) * s)"}),
    "top3": ([1.0, 2.0, 3.0, 5.0], {"best": "AggSum([g], P(g, s) * s)"}),
}


def _build_ring_session(ring, views, shards, backend):
    session = Session(RING_SCHEMA, ring=ring, shards=shards)
    cdc = {name: [] for name in views}
    for name, query in views.items():
        session.view(name, query, backend=backend).on_change(
            lambda changes, _name=name: cdc[_name].append(sorted(changes.items()))
        )
    return session, cdc


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("ring_name", list(RING_VIEWS))
def test_every_ring_matches_unsharded_state_and_cdc(ring_name, shards, backend):
    """The partition contract beyond ℤ: under a float field and under the
    MIN / TOP-3 semirings (deletes only of live rows), a sharded session's
    results and ``on_change`` payloads equal the unsharded session's."""
    ring = resolve_semiring(ring_name)
    pool, views = RING_VIEWS[ring_name]
    base, base_cdc = _build_ring_session(ring, views, 1, backend)
    sharded, sharded_cdc = _build_ring_session(ring, views, shards, backend)
    rng = random.Random(shards * 101 + len(ring_name) + len(backend))
    live = []
    for step in range(10):
        batch = []
        for _ in range(rng.choice([1, 12, 90])):
            if live and rng.random() < 0.35:
                batch.append(Update(-1, "P", live.pop(rng.randrange(len(live)))))
            else:
                row = (rng.randrange(20), rng.choice(pool))
                live.append(row)
                batch.append(Update(1, "P", row))
        if len(batch) == 1:
            base.apply(batch[0])
            sharded.apply(batch[0])
        else:
            base.apply_batch(batch)
            sharded.apply_batch(batch)
        assert sharded.results() == base.results(), (ring_name, shards, backend, step)
        assert sharded_cdc == base_cdc, (ring_name, shards, backend, step)


@pytest.mark.parametrize("origin", (1, 3, 8))
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_snapshot_restore_across_shard_counts(backend, origin):
    """snapshot() at one shard count restores at any other, mid-trace, and the
    restored session keeps producing unsharded-identical results."""
    rng = random.Random(42 + origin)
    base, _ = _build_session(1, backend)
    sharded, _ = _build_session(origin, backend)
    for _ in range(4):
        batch = _random_batch(rng, 50, 30)
        base.apply_batch(batch)
        sharded.apply_batch(batch)
    snapshot = sharded.snapshot()
    assert snapshot["shards"] == origin
    for new_count in (1, 2, 3, 8):
        restored = Session.restore(snapshot, shards=new_count)
        assert restored.shards == new_count
        assert restored.results() == base.results()
        # The revived session must keep maintaining correctly at the new count.
        tail = _random_batch(random.Random(new_count), 80, 30)
        restored.apply_batch(tail)
        continued, _ = _build_session(1, backend)
        for update in base._history:
            continued.apply(update)
        continued.apply_batch(tail)
        assert restored.results() == continued.results()
    # Without an override the recorded count is used.
    assert Session.restore(snapshot).shards == origin


@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_late_view_registration_on_sharded_session(shards, backend):
    """A view registered after updates flowed bootstraps from the replayed
    history into sharded tables, is immediately consistent, and stays so."""
    session = Session(GROUPED_SCHEMA, shards=shards)
    session.view("count", "Sum(S(a, b))", backend=backend)
    session.apply_batch(
        [Update(1, "S", (value % 11, value % 5)) for value in range(150)]
    )
    late = session.view("gsum", "AggSum([a], S(a, b) * b)", backend=backend)
    reference = Session(GROUPED_SCHEMA, shards=1)
    ref_view = reference.view("gsum", "AggSum([a], S(a, b) * b)", backend=backend)
    reference.apply_batch(
        [Update(1, "S", (value % 11, value % 5)) for value in range(150)]
    )
    assert late.result() == ref_view.result()
    for table in session._groups[backend].runtime.maps.values():
        assert type(table) is ShardedMapTable
    tail = _random_batch(random.Random(shards), 60, 11)
    session.apply_batch(tail)
    reference.apply_batch(tail)
    assert late.result() == ref_view.result()


# ---------------------------------------------------------------------------
# Transactions and ingestion on sharded tables
# ---------------------------------------------------------------------------


def _grouped_rows(count, offset=0):
    return [Update(1, "S", ((value + offset) % 9, value % 5)) for value in range(count)]


def _poison_next_fold(group):
    """Make the group's next fold call raise midway through its per-shard
    loop: the middle increment cannot be added, so the keys and shards folded
    before it are already written.  Later calls fold normally."""
    calls = []

    def wrap(real):
        def fold(table, acc, *rest, **keywords):
            if acc:
                calls.append(1)
                if len(calls) == 1:
                    acc = dict(acc)
                    acc[list(acc)[len(acc) // 2]] = "boom"
            return real(table, acc, *rest, **keywords)

        return fold

    kernels = group.runtime._kernels
    for attribute, alias in (("fold", "_fold"), ("fold_int", "_fold_int")):
        real = getattr(kernels, attribute)
        if real is not None:
            setattr(kernels, attribute, wrap(real))
            if group.generated is not None:
                group.generated._namespace[alias] = getattr(kernels, attribute)


@pytest.mark.parametrize("executor", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_poisoned_batch_on_sharded_tables_rolls_back(shards, executor):
    """A batch whose fold fails partway through the shards leaves a sharded
    session as it was — tables, results, history, no CDC — and the session
    keeps folding exactly like the unsharded one afterwards."""
    base, base_cdc = _build_session(1, executor)
    sharded, sharded_cdc = _build_session(shards, executor)
    for session in (base, sharded):
        session.apply_batch(_grouped_rows(120))
    group = sharded._groups[executor]
    runtime = group.runtime
    tables = {name: dict(table.items()) for name, table in runtime.maps.items()}
    history = list(sharded._history)
    results = sharded.results()
    _poison_next_fold(group)
    with pytest.raises(TypeError):
        sharded.apply_batch(_grouped_rows(40, offset=3))
    assert {name: dict(table.items()) for name, table in runtime.maps.items()} == tables
    assert sharded.results() == results == base.results()
    assert sharded._history == history
    assert sharded_cdc == base_cdc
    for session in (base, sharded):
        session.apply_batch(_grouped_rows(80, offset=5))
    assert sharded.results() == base.results()
    assert sharded_cdc == base_cdc


@pytest.mark.parametrize("executor", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_ingest_pipeline_on_sharded_session(shards, executor):
    """The streaming flusher's batches fold into sharded tables as the same
    batches applied to the unsharded session do, results and CDC alike."""
    base, base_cdc = _build_session(1, executor)
    sharded, sharded_cdc = _build_session(shards, executor)
    rng = random.Random(5 + shards)
    with sharded.ingest(max_pending=1_000_000, max_staleness_ms=None) as pipe:
        for size in (150, 1, 40, 150):
            chunk = _random_batch(rng, size, 25)
            pipe.submit_many(chunk)
            pipe.flush()
            base.apply_batch(chunk)
            assert sharded.results() == base.results(), (shards, executor, size)
            assert sharded_cdc == base_cdc, (shards, executor, size)


#: A nested-aggregate view whose S-trigger carries a *tracked* recompute.
NESTED_SCHEMA = {"R": ("G", "X"), "S": ("G", "Y")}
NESTED_QUERY = "AggSum([g], R(g, x) * (x < Sum(S(g, y) * y)) * x)"


@pytest.mark.parametrize("executor", COMPILED_BACKENDS)
@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_tracked_recomputes_on_sharded_tables(shards, executor):
    """Nested-aggregate maintenance (tracked recomputes re-evaluating their
    affected groups) agrees with the unsharded session at every shard count."""
    rng = random.Random(31 + shards + len(executor))
    base = Session(NESTED_SCHEMA, shards=1)
    base.view("nested", NESTED_QUERY, backend=executor)
    sharded = Session(NESTED_SCHEMA, shards=shards)
    sharded.view("nested", NESTED_QUERY, backend=executor)
    # The query must keep a tracked *scan* recompute (its R atom stays
    # correlated with the nested map), or this test would go vacuous.
    plan = sharded._groups[executor].runtime.plan
    assert "scan" in [
        kind
        for event in plan.events
        for recompute, kind in zip(event.recomputes, event.recompute_kinds)
        if recompute.tracked
    ]
    for step in range(5):
        batch = []
        for _ in range(rng.choice([8, 60])):
            relation = "R" if rng.random() < 0.5 else "S"
            batch.append(
                Update(
                    1 if rng.random() < 0.7 else -1,
                    relation,
                    (rng.randint(0, 12), rng.randint(0, 20)),
                )
            )
        base.apply_batch(batch)
        sharded.apply_batch(batch)
        assert sharded.results() == base.results(), (shards, executor, step)


#: A snapshot an older version wrote of a session on four process-backed
#: shards, kept verbatim: it names the placement (``"shard_backend"``), which
#: this version no longer has, and restores all the same.
OLDER_LAYOUT_SNAPSHOT = {
    "format": "repro-session/2",
    "ring": "Z",
    "schema": {"R": ["A"], "S": ["A", "B"]},
    "updates_applied": 16,
    "shards": 4,
    "shard_backend": "process",
    "views": [
        {"name": "gsum", "backend": "generated", "query": "AggSum([a], S(a, b) * b)"},
        {"name": "selfjoin", "backend": "interpreted", "query": "Sum(R(x) * R(y) * (x = y))"},
    ],
    "maps": {
        "generated": {"gsum": [[[3], 2], [[0], 3], [[1], 3], [[4], 1], [[2], 3]]},
        "interpreted": {"selfjoin": [[[], 5]], "selfjoin_m1": [[[1], 2], [[2], 1]]},
    },
    "engine_databases": {},
}
#: The updates that snapshot's session had applied.
OLDER_LAYOUT_UPDATES = [Update(1, "S", (a % 5, a % 3)) for a in range(12)] + [
    Update(1, "R", (1,)),
    Update(1, "R", (1,)),
    Update(1, "R", (2,)),
    Update(-1, "S", (0, 0)),
]


@pytest.mark.parametrize("shards", [None, 1, 2, 3, 8])
def test_older_layout_snapshot_restores(shards):
    """The older snapshot restores (at its recorded four shards or any other
    count) with the results and CDC of a session fed the same updates."""
    restored = Session.restore(OLDER_LAYOUT_SNAPSHOT, shards=shards)
    assert restored.shards == (4 if shards is None else shards)
    reference = Session(GROUPED_SCHEMA, shards=1, track_history=False)
    reference.view("gsum", "AggSum([a], S(a, b) * b)", backend="generated")
    reference.view("selfjoin", "Sum(R(x) * R(y) * (x = y))", backend="interpreted")
    reference.apply_batch(OLDER_LAYOUT_UPDATES)
    assert restored.results() == reference.results()
    cdc = {id(restored): [], id(reference): []}
    for session in (restored, reference):
        for name in ("gsum", "selfjoin"):
            session[name].on_change(
                lambda changes, _log=cdc[id(session)], _name=name: _log.append(
                    (_name, sorted(changes.items()))
                )
            )
    tail = _random_batch(random.Random(8), 60, 6)
    restored.apply_batch(tail)
    reference.apply_batch(tail)
    assert restored.results() == reference.results()
    assert cdc[id(restored)] == cdc[id(reference)] != []


# ---------------------------------------------------------------------------
# Failure path: a failed fold must leave the slice indexes consistent
# ---------------------------------------------------------------------------


class _FragileRing:
    """A duck-typed coefficient structure whose add chokes on 'boom'."""

    zero = 0

    @staticmethod
    def add(left, right):
        if right == "boom":
            raise RuntimeError("poisoned delta")
        return left + right

    @staticmethod
    def is_zero(value):
        return value == 0


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
@pytest.mark.parametrize("size", [10, 256])
def test_failed_fold_applies_completed_journals(size, shards):
    """Every shard's fold hands its journal back even when one raises: after
    a failed fold (unsharded or sharded), the slice indexes must exactly
    match the tables' actual contents."""
    from repro.compiler.indexes import SliceIndexes, slice_keys
    from repro.compiler.kernels import make_fold

    ring = _FragileRing()
    table = {(i, i): 1 for i in range(5)}
    if shards > 1:
        table = ShardedMapTable(shards, table)
    indexes = SliceIndexes({"m": [(0,)]})
    indexes.rebuild({"m": table})
    acc = {(i, i): 1 for i in range(size)}
    acc[(3, 3)] = "boom"
    with pytest.raises(RuntimeError):
        make_fold(ring)(table, acc, "m", indexes.specs["m"], indexes.data)
    indexed = set()
    for bucket in indexes.data.values():
        for prefix in bucket:
            indexed.update(slice_keys(bucket, prefix))
    assert indexed == set(table), "slice indexes diverged from table contents"


@pytest.mark.parametrize("shards", SHARD_COUNTS)
@pytest.mark.parametrize("ring_name", ["Z", "Q", "R-float", "min-plus", "max-plus"])
def test_sharded_fold_matches_the_dict_fold(ring_name, shards):
    """The kernel half of the contract: the same folds into a plain dict and
    into a ShardedMapTable leave equal tables and slice-index buckets and
    report equal entries, change payloads and touched keys; each undo
    journal's rollback restores its table and indexes."""
    from repro.compiler.indexes import SliceIndexes
    from repro.compiler.kernels import UndoJournal, make_fold

    ring = resolve_semiring(ring_name)
    fold = make_fold(ring, post_values=not ring.is_ring)
    rng = random.Random(10 * len(ring_name) + shards)
    keys = [(a, b) for a in range(8) for b in range(8)]
    initial = {key: ring.coerce(rng.randint(1, 6)) for key in keys if rng.random() < 0.4}
    tables = {"plain": dict(initial), "sharded": ShardedMapTable(shards, initial)}
    indexes, journals, reports = {}, {}, {}
    for layout, table in tables.items():
        indexes[layout] = SliceIndexes({"m": [(0,)]})
        indexes[layout].rebuild({"m": table})
        journals[layout] = UndoJournal()
        reports[layout] = []
    for _ in range(4):
        acc = {}
        for key in rng.sample(keys, 20):
            stored = tables["plain"].get(key)
            if ring.is_ring and stored is not None and rng.random() < 0.4:
                acc[key] = ring.neg(stored)  # annihilates the entry
            else:
                acc[key] = ring.coerce(rng.randint(1, 6))
        for layout, table in tables.items():
            changes, touched = {"m": {}}, set()
            index = indexes[layout]
            entries = fold(
                table, dict(acc), "m", index.specs["m"], index.data, changes,
                journals[layout], touched,
            )
            reports[layout].append((entries, changes, touched))
    assert tables["sharded"] == tables["plain"] != initial
    assert reports["sharded"] == reports["plain"]
    assert indexes["sharded"].data == indexes["plain"].data
    for layout, table in tables.items():
        assert journals[layout].rollback(indexes[layout].data) > 0
        assert table == initial, layout
        fresh = SliceIndexes({"m": [(0,)]})
        fresh.rebuild({"m": table})
        assert indexes[layout].data == fresh.data, layout
