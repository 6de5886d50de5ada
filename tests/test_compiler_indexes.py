"""Tests for the secondary slice indexes behind partially-bound map references."""

import pytest

from repro.algebra.semirings import INTEGER_RING
from repro.compiler.codegen import generate_python
from repro.compiler.compile import compile_query
from repro.compiler.indexes import IndexedMaps, SliceIndexes, compute_index_specs, slice_keys
from repro.compiler.runtime import TriggerRuntime
from repro.core.parser import parse
from repro.gmr.database import Database, group_updates, insert
from repro.workloads.streams import StreamGenerator

RST_SCHEMA = {"R": ("A", "B"), "S": ("C", "D"), "T": ("E", "F")}
CHAIN_QUERY = parse("Sum(R(a, b) * S(c, d) * T(e, f) * (b = c) * (d = e) * a * f)")


# ---------------------------------------------------------------------------
# SliceIndexes mechanics
# ---------------------------------------------------------------------------


def test_slice_indexes_add_discard_lookup():
    indexes = SliceIndexes({"m": [(0,), (1,)]})
    indexes.add("m", (1, "x"))
    indexes.add("m", (1, "y"))
    indexes.add("m", (2, "x"))
    assert set(indexes.lookup("m", (0,), (1,))) == {(1, "x"), (1, "y")}
    assert set(indexes.lookup("m", (1,), ("x",))) == {(1, "x"), (2, "x")}
    indexes.discard("m", (1, "x"))
    assert set(indexes.lookup("m", (0,), (1,))) == {(1, "y")}
    # Removing the last key of a prefix drops the bucket entirely.
    indexes.discard("m", (1, "y"))
    assert indexes.lookup("m", (0,), (1,)) == ()
    assert (1,) not in indexes.bucket("m", (0,))


def test_slice_indexes_ignores_unspecified_maps_and_signatures():
    indexes = SliceIndexes({"m": [(0,)]})
    indexes.add("other", (1, 2))  # no spec: silently ignored
    assert indexes.lookup("other", (0,), (1,)) == ()
    assert indexes.bucket("m", (1,)) is None


def test_slice_indexes_rebuild():
    indexes = SliceIndexes({"m": [(0,)]})
    maps = {"m": {(1, "x"): 5, (2, "y"): 7}, "unindexed": {(9,): 1}}
    indexes.rebuild(maps)
    assert set(indexes.lookup("m", (0,), (1,))) == {(1, "x")}
    assert indexes.total_indexed_keys() == 2
    # Rebuilding from fresh contents discards stale registrations.
    indexes.rebuild({"m": {(3, "z"): 1}})
    assert indexes.lookup("m", (0,), (1,)) == ()
    assert set(indexes.lookup("m", (0,), (3,))) == {(3, "z")}


def _assert_storage_is_a_rebuild(indexes, specs, table):
    """Raw storage equals ``rebuild`` of ``table`` — same prefixes, same
    bucket shapes (a lone key bare, several in a key dict), no empty bucket."""
    fresh = SliceIndexes({"m": specs})
    fresh.rebuild({"m": table})
    assert indexes.data == fresh.data
    for index in indexes.data.values():
        for prefix, entry in index.items():
            keys = list(slice_keys(index, prefix))
            assert len(keys) == len(set(keys)) >= 1
            assert (type(entry) is dict) == (len(keys) > 1), (prefix, entry)


@pytest.mark.parametrize(
    "specs", [((0,),), ((1, 2),), ((0,), (0, 2), (1,))], ids=["one-position", "multi", "mixed"]
)
def test_apply_index_journal_matches_a_rebuild(specs):
    """The one bucket upkeep — adds, removes, the last key of a bucket, the
    one-key/two-key boundary both ways, idempotent re-adds and removes, the
    journals of a fold through the kernels and the inverse journal a
    rollback derives — against ``rebuild`` of the table each step leaves
    behind."""
    from repro.compiler.indexes import apply_index_journal
    from repro.compiler.kernels import UndoJournal, make_fold

    def check():
        _assert_storage_is_a_rebuild(indexes, specs, dict(table.items()))

    indexes = SliceIndexes({"m": specs})
    table = {}
    keys = [(a, b, c) for a in (1, 2) for b in ("x", "y") for c in (True, None)]
    apply_index_journal(indexes.data, specs, "m", keys, [])
    table.update(dict.fromkeys(keys, 1))
    check()
    removed = keys[:3] + keys[5:6]
    added = [(3, "x", True), (1, "z", None)]
    apply_index_journal(indexes.data, specs, "m", added, removed)
    for key in removed:
        del table[key]
    table.update(dict.fromkeys(added, 1))
    check()
    # Removing every key sharing a prefix deletes the bucket, not just empties it.
    gone = [key for key in table if key[0] == 2]
    apply_index_journal(indexes.data, specs, "m", (), gone)
    for key in gone:
        del table[key]
    check()
    # Re-adding present keys and removing absent ones change nothing, on
    # either side of the boundary.
    present, absent = list(table)[:2], [(9, "w", None), (1, "y", True)]
    apply_index_journal(indexes.data, specs, "m", present + present[:1], absent)
    check()
    # Promote (a second key under each prefix), demote, re-promote.
    fresh = [(5, "p", True)]
    for step in range(3):
        twin = [(5, "p", None)] if step % 2 == 0 else []
        gone = [] if step % 2 == 0 else [(5, "p", None)]
        apply_index_journal(indexes.data, specs, "m", fresh + twin, gone)
        table.update(dict.fromkeys(fresh + twin, 1))
        for key in gone:
            del table[key]
        check()
    # A fold through the kernels: keys promoted and demoted under one prefix.
    fold = make_fold(INTEGER_RING)
    spread = {(6, "q", c): 1 for c in range(8)}
    fold(table, spread, "m", specs, indexes.data)
    check()
    fold(table, {key: -1 for key in list(spread)[1:]}, "m", specs, indexes.data)
    check()
    # A rollback's inverse journal: the recorded priors say which keys the
    # transaction inserted (absent before) and which it removed — here
    # across the boundary, promoting one prefix and demoting another.
    before = dict(table.items())
    journal = UndoJournal()
    acc = {(6, "q", 1): 1, (6, "q", 2): 1, (1, "z", None): -1, (7, "q", True): 1}
    fold(table, acc, "m", specs, indexes.data, journal=journal)
    check()
    assert journal.rollback(indexes.data) == len(acc)
    assert dict(table.items()) == before
    check()


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


@pytest.mark.parametrize("size", [10, 256])
def test_failed_fold_applies_completed_journals(size):
    """A fold that raises partway still hands the keys it inserted to the
    slice indexes: afterwards the indexes exactly match the table's actual
    contents."""
    from repro.compiler.kernels import make_fold

    ring = _FragileRing()
    table = {(i, i): 1 for i in range(5)}
    indexes = SliceIndexes({"m": [(0,)]})
    indexes.rebuild({"m": table})
    acc = {(i, i): 1 for i in range(size)}
    acc[(size - 1, size - 1)] = "boom"  # after every insert the fold makes
    with pytest.raises(RuntimeError):
        make_fold(ring)(table, acc, "m", indexes.specs["m"], indexes.data)
    indexed = set()
    for bucket in indexes.data.values():
        for prefix in bucket:
            indexed.update(slice_keys(bucket, prefix))
    assert indexed == set(table), "slice indexes diverged from table contents"


@pytest.mark.parametrize(
    "specs", [((0,),), ((1,),), ((0,), (1,))], ids=["first", "second", "both"]
)
@pytest.mark.parametrize("ring_name", ["Z", "Q", "R-float", "min-plus", "max-plus"])
def test_fold_and_its_rollback_over_every_ring(ring_name, specs):
    """The fold kernel over each ring variant: the table ends at the per-key
    ring sum (annihilated entries removed), the slice indexes on the first,
    the second or both key positions equal a rebuild, change capture and
    touched keys follow ``acc``, and the undo journal's rollback restores the
    table and its indexes."""
    import random

    from repro.algebra.semirings import resolve_semiring
    from repro.compiler.kernels import UndoJournal, make_fold

    ring = resolve_semiring(ring_name)
    fold = make_fold(ring, post_values=not ring.is_ring)
    rng = random.Random(10 * len(ring_name))
    keys = [(a, b) for a in range(8) for b in range(8)]
    initial = {key: ring.coerce(rng.randint(1, 6)) for key in keys if rng.random() < 0.4}
    table, expected = dict(initial), dict(initial)
    indexes = SliceIndexes({"m": specs})
    indexes.rebuild({"m": table})
    journal = UndoJournal()
    for _ in range(4):
        acc = {}
        for key in rng.sample(keys, 20):
            stored = table.get(key)
            if ring.is_ring and stored is not None and rng.random() < 0.4:
                acc[key] = ring.neg(stored)  # annihilates the entry
            else:
                acc[key] = ring.coerce(rng.randint(1, 6))
        changes, touched = {"m": {}}, set()
        posts = {key: ring.add(expected.get(key, ring.zero), delta) for key, delta in acc.items()}
        entries = fold(table, dict(acc), "m", indexes.specs["m"], indexes.data, changes, journal, touched)
        assert entries == len(acc)
        assert changes["m"] == (acc if ring.is_ring else posts)
        assert touched == {key for key, delta in acc.items() if not ring.is_zero(delta)}
        for key, post in posts.items():
            if ring.is_zero(post):
                expected.pop(key, None)
            else:
                expected[key] = post
        assert table == expected
        _assert_storage_is_a_rebuild(indexes, specs, table)
    assert table != initial
    assert journal.rollback(indexes.data) > 0
    assert table == initial
    _assert_storage_is_a_rebuild(indexes, specs, table)


def test_indexed_maps_is_a_dict_with_indexes():
    indexes = SliceIndexes({"m": [(0,)]})
    maps = IndexedMaps({"m": {}}, indexes=indexes)
    assert isinstance(maps, dict)
    assert maps.indexes is indexes
    maps["m"][(1, 2)] = 3
    assert maps["m"] == {(1, 2): 3}


# ---------------------------------------------------------------------------
# Static analysis of trigger programs
# ---------------------------------------------------------------------------


def test_compute_index_specs_flags_partially_bound_references():
    program = compile_query(CHAIN_QUERY, RST_SCHEMA, name="q")
    specs = compute_index_specs(program)
    # The chain join slices some auxiliary map by a bound prefix on updates to
    # the end relations; the exact names depend on materialization order, but
    # there must be at least one partially-bound signature and every
    # signature must be a proper, non-empty subset of the map's key positions.
    assert specs, "expected partially-bound map references in the chain join"
    for name, all_positions in specs.items():
        arity = len(program.maps[name].key_vars)
        for positions in all_positions:
            assert 0 < len(positions) < arity
            assert all(0 <= position < arity for position in positions)


def test_compute_index_specs_empty_for_fully_bound_programs():
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), {"R": ("A",)}, name="q")
    assert compute_index_specs(program) == {}


def test_generated_code_uses_index_lookups_for_partial_references():
    program = compile_query(CHAIN_QUERY, RST_SCHEMA, name="q")
    generated = generate_python(program)
    assert generated.index_specs == compute_index_specs(program)
    assert "_IDX[(" in generated.source, "partially-bound references should use the index"


def test_slice_loop_survives_variables_named_like_its_builtins():
    """The emitted slice loop calls ``type`` and names ``dict``: query
    variables spelled so must not shadow them inside a trigger."""
    program = compile_query(
        parse("AggSum([type], R(type, b) * S(b, dict) * dict)"),
        {"R": ("A", "B"), "S": ("C", "D")}, name="q",
    )
    generated = generate_python(program)
    interpreter = TriggerRuntime(program)
    maps = {name: {} for name in program.maps}
    for update in [insert("R", 1, 2), insert("R", 3, 2), insert("S", 2, 5), insert("S", 2, 7)]:
        interpreter.apply(update)
        generated.apply(maps, update.relation, update.sign, update.values)
    assert maps["q"] == dict(interpreter.maps["q"]) == {(1,): 12, (3,): 12}


# ---------------------------------------------------------------------------
# Runtime integration: indexes stay in sync in both backends
# ---------------------------------------------------------------------------


def _assert_indexes_consistent(maps, indexes):
    for (name, positions), bucket in indexes.data.items():
        expected = {}
        for key in maps[name]:
            prefix = tuple(key[index] for index in positions)
            expected.setdefault(prefix, set()).add(key)
        assert {prefix: set(slice_keys(bucket, prefix)) for prefix in bucket} == expected, (
            name, positions,
        )


def test_interpreted_runtime_maintains_indexes():
    program = compile_query(CHAIN_QUERY, RST_SCHEMA, name="q")
    runtime = TriggerRuntime(program)
    stream = StreamGenerator(RST_SCHEMA, seed=3, default_domain_size=4).generate(250)
    for update in stream:
        runtime.apply(update)
    assert runtime.indexes.data, "program has partial references, indexes expected"
    _assert_indexes_consistent(runtime.maps, runtime.indexes)


def test_generated_runtime_maintains_indexes_and_matches_interpreter():
    program = compile_query(CHAIN_QUERY, RST_SCHEMA, name="q")
    generated = generate_python(program)
    interpreter = TriggerRuntime(program)
    maps = {name: {} for name in program.maps}
    stream = StreamGenerator(RST_SCHEMA, seed=5, default_domain_size=4).generate(250)
    for update in stream:
        interpreter.apply(update)
        generated.apply(maps, update.relation, update.sign, update.values)
    for name in program.maps:
        assert maps[name] == dict(interpreter.maps[name]), name
    # The generated backend maintained its private indexes correctly too.
    _assert_indexes_consistent(maps, generated._own_indexes)


def test_mixed_backends_share_one_runtime():
    """Interpreted and generated applications interleave over the same maps."""
    program = compile_query(CHAIN_QUERY, RST_SCHEMA, name="q")
    runtime = TriggerRuntime(program)
    generated = generate_python(program)
    reference = TriggerRuntime(program)
    stream = StreamGenerator(RST_SCHEMA, seed=8, default_domain_size=4).generate(200)
    for position, update in enumerate(stream):
        reference.apply(update)
        if position % 2:
            runtime.apply(update)
        else:
            generated.apply(
                runtime.maps, update.relation, update.sign, update.values,
                indexes=runtime.indexes,
            )
    for name in program.maps:
        assert dict(runtime.maps[name]) == dict(reference.maps[name]), name
    _assert_indexes_consistent(runtime.maps, runtime.indexes)


def test_bootstrap_rebuilds_indexes():
    program = compile_query(CHAIN_QUERY, RST_SCHEMA, name="q")
    db = Database(schema=RST_SCHEMA)
    generator = StreamGenerator(RST_SCHEMA, seed=17, default_domain_size=4)
    for update in generator.generate_inserts(120):
        db.apply(update)
    runtime = TriggerRuntime(program)
    runtime.bootstrap(db)
    _assert_indexes_consistent(runtime.maps, runtime.indexes)
    # Updates after bootstrap keep using (and maintaining) the rebuilt indexes.
    reference = TriggerRuntime(program)
    reference.bootstrap(db)
    for update in generator.generate(120):
        runtime.apply(update)
        reference.apply(update)
    for name in program.maps:
        assert dict(runtime.maps[name]) == dict(reference.maps[name])
    _assert_indexes_consistent(runtime.maps, runtime.indexes)


def test_generated_private_index_survives_external_map_reset():
    """Clearing or repopulating the maps outside apply() must not leave the
    private slice index stale (regression: stale keys raised KeyError)."""
    program = compile_query(CHAIN_QUERY, RST_SCHEMA, name="q")
    generated = generate_python(program)
    maps = {name: {} for name in program.maps}
    stream = StreamGenerator(RST_SCHEMA, seed=2, default_domain_size=4).generate(80)
    for update in stream:
        generated.apply(maps, update.relation, update.sign, update.values)
    # External reset: same maps object, fresh tables.
    for table in maps.values():
        table.clear()
    reference = TriggerRuntime(program)
    for update in stream:
        generated.apply(maps, update.relation, update.sign, update.values)
        reference.apply(update)
    for name in program.maps:
        assert maps[name] == dict(reference.maps[name]), name


def test_runtime_apply_batch_validates_whole_batch_upfront():
    """A malformed update anywhere in the batch fails before any map changes."""
    program = compile_query(parse("Sum(R(x))"), {"R": ("A",)}, name="q")
    runtime = TriggerRuntime(program)
    bad_batch = [insert("R", 1), insert("R", 2, 3), insert("R", 4)]
    with pytest.raises(ValueError, match="arity"):
        runtime.apply_batch(group_updates(bad_batch))
    assert runtime.maps["q"] == {}, "no update of the invalid batch may be applied"
    assert runtime.statistics.updates_processed == 0


def test_indexed_slices_avoid_full_scans_in_evaluator():
    """The interpreted evaluator consults the indexes: behaviour stays identical
    but partially-bound lookups touch only matching entries.  We verify
    observable equivalence against a runtime whose indexes are disabled."""
    program = compile_query(CHAIN_QUERY, RST_SCHEMA, name="q")
    indexed = TriggerRuntime(program)
    plain = TriggerRuntime(program)
    plain.indexes = SliceIndexes()  # disable: evaluator falls back to scans
    plain.maps.indexes = plain.indexes
    stream = StreamGenerator(RST_SCHEMA, seed=21, default_domain_size=4).generate(200)
    for update in stream:
        indexed.apply(update)
        plain.apply(update)
    for name in program.maps:
        assert dict(indexed.maps[name]) == dict(plain.maps[name]), name
