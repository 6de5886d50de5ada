"""Tests for the secondary slice indexes behind partially-bound map references."""

import pytest

from repro.compiler.codegen import generate_python
from repro.compiler.compile import compile_query
from repro.compiler.indexes import IndexedMaps, SliceIndexes, compute_index_specs
from repro.compiler.runtime import TriggerRuntime
from repro.core.parser import parse
from repro.gmr.database import Database, insert
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


@pytest.mark.parametrize(
    "specs", [((0,),), ((1, 2),), ((0,), (0, 2), (1,))], ids=["one-position", "multi", "mixed"]
)
def test_apply_index_journal_matches_a_rebuild(specs):
    """The one bucket upkeep — adds, removes, the last key of a bucket, and
    the inverse journal a rollback derives — against ``rebuild`` of the table
    each step leaves behind."""
    from repro.compiler.indexes import apply_index_journal
    from repro.compiler.kernels import UndoJournal

    def rebuilt(table):
        fresh = SliceIndexes({"m": specs})
        fresh.rebuild({"m": table})
        return fresh.data

    indexes = SliceIndexes({"m": specs})
    table = {}
    keys = [(a, b, c) for a in (1, 2) for b in ("x", "y") for c in (True, None)]
    apply_index_journal(indexes.data, specs, "m", keys, [])
    table.update(dict.fromkeys(keys, 1))
    assert indexes.data == rebuilt(table)
    removed = keys[:3] + keys[5:6]
    added = [(3, "x", True), (1, "z", None)]
    apply_index_journal(indexes.data, specs, "m", added, removed)
    for key in removed:
        del table[key]
    table.update(dict.fromkeys(added, 1))
    assert indexes.data == rebuilt(table)
    # Removing every key sharing a prefix deletes the bucket, not just empties it.
    gone = [key for key in table if key[0] == 2]
    apply_index_journal(indexes.data, specs, "m", (), gone)
    for key in gone:
        del table[key]
    assert indexes.data == rebuilt(table)
    assert all(bucket for buckets in indexes.data.values() for bucket in buckets.values())
    # A rollback's inverse journal: the recorded priors say which keys the
    # transaction inserted (absent before) and which it removed.
    before = dict(table)
    journal = UndoJournal()
    touched = [(1, "y", None), (7, "q", True), (1, "z", None)]
    journal.record(table, "m", specs, touched)
    apply_index_journal(indexes.data, specs, "m", [(7, "q", True)], [(1, "y", None), (1, "z", None)])
    del table[(1, "y", None)], table[(1, "z", None)]
    table[(7, "q", True)] = 1
    assert indexes.data == rebuilt(table)
    assert journal.rollback(indexes.data) == 3
    assert table == before and indexes.data == rebuilt(before)


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


# ---------------------------------------------------------------------------
# Runtime integration: indexes stay in sync in both backends
# ---------------------------------------------------------------------------


def _assert_indexes_consistent(maps, indexes):
    for (name, positions), bucket in indexes.data.items():
        expected = {}
        for key in maps[name]:
            prefix = tuple(key[index] for index in positions)
            expected.setdefault(prefix, set()).add(key)
        assert bucket == expected, (name, positions)


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
        runtime.apply_batch(bad_batch)
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
