"""Unit tests for the nested-aggregate materialization hierarchy.

The trigger compiler extracts inner aggregates into auxiliary maps, replaces
base relations in re-evaluation bodies with materialized base copies, and
maintains nested readers with recompute statements — tracked (per affected
group) when every source map is keyed by the target's group variables, full
otherwise.
"""

import random

import pytest

from repro.algebra.lattices import top_k
from repro.algebra.semirings import MIN_PLUS
from repro.compiler.compile import compile_query
from repro.compiler.plan import lower_batch_plan
from repro.compiler.runtime import TriggerRuntime
from repro.core.ast import MapRef, Rel, relation_atoms, walk
from repro.core.errors import CompilationError
from repro.core.parser import parse
from repro.core.semantics import evaluate
from repro.gmr.database import Database, delete, insert
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.session import Session
from repro.sql.frontend import sql_to_agca

GROUPED_SCHEMA = {"R": ("G", "X")}
TWO_RELATIONS = {"R": ("G", "X"), "S": ("G", "Y")}

#: Per-group sales strictly below the global total (the paper-style query).
GLOBAL_TOTAL = "AggSum([g], R(g, x) * (x < Sum(R(g2, x2) * x2)) * x)"
#: HAVING-style: per-group total where the group has more than two rows.
HAVING_STYLE = "AggSum([g], AggSum([g], R(g, x) * x) * (Sum(R(g, y)) > 2))"
#: Correlated subquery against a second relation.
CORRELATED = "AggSum([g], R(g, x) * (x < Sum(S(g, y) * y)) * x)"


def mixed_stream(schema, count, seed, groups=4, domain=7):
    rng = random.Random(seed)
    relations = sorted(schema)
    live, updates = [], []
    for _ in range(count):
        if live and rng.random() < 0.35:
            updates.append(delete(*live.pop(rng.randrange(len(live)))))
        else:
            relation = rng.choice(relations)
            row = (relation, rng.randrange(groups)) + tuple(
                rng.randrange(domain) for _ in range(len(schema[relation]) - 1)
            )
            live.append(row)
            updates.append(insert(*row))
    return updates


# ---------------------------------------------------------------------------
# Hierarchy structure
# ---------------------------------------------------------------------------


def test_inner_aggregate_becomes_auxiliary_map():
    program = compile_query(parse(GLOBAL_TOTAL), GROUPED_SCHEMA, name="q")
    levels = {definition.level for definition in program.maps.values()}
    assert levels == {0, 1}
    # The inner Sum and the base copy of R are both materialized.
    assert len(program.maps) == 3
    result = program.result_definition
    assert any(isinstance(node, MapRef) for node in walk(result.definition))


def test_recompute_body_reads_maps_only():
    program = compile_query(parse(GLOBAL_TOTAL), GROUPED_SCHEMA, name="q")
    for trigger in program.triggers.values():
        for recompute in trigger.recomputes:
            assert not relation_atoms(recompute.body)
            assert recompute.maps_read()


def test_scalar_inner_aggregate_forces_full_recompute():
    program = compile_query(parse(GLOBAL_TOTAL), GROUPED_SCHEMA, name="q")
    [recompute] = program.trigger_for("R", 1).recomputes
    assert not recompute.tracked  # the global total can affect every group


def test_group_keyed_sources_enable_tracked_recompute():
    program = compile_query(parse(HAVING_STYLE), GROUPED_SCHEMA, name="q")
    [recompute] = program.trigger_for("R", 1).recomputes
    assert recompute.tracked
    assert {source for source, _ in recompute.source_projections} == set(
        definition.name for definition in program.auxiliary_maps()
    )


def test_correlated_subquery_keeps_closed_form_for_outer_relation():
    """Updates to R (which never changes the inner map over S) stay closed-form;
    updates to S trigger the recompute."""
    program = compile_query(parse(CORRELATED), TWO_RELATIONS, name="q")
    r_trigger = program.trigger_for("R", 1)
    assert not r_trigger.recomputes
    assert any(statement.target == "q" for statement in r_trigger.statements)
    s_trigger = program.trigger_for("S", 1)
    assert any(recompute.target == "q" for recompute in s_trigger.recomputes)
    [recompute] = s_trigger.recomputes
    assert recompute.tracked


def test_identical_inner_aggregates_are_deduplicated():
    text = "AggSum([g], R(g, x) * (x < Sum(R(a, b) * b)) * (0 - x < Sum(R(c, d) * d)))"
    program = compile_query(parse(text), GROUPED_SCHEMA, name="q")
    inner = [
        definition
        for definition in program.auxiliary_maps()
        if relation_atoms(definition.definition) and definition.arity == 0
    ]
    assert len(inner) == 1, "structurally identical inner aggregates must share one map"


def test_multi_level_nesting_orders_recomputes_by_depth():
    text = (
        "AggSum([g], R(g, x) * (x < Sum(R(g2, x2) * x2 * (x2 < Sum(R(g3, x3) * x3)))))"
    )
    program = compile_query(parse(text), GROUPED_SCHEMA, name="q")
    trigger = program.trigger_for("R", 1)
    assert len(trigger.recomputes) >= 2
    depths = [recompute.depth for recompute in trigger.recomputes]
    assert depths == sorted(depths), "inner hierarchies must recompute first"


def test_bare_relation_in_operand_rejected():
    with pytest.raises(CompilationError):
        compile_query(parse("Sum(R(g, x) * (x < R(g, y)))"), GROUPED_SCHEMA)


# ---------------------------------------------------------------------------
# HAVING: the relation part factors away from the guard (Example 1.3)
# ---------------------------------------------------------------------------

SALES = {"Sales": ("store", "amount")}
#: (SQL text, the same query hand-factored in AGCA) — one program for both.
HAVING_SPELLINGS = {
    "sum": (
        "SELECT store, SUM(amount) FROM Sales GROUP BY store HAVING SUM(amount) > 20",
        "AggSum([g], AggSum([g], Sales(g, x) * x) * (Sum(Sales(g, y) * y) > 20))",
    ),
    "count": (
        "SELECT store, SUM(amount) FROM Sales GROUP BY store HAVING COUNT(*) > 2",
        "AggSum([g], AggSum([g], Sales(g, x) * x) * (Sum(Sales(g, y)) > 2))",
    ),
    "two-conditions": (
        "SELECT store, SUM(amount) FROM Sales GROUP BY store "
        "HAVING COUNT(*) > 2 AND SUM(amount) < 100",
        "AggSum([g], AggSum([g], Sales(g, x) * x) * (Sum(Sales(g, y)) > 2) "
        "* (Sum(Sales(g, z) * z) < 100))",
    ),
}


def recompute_kinds(program, ring=None):
    """target -> the plan's ``pointwise``/``scan`` class, over every event."""
    plan = lower_batch_plan(program) if ring is None else lower_batch_plan(program, ring)
    kinds = {}
    for event in plan.events:
        for recompute, kind in zip(event.recomputes, event.recompute_kinds):
            kinds.setdefault(recompute.target, set()).add(kind)
    return kinds


def base_copies(program):
    """Maps that copy a base relation: a bare atom keyed by all its columns
    (``Sum_[k0] Sales(k0, v0)``, a COUNT, is an aggregate — not a copy)."""
    return [
        definition.name
        for definition in program.maps.values()
        if isinstance(definition.definition, Rel)
        and definition.key_vars == definition.definition.columns
    ]


@pytest.mark.parametrize("spelling", sorted(HAVING_SPELLINGS))
def test_sql_having_compiles_to_the_hand_factored_program(spelling):
    sql, agca = HAVING_SPELLINGS[spelling]
    from_sql = compile_query(sql_to_agca(sql, SALES), SALES, name="q")
    by_hand = compile_query(parse(agca), SALES, name="q")
    for program in (from_sql, by_hand):
        assert not base_copies(program), program.explain()
        assert not relation_atoms(program.result_definition.definition)
        assert recompute_kinds(program) == {"q": {"pointwise"}}
    assert len(from_sql.maps) == len(by_hand.maps)
    assert "[recompute:pointwise]" in from_sql.explain()
    assert "-- O(changed groups) [recompute:pointwise]" in from_sql.explain()


def test_factoring_leaves_correlated_and_scalar_inner_shapes_alone():
    """A relation that stays correlated with the nested map (``x < M[g]``)
    is one component with it: the base copy and the scan recompute remain."""
    for text, schema in ((CORRELATED, TWO_RELATIONS), (GLOBAL_TOTAL, GROUPED_SCHEMA)):
        program = compile_query(parse(text), schema, name="q")
        assert relation_atoms(program.result_definition.definition), text
        assert base_copies(program), text
        assert recompute_kinds(program) == {"q": {"scan"}}, text
        assert "[recompute:scan]" in program.explain()
    correlated = compile_query(parse(CORRELATED), TWO_RELATIONS, name="q")
    assert "O(changed groups × indexed slice)" in correlated.explain()
    scalar = compile_query(parse(GLOBAL_TOTAL), GROUPED_SCHEMA, name="q")
    assert "O(all groups)" in scalar.explain()


def test_factoring_never_costs_a_closed_form_trigger():
    """``R`` is not a recompute relation of ``R(g,x) * AggSum([g,s], S…)``:
    its component stays in the definition, so ±R keep their closed form."""
    schema = {"R": ("G", "X"), "S": ("G", "S", "Y")}
    query = parse("AggSum([g], R(g, x) * AggSum([g, s], S(g, s, y) * y))")
    program = compile_query(query, schema, name="q")
    assert relation_atoms(program.result_definition.definition)
    r_trigger = program.trigger_for("R", 1)
    assert not r_trigger.recomputes
    assert any(statement.target == "q" for statement in r_trigger.statements)


@pytest.mark.parametrize("ring", [MIN_PLUS, top_k(3)], ids=lambda ring: ring.name)
def test_factoring_is_ring_mode_only(ring):
    """Under a proper semiring a factored child would be read by its parent
    and lose its support-structure eligibility; the definition stays whole."""
    sql_shaped = parse("AggSum([g], R(g, x) * (Sum(R(g, y)) > 2) * x)")
    program = compile_query(sql_shaped, GROUPED_SCHEMA, name="q", ring=ring)
    assert relation_atoms(program.result_definition.definition)
    assert recompute_kinds(program, ring) == {"q": {"scan"}}
    over_z = compile_query(sql_shaped, GROUPED_SCHEMA, name="q")
    assert recompute_kinds(over_z) == {"q": {"pointwise"}}


# ---------------------------------------------------------------------------
# Execution equivalence (interpreted, generated, batch, bootstrap)
# ---------------------------------------------------------------------------

NESTED_QUERIES = [
    (GLOBAL_TOTAL, GROUPED_SCHEMA),
    (HAVING_STYLE, GROUPED_SCHEMA),
    (CORRELATED, TWO_RELATIONS),
    ("Sum(R(g, x) * (x < Sum(R(g2, x2) * x2)) * x)", GROUPED_SCHEMA),
    (
        "AggSum([g], R(g, x) * (x < Sum(R(g2, x2) * x2 * (x2 < Sum(R(g3, x3) * x3)))))",
        GROUPED_SCHEMA,
    ),
]


@pytest.mark.parametrize("text,schema", NESTED_QUERIES, ids=[t for t, _ in NESTED_QUERIES])
@pytest.mark.parametrize("backend", ["interpreted", "generated"])
def test_nested_hierarchy_matches_naive(text, schema, backend):
    query = parse(text)
    # The doubly-nested query makes the naive reference cubic per check —
    # keep its cross-checked stream short.
    count = 80 if "x3" in text else 250
    engine = RecursiveIVM(query, schema, backend=backend)
    reference = NaiveReevaluation(query, schema)
    for position, update in enumerate(mixed_stream(schema, count, seed=13)):
        engine.apply(update)
        reference.apply(update)
        if position % 17 == 0 or position == count - 1:
            assert engine.result() == reference.result(), (position, update)


@pytest.mark.parametrize("text,schema", NESTED_QUERIES[:3], ids=[t for t, _ in NESTED_QUERIES[:3]])
def test_nested_batches_match_sequential(text, schema):
    query = parse(text)
    stream = mixed_stream(schema, 220, seed=29)
    reference = NaiveReevaluation(query, schema)
    reference.apply_all(stream)
    rng = random.Random(31)
    for backend in ("interpreted", "generated"):
        engine = RecursiveIVM(query, schema, backend=backend)
        position = 0
        while position < len(stream):
            size = rng.randint(1, 30)
            engine.apply_batch(stream[position : position + size])
            position += size
        assert engine.result() == reference.result(), backend


@pytest.mark.parametrize("text,schema", NESTED_QUERIES[:3], ids=[t for t, _ in NESTED_QUERIES[:3]])
def test_nested_bootstrap_from_populated_database(text, schema):
    query = parse(text)
    db = Database(schema=schema)
    for update in mixed_stream(schema, 120, seed=41):
        db.apply(update)
    reference = NaiveReevaluation(query, schema)
    reference.bootstrap(db)
    for backend in ("interpreted", "generated"):
        engine = RecursiveIVM(query, schema, backend=backend)
        engine.bootstrap(db)
        assert engine.result() == reference.result(), backend
        follow_up = mixed_stream(schema, 80, seed=43)
        clone = NaiveReevaluation(query, schema)
        clone.bootstrap(db)
        for update in follow_up:
            engine.apply(update)
            clone.apply(update)
        assert engine.result() == clone.result(), backend


def test_nested_change_capture_replays_to_result():
    query = parse(HAVING_STYLE)
    for backend in ("interpreted", "generated"):
        engine = RecursiveIVM(query, GROUPED_SCHEMA, backend=backend)
        state = {}

        def replay(changes, state=state):
            for key, value in changes.items():
                total = state.get(key, 0) + value
                if total == 0:
                    state.pop(key, None)
                else:
                    state[key] = total

        engine.on_change(replay)
        for update in mixed_stream(GROUPED_SCHEMA, 200, seed=47):
            engine.apply(update)
        expected = {key: value for key, value in engine.runtime.result_map_contents().items()}
        assert state == expected, backend


def test_interpreted_runtime_statistics_count_recomputes():
    program = compile_query(parse(GLOBAL_TOTAL), GROUPED_SCHEMA, name="q")
    runtime = TriggerRuntime(program)
    runtime.apply(insert("R", 1, 2))
    assert runtime.statistics.statements_executed >= 3  # two folds + one recompute


def test_bootstrap_with_partially_bound_nested_reads():
    """Regression: mid-bootstrap evaluation must not consult the stale slice
    indexes — a map whose definition slice-reads an earlier map used to
    bootstrap empty."""
    schema = {"R": ("G", "X"), "S": ("G", "S", "Y")}
    query = parse("AggSum([g], R(g, x) * AggSum([g, s], S(g, s, y) * y))")
    db = Database(schema=schema)
    for row in [("R", 1, 10), ("R", 1, 20), ("R", 2, 5),
                ("S", 1, 7, 3), ("S", 1, 8, 4), ("S", 2, 7, 5)]:
        db.apply(insert(*row))
    reference = NaiveReevaluation(query, schema)
    reference.bootstrap(db)
    assert reference.result() == {(1,): 14, (2,): 5}
    for backend in ("interpreted", "generated"):
        engine = RecursiveIVM(query, schema, backend=backend)
        engine.bootstrap(db)
        assert engine.result() == reference.result(), backend


def test_closed_form_statements_bind_keys_before_nested_map_reads():
    """Trigger-argument equalities become assignments *before* the map read,
    so the generated code slices the nested map through the index instead of
    scanning it with a post-hoc filter."""
    schema = {"R": ("G", "X"), "S": ("G", "S", "Y")}
    query = parse("AggSum([g], R(g, x) * AggSum([g, s], S(g, s, y) * y))")
    engine = RecursiveIVM(query, schema, backend="generated")
    r_trigger = engine.generated_source().split("def on_insert_R")[1].split("def ")[0]
    assert ".items()" not in r_trigger
    assert "_IDX[" in r_trigger


# ---------------------------------------------------------------------------
# Structural guard (counts, no timing): HAVING never evaluates per group
# ---------------------------------------------------------------------------


def test_having_batch_recomputes_by_lookup_only(monkeypatch):
    """At ~5k rows a 200-update batch over a HAVING view re-tests its guard
    with lookups at the changed group keys: ``_run_recompute`` never calls
    the generic evaluator, and no map is keyed by all of ``P``'s columns (the
    base copy a rescanning recompute would read)."""
    schema = {"P": ("community", "post", "score")}
    session = Session(schema)
    view = session.view(
        "hot",
        "SELECT p.community, SUM(p.score) FROM P p GROUP BY p.community "
        "HAVING SUM(p.score) > 1000",
        backend="interpreted",
    )
    rng = random.Random(9)
    rows = [(rng.randrange(200), post, rng.randrange(100)) for post in range(5_000)]
    session.apply_batch([insert("P", *row) for row in rows])
    runtime = session._groups["interpreted"].runtime
    assert all(definition.arity < 3 for definition in runtime.program.maps.values())
    assert session.total_map_entries() < 500  # two maps of <= 200 groups

    recomputes, evaluations = [], []
    run_recompute = TriggerRuntime._run_recompute

    def tracking(self, *arguments, **keywords):
        recomputes.append(len(evaluations))
        run_recompute(self, *arguments, **keywords)
        recomputes[-1] = len(evaluations) - recomputes[-1]

    def counting(*arguments, **keywords):
        evaluations.append(1)
        return evaluate(*arguments, **keywords)

    monkeypatch.setattr(TriggerRuntime, "_run_recompute", tracking)
    monkeypatch.setattr("repro.compiler.runtime.evaluate", counting)
    batch = [delete("P", *rows.pop(rng.randrange(len(rows)))) for _ in range(80)]
    fresh = [(rng.randrange(200), 5_000 + post, rng.randrange(100)) for post in range(120)]
    batch += [insert("P", *row) for row in fresh]
    session.apply_batch(batch)
    assert recomputes and not any(recomputes), recomputes

    totals = {}
    for community, _post, score in rows + fresh:
        totals[community] = totals.get(community, 0) + score
    assert view.result() == {(c,): total for c, total in totals.items() if total > 1000}
