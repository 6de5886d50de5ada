"""The support tier: lowered plans, indexed exhaustion recovery, bounded folds.

Three claims, each against an oracle that does not share code with the tier:

* :meth:`SupportPlan.lower` — the closure that replaced the per-row
  interpreters — equals :func:`repro.core.semantics.evaluate` of the map
  definition on the one-row database;
* :meth:`SupportStructure.value` — which stops folding once ``needed`` is
  covered — equals the fold of *all* live contributions whenever the structure
  does not report ``exhausted``;
* exhaustion recovery reads the exhausted group's rows and nothing else,
  *counted* (not timed) at two relation sizes, on both executors.
"""

from __future__ import annotations

import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.lattices import SupportStructure, SupportTier, direct_shape_plan
from repro.algebra.semirings import resolve_semiring
from repro.compiler.compile import compile_query
from repro.compiler.indexes import compute_index_specs
from repro.compiler.verify import iter_violations
from repro.core.ast import Add, AggSum, Compare, Const, Mul, Rel, Var
from repro.core.parser import parse
from repro.core.semantics import evaluate
from repro.gmr.database import Database, delete, insert
from repro.session import Session

RINGS = ("min-plus", "max-plus", "top3")
COLUMNS = ("a", "b", "c")

# ---------------------------------------------------------------------------
# The lowered closure against the evaluator
# ---------------------------------------------------------------------------

variables = st.sampled_from(COLUMNS).map(Var)
constants = st.integers(min_value=0, max_value=4).map(Const)
atoms = st.one_of(variables, constants)
#: Data expressions: what a comparison operand or a value factor may be.
data_expressions = st.one_of(
    atoms,
    st.tuples(atoms, atoms).map(Add),
    st.tuples(atoms, atoms).map(Mul),
    st.tuples(variables, st.tuples(atoms, atoms).map(Add)).map(Mul),
)
conditions = st.builds(
    Compare, data_expressions, st.sampled_from(("=", "!=", "<", "<=", ">", ">=")), data_expressions
)


@settings(max_examples=300, deadline=None)
@given(
    ring_name=st.sampled_from(RINGS),
    key_vars=st.lists(st.sampled_from(COLUMNS), unique=True, max_size=3).map(tuple),
    guards=st.lists(conditions, max_size=2),
    values=st.lists(data_expressions, max_size=3),
    row=st.tuples(*[st.integers(min_value=0, max_value=4)] * 3),
)
def test_lowered_plan_equals_evaluate_on_the_one_row_database(
    ring_name, key_vars, guards, values, row
):
    ring = resolve_semiring(ring_name)
    definition = AggSum(key_vars, Mul((Rel("R", COLUMNS), *guards, *values)))
    plan = direct_shape_plan("m", key_vars, definition)
    assert plan is not None
    group, contribution = plan.lower(ring)(row)

    database = Database(schema={"R": COLUMNS}, ring=ring)
    database.apply_all([insert("R", *row)])
    expected = {
        record.values_for(key_vars): value
        for record, value in evaluate(definition, database).items()
        if not ring.is_zero(value)
    }
    assert group == tuple(row[COLUMNS.index(var)] for var in key_vars)
    if contribution is None:
        assert expected == {}
    else:
        assert expected == {group: contribution}


# ---------------------------------------------------------------------------
# The bounded fold against the fold of everything alive
# ---------------------------------------------------------------------------


def contribution_domain(ring_name):
    """More distinct contributions than any capacity (8 / 11); for top-3 also
    multi-score contributions that *tie* on the sort key with a plain one."""
    ring = resolve_semiring(ring_name)
    domain = [ring.coerce(float(score)) for score in range(14)]
    if ring_name == "top3":
        domain += [ring.coerce((float(score), float(score) - 0.5)) for score in (3, 9, 10, 11)]
    return ring, domain


@settings(max_examples=300, deadline=None)
@given(
    ring_name=st.sampled_from(RINGS),
    steps=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=17), st.integers(1, 3)),
        max_size=60,
    ),
)
def test_value_equals_the_fold_of_all_live_contributions_unless_exhausted(ring_name, steps):
    ring, domain = contribution_domain(ring_name)
    support = SupportStructure(ring)
    live: Counter = Counter()
    for removing, choice, count in steps:
        if removing and live:
            value = sorted(live)[choice % len(live)]
            count = min(count, live[value])
            support.remove(value, count)
            live[value] -= count
            if not live[value]:
                del live[value]
        else:
            value = domain[choice % len(domain)]
            support.insert(value, count)
            live[value] += count
        if support.exhausted:
            support.reload(list(live.items()))
            assert not support.exhausted
        truth = ring.sum(ring.mul(ring.from_int(count), value) for value, count in live.items())
        assert support.value(ring) == truth
        assert support.empty == (not live)


def test_value_reads_only_the_entries_that_cover_needed():
    """1 entry for MIN, k (plus sort-key ties) for top-k — not ``capacity``."""
    for ring_name, scores, expected_reads in (
        ("min-plus", [5.0, 6.0, 7.0, 8.0], 1),
        ("top3", [9.0, 8.0, 7.0, 6.0, 5.0], 3),
    ):
        ring = resolve_semiring(ring_name)
        support = SupportStructure(ring)
        for score in scores:
            support.insert(ring.coerce(score))
        adds = []
        counting = SimpleNamespace(
            zero=ring.zero,
            mul=ring.mul,
            from_int=ring.from_int,
            add=lambda left, right: adds.append(right) or ring.add(left, right),
        )
        assert support.value(counting) == support.value(ring)
        # The first entry starts the fold; every further one costs an add.
        assert len(adds) == expected_reads - 1, ring_name


# ---------------------------------------------------------------------------
# Recovery reads the group, not the relation — by count
# ---------------------------------------------------------------------------

POSTS_SCHEMA = {"P": ("community", "post", "score")}
VIEWS = {
    "min-plus": "SELECT p.community, MIN(p.score) FROM P p GROUP BY p.community",
    "top3": "SELECT p.community, TOPK(3, p.score) FROM P p GROUP BY p.community",
}
GROUP_ROWS = 12


def hot_group(ring, name):
    """``GROUP_ROWS`` distinct scores in one group (more than the support
    keeps), and the deletions of its best ones that run the support dry."""
    rows = [insert("P", name, post, float(post)) for post in range(GROUP_ROWS)]
    best_first = sorted(rows, key=lambda update: ring.sort_key(ring.coerce(update.values[2])))
    doomed = best_first[: ring.support_capacity - ring.support_needed + 1]
    survivors = [update.values for update in best_first[len(doomed):]]
    return rows, [delete("P", *update.values) for update in doomed], survivors


def filler(count, start=0):
    """``count`` rows spread over other groups of 20."""
    return [
        insert("P", f"cold{index // 20}", index, float(index % 50))
        for index in range(start, start + count)
    ]


def count_recovery_reads(runtime):
    """Wrap the runtime's counter-map reader; returns the list it logs
    ``(positions, prefix, rows)`` into."""
    reads = []
    real = runtime._counter_rows

    def counting(relation, positions=(), prefix=()):
        rows = list(real(relation, positions, prefix))
        reads.append((positions, prefix, sorted(row for row, _count in rows)))
        return rows

    runtime._counter_rows = counting
    return reads


@pytest.mark.parametrize("shards", [1], ids=["unsharded"])
@pytest.mark.parametrize("backend", ["interpreted", "generated"])
@pytest.mark.parametrize("ring_name", ["min-plus", "top3"])
def test_exhaustion_recovery_reads_the_group_whatever_the_relation_holds(
    ring_name, backend, shards
):
    ring = resolve_semiring(ring_name)
    with Session(POSTS_SCHEMA, ring=ring, shards=shards) as session:
        view = session.view("best", VIEWS[ring_name], backend=backend)
        runtime = session._groups[backend].runtime
        assert runtime.plan.index_specs == {"best_m1": ((0,),)}
        reads = count_recovery_reads(runtime)
        loaded = 0
        for name, relation_size in (("hot1", 500), ("hot2", 50_000)):
            rows, deletions, survivors = hot_group(ring, name)
            session.apply_batch(rows + filler(relation_size - loaded, loaded))
            loaded = relation_size
            del reads[:]
            session.apply_batch(deletions)
            # One read: the exhausted group's bucket — its surviving rows.
            assert reads == [((0,), (name,), sorted(survivors))], (name, relation_size)
            expected = ring.sum(ring.coerce(values[2]) for values in survivors)
            assert view.result()[(name,)] == expected


@pytest.mark.parametrize("backend", ["interpreted", "generated"])
def test_a_plan_without_group_key_recovers_by_scan(backend):
    ring = resolve_semiring("min-plus")
    with Session(POSTS_SCHEMA, ring=ring) as session:
        view = session.view("lowest", "SELECT MIN(p.score) FROM P p", backend=backend)
        runtime = session._groups[backend].runtime
        assert runtime.plan.index_specs == {}
        assert "[maint:support-structure recover:scan]" in session.explain()
        rows, deletions, survivors = hot_group(ring, "only")
        session.apply_batch(rows)
        reads = count_recovery_reads(runtime)
        session.apply_batch(deletions)
        assert reads == [((), (), sorted(survivors))]
        assert view.result() == min(values[2] for values in survivors)


def test_recovery_permutes_a_group_key_that_is_not_in_column_order():
    """``key_positions`` (1, 0): the slice index is kept at the sorted
    signature (0, 1), so the group tuple is reordered into the prefix."""
    ring = resolve_semiring("min-plus")
    with Session(POSTS_SCHEMA, ring=ring) as session:
        view = session.view("lowest", "AggSum([p, c], P(c, p, s) * s)", backend="interpreted")
        runtime = session._groups["interpreted"].runtime
        plan = runtime.program.maintenance.supports["lowest"]
        assert (plan.key_positions, plan.slice_positions) == ((1, 0), (0, 1))
        assert "[maint:support-structure recover:index(0,1)]" in session.explain()
        scores = [float(score) for score in range(GROUP_ROWS)]
        session.apply_batch([insert("P", "c", 7, score) for score in scores])
        session.apply_batch([insert("P", 7, "c", 0.0), insert("P", "d", 7, 0.0)])
        reads = count_recovery_reads(runtime)
        session.apply_batch([delete("P", "c", 7, score) for score in scores[:8]])
        assert reads == [((0, 1), ("c", 7), [("c", 7, score) for score in scores[8:]])]
        assert view.result()[(7, "c")] == 8.0


def test_a_full_group_key_recovers_by_lookup():
    """The group key is the whole row: nothing to slice, one ``get``."""
    ring = resolve_semiring("min-plus")
    definition = parse("AggSum([g, s], R(g, s) * s)")
    plan = direct_shape_plan("m", ("g", "s"), definition)
    assert plan.recovery == "lookup"
    tier = SupportTier(ring, {"m": plan})
    reads = []

    def counter_rows(relation, positions=(), prefix=()):
        reads.append((relation, positions, prefix))
        return [(("x", 2.0), 1)]

    # A deletion the support never saw an insert for: it cannot vouch for the
    # group and reloads it.
    changes = tier.collect([("R", ("x", 2.0), -1, 1)], counter_rows)
    assert reads == [("R", (0, 1), ("x", 2.0))]
    assert changes == {"m": {("x", 2.0): 2.0}}


# ---------------------------------------------------------------------------
# The recovery read is an index requirement like any other
# ---------------------------------------------------------------------------


def test_support_recovery_is_a_reported_slice_read():
    ring = resolve_semiring("top3")
    program = compile_query(
        parse("AggSum([c], P(c, p, s) * s)"), POSTS_SCHEMA, name="top", ring=ring
    )
    counter = program.maintenance.relation_counters["P"]
    assert compute_index_specs(program) == {counter: ((0,),)}
    assert iter_violations(program) == []
    uncovered = [v for v in iter_violations(program, index_specs={}) if v.kind == "uncovered-slice"]
    assert len(uncovered) == 1
    assert "support of top[c] recovers from P by index(0)" in uncovered[0].context
    assert "[maint:support-structure recover:index(0)]" in program.explain()


def test_ring_programs_report_no_support_reads():
    program = compile_query(parse("AggSum([c], P(c, p, s) * s)"), POSTS_SCHEMA, name="total")
    assert program.maintenance is None
    assert compute_index_specs(program) == {}


# ---------------------------------------------------------------------------
# Feeding grouped: one journal record per map, structures restored exactly
# ---------------------------------------------------------------------------


def test_collect_journals_each_touched_structure_once():
    from repro.compiler.kernels import UndoJournal

    ring = resolve_semiring("min-plus")
    plan = direct_shape_plan("m", ("g",), parse("AggSum([g], R(g, s) * s)"))
    tier = SupportTier(ring, {"m": plan})
    tier.collect([("R", ("a", 3.0), 1, 1), ("R", ("b", 4.0), 1, 2)], None)
    before = tier.serialize()
    journal = UndoJournal()
    rng = random.Random(3)
    updates = [("R", (rng.choice("abc"), float(rng.randrange(6))), 1, 1) for _ in range(40)]
    tier.collect(updates, None, journal)
    assert [(name, sorted(keys)) for _table, name, _specs, keys, _priors in journal.records] == [
        ("m", [("a",), ("b",), ("c",)])
    ]
    assert tier.serialize() != before
    journal.rollback(None)
    assert tier.serialize() == before
