"""A statement carries its decoded normal form: one binding order, one annotation.

Every ``BatchStatement`` / ``RecomputeStatement`` decodes its right-hand side
once into ``monomials`` — the eager safety order under the bindings it starts
with, each map read annotated with the key positions bound when it runs — and
index specs, row reads, cost labels, the verifier and the code generator read
that annotation instead of replaying the order.  These tests pin the decode
on every lint target, the dashboard and every example session, and pin the
artifacts that must not move when the consumers switch to it: index specs
and the emitted dashboard and hotkey modules, byte for byte.
"""

import hashlib
import sys

import pytest

from repro.analysis.ir_lint import _lint_targets
from repro.compiler.codegen import generate_python
from repro.compiler.compile import compile_query
from repro.compiler.cost import statement_cost_class
from repro.compiler.indexes import compute_index_specs
from repro.compiler.plan import lower_batch_plan
from repro.compiler.runtime import TriggerRuntime
from repro.compiler.triggers import BatchStatement
from repro.compiler.verify import iter_violations
from repro.core.ast import Assign, MapRef
from repro.core.normalization import to_polynomial
from repro.core.simplify import order_for_safety
from repro.gmr.database import group_updates, insert
from repro.session import Session
from repro.sql.frontend import sql_to_agca

SALES = {
    "Customer": ("ck", "nation"),
    "Orders": ("ok", "ck"),
    "Lineitem": ("ok2", "price", "qty"),
    "Probe": ("pid",),
}
_JOIN = "FROM Customer c, Orders o, Lineitem l WHERE c.ck = o.ck AND o.ok = l.ok2"
#: The e2e benchmark's generated sessions: the four-view dashboard plus the
#: probe, and the 16-key hotkey program.
SESSIONS = {
    "dashboard": (SALES, (
        ("revenue", f"SELECT c.nation, SUM(l.price * l.qty) {_JOIN} GROUP BY c.nation"),
        ("revenue_by_customer", f"SELECT c.ck, SUM(l.price * l.qty) {_JOIN} GROUP BY c.ck"),
        ("orders", "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck"),
        ("total_revenue", f"SELECT SUM(l.price * l.qty) {_JOIN}"),
        ("probe_seen", "SELECT p.pid, SUM(1) FROM Probe p GROUP BY p.pid"),
    )),
    "hotkey": ({"R": ("a", "b"), "Probe": ("pid",)}, (
        ("total", "SELECT SUM(r.b) FROM R r"),
        ("by_a", "SELECT r.a, SUM(r.b) FROM R r GROUP BY r.a"),
        ("probe_seen", "SELECT p.pid, SUM(1) FROM Probe p GROUP BY p.pid"),
    )),
}

#: ``(sha256, lines)`` of the emitted modules (stable across
#: ``PYTHONHASHSEED``).
MODULE_GOLDENS = {
    "dashboard": ("ead539aa289936d2390f041a3eaac0f8680fe09d3f10b6b055fbeb9984384342", 468),
    "hotkey": ("990f684cd42b837a43c045901b4d571d9478ec24378fd59498061e4cac1af54e", 89),
}

#: Index specs of every program, recorded before the consumers read the
#: annotation: lint targets by name, sessions as above, example sessions as
#: ``(script, index of the session it created)``.
SPEC_GOLDENS = {
    "busy_stores": {},
    "chain_count_3": {"chain_count_3_m5": ((0,), (1,))},
    "count_r": {},
    "hot_communities": {},
    "join_sum_product": {"join_sum_product_m5": ((0,), (1,))},
    "order_count_per_customer": {},
    "quickstart_selfjoin": {},
    "revenue_per_nation": {
        "revenue_per_nation_m2": ((1,),),
        "revenue_per_nation_m3": ((1,),),
        "revenue_per_nation_m5": ((0,), (1,)),
    },
    "sales_orders": {},
    "sales_revenue": {
        "sales_revenue_m2": ((1,),), "sales_revenue_m3": ((1,),), "sales_revenue_m5": ((0,), (1,)),
    },
    "sales_revenue_by_customer": {"sales_revenue_by_customer_m3": ((1,),)},
    "sales_total_revenue": {"sales_total_revenue_m5": ((0,), (1,))},
    "same_nation_per_customer": {"same_nation_per_customer_m2": ((1,),)},
    "selfjoin_count": {},
    "social_min_score": {"social_min_score_m1": ((0,),)},
    "social_same_nation": {"social_same_nation_m2": ((1,),)},
    "social_top3_posts": {"social_top3_posts_m1": ((0,),)},
    "sum_values": {},
    "two_way_inequality": {"two_way_inequality_m1": ((1,),), "two_way_inequality_m2": ((1,),)},
    "dashboard": {"revenue_m2": ((1,),), "revenue_m3": ((1,),), "revenue_m5": ((0,), (1,))},
    "hotkey": {},
    ("quickstart.py", 0): {},
    ("quickstart.py", 1): {},
    ("sales_dashboard.py", 0): {
        "revenue_m2": ((1,),), "revenue_m3": ((1,),), "revenue_m5": ((0,), (1,)),
    },
    ("social_analytics.py", 0): {"top_posts_m1": ((0,),)},
    ("social_analytics.py", 1): {"lowest_score_m1": ((0,),)},
    ("social_analytics.py", 2): {"highest_score_m1": ((0,),)},
    ("social_analytics.py", 3): {"same_nation_m2": ((1,),)},
    ("streaming_ingest.py", 0): {},
    ("streaming_ingest.py", 1): {},
}
EXAMPLE_SCRIPTS = sorted({key[0] for key in SPEC_GOLDENS if isinstance(key, tuple)})
LINT_TARGETS = {name: (aggregate, schema, ring) for name, aggregate, schema, ring in _lint_targets()}


def _session(name):
    schema, views = SESSIONS[name]
    session = Session(schema)
    for view, sql in views:
        session.view(view, sql)
    return session


def _lint_program(name):
    aggregate, schema, ring = LINT_TARGETS[name]
    return compile_query(aggregate, schema, name=name, ring=ring)


def _statements(program):
    for trigger in program.triggers.values():
        yield from trigger.statements
        yield from trigger.recomputes


def _programs(run_example):
    """``(key, program)`` for every lint target, session and example session."""
    for name in LINT_TARGETS:
        yield name, _lint_program(name)
    for name in SESSIONS:
        yield name, _session(name)._groups["generated"].catalog.program()
    for script in EXAMPLE_SCRIPTS:
        for index, session in enumerate(run_example(script)[1]):
            for group in session._groups.values():
                yield (script, index), group.catalog.program()


def test_the_corpus_is_the_recorded_one(run_example):
    assert len(LINT_TARGETS) == 19
    keys = [key for key, _program in _programs(run_example)]
    assert len(keys) == len(set(keys)) == len(SPEC_GOLDENS)
    assert set(keys) == set(SPEC_GOLDENS)


# ---------------------------------------------------------------------------
# The decode: the eager safety order, annotated
# ---------------------------------------------------------------------------


def _initially_bound(statement):
    if isinstance(statement, BatchStatement):
        return ()
    return statement.target_keys if statement.tracked else ()


def test_monomials_are_the_eager_safety_order_of_the_body(run_example):
    checked = 0
    for key, program in _programs(run_example):
        for statement in _statements(program):
            body = statement.rhs if isinstance(statement, BatchStatement) else statement.body
            bound = _initially_bound(statement)
            decoded = [(m.coefficient, m.factors) for m in statement.monomials]
            expected = [
                (m.coefficient, order_for_safety(m.factors, bound, eager_assignments=True))
                for m in to_polynomial(body)
            ]
            assert decoded == expected, (key, statement.describe())
            if isinstance(statement, BatchStatement):
                # A stored batch right-hand side is already in that order.
                evaluated = statement.rhs
            else:
                # The interpreted executor re-evaluates the decoded order.
                evaluated = statement.as_aggregate().expr
            assert [(m.coefficient, m.factors) for m in to_polynomial(evaluated)] == decoded, key
            checked += 1
    assert checked > 250


def test_each_read_is_annotated_with_the_positions_bound_when_it_runs(run_example):
    for key, program in _programs(run_example):
        for statement in _statements(program):
            for monomial in statement.monomials:
                bound = set(_initially_bound(statement))
                assert len(monomial.bound) == len(monomial.factors)
                for factor, positions in zip(monomial.factors, monomial.bound):
                    variables = (
                        factor.key_vars if isinstance(factor, MapRef)
                        else (factor.var,) if isinstance(factor, Assign)
                        else None
                    )
                    if variables is None:
                        assert positions is None, (key, factor)
                        continue
                    assert positions == tuple(
                        i for i, name in enumerate(variables) if name in bound
                    ), (key, statement.describe(), factor)
                    bound.update(variables)


def test_a_statement_decodes_once_and_the_catalog_keeps_it():
    session = Session(SALES)
    session.view("orders", "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck")
    group = session._groups["generated"]
    before = list(_statements(group.catalog.program()))
    assert all(s.monomials is s.monomials for s in before)
    for view, sql in SESSIONS["dashboard"][1]:
        if view != "orders":
            session.view(view, sql)
    after = {id(s): s for s in _statements(group.catalog.program())}
    # Rebuilding for later views reuses the statement objects, and with them
    # their decode.
    for statement in before:
        assert after[id(statement)] is statement
        assert "monomials" in vars(statement)


def _profiled_calls(functions, action):
    """How often ``functions`` ran during ``action()`` (however imported)."""
    codes = {function.__code__: function.__name__ for function in functions}
    calls = dict.fromkeys(codes.values(), 0)

    def profiler(frame, event, _arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        action()
    finally:
        sys.setprofile(previous)
    return calls


def test_no_consumer_replays_the_order():
    program = _session("dashboard")._groups["generated"].catalog.program()
    for statement in _statements(program):
        statement.monomials  # noqa: B018 — decode up front

    def consume():
        compute_index_specs(program)
        plan = lower_batch_plan(program)
        for event in plan.events:
            event.reads  # noqa: B018
            for statement in event.trigger.statements:
                statement_cost_class(statement, plan.index_specs)
        program.explain()
        assert not iter_violations(program)
        generate_python(program)
        TriggerRuntime(program)

    calls = _profiled_calls((order_for_safety, to_polynomial), consume)
    assert calls == {"order_for_safety": 0, "to_polynomial": 0}


# ---------------------------------------------------------------------------
# What must not move: index specs and the emitted modules
# ---------------------------------------------------------------------------


def test_index_specs_equal_the_recorded_goldens(run_example):
    for key, program in _programs(run_example):
        assert compute_index_specs(program) == SPEC_GOLDENS[key], key


@pytest.mark.parametrize("name", sorted(MODULE_GOLDENS))
def test_emitted_modules_are_byte_identical(name):
    source = _session(name)._groups["generated"].generated.source
    digest = hashlib.sha256(source.encode()).hexdigest()
    assert (digest, len(source.splitlines())) == MODULE_GOLDENS[name]


# ---------------------------------------------------------------------------
# The within-batch self-join on a key subset: O(|Δ|²), not O(|Δ| keys)
# ---------------------------------------------------------------------------

PAIRS_SCHEMA = {"R": ("a", "b")}
PAIRS = "SELECT SUM(1) FROM R r1, R r2 WHERE r1.a = r2.b"


def test_a_partially_bound_second_delta_read_is_labelled_quadratic():
    program = compile_query(sql_to_agca(PAIRS, PAIRS_SCHEMA), PAIRS_SCHEMA, name="pairs")
    plan = lower_batch_plan(program)
    for event in plan.events:
        (result,) = [s for s in event.trigger.statements if s.target == "pairs"]
        # The ∆R·∆R term reads the delta again with one key bound: a scan of
        # ∆R per row, which the row reads already count.
        assert any(
            reference.name == event.trigger.delta_map and len(positions) == 1
            for monomial in result.monomials[:1]
            for reference, positions in monomial.reads()[1:]
        )
        assert statement_cost_class(result, plan.index_specs) == "O(|Δ|²)"
        assert event.reads.scans == 2
    explain = program.explain()
    assert explain.count("-- O(|Δ|²)") == 2
    assert "-- 2 scans of Δ" in explain


def test_the_quadratic_term_still_computes_the_pairs():
    program = compile_query(sql_to_agca(PAIRS, PAIRS_SCHEMA), PAIRS_SCHEMA, name="pairs")
    rows = [(i % 7, (3 * i) % 7) for i in range(40)]
    runtime = TriggerRuntime(program)
    runtime.apply_batch(group_updates([insert("R", *row) for row in rows]))
    assert runtime.result() == sum(1 for a, _b in rows for _a2, b2 in rows if a == b2)


# ---------------------------------------------------------------------------
# The verifier collects its reads once
# ---------------------------------------------------------------------------


def test_the_verifier_walks_the_reads_once(monkeypatch):
    import repro.compiler.indexes as indexes

    program = _lint_program("revenue_per_nation")
    walks = []
    original = indexes.iter_partial_reads

    def counting(target):
        walks.append(target)
        return original(target)

    monkeypatch.setattr(indexes, "iter_partial_reads", counting)
    assert iter_violations(program) == []
    assert len(walks) == 1
    # A runtime's own specs are still checked read by read.
    uncovered = [v for v in iter_violations(program, index_specs={}) if v.kind == "uncovered-slice"]
    assert len(uncovered) == len(list(original(program))) > 0
