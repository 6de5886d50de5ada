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

import ast
import hashlib
import itertools
import sys
from pathlib import Path

import pytest

import repro.session
from repro.algebra.semirings import resolve_semiring
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
    "dashboard": ("b6e585bede604fd634eab9586fd025ee915bd94ad3061189f9f42a1c26c92768", 236),
    "hotkey": ("6a47160af47e10e6fde0cb12954e42372524e97e748197db44e8c700a6435a90", 47),
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


def _semiring_programs():
    """``(key, program)`` of semiring sessions, which keep a trigger per sign:
    the dashboard's four non-probe views under min-plus and top-3 (a bare
    count has no semiring view) and the min-plus pair."""
    for ring_name in ("min-plus", "top3"):
        session = Session(SALES, ring=resolve_semiring(ring_name))
        for view, sql in SESSIONS["dashboard"][1][:4]:
            session.view(view, sql)
        yield f"dashboard:{ring_name}", session._groups["generated"].catalog.program()
    session = Session(SALES, ring=resolve_semiring("min-plus"))
    for view, sql in MINPLUS_PAIR:
        session.view(view, sql)
    yield "minplus_pair", session._groups["generated"].catalog.program()


def test_monomials_are_the_eager_safety_order_of_the_body(run_example):
    checked = 0
    for key, program in itertools.chain(_programs(run_example), _semiring_programs()):
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
    # One signed trigger: one quadratic statement (a semiring's would be two).
    assert [event.event for event in plan.events] == [("R", 1)]
    explain = program.explain()
    assert explain.count("-- O(|Δ|²)") == 1
    assert "ON BATCH ±R AS __delta__R:  -- 2 scans of Δ" in explain


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


# ---------------------------------------------------------------------------
# What must not move: map names and sharing (one registry, names at birth)
# ---------------------------------------------------------------------------

#: A min-plus pair: the second view shares the first one's counter maps
#: (``cheapest_m7``..``m9``) and reads its Orders copy keyed ``(ck, ok)``,
#: ``cheapest_m6`` (under a semiring a transpose is stored apart).
MINPLUS_PAIR = (
    ("cheapest", f"SELECT c.nation, MIN(l.price) {_JOIN} GROUP BY c.nation"),
    ("cheapest_by_customer", f"SELECT c.ck, MIN(l.price) {_JOIN} GROUP BY c.ck"),
)


def _report(views, deduplicated, statements, transposed):
    return {
        "views": views, "maps_deduplicated": deduplicated,
        "statements_deduplicated": statements, "maps_transposed": transposed,
    }


#: Per session and example session: the catalog's map names in order, its
#: ``sharing_report()`` (``maps`` is the name count) and the sha256 of
#: ``catalog.program().explain()`` — recorded while the catalog still renamed
#: each isolated compile into its names.
CATALOG_GOLDENS = {
    "dashboard": (
        ("revenue", "revenue_m1", "revenue_m2", "revenue_m3", "revenue_m4", "revenue_m5",
         "revenue_by_customer", "revenue_by_customer_m2", "orders", "orders_m1", "total_revenue",
         "total_revenue_m2", "probe_seen"),
        _report(5, 8, 10, 1),
        "2bde8c39279eb35f6e9fd30b9a99bf76f5e8976e6ad297205f32aeee82578684",
    ),
    "hotkey": (
        ("total", "by_a", "probe_seen"),
        _report(3, 0, 0, 0),
        "f4bd816bfd2f7a85eca2840982456eabe2b5bb38355c1b1e2344ff0ebbc72290",
    ),
    ("quickstart.py", 0): (
        ("selfjoin", "selfjoin_m1", "count"),
        _report(2, 0, 0, 0),
        "af11eb3c86ba89daf3939d4834bb1184dbc43ea75a5293c02743b523dc53e040",
    ),
    ("quickstart.py", 1): (
        ("selfjoin", "selfjoin_m1", "count"),
        _report(2, 0, 0, 0),
        "af11eb3c86ba89daf3939d4834bb1184dbc43ea75a5293c02743b523dc53e040",
    ),
    ("sales_dashboard.py", 0): (
        ("revenue", "revenue_m1", "revenue_m2", "revenue_m3", "revenue_m4", "revenue_m5",
         "revenue_by_customer", "revenue_by_customer_m2", "orders", "orders_m1", "total_revenue",
         "total_revenue_m2"),
        _report(4, 8, 10, 1),
        "735bd30b0f52b0c0e3753388a17457f94c9c4a4ec036c3dc17c897c9d3efdb36",
    ),
    ("social_analytics.py", 0): (
        ("top_posts", "top_posts_m1"),
        _report(1, 0, 0, 0),
        "f86d6bb6fc95c935ef432312065d331cfdc16cfbae874e9e07188ca2d5d55138",
    ),
    ("social_analytics.py", 1): (
        ("lowest_score", "lowest_score_m1"),
        _report(1, 0, 0, 0),
        "2b0a9b8af5f9805103b5a1ce2d008e9da36a02bfa223c3a20fa80ae50a6078d6",
    ),
    ("social_analytics.py", 2): (
        ("highest_score", "highest_score_m1"),
        _report(1, 0, 0, 0),
        "3e5d12e1310aa7db051a9110f9a2d22a8eb6f5947a35d30117497a576e15cf77",
    ),
    ("social_analytics.py", 3): (
        ("same_nation", "same_nation_m1", "same_nation_m2"),
        _report(1, 0, 0, 0),
        "7413b6bdb96b8f16ab393a847d413f0a8ab6a90b4cbc89cf7b9a01d3ddfc0815",
    ),
    ("streaming_ingest.py", 0): (
        ("revenue", "order_count"),
        _report(2, 0, 0, 0),
        "f8278b0eb3f94a6eb21e54a1aed6269c9254470b1eb5e3e8f27cdb3f4872be56",
    ),
    ("streaming_ingest.py", 1): (
        ("w_sum",),
        _report(1, 0, 0, 0),
        "efb37e72bacf5fbf2f50d934c5eb368824816e96a41fd0d2b728718236035c48",
    ),
    "minplus_pair": (
        ("cheapest", "cheapest_m1", "cheapest_m2", "cheapest_m3", "cheapest_m4", "cheapest_m7",
         "cheapest_m8", "cheapest_m9", "cheapest_m5", "cheapest_m6", "cheapest_by_customer",
         "cheapest_by_customer_m2"),
        _report(2, 7, 16, 0),
        "73407403d78b4138c44c041a6e59f11aca08fd486cf4438539e8f8814bc76587",
    ),
}


def _catalogs(run_example):
    """``(key, catalog)`` for every session, example session and the min-plus pair."""
    for name in SESSIONS:
        yield name, _session(name)._groups["generated"].catalog
    for script in EXAMPLE_SCRIPTS:
        for index, session in enumerate(run_example(script)[1]):
            for group in session._groups.values():
                yield (script, index), group.catalog
    session = Session(SALES, ring=resolve_semiring("min-plus"))
    for view, sql in MINPLUS_PAIR:
        session.view(view, sql)
    yield "minplus_pair", session._groups["generated"].catalog


def test_map_names_and_sharing_equal_the_recorded_goldens(run_example):
    keys = []
    for key, catalog in _catalogs(run_example):
        names, report, digest = CATALOG_GOLDENS[key]
        assert tuple(catalog.maps) == names, key
        assert catalog.sharing_report() == {**report, "maps": len(names)}, key
        explain = catalog.program().explain()
        assert hashlib.sha256(explain.encode()).hexdigest() == digest, key
        keys.append(key)
    assert sorted(map(str, keys)) == sorted(map(str, CATALOG_GOLDENS))


def test_the_min_plus_pair_shares_counters_and_reads_a_transposed_copy():
    session = Session(SALES, ring=resolve_semiring("min-plus"))
    for view, sql in MINPLUS_PAIR:
        session.view(view, sql)
    program = session._groups["generated"].catalog.program()
    assert sorted(program.maintenance.counter_maps) == [
        "cheapest_by_customer_m2", "cheapest_m7", "cheapest_m8", "cheapest_m9",
    ]
    reads = {
        (reference.name, positions)
        for trigger in program.triggers.values()
        for statement in trigger.statements
        if statement.target == "cheapest_by_customer"
        for monomial in statement.monomials
        for reference, positions in monomial.reads()
    }
    # The second view reads the first view's (ck, ok) copy, bound at ok.
    assert ("cheapest_m6", (1,)) in reads


def test_the_session_package_does_not_key_maps_itself():
    """One identity in one place: ``repro.session`` hands the compiler its
    catalog and never computes a sharing key or a read permutation."""
    package = Path(repro.session.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [node.id] if isinstance(node, ast.Name)
                else []
            )
            assert not {"sharing_key", "read_positions"} & set(names), path.name
