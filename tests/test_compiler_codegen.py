"""Tests for the generated straight-line Python triggers (the NC⁰C analogue)."""

import pytest

from repro.algebra.semirings import INTEGER_RING
from repro.compiler.codegen import generate_python
from repro.compiler.compile import compile_query
from repro.compiler.runtime import TriggerRuntime
from repro.core.ast import MapRef, Mul, Rel
from repro.core.delta import delta_map_name
from repro.core.errors import CompilationError
from repro.core.parser import parse
from repro.workloads.queries import CANONICAL_QUERIES
from repro.workloads.schemas import UNARY_SCHEMA
from repro.workloads.streams import StreamGenerator


def fresh_maps(program):
    return {name: {} for name in program.maps}


def test_generated_module_shape():
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    generated = generate_python(program)
    # One signed trigger per relation, run on a whole batch's delta map or on
    # a single update's one-row map, a deletion's count negated; the loop
    # over a Delta's relations and the row entry are a shared kernel, not
    # emitted text.
    assert "def batch_on_insert_R(maps, _delta, _IDX=None, _CH=None, _J=None):" in generated.source
    assert "BATCH_TRIGGERS = {\n    ('R', 1): batch_on_insert_R,\n}" in generated.source
    functions = [line for line in generated.source.splitlines() if line.startswith("def ")]
    assert len(functions) == 1
    # A proper semiring has no -1: its module keeps one trigger per sign.
    from repro.algebra.semirings import resolve_semiring

    min_plus = resolve_semiring("min-plus")
    semiring = generate_python(
        compile_query(parse("Sum(R(x) * x)"), UNARY_SCHEMA, name="q", ring=min_plus), ring=min_plus
    ).source
    assert [line[4 : line.index("(")] for line in semiring.splitlines() if line.startswith("def ")] == [
        "batch_on_insert_R", "batch_on_delete_R",
    ]
    assert "def apply" not in generated.source
    # The generated code never mentions joins, relations or the evaluator.
    assert "evaluate" not in generated.source
    assert "Rel(" not in generated.source
    # The default integer ring compiles to native arithmetic, not ring calls.
    assert "_RING" not in generated.source


#: (query text, schema, ring name): a ℤ program (a self-join: generic), a
#: float all-total program (Kahan-fused totals) and a min-plus program
#: (generic).
PLAN_PROGRAMS = [
    ("Sum(R(x) * R(y) * (x = y))", UNARY_SCHEMA, "Z"),
    ("Sum(R(x))", UNARY_SCHEMA, "R-float"),
    ("Sum(R(x) * x)", UNARY_SCHEMA, "min-plus"),
]


@pytest.mark.parametrize("text,schema,ring_name", PLAN_PROGRAMS, ids=[p[2] for p in PLAN_PROGRAMS])
def test_both_executors_decode_the_same_plan(text, schema, ring_name):
    """The generated module is printed from the plan the runtime walks, and
    contains only query-dependent code: the fold, index upkeep, recompute
    write-back and replay are not emitted text."""
    from repro.algebra.semirings import resolve_semiring
    from repro.compiler.plan import lower_batch_plan

    ring = resolve_semiring(ring_name)
    program = compile_query(parse(text), schema, name="q", ring=ring)
    generated = generate_python(program, ring=ring)
    runtime = TriggerRuntime(program, ring=ring)
    assert runtime.plan == generated.plan == lower_batch_plan(program, ring)
    assert generated.specializations == runtime.plan.specializations
    kinds = {event.kind for event in runtime.plan.events}
    assert kinds == {"Z": {"generic"}, "R-float": {"total"}, "min-plus": {"generic"}}[ring_name]
    assert runtime.plan.kahan == (ring_name == "R-float")
    for emitted in ("def _fold", "def _index_add", "def _rapply", "replay_", "REPLAY"):
        assert emitted not in generated.source, emitted


def test_generated_code_reproduces_example_1_2():
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    generated = generate_python(program)
    maps = fresh_maps(program)
    expected = [1, 4, 5, 10, 9, 16, 9]
    sequence = [("c", 1), ("c", 1), ("d", 1), ("c", 1), ("d", -1), ("c", 1), ("c", -1)]
    observed = []
    for value, sign in sequence:
        generated.apply(maps, "R", sign, (value,))
        observed.append(maps["q"].get((), 0))
    assert observed == expected


@pytest.mark.parametrize(
    "query", [q for q in CANONICAL_QUERIES], ids=[q.name for q in CANONICAL_QUERIES]
)
def test_generated_and_interpreted_triggers_agree(query):
    program = compile_query(query.expr, query.schema, name="q")
    generated = generate_python(program)
    interpreter = TriggerRuntime(program)
    maps = fresh_maps(program)
    stream = StreamGenerator(query.schema, seed=13, default_domain_size=6).generate(120)
    for update in stream:
        interpreter.apply(update)
        generated.apply(maps, update.relation, update.sign, update.values)
    for name in program.maps:
        assert maps[name] == interpreter.maps[name], name


def test_generated_code_handles_deferred_inequalities():
    schema = {"R": ("A", "B"), "S": ("C", "D")}
    query = parse("Sum(R(a, b) * S(c, d) * (b = c) * (a < d) * d)")
    program = compile_query(query, schema, name="q")
    generated = generate_python(program)
    interpreter = TriggerRuntime(program)
    maps = fresh_maps(program)
    stream = StreamGenerator(schema, seed=5, default_domain_size=5).generate(100)
    for update in stream:
        interpreter.apply(update)
        generated.apply(maps, update.relation, update.sign, update.values)
    assert maps["q"] == interpreter.maps["q"]


def test_generated_source_is_idempotent_per_program():
    program = compile_query(parse("Sum(R(x) * x)"), UNARY_SCHEMA)
    assert generate_python(program).source == generate_python(program).source


def test_codegen_rejects_base_relations_in_statements():
    from repro.compiler.maps import MapDefinition
    from repro.compiler.triggers import BatchStatement, BatchTrigger, TriggerProgram

    delta_map = delta_map_name("R")
    bogus = TriggerProgram(
        result_map="q",
        maps={"q": MapDefinition("q", (), parse("R(x)"))},
        triggers={
            ("R", 1): BatchTrigger(
                relation="R",
                sign=1,
                delta_map=delta_map,
                statements=(
                    BatchStatement(
                        "q", (), Mul((MapRef(delta_map, ("x",)), Rel("R", ("x",)))), delta_map
                    ),
                ),
            )
        },
        schema={"R": ("A",)},
    )
    with pytest.raises(CompilationError):
        generate_python(bogus)


def test_unknown_event_is_a_no_op():
    program = compile_query(parse("Sum(R(x))"), {"R": ("A",), "S": ("B",)}, name="q")
    generated = generate_python(program)
    maps = fresh_maps(program)
    generated.apply(maps, "S", 1, (1,))
    assert maps["q"] == {}


# ---------------------------------------------------------------------------
# Ring-generic code generation (regression: `ring` used to be silently ignored)
# ---------------------------------------------------------------------------


RING_TEST_QUERIES = [
    ("Sum(R(x) * R(y) * (x = y))", UNARY_SCHEMA),
    ("Sum(R(x) * x)", UNARY_SCHEMA),
    ("AggSum([a], R(a, b) * S(b, c) * c)", {"R": ("A", "B"), "S": ("C", "D")}),
]


@pytest.mark.parametrize("text,schema", RING_TEST_QUERIES, ids=[t for t, _ in RING_TEST_QUERIES])
def test_generated_backend_respects_fraction_ring(text, schema):
    from repro.algebra.semirings import RATIONAL_FIELD

    program = compile_query(parse(text), schema, name="q")
    generated = generate_python(program, ring=RATIONAL_FIELD)
    interpreter = TriggerRuntime(program, ring=RATIONAL_FIELD)
    maps = fresh_maps(program)
    stream = StreamGenerator(schema, seed=7, default_domain_size=5).generate(150)
    for update in stream:
        interpreter.apply(update)
        generated.apply(maps, update.relation, update.sign, update.values)
    for name in program.maps:
        assert maps[name] == dict(interpreter.maps[name]), name
    # The generic module routes arithmetic through the ring object.
    assert "_RING" in generated.source


def test_generated_backend_counts_ring_operations():
    """A CountingSemiring must not be short-circuited to native arithmetic."""
    from repro.compiler.cost import CountingSemiring

    counting = CountingSemiring()
    program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), UNARY_SCHEMA, name="q")
    generated = generate_python(program, ring=counting)
    maps = fresh_maps(program)
    generated.apply(maps, "R", 1, (3,))
    generated.apply(maps, "R", 1, (3,))
    assert counting.counter.total > 0


def test_generated_backend_rejects_proper_semirings():
    from repro.algebra.semirings import BOOLEAN_SEMIRING, MIN_PLUS, NATURAL_SEMIRING

    program = compile_query(parse("Sum(R(x))"), UNARY_SCHEMA, name="q")
    for semiring in (BOOLEAN_SEMIRING, NATURAL_SEMIRING, MIN_PLUS):
        with pytest.raises(CompilationError):
            generate_python(program, ring=semiring)


def test_recursive_engine_generated_backend_uses_ring():
    """End-to-end: RecursiveIVM(ring=Q, backend=generated) matches interpreted."""
    from fractions import Fraction

    from repro.algebra.semirings import RATIONAL_FIELD
    from repro.ivm.recursive import RecursiveIVM

    schema = {"R": ("A",)}
    query = parse("Sum(R(x) * x)")
    interpreted = RecursiveIVM(query, schema, ring=RATIONAL_FIELD, backend="interpreted")
    generated = RecursiveIVM(query, schema, ring=RATIONAL_FIELD, backend="generated")
    domain = [Fraction(1, 3), Fraction(2, 7), Fraction(5, 2)]
    generator = StreamGenerator(schema, domains={"A": domain}, seed=11)
    for update in generator.generate(120):
        interpreted.apply(update)
        generated.apply(update)
    expected = sum((value for (value,) in generator.live_tuples("R")), Fraction(0))
    assert interpreted.result() == expected
    assert generated.result() == expected


def test_recursive_engine_generated_backend_maintains_semirings():
    """Semirings flow through the generated backend: ring-compiling attaches
    the maintenance plan, which lowers deletions to integer counter updates
    plus tracked recomputes instead of (nonexistent) negated folds."""
    from repro.algebra.semirings import BOOLEAN_SEMIRING, MIN_PLUS
    from repro.ivm.recursive import RecursiveIVM

    schema = {"R": ("A",)}
    query = parse("Sum(R(x) * x)")
    interpreted = RecursiveIVM(query, schema, ring=MIN_PLUS, backend="interpreted")
    generated = RecursiveIVM(query, schema, ring=MIN_PLUS, backend="generated")
    generator = StreamGenerator(schema, seed=7)
    for update in generator.generate(150):
        interpreted.apply(update)
        generated.apply(update)
    live = [value for (value,) in generator.live_tuples("R")]
    expected = min(live) if live else MIN_PLUS.zero
    assert interpreted.result() == expected
    assert generated.result() == expected
    # A bare relation count is still rejected: there is no ring-valued fold
    # to maintain (the base-copy registry would alias the result map itself).
    with pytest.raises(CompilationError):
        RecursiveIVM(parse("Sum(R(x))"), UNARY_SCHEMA, ring=BOOLEAN_SEMIRING, backend="generated")


def test_generated_backend_reports_work_counters():
    """Regression: generated triggers used to leave statements/entries at 0."""
    from repro.ivm.recursive import RecursiveIVM

    query = parse("Sum(R(x) * R(y) * (x = y))")
    interpreted = RecursiveIVM(query, UNARY_SCHEMA, backend="interpreted")
    generated = RecursiveIVM(query, UNARY_SCHEMA, backend="generated")
    stream = StreamGenerator(UNARY_SCHEMA, seed=23, default_domain_size=5).generate(80)
    for update in stream:
        interpreted.apply(update)
        generated.apply(update)
    lhs = interpreted.runtime.statistics
    rhs = generated.runtime.statistics
    assert rhs.statements_executed > 0
    assert rhs.entries_updated > 0
    assert rhs.updates_processed == lhs.updates_processed
    assert rhs.statements_executed == lhs.statements_executed
    assert rhs.entries_updated == lhs.entries_updated


def test_reserved_runtime_identifiers_survive_as_query_variables():
    """AGCA variables named like generated-code internals (_CH, _IDX, maps, ...)
    must be renamed by the allocator, not shadow the runtime parameters."""
    schema = {"R": ("A", "B"), "S": ("C", "D")}
    for variable in ("_CH", "_IDX", "maps", "values"):
        query = parse(f"AggSum([{variable}], R({variable}, y) * S({variable}, z) * y * z)")
        program = compile_query(query, schema, name="q")
        generated = generate_python(program)
        maps = fresh_maps(program)
        generated.apply(maps, "S", 1, (1, 3))
        generated.apply(maps, "R", 1, (1, 2))
        assert maps["q"] == {(1,): 6}, variable


# ---------------------------------------------------------------------------
# The shape of a fused trigger: one scan of ∆R, every row-bound thing once
# ---------------------------------------------------------------------------

SALES_SCHEMA = {
    "Customer": ("ck", "nation"),
    "Orders": ("ok", "ck"),
    "Lineitem": ("ok2", "price", "qty"),
    "Probe": ("pid",),
}
_SALES_JOIN = "FROM Customer c, Orders o, Lineitem l WHERE c.ck = o.ck AND o.ok = l.ok2"
#: The flagship 4-view dashboard, the 16-key ``counter``-kind program and a
#: HAVING program (tracked recompute) — the e2e benchmark's generated shapes.
FUSED_PROGRAMS = {
    "dashboard": (SALES_SCHEMA, (
        ("revenue", f"SELECT c.nation, SUM(l.price * l.qty) {_SALES_JOIN} GROUP BY c.nation"),
        ("revenue_by_customer", f"SELECT c.ck, SUM(l.price * l.qty) {_SALES_JOIN} GROUP BY c.ck"),
        ("orders", "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck"),
        ("total_revenue", f"SELECT SUM(l.price * l.qty) {_SALES_JOIN}"),
        ("probe_seen", "SELECT p.pid, SUM(1) FROM Probe p GROUP BY p.pid"),
    )),
    "hotkey": ({"R": ("a", "b"), "Probe": ("pid",)}, (
        ("total", "SELECT SUM(r.b) FROM R r"),
        ("by_a", "SELECT r.a, SUM(r.b) FROM R r GROUP BY r.a"),
        ("probe_seen", "SELECT p.pid, SUM(1) FROM Probe p GROUP BY p.pid"),
    )),
    "having": ({"P": ("community", "post", "score")}, (
        ("hot", "SELECT p.community, SUM(p.score) FROM P p GROUP BY p.community "
                "HAVING SUM(p.score) > 1000"),
    )),
}


def _fused(name):
    """``(program, generated module)`` of a session over ``FUSED_PROGRAMS[name]``."""
    from repro.session import Session

    schema, views = FUSED_PROGRAMS[name]
    with Session(schema) as session:
        for view, sql in views:
            session.view(view, sql)
        group = session._groups["generated"]
        return group.catalog.program(), group.generated


def _functions(source):
    """``{function name: its lines}`` of an emitted module."""
    functions, current = {}, None
    for line in source.splitlines():
        if line.startswith("def "):
            current = functions.setdefault(line[4 : line.index("(")], [])
        elif current is not None and line.startswith(" "):
            current.append(line)
    return functions


def _loop_bodies(lines):
    """Each ``for`` block of a function as ``(header, [lines of its own body])``
    — a nested loop's lines belong to the nested loop only."""
    blocks, open_loops = [], []
    for line in lines:
        indent = len(line) - len(line.lstrip())
        while open_loops and indent <= open_loops[-1][0]:
            open_loops.pop()
        if open_loops:
            open_loops[-1][1].append(line)
        if line.lstrip().startswith("for "):
            block = (indent, [])
            blocks.append((line.strip(), block[1]))
            open_loops.append(block)
    return blocks


@pytest.mark.parametrize("name", sorted(FUSED_PROGRAMS))
def test_batch_trigger_scans_the_delta_once(name):
    import re

    program, generated = _fused(name)
    source = generated.source
    assert generate_python(program).source == source == generate_python(program).source
    table_read = re.compile(r"(_tbl\d+|_idx\d+|_delta)\.get\((\([^)]*\)|\w+), ")
    # The plan's scan count per emitted trigger, through the module's own table.
    table = generated._namespace["BATCH_TRIGGERS"]
    scans = {table[event.event].__name__: event.reads.scans for event in generated.plan.events}
    assert all(event.sign == 1 and event.trigger.signed for event in generated.plan.events)
    for function, lines in _functions(source).items():
        loops = _loop_bodies(lines)
        for header, body in loops:
            # No slice-index handle is looked up per row ...
            assert "_IDX[(" not in header and not any("_IDX[(" in line for line in body), function
            # ... and no table is read twice at one key inside one loop body.
            reads = [match.group(1, 2) for line in body for match in table_read.finditer(line)]
            assert len(reads) == len(set(reads)), (function, header, reads)
        if function.startswith("batch_on_"):
            text = "\n".join(lines)
            # One pass over ∆R, none at all when every statement folds the whole
            # batch with one C-level call — and the plan's count is the text's.
            assert text.count("in _delta.items()") == scans[function] <= 1
            whole_batch = all("dict(_delta)" in line or "sum(_delta.values())" in line
                              for line in lines if re.match(r"\s+_acc\d+ = ", line))
            assert (text.count("in _delta.items()") == 0) == whole_batch, function
            # Every accumulator is initialised exactly once (no dead ``= {}``).
            inits = re.findall(r"^    (_acc\d+) = ", text, flags=re.M)
            assert len(inits) == len(set(inits)), function
    # The -1 identity projection is a plain store per row, not a get/add loop.
    assert not re.search(r"_acc\d+\[_k\] = _acc\d+\.get\(_k", source)
    assert "_dk" not in source and "_dv" not in source


def test_dashboard_module_is_fused_and_smaller():
    program, generated = _fused("dashboard")
    source = generated.source
    # One signed trigger per relation: a single update runs the batch
    # trigger on a one-row delta map and a deletion runs the insertion's, so
    # no relation is emitted twice.
    assert len(source.splitlines()) == 236
    assert len(_fused("hotkey")[1].source.splitlines()) == 47
    assert list(_functions(source)) == [
        "batch_on_insert_Customer", "batch_on_insert_Lineitem", "batch_on_insert_Orders",
        "batch_on_insert_Probe",
    ]
    orders = "\n".join(_functions(source)["batch_on_insert_Orders"])
    # revenue_m4[ok] and revenue_by_customer_m2[ck] feed four statements each,
    # the revenue_m3 bucket two: read once, at the top of the loop, through a
    # handle fetched once per call.
    import re

    assert len(re.findall(r"        _r\d+ = (?:_tbl|_idx)\d+\.get\(_kt", orders)) == 3
    assert len(re.findall(r"(?:_tbl|_idx)\d+\.get\(_kt", orders)) == 3
    assert orders.count("_IDX[(") == 1 and orders.index("_IDX[(") < orders.index("for _k, _v")
    # The Orders copy, now one map for both key orders, is the ninth
    # statement; it folds the signed delta map as it is, deletions included.
    assert "_acc8 = dict(_delta)" in orders and "_acc8 = {}" not in orders
    # A proper semiring keeps the delete event: its Orders counter folds -∆R.
    from repro.algebra.semirings import resolve_semiring
    from repro.session import Session

    schema, views = FUSED_PROGRAMS["dashboard"]
    with Session(schema, ring=resolve_semiring("min-plus")) as session:
        for view, sql in views[:4]:  # probe_seen is a bare count: no semiring view
            session.view(view, sql)
        min_plus = _functions(session._groups["generated"].generated.source)
    assert "batch_on_delete_Orders" in min_plus
    assert "_acc0[_k] = -(_v)" in "\n".join(min_plus["batch_on_delete_Orders"])
    # The coefficient _v * price * qty of all five ±Lineitem statements is one product.
    lineitem = "\n".join(_functions(source)["batch_on_insert_Lineitem"])
    assert lineitem.count("_v * _d1 * _d2") == 1
    explain = program.explain()
    # revenue_by_customer and revenue_m1 read one revenue_m5 bucket (the
    # transpose they read separately before is gone).
    assert explain.count("ON BATCH ") == 4
    assert "ON BATCH ±Lineitem AS __delta__Lineitem:  -- 1 scan of Δ, 3 reads, 1 shared" in explain
    assert "ON BATCH ±Orders AS __delta__Orders:  -- 1 scan of Δ, 3 reads, 3 shared" in explain
    assert "ON BATCH ±Probe AS __delta__Probe:  -- 0 scans of Δ, 0 reads, 0 shared" in explain


def test_lint_report_carries_emitted_size(capsys):
    from repro.analysis.ir_lint import emitted_size, main

    program, generated = _fused("dashboard")
    lines, scans = emitted_size(program)
    assert lines == len(generated.source.splitlines())
    assert scans == generated.source.count("in _delta.items()") == 3
    assert main([]) == 0
    header = capsys.readouterr().out.splitlines()[1]
    assert header.split()[-4:] == ["emitted", "lines", "Δ", "scans"]


def test_no_lint_target_module_emits_a_per_tuple_function():
    """Every event compiles to one trigger: no lint target's module defines
    an ``on_*`` function beside its ``batch_on_*`` ones, and ``explain()``
    prints one trigger section."""
    from repro.analysis.ir_lint import _lint_targets

    for name, aggregate, schema, ring in _lint_targets():
        program = compile_query(aggregate, schema, name=name, ring=ring)
        source = generate_python(program, ring=ring or INTEGER_RING).source
        assert "def on_" not in source, name
        assert program.explain().count("TRIGGERS:") == 1, name
