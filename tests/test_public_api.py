"""Smoke tests of the top-level public API (what README's quickstart relies on)."""

import repro


def test_version_and_all_exports_resolve():
    assert repro.__version__
    for name in repro.__all__:
        assert hasattr(repro, name), name


def test_readme_session_quickstart_flow():
    """The exact flow shown in the README "Session API" quickstart."""
    session = repro.Session({"R": ("A", "B")})
    total = session.view("total", "Sum(R(a, b) * b)")
    per_a = session.view("per_a", "AggSum([a], R(a, b) * b)")

    deltas = []
    per_a.on_change(lambda changes: deltas.append(changes))

    session.insert("R", 1, 10)
    session.insert("R", 2, 5)
    session.insert("R", 1, 3)
    session.delete("R", 2, 5)
    assert total.result() == 13
    assert per_a.result() == {(1,): 13}
    assert deltas == [{(1,): 10}, {(2,): 5}, {(1,): 3}, {(2,): -5}]

    restored = repro.Session.restore(session.snapshot())
    assert restored["total"].result() == 13


def test_readme_engine_quickstart_flow():
    """The exact flow shown in the README low-level engine quickstart."""
    schema = {"R": ("A",)}
    query = repro.parse("Sum(R(x) * R(y) * (x = y))")

    engine = repro.RecursiveIVM(query, schema)
    engine.apply(repro.insert("R", "c"))
    engine.apply(repro.insert("R", "c"))
    engine.apply(repro.insert("R", "d"))
    assert engine.result() == 5

    engine.apply(repro.delete("R", "d"))
    assert engine.result() == 4


def test_result_as_mapping_through_top_level_namespace():
    assert repro.result_as_mapping(5) == {(): 5}
    assert repro.result_as_mapping(0) == {}
    assert repro.result_as_mapping({(1,): 2, (3,): 0}) == {(1,): 2}


def test_engine_statistics_through_top_level_namespace():
    statistics = repro.EngineStatistics()
    assert statistics.updates_processed == 0
    assert statistics.seconds_per_update() == 0.0

    engine = repro.RecursiveIVM(repro.parse("Sum(R(x))"), {"R": ("A",)})
    engine.apply(repro.insert("R", 1))
    assert isinstance(engine.statistics, repro.EngineStatistics)
    assert engine.statistics.updates_processed == 1
    assert engine.statistics.seconds_per_update() >= 0.0


def test_session_facade_exports():
    assert repro.Session is not None
    session = repro.Session({"R": ("A",)})
    view = session.view("q", "Sum(R(x))")
    assert isinstance(view, repro.MaterializedView)
    assert isinstance(session._groups["generated"].catalog, repro.MapCatalog)


def test_sql_frontend_through_top_level_namespace():
    schema = {"C": ("cid", "nation")}
    query = repro.sql_to_agca(
        "SELECT C1.cid, SUM(1) FROM C C1, C C2 WHERE C1.nation = C2.nation GROUP BY C1.cid",
        schema,
    )
    engine = repro.RecursiveIVM(query, schema, backend="generated")
    engine.apply_all(
        [repro.insert("C", 1, "FR"), repro.insert("C", 2, "FR"), repro.insert("C", 3, "JP")]
    )
    assert engine.result() == {(1,): 2, (2,): 2, (3,): 1}


def test_direct_evaluation_and_delta_through_top_level_namespace():
    db = repro.Database({"R": ("A",)})
    db.load("R", [("c",), ("c",), ("d",)])
    query = repro.parse("Sum(R(x) * R(y) * (x = y))")
    result = repro.evaluate(query, db)
    assert result[repro.Record()] == 5
    change = repro.evaluate(repro.delta_for_update(query, repro.insert("R", "c")), db)
    assert change[repro.Record()] == 5
    assert repro.degree(query) == 2


def test_compile_and_explain_through_top_level_namespace():
    program = repro.compile_query(
        repro.parse("Sum(R(a, b) * S(c, d) * (b = c) * a)"),
        {"R": ("A", "B"), "S": ("C", "D")},
    )
    assert program.explain().count("TRIGGERS:") == 1
    runtime = repro.TriggerRuntime(program)
    runtime.apply(repro.insert("R", 2, 7))
    runtime.apply(repro.insert("S", 7, 1))
    assert runtime.result() == 2
    generated = repro.generate_python(program)
    assert "def batch_on_insert_R" in generated.source and "def on_" not in generated.source


def test_the_library_reads_no_environment_variable():
    """No module under ``src/repro`` touches ``os.environ`` / ``os.getenv``:
    the library's behaviour is chosen by its arguments alone."""
    import ast
    from pathlib import Path

    readers = {"environ", "environb", "getenv", "getenvb"}
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                name = next((alias.name for alias in node.names if alias.name in readers), None)
            else:
                continue
            if name in readers:
                offenders.append(f"{path.name}:{node.lineno} {name}")
    assert offenders == []
