"""Static trigger-IR verifier, ring normal form, and the IR lint.

The verifier tests corrupt hand-built programs one invariant at a time and
assert the typed error carries the offending statement's context; the normal
form tests pin down AC merging, ±ΔR cancellation, and the AC-canonical map
identity.
"""

import pytest

from repro.analysis import ir_lint
from repro.analysis.ir_lint import LintFinding, lint_program, main as lint_main
from repro.compiler.compile import compile_query
from repro.compiler.cost import statement_cost_class
from repro.compiler.indexes import compute_index_specs
from repro.compiler.maps import MapDefinition
from repro.compiler.normal_form import (
    ac_canonical_map_key,
    factor_sort_key,
    is_normalized,
    normalize_rhs,
    normalizes_to_zero,
    read_positions,
)
from repro.compiler.triggers import BatchStatement, BatchTrigger, TriggerProgram
from repro.compiler.verify import (
    IRVerificationError,
    iter_violations,
    verify_program,
)
from repro.core.ast import MapRef, Mul, Rel, Var
from repro.core.delta import delta_map_name
from repro.core.normalization import combine_sorted, to_polynomial
from repro.core.parser import parse
from repro.session.catalog import MapCatalog

SCHEMA = {"R": ("A",), "S": ("B",)}


def _program(maps, triggers, result="q"):
    return TriggerProgram(
        result_map=result,
        maps=maps,
        triggers=triggers,
        schema=dict(SCHEMA),
    )


def _map(name, keys, body, level=0):
    return MapDefinition(name=name, key_vars=tuple(keys), definition=body, level=level)


def _delta(*keys):
    """A read of ``∆R`` binding ``keys``."""
    return MapRef(delta_map_name("R"), keys)


def _statement(target, keys, rhs):
    return BatchStatement(
        target=target,
        target_keys=tuple(keys),
        rhs=rhs,
        delta_map=delta_map_name("R"),
    )


def _trigger(relation, statements):
    return BatchTrigger(
        relation=relation,
        sign=1,
        delta_map=delta_map_name(relation),
        statements=tuple(statements),
    )


class TestVerifier:
    def test_bad_read_arity_raises_with_statement_context(self):
        maps = {
            "q": _map("q", (), Rel("R", ("x",))),
            "q_m1": _map("q_m1", ("k0",), Rel("R", ("k0",)), level=1),
        }
        bad = _statement("q", (), Mul((_delta("x", "y"), MapRef("q_m1", ("x", "y")))))
        program = _program(maps, {("R", 1): _trigger("R", [bad])})
        with pytest.raises(IRVerificationError) as excinfo:
            verify_program(program)
        message = str(excinfo.value)
        assert "arity" in message
        assert "q_m1" in message
        assert bad.describe() in message

    def test_delta_map_write_raises(self):
        maps = {"q": _map("q", (), Rel("R", ("x",)))}
        bad = _statement(delta_map_name("R"), ("k0",), _delta("k0"))
        program = _program(maps, {("R", 1): _trigger("R", [bad])})
        with pytest.raises(IRVerificationError) as excinfo:
            verify_program(program)
        assert "delta" in str(excinfo.value)

    def test_cyclic_map_definitions_raise(self):
        maps = {
            "q": _map("q", (), MapRef("q_m1", ())),
            "q_m1": _map("q_m1", (), MapRef("q_m2", ()), level=1),
            "q_m2": _map("q_m2", (), MapRef("q_m1", ()), level=2),
        }
        program = _program(maps, {})
        violations = iter_violations(program)
        assert any(violation.kind == "cyclic-dependency" for violation in violations)
        with pytest.raises(IRVerificationError):
            verify_program(program)

    def test_free_variable_raises(self):
        maps = {"q": _map("q", (), Rel("R", ("x",)))}
        # ``loose`` is bound neither by the delta map nor by a map read.
        bad = _statement("q", (), Mul((_delta("x"), Var("loose"))))
        program = _program(maps, {("R", 1): _trigger("R", [bad])})
        violations = iter_violations(program)
        assert any(violation.kind == "free-variable" for violation in violations)

    def test_unknown_map_read_raises(self):
        maps = {"q": _map("q", (), Rel("R", ("x",)))}
        bad = _statement("q", (), Mul((_delta("x"), MapRef("nowhere", ("x",)))))
        program = _program(maps, {("R", 1): _trigger("R", [bad])})
        violations = iter_violations(program)
        assert any(violation.kind == "unknown-map" for violation in violations)

    def test_compiled_programs_verify_clean(self):
        for text, schema in [
            ("Sum(R(x) * R(y) * (x = y))", {"R": ("A",)}),
            ("AggSum([a], R(a, b) * S(b, d) * d)", {"R": ("A", "B"), "S": ("C", "D")}),
        ]:
            program = compile_query(parse(text), schema, name="v")
            assert iter_violations(program) == []


class TestNormalForm:
    def test_ac_equal_monomials_merge(self):
        merged = normalize_rhs(parse("R(x) * S(y) + S(y) * R(x)"))
        polynomial = to_polynomial(merged)
        assert len(polynomial) == 1
        assert polynomial[0].coefficient == 2

    def test_plus_minus_delta_cancels_to_zero(self):
        assert normalizes_to_zero(parse("R(x) * S(y) + (0 - 1) * S(y) * R(x)"))
        assert not normalizes_to_zero(parse("R(x) * S(y) + S(y) * R(x)"))

    def test_combine_sorted_merges_coefficients(self):
        polynomial = to_polynomial(parse("3 * R(x) + 2 * R(x)"))
        combined = combine_sorted(polynomial, factor_sort_key)
        assert len(combined) == 1
        assert combined[0].coefficient == 5

    def test_is_normalized_detects_mergeable_terms(self):
        raw = parse("R(x) * S(y) + S(y) * R(x)")
        assert not is_normalized(raw)
        assert is_normalized(normalize_rhs(raw))

    def test_ac_canonical_map_key_unifies_commuted_definitions(self):
        forward = _map("a", ("k0",), Mul((Rel("R", ("k0",)), Rel("S", ("k0",)))))
        commuted = _map("b", ("j0",), Mul((Rel("S", ("j0",)), Rel("R", ("j0",)))))
        assert ac_canonical_map_key(forward) == ac_canonical_map_key(commuted)

    def test_ac_canonical_map_key_keeps_key_positions(self):
        # Key ORDER is storage layout: [k0, k1] and [k1, k0] store one
        # function, so they unify — but each keeps its key positions in the
        # returned order, which is how a reference to one is rewritten into a
        # read of the other with its keys permuted.
        ab = _map("a", ("k0", "k1"), Rel("R", ("k0", "k1")))
        ba = _map("b", ("k1", "k0"), Rel("R", ("k0", "k1")))
        (ab_identity, ab_order), (ba_identity, ba_order) = (
            ac_canonical_map_key(ab), ac_canonical_map_key(ba)
        )
        assert ab_identity == ba_identity
        assert (ab_order, ba_order) == ((0, 1), (1, 0))
        assert read_positions(ab_order, ba_order) == (1, 0)
        # A genuinely different function of the same keys still differs.
        diagonal = _map("c", ("k0", "k1"), Mul((Rel("R", ("k0", "k0")), Rel("S", ("k1",)))))
        assert ac_canonical_map_key(diagonal)[0] != ab_identity


class TestCatalogACDedup:
    VIEWS = [
        ("fwd", "Sum(R(x) * S(x))"),
        ("rev", "Sum(S(y) * R(y))"),
    ]

    def _absorb_all(self, ac_dedup):
        catalog = MapCatalog(SCHEMA, ac_dedup=ac_dedup)
        for name, text in self.VIEWS:
            # normalize=False keeps each view's own factor spelling, so the
            # only unification mechanism under test is the catalog's identity.
            program = compile_query(parse(text), SCHEMA, name=name, normalize=False, catalog=catalog)
            catalog.absorb(name, program)
        return catalog

    def test_ac_identity_unifies_commuted_views(self):
        alpha_only = self._absorb_all(ac_dedup=False)
        ac = self._absorb_all(ac_dedup=True)
        assert len(ac.maps) < len(alpha_only.maps)
        assert ac.program().statement_count() < alpha_only.program().statement_count()


class TestLint:
    def test_dead_map_reported(self):
        maps = {
            "q": _map("q", (), Rel("R", ("x",))),
            "orphan": _map("orphan", ("k0",), Rel("R", ("k0",)), level=1),
        }
        write = _statement("orphan", ("k0",), _delta("k0"))
        program = _program(maps, {("R", 1): _trigger("R", [write])})
        findings = lint_program(program)
        assert any(f.kind == "dead-map" and "orphan" in f.message for f in findings)

    def test_result_map_is_not_dead(self):
        program = compile_query(parse("Sum(R(x) * x)"), {"R": ("A",)}, name="q")
        assert not any(f.kind == "dead-map" for f in lint_program(program))

    def test_statement_cost_classes_on_selfjoin(self):
        program = compile_query(parse("Sum(R(x) * R(y) * (x = y))"), {"R": ("A",)}, name="q")
        specs = compute_index_specs(program)
        classes = {
            statement_cost_class(statement, specs)
            for trigger in program.triggers.values()
            for statement in trigger.statements
        }
        assert classes == {"O(|Δ| keys)"}

    def test_cost_aware_order_avoids_map_scans_on_sales_by_customer(self):
        # Regression for the cost-unaware safety order: the Lineitem triggers
        # of this three-way join used to evaluate m2[c_ck] (a whole-map scan,
        # c_ck unbound) before m3[c_ck, __d_Lineitem_0] (an indexed slice
        # that *binds* c_ck).  The cost-aware schedule flips them, so no
        # statement of the program may cost a map scan.
        from repro.sql.frontend import sql_to_agca
        from repro.workloads.schemas import SALES_SCHEMA

        aggregate = sql_to_agca(
            "SELECT c.ck, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
            "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.ck",
            SALES_SCHEMA,
        )
        program = compile_query(aggregate, SALES_SCHEMA, name="sales_revenue_by_customer")
        specs = compute_index_specs(program)
        classes = {
            statement.describe(): statement_cost_class(statement, specs)
            for trigger in program.triggers.values()
            for statement in trigger.statements
        }
        scans = {text for text, cls in classes.items() if "map scan" in cls}
        assert not scans, scans

    def test_lint_main_smoke(self, tmp_path, capsys):
        report_path = tmp_path / "report.txt"
        assert lint_main(["--output", str(report_path)]) == 0
        out = capsys.readouterr().out
        assert "Compiled-trigger IR: verification & lint report" in out
        assert report_path.read_text().strip() == out.strip()

    def test_lint_fail_on_promotes_findings(self, capsys, monkeypatch):
        # dead-maps and scan are clean after the cost-aware safety order, so
        # gating those stays green; an injected dead map flips the gated exit
        # status and leaves the ungated run advisory.
        assert lint_main(["--fail-on", "dead-maps", "--fail-on", "scan"]) == 0
        capsys.readouterr()
        real = ir_lint.lint_program
        monkeypatch.setattr(
            ir_lint,
            "lint_program",
            lambda program: real(program) + [LintFinding("dead-map", "injected", "")],
        )
        assert lint_main(["--fail-on", "dead-maps"]) == 1
        assert "FATAL (--fail-on)" in capsys.readouterr().out
        assert lint_main([]) == 0
        capsys.readouterr()

    def test_scanning_recompute_is_reported_with_the_component_that_kept_it(self):
        correlated = compile_query(
            parse("AggSum([g], R(g, x) * (x < Sum(S(g, y) * y)) * x)"),
            {"R": ("G", "X"), "S": ("G", "Y")},
            name="q",
        )
        (finding,) = [f for f in lint_program(correlated) if f.kind == "recompute-scan"]
        assert "q_m2[g, x]" in finding.message and "recompute[tracked]" in finding.context
        having = compile_query(
            parse("AggSum([g], R(g, x) * (Sum(R(g, y)) > 2) * x)"), {"R": ("G", "X")}, name="q"
        )
        assert not [f for f in lint_program(having) if f.kind == "recompute-scan"]

    def test_lint_gates_the_having_views_on_pointwise_recomputes(self, capsys):
        # busy_stores / hot_communities are lint targets; the gate CI passes.
        assert lint_main(["--fail-on", "recompute-scan"]) == 0
        out = capsys.readouterr().out
        assert "busy_stores" in out and "hot_communities" in out

    def test_lint_fail_on_rejects_unknown_kind(self):
        with pytest.raises(SystemExit):
            lint_main(["--fail-on", "bogus"])
