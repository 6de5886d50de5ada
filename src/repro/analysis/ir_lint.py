"""Lint of compiled trigger IR: the non-failing companion of the static verifier.

Where :mod:`repro.compiler.verify` enforces invariants (a violation is a
compile error), this module *reports* on the quality of a compiled program:

* **dead maps** — auxiliary maps that statements write but nothing ever
  reads (not a statement right-hand side, not a recompute body, not another
  map's definition, not a view result): pure maintenance overhead;
* **duplicate maps** — two maps storing one function, equal modulo key
  order, binding spelling and factor order
  (:func:`repro.compiler.normal_form.sharing_key`), where one could be read
  in place of the other: the sharing registry exists so that this never
  happens, so CI promotes it with ``--fail-on duplicate-map``;
* **scan-class statements** — statements whose static cost class
  (:func:`repro.compiler.cost.statement_cost_class`) degenerates to a whole
  map scan or a full-group recompute, the shapes that break the paper's
  constant-work-per-update claim;
* **unnormalized right-hand sides** — statements that the ring normal form
  (:mod:`repro.compiler.normal_form`) would rewrite, i.e. programs compiled
  with ``normalize=False`` or hand-built IR with mergeable terms; a stored
  batch right-hand side must already be in its decoded order
  (``BatchStatement.monomials``), so CI gates ``--fail-on unnormalized``;
* **generic bare counts** — bare-count batch statements whose event cannot
  take the fused-total hot path (sibling statements or recomputes force the
  delta table), so a shape the specializer exists for still pays the generic
  grouping loop; ``--fail-on generic-bare-count`` promotes these;
* **scanning recomputes** — recompute statements the lowered batch plan
  classes ``scan`` rather than ``pointwise``
  (:func:`repro.compiler.cost.recompute_scan_reason`): the body walks a slice
  of a map — a base copy that stayed correlated with a nested aggregate —
  per changed group, or re-derives every group.  Legitimate for correlated
  subqueries; for a ``HAVING`` view it means the factoring pass of
  :mod:`repro.compiler.compile` stopped firing, so CI promotes it with
  ``--fail-on recompute-scan``;
* **untracked non-invertible maps** — maps of a semiring-compiled program
  whose :class:`repro.compiler.triggers.MaintenancePlan` leaves them without
  a deletion story: no declared strategy, a tracked-recompute map with no
  recompute statement attached to any trigger, or a support-structure map
  missing its support plan or base counter.  Deletions over such a map
  silently corrupt the view, so CI promotes this kind with
  ``--fail-on untracked-noninvertible``.

The report also shows each program's statement specialization classes
(:func:`repro.compiler.cost.batch_specialization_class`), the same labels
``explain()`` prints per statement, its statement count (statements plus
recomputes, one trigger per event), and the size of its generated module —
source lines, and passes over ``∆R`` summed over its triggers
(:class:`repro.compiler.plan.RowReads`) — diffable from change to change.

The module doubles as the ``repro-lint`` console entry point: it compiles
every canonical workload query and the example-program views, runs the
verifier and the lint rules over each, and prints one report —
the CI pipeline uploads that report as a build artifact.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.semirings import INTEGER_RING
from repro.analysis.reporting import Table
from repro.compiler.codegen import generate_python
from repro.compiler.compile import compile_query
from repro.compiler.cost import recompute_scan_reason, statement_cost_class
from repro.compiler.plan import lower_batch_plan
from repro.compiler.normal_form import functions_stored, is_normalized
from repro.compiler.triggers import TriggerProgram
from repro.compiler.verify import IRVerificationError, iter_violations
from repro.core.ast import MapRef, walk

#: Cost classes that visit a whole table (or every group) per update.
_SCAN_CLASSES = ("O(map scan)", "O(|Δ| × map scan)", "O(all groups)")


@dataclass(frozen=True)
class LintFinding:
    """One advisory finding: a rule identifier, a message, and IR context."""

    kind: str
    message: str
    context: str = ""

    def describe(self) -> str:
        text = f"[{self.kind}] {self.message}"
        if self.context:
            text += f"\n    in: {self.context}"
        return text


def _statements(program: TriggerProgram):
    """Every statement and recompute of the program's triggers."""
    for trigger in program.triggers.values():
        yield from trigger.statements
        yield from trigger.recomputes


def lint_program(
    program: TriggerProgram,
    result_maps: Optional[Iterable[str]] = None,
) -> List[LintFinding]:
    """Advisory findings for one compiled program.

    ``result_maps`` names the maps read from outside the program (view
    results); it defaults to the program's own ``result_map``.  Multi-view
    catalogs pass the result map of every registered view.
    """
    findings: List[LintFinding] = []
    keep = set(result_maps) if result_maps is not None else {program.result_map}
    findings.extend(_duplicate_map_findings(program, keep))
    if program.maintenance is not None:
        # Integer base counters are read outside the statement lists: tracked
        # recomputes re-derive from them and the support tier bootstraps its
        # sidecars by scanning them.  They are never dead.
        keep.update(program.maintenance.counter_maps)

    # -- dead maps: written (or merely defined) but never read --------------
    read_maps = set()
    for statement in _statements(program):
        read_maps.update(statement.maps_read())
    for definition in program.maps.values():
        for node in walk(definition.definition):
            if isinstance(node, MapRef):
                read_maps.add(node.name)
    for name in sorted(program.maps):
        if name not in read_maps and name not in keep:
            findings.append(
                LintFinding(
                    "dead-map",
                    f"map {name!r} is maintained but never read "
                    "(not a view result, not a statement or definition source)",
                    program.maps[name].describe(),
                )
            )

    # -- scan-class statements, graded against the lowered plan's specs -----
    plan = lower_batch_plan(program)
    for statement in _statements(program):
        try:
            cost = statement_cost_class(statement, plan.index_specs)
        except TypeError:
            continue
        if cost in _SCAN_CLASSES:
            findings.append(
                LintFinding(
                    "scan",
                    f"statement costs {cost} per update — outside the "
                    "constant-work guarantee",
                    statement.describe(),
                )
            )

    # -- unnormalized right-hand sides --------------------------------------
    for statement in _statements(program):
        rhs = getattr(statement, "rhs", None)
        if rhs is None:  # recomputes keep their make-safe body spelling
            continue
        if not is_normalized(rhs):
            findings.append(
                LintFinding(
                    "unnormalized",
                    "right-hand side is not in ring normal form "
                    "(recompile with normalize=True to merge/cancel terms)",
                    statement.describe(),
                )
            )

    # -- recomputes that still walk a slice (or every group) per event --------
    scanning: Dict[str, LintFinding] = {}
    for event in plan.events:
        for recompute, kind in zip(event.recomputes, event.recompute_kinds):
            if kind == "scan" and recompute.target not in scanning:
                scanning[recompute.target] = LintFinding(
                    "recompute-scan",
                    f"recompute of {recompute.target!r} is not a pointwise lookup: "
                    + recompute_scan_reason(recompute),
                    recompute.describe(),
                )
    findings.extend(scanning.values())

    # -- bare counts stuck on the generic batch path -------------------------
    for event in plan.events:
        for statement, label in zip(event.trigger.statements, event.labels):
            if label == "generic-bare-count":
                findings.append(
                    LintFinding(
                        "generic-bare-count",
                        f"bare-count fold of {statement.target!r} rides the generic "
                        "delta-table path (sibling statements or recomputes in the "
                        "same event block the fused-total specialization)",
                        statement.describe(),
                    )
                )

    # -- untracked non-invertible maps ---------------------------------------
    findings.extend(_maintenance_findings(program))
    return findings


def _duplicate_map_findings(program: TriggerProgram, results: Iterable[str]) -> List[LintFinding]:
    """Maps storing one function, each group but one a wasted copy.

    Two view results storing one function in different key orders are
    legitimate (each view keeps its user's key order) and not reported.
    """
    results = set(results)
    groups = functions_stored(
        (program.maps[name] for name in sorted(program.maps)),
        semiring=program.maintenance is not None,
    )
    return [
        LintFinding(
            "duplicate-map",
            f"maps {names} store one function (equal modulo key order, binding "
            "spelling and factor order); one of them could be read in place of the others",
            "; ".join(program.maps[name].describe() for name in names),
        )
        for names in groups
        if len(names) > 1 and not set(names) <= results
    ]


def _maintenance_findings(program: TriggerProgram) -> List[LintFinding]:
    """Maps a semiring maintenance plan leaves without a deletion story.

    Ring-compiled programs (``program.maintenance is None``) maintain every
    map with negated delta folds and pass trivially.  Under a semiring plan,
    every map must either be a plain integer counter, or carry a strategy
    whose supporting machinery actually exists in the program.
    """
    plan = program.maintenance
    if plan is None:
        return []
    from repro.algebra.semirings import SUPPORT_STRUCTURE, TRACKED_RECOMPUTE

    findings: List[LintFinding] = []
    recompute_targets = set()
    for trigger in program.triggers.values():
        recompute_targets.update(recompute.target for recompute in trigger.recomputes)

    for name in sorted(program.maps):
        strategy = plan.strategy_for(name)
        context = program.maps[name].describe()
        if strategy is None:
            findings.append(
                LintFinding(
                    "untracked-noninvertible",
                    f"map {name!r} has no maintenance strategy under the "
                    f"non-invertible ring {plan.ring_name!r} — deletions "
                    "cannot fold and nothing recomputes it",
                    context,
                )
            )
        elif strategy == TRACKED_RECOMPUTE and name not in recompute_targets:
            findings.append(
                LintFinding(
                    "untracked-noninvertible",
                    f"map {name!r} is declared tracked-recompute but no "
                    "trigger carries a recompute statement for it",
                    context,
                )
            )
        elif strategy == SUPPORT_STRUCTURE:
            support = plan.supports.get(name)
            if support is None:
                findings.append(
                    LintFinding(
                        "untracked-noninvertible",
                        f"map {name!r} is declared support-structure but the "
                        "plan holds no support plan for it",
                        context,
                    )
                )
            elif support.relation not in plan.relation_counters:
                findings.append(
                    LintFinding(
                        "untracked-noninvertible",
                        f"support map {name!r} rebuilds from relation "
                        f"{support.relation!r}, which has no base counter map",
                        context,
                    )
                )
    return findings


def specialization_summary(program: TriggerProgram) -> str:
    """Compact tally of the batch statements' specialization classes.

    The report column, e.g. ``"fused-total:2, generic:1"``; ``"-"`` for a
    program with no batch triggers.
    """
    counts: Dict[str, int] = {}
    for event in lower_batch_plan(program).events:
        for kind in event.labels:
            counts[kind] = counts.get(kind, 0) + 1
    if not counts:
        return "-"
    return ", ".join(f"{kind}:{count}" for kind, count in sorted(counts.items()))


def emitted_size(program: TriggerProgram, ring=None) -> Tuple[int, int]:
    """``(emitted source lines, Δ scans)`` of the program's generated module."""
    generated = generate_python(program, ring if ring is not None else INTEGER_RING)
    scans = sum(event.reads.scans for event in generated.plan.events)
    return len(generated.source.splitlines()), scans


# ---------------------------------------------------------------------------
# The repro-lint entry point
# ---------------------------------------------------------------------------

#: Views defined by the example programs (mirrored from ``examples/*.py`` so
#: the installed console script does not depend on the scripts' location).
_EXAMPLE_VIEWS: Tuple[Tuple[str, str], ...] = (
    ("quickstart_selfjoin", "Sum(R(x) * R(y) * (x = y))"),
    ("social_same_nation", "AggSum([c], C(c, n) * C(c2, n2) * (n = n2))"),
    (
        "sales_revenue",
        "SELECT c.nation, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation",
    ),
    (
        "sales_revenue_by_customer",
        "SELECT c.ck, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.ck",
    ),
    (
        "sales_orders",
        "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck",
    ),
    (
        "sales_total_revenue",
        "SELECT SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
        "WHERE c.ck = o.ck AND o.ok = l.ok2",
    ),
    # The README's and the end-to-end benchmark's HAVING views: both must
    # compile to pointwise recomputes (``--fail-on recompute-scan``).
    (
        "busy_stores",
        "SELECT store, SUM(amount) FROM Sales GROUP BY store HAVING COUNT(*) > 2",
    ),
    (
        "hot_communities",
        "SELECT p.community, SUM(p.score) FROM P p GROUP BY p.community "
        "HAVING SUM(p.score) > 1000",
    ),
)

_EXAMPLE_SCHEMAS: Dict[str, Mapping[str, Tuple[str, ...]]] = {
    "quickstart_selfjoin": {"R": ("A",)},
    "social_same_nation": {"C": ("cid", "nation")},
    "busy_stores": {"Sales": ("store", "amount")},
    "hot_communities": {"P": ("community", "post", "score")},
}


def _lint_targets():
    """Yield ``(name, aggregate, schema, ring)`` for every query the report covers.

    ``ring`` is ``None`` for the default ℤ compilation; the lattice targets
    compile against their semiring so the ``untracked-noninvertible`` rule is
    exercised on every run.
    """
    from repro.algebra.lattices import top_k
    from repro.algebra.semirings import MIN_PLUS
    from repro.core.parser import parse
    from repro.sql.frontend import is_sql, sql_to_agca
    from repro.workloads.queries import CANONICAL_QUERIES, chain_count_query
    from repro.workloads.schemas import SALES_SCHEMA

    for query in CANONICAL_QUERIES:
        yield query.name, query.aggregate, query.schema, None
    chain = chain_count_query(3)
    yield chain.name, chain.aggregate, chain.schema, None
    for name, text in _EXAMPLE_VIEWS:
        schema = _EXAMPLE_SCHEMAS.get(name, SALES_SCHEMA)
        aggregate = sql_to_agca(text, schema) if is_sql(text) else None
        if aggregate is None:
            from repro.core.ast import AggSum

            parsed = parse(text)
            aggregate = parsed if isinstance(parsed, AggSum) else AggSum((), parsed)
        yield name, aggregate, schema, None
    lattice_schema = {"P": ("community", "post", "score")}
    lattice = parse("AggSum([c], P(c, p, s) * s)")
    yield "social_min_score", lattice, lattice_schema, MIN_PLUS
    yield "social_top3_posts", lattice, lattice_schema, top_k(3)


#: ``--fail-on`` choices: the CLI name → the :class:`LintFinding` kind it gates.
_FAIL_ON_KINDS = {
    "dead-maps": "dead-map",
    "duplicate-map": "duplicate-map",
    "scan": "scan",
    "generic-bare-count": "generic-bare-count",
    "untracked-noninvertible": "untracked-noninvertible",
    "recompute-scan": "recompute-scan",
    "unnormalized": "unnormalized",
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Compile, verify, and lint the workload and example queries; print a report.

    Exit status 0 when every program passes the verifier (lint findings are
    advisory unless promoted with ``--fail-on``), 1 when any program fails
    verification or compilation — or produces a finding of a kind named by
    ``--fail-on``.
    """
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Static verification and lint report over the compiled "
        "trigger programs of the canonical workload queries and example views.",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        default=None,
        help="also write the report to FILE",
    )
    parser.add_argument(
        "--fail-on",
        action="append",
        choices=sorted(_FAIL_ON_KINDS),
        default=None,
        metavar="{" + ",".join(sorted(_FAIL_ON_KINDS)) + "}",
        help="promote a finding kind to a hard failure (exit 1); repeatable",
    )
    options = parser.parse_args(argv)
    fatal_kinds = {_FAIL_ON_KINDS[choice] for choice in (options.fail_on or ())}

    lines: List[str] = []
    table = Table(
        headers=["query", "maps", "statements", "verified", "findings",
                 "specialization", "emitted lines", "Δ scans"],
        title="Compiled-trigger IR: verification & lint report",
    )
    details: List[str] = []
    failed = 0
    for name, aggregate, schema, ring in _lint_targets():
        try:
            program = compile_query(aggregate, schema, name=name, ring=ring)
        except IRVerificationError as error:
            failed += 1
            table.add_row(name, "-", "-", "FAIL", len(error.violations), "-", "-", "-")
            details.append(f"== {name}: VERIFICATION FAILED ==\n{error}")
            continue
        except Exception as error:  # compilation crash: report, keep linting
            failed += 1
            table.add_row(name, "-", "-", "ERROR", "-", "-", "-", "-")
            details.append(f"== {name}: COMPILATION ERROR ==\n{error!r}")
            continue
        violations = iter_violations(program)
        findings = lint_program(program)
        verified = "ok" if not violations else "FAIL"
        if violations:
            failed += 1
        fatal = [finding for finding in findings if finding.kind in fatal_kinds]
        if fatal and not violations:
            failed += 1
        if fatal:
            details.append(
                f"== {name}: FATAL (--fail-on) ==\n"
                + "\n".join(finding.describe() for finding in fatal)
            )
        table.add_row(
            name,
            len(program.maps),
            program.statement_count(),
            verified,
            len(findings),
            specialization_summary(program),
            *emitted_size(program, ring),
        )
        if violations or findings:
            section = [f"== {name} =="]
            section.extend(violation.describe() for violation in violations)
            section.extend(finding.describe() for finding in findings)
            details.append("\n".join(section))

    lines.append(table.render())
    if details:
        lines.append("")
        lines.extend(details)
    report = "\n".join(lines)
    print(report)
    if options.output:
        with open(options.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
