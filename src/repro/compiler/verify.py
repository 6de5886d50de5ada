"""Static verification of compiled trigger IR.

The compiler's output is a small language — maps, increment statements folded
over a delta map, recomputes — with invariants every later layer silently
relies on: statements only read maps the program defines, with the declared
arity; delta maps (the transient pre-aggregated updates) are read, never
written; a statement's right-hand side is range-restricted once the delta
map's rows bind its keys; recomputes run inner hierarchies first over an
acyclic map dependency graph; and every partially-bound map read is covered
by a slice index signature so the constant-work claim holds.

:func:`verify_program` checks all of these *post-compile* and raises a single
:class:`IRVerificationError` carrying every violation, each anchored to the
``describe()`` text of the offending statement — compiler bugs and hand-built
IR mistakes surface at compile time, not as a wrong aggregate three updates
later.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.core.ast import MapRef, walk
from repro.core.delta import delta_map_name, is_delta_map
from repro.core.errors import CompilationError
from repro.core.variables import binding_analysis
from repro.compiler.triggers import RecomputeStatement, TriggerProgram

__all__ = [
    "IRVerificationError",
    "Violation",
    "iter_violations",
    "verify_program",
]


@dataclasses.dataclass(frozen=True)
class Violation:
    """One verifier finding: a rule identifier, a message, and IR context."""

    kind: str
    message: str
    context: str = ""

    def describe(self) -> str:
        text = f"[{self.kind}] {self.message}"
        if self.context:
            text += f"\n    in: {self.context}"
        return text


class IRVerificationError(CompilationError):
    """A compiled program violates the trigger-IR invariants.

    ``violations`` holds every :class:`Violation` found, so one failed
    compile reports all problems at once rather than the first.
    """

    def __init__(self, violations: Sequence[Violation]):
        self.violations: Tuple[Violation, ...] = tuple(violations)
        count = len(self.violations)
        noun = "violation" if count == 1 else "violations"
        body = "\n".join(violation.describe() for violation in self.violations)
        super().__init__(f"trigger IR failed verification ({count} {noun}):\n{body}")


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def _find_definition_cycle(program: TriggerProgram) -> Optional[List[str]]:
    """A cycle in the map-definition dependency graph, or ``None``.

    A dedicated DFS rather than :func:`repro.compiler.maps.dependency_depths`,
    which assumes the acyclicity this check establishes.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    colors: Dict[str, int] = {}
    path: List[str] = []

    def visit(name: str) -> Optional[List[str]]:
        colors[name] = GREY
        path.append(name)
        for ref_name in _definition_reads(program, name):
            if ref_name not in program.maps:
                continue
            state = colors.get(ref_name, WHITE)
            if state == GREY:
                return path[path.index(ref_name):] + [ref_name]
            if state == WHITE:
                cycle = visit(ref_name)
                if cycle is not None:
                    return cycle
        path.pop()
        colors[name] = BLACK
        return None

    for name in program.maps:
        if colors.get(name, WHITE) == WHITE:
            cycle = visit(name)
            if cycle is not None:
                return cycle
    return None


def _definition_reads(program: TriggerProgram, name: str) -> List[str]:
    """Distinct map names a map's definition references, in walk order."""
    reads: List[str] = []
    for node in walk(program.maps[name].definition):
        if isinstance(node, MapRef) and node.name not in reads:
            reads.append(node.name)
    return reads


def _check_rhs_reads(
    program: TriggerProgram,
    rhs_owner,
    rhs,
    allowed_delta: Optional[str],
    delta_arity: Optional[int],
) -> Iterator[Violation]:
    """Arity and delta-discipline checks for every map read of one RHS."""
    context = rhs_owner.describe()
    for node in walk(rhs):
        if not isinstance(node, MapRef):
            continue
        if is_delta_map(node.name):
            if node.name != allowed_delta:
                verb = (
                    "reads delta map"
                    if allowed_delta is None
                    else f"reads foreign delta map (its batch is {allowed_delta!r})"
                )
                yield Violation(
                    "delta-read",
                    f"statement {verb} {node.name!r}",
                    context,
                )
            elif delta_arity is not None and len(node.key_vars) != delta_arity:
                yield Violation(
                    "arity",
                    f"delta map {node.name!r} read with {len(node.key_vars)} keys, "
                    f"batch arity is {delta_arity}",
                    context,
                )
            continue
        definition = program.maps.get(node.name)
        if definition is None:
            yield Violation(
                "unknown-map",
                f"statement reads undeclared map {node.name!r}",
                context,
            )
        elif len(node.key_vars) != definition.arity:
            yield Violation(
                "arity",
                f"map {node.name!r} read with {len(node.key_vars)} keys, "
                f"declared arity is {definition.arity}",
                context,
            )


def _check_write(program: TriggerProgram, statement) -> Iterator[Violation]:
    """Target-side checks shared by all statement kinds."""
    context = statement.describe()
    if is_delta_map(statement.target):
        yield Violation(
            "delta-write",
            f"statement writes delta map {statement.target!r} "
            "(delta maps are read-only batch inputs)",
            context,
        )
        return
    definition = program.maps.get(statement.target)
    if definition is None:
        yield Violation(
            "unknown-map",
            f"statement writes undeclared map {statement.target!r}",
            context,
        )
    elif len(statement.target_keys) != definition.arity:
        yield Violation(
            "arity",
            f"map {statement.target!r} written with {len(statement.target_keys)} keys, "
            f"declared arity is {definition.arity}",
            context,
        )


def _check_free_variables(statement, bound: Sequence[str]) -> Iterator[Violation]:
    """The RHS must be range-restricted once ``bound`` is supplied."""
    try:
        needed, _ = binding_analysis(statement.as_aggregate(), bound)
    except TypeError:
        yield Violation(
            "malformed-rhs",
            "right-hand side contains nodes outside the AGCA IR",
            statement.describe(),
        )
        return
    if needed:
        yield Violation(
            "free-variable",
            f"variables {sorted(needed)} are not bound by the right-hand side",
            statement.describe(),
        )


def _check_recomputes(
    event: str, recomputes: Sequence[RecomputeStatement], program: TriggerProgram
) -> Iterator[Violation]:
    """Recompute list checks: depth order, inner-first reads, plus per-statement."""
    previous_depth = None
    for index, recompute in enumerate(recomputes):
        if previous_depth is not None and recompute.depth < previous_depth:
            yield Violation(
                "recompute-order",
                f"{event}: recompute of {recompute.target!r} (depth {recompute.depth}) "
                f"follows a depth-{previous_depth} recompute — inner hierarchies "
                "must run first",
                recompute.describe(),
            )
        previous_depth = recompute.depth
        # An earlier recompute reading a later one's target would see its
        # pre-update value — the dependency must already have been recomputed.
        for later in recomputes[index + 1:]:
            if later.target in recompute.maps_read():
                yield Violation(
                    "recompute-order",
                    f"{event}: recompute of {recompute.target!r} reads "
                    f"{later.target!r}, which is recomputed only afterwards",
                    recompute.describe(),
                )
        yield from _check_write(program, recompute)
        yield from _check_rhs_reads(program, recompute, recompute.body, None, None)
        bound = recompute.target_keys if recompute.tracked else ()
        yield from _check_free_variables(recompute, bound)


def iter_violations(
    program: TriggerProgram,
    index_specs: Optional[Mapping[str, Tuple[Tuple[int, ...], ...]]] = None,
) -> List[Violation]:
    """All trigger-IR invariant violations of a compiled program.

    With ``index_specs`` (a runtime's actual slice-index signatures), the
    coverage check verifies every partially-bound read against *those*
    signatures; without, against the program's own specs, derived
    (:func:`~repro.compiler.indexes.index_specs_of`) from the same one
    collection of reads.
    """
    from repro.compiler.indexes import index_specs_of, iter_partial_reads

    violations: List[Violation] = []

    # -- map table ---------------------------------------------------------
    if program.result_map not in program.maps:
        violations.append(
            Violation(
                "unknown-map",
                f"result map {program.result_map!r} has no definition",
            )
        )
    for name in program.maps:
        if is_delta_map(name):
            violations.append(
                Violation(
                    "delta-write",
                    f"map table defines {name!r} under the reserved delta prefix",
                )
            )
    cycle = _find_definition_cycle(program)
    if cycle is not None:
        violations.append(
            Violation(
                "cyclic-dependency",
                "map definitions form a dependency cycle: " + " -> ".join(cycle),
            )
        )
        # Depth/order diagnostics below assume an acyclic hierarchy; the
        # remaining statement-local checks still run.

    # -- triggers ----------------------------------------------------------
    for trigger in program.triggers.values():
        event = trigger.describe().splitlines()[0].rstrip(":")
        expected_delta = delta_map_name(trigger.relation)
        if trigger.delta_map != expected_delta:
            violations.append(
                Violation(
                    "delta-read",
                    f"{event}: trigger binds {trigger.delta_map!r}, but updates "
                    f"of {trigger.relation!r} arrive as {expected_delta!r}",
                )
            )
        for statement in trigger.statements:
            violations.extend(_check_write(program, statement))
            violations.extend(
                _check_rhs_reads(
                    program,
                    statement,
                    statement.rhs,
                    statement.delta_map,
                    statement.delta_arity,
                )
            )
            if statement.delta_map != trigger.delta_map:
                violations.append(
                    Violation(
                        "delta-read",
                        f"{event}: statement folds {statement.delta_map!r}, trigger "
                        f"binds {trigger.delta_map!r}",
                        statement.describe(),
                    )
                )
            if statement.projection is not None and statement.delta_arity is not None:
                bad = [p for p in statement.projection if not 0 <= p < statement.delta_arity]
                if bad:
                    violations.append(
                        Violation(
                            "arity",
                            f"projection positions {bad} outside the delta key tuple "
                            f"(arity {statement.delta_arity})",
                            statement.describe(),
                        )
                    )
            violations.extend(_check_free_variables(statement, ()))
        violations.extend(_check_recomputes(event, trigger.recomputes, program))

    # -- slice-index coverage ---------------------------------------------
    try:
        reads = list(iter_partial_reads(program))
    except TypeError:
        # Exotic hand-built RHS nodes outside the polynomial IR; the
        # malformed-rhs check above already reports them.
        reads = []
    specs = index_specs if index_specs is not None else index_specs_of(reads)
    for statement, name, positions in reads:
        if tuple(positions) not in tuple(map(tuple, specs.get(name, ()))):
            violations.append(
                Violation(
                    "uncovered-slice",
                    f"partially-bound read of {name!r} at key positions "
                    f"{tuple(positions)} has no slice-index signature",
                    statement.describe(),
                )
            )

    return violations


def verify_program(
    program: TriggerProgram,
    index_specs: Optional[Mapping[str, Tuple[Tuple[int, ...], ...]]] = None,
) -> TriggerProgram:
    """Raise :class:`IRVerificationError` unless the program is well-formed."""
    violations = iter_violations(program, index_specs)
    if violations:
        raise IRVerificationError(violations)
    return program

