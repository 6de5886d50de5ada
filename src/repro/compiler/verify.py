"""Static verification of compiled trigger IR.

The compiler's output is a small language — maps, increment statements, batch
folds, recomputes — with invariants every later layer silently relies on:
statements only read maps the program defines, with the declared arity; delta
maps (the transient pre-aggregated batches) are read, never written; a
statement's right-hand side is range-restricted once the trigger arguments
are bound; recomputes run inner hierarchies first over an acyclic map
dependency graph; and every partially-bound map read is covered by a slice
index signature so the constant-work claim holds.

:func:`verify_program` checks all of these *post-compile* and raises a single
:class:`IRVerificationError` carrying every violation, each anchored to the
``describe()`` text of the offending statement — compiler bugs and hand-built
IR mistakes surface at compile time, not as a wrong aggregate three updates
later.

The module also hosts the **shard-race detector**
(:func:`mark_serial_folds`): within one event dispatch, a statement whose
fold writes a map that *another* statement of the same dispatch reads (or
that another statement also writes) may not use the parallel per-shard fold
path of :mod:`repro.compiler.partition` — an executor overlapping that fold
with its neighbour's evaluation would observe half-written state.  Both
runtimes execute folds behind a join barrier today, which makes such pairs
safe *dynamically*; the detector makes the guarantee static by forcing the
hazardous statements onto the serial (inline) fold path, so the invariant
survives executor changes.  Recomputes are excluded on purpose: they are
ordered after the fold barrier precisely so that they read post-fold values.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

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
    "mark_serial_folds",
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
            f"variables {sorted(needed)} are neither trigger arguments nor bound "
            "by the right-hand side",
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
    signatures; without, against the program's own
    :func:`~repro.compiler.indexes.compute_index_specs` (which then checks
    the analysis is at least self-consistent).
    """
    from repro.compiler.indexes import compute_index_specs, iter_partial_reads

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

    # -- per-tuple triggers ------------------------------------------------
    for trigger in program.triggers.values():
        event = trigger.describe().splitlines()[0].rstrip(":")
        for statement in trigger.statements:
            violations.extend(_check_write(program, statement))
            violations.extend(
                _check_rhs_reads(program, statement, statement.rhs, None, None)
            )
            violations.extend(
                _check_free_variables(statement, trigger.argument_names)
            )
        violations.extend(
            _check_recomputes(event, trigger.recomputes, program)
        )

    # -- batch triggers ----------------------------------------------------
    for batch_trigger in program.batch_triggers.values():
        event = batch_trigger.describe().splitlines()[0].rstrip(":")
        expected_delta = delta_map_name(batch_trigger.relation)
        if batch_trigger.delta_map != expected_delta:
            violations.append(
                Violation(
                    "delta-read",
                    f"{event}: trigger binds {batch_trigger.delta_map!r}, but batches "
                    f"of {batch_trigger.relation!r} arrive as {expected_delta!r}",
                )
            )
        for statement in batch_trigger.statements:
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
            if statement.delta_map != batch_trigger.delta_map:
                violations.append(
                    Violation(
                        "delta-read",
                        f"{event}: statement folds {statement.delta_map!r}, trigger "
                        f"binds {batch_trigger.delta_map!r}",
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
        violations.extend(
            _check_recomputes(event, batch_trigger.recomputes, program)
        )

    # -- slice-index coverage ---------------------------------------------
    specs = dict(index_specs) if index_specs is not None else None
    try:
        if specs is None:
            specs = compute_index_specs(program)
        for statement, name, positions in iter_partial_reads(program):
            if tuple(positions) not in tuple(map(tuple, specs.get(name, ()))):
                violations.append(
                    Violation(
                        "uncovered-slice",
                        f"partially-bound read of {name!r} at key positions "
                        f"{tuple(positions)} has no slice-index signature",
                        statement.describe(),
                    )
                )
    except TypeError:
        # Exotic hand-built RHS nodes outside the polynomial IR; the
        # malformed-rhs check above already reports them.
        pass

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


# ---------------------------------------------------------------------------
# Shard-race detection
# ---------------------------------------------------------------------------


def detect_shard_races(program: TriggerProgram) -> Dict[Tuple[str, int], Tuple[str, ...]]:
    """Per event, the targets whose folds are hazardous under parallel dispatch.

    A statement's fold is hazardous when, within the same dispatch, another
    statement *reads* the map it writes (write-read: overlapping the fold
    with the reader's evaluation would leak post-update state into a snapshot
    read) or another statement *writes* the same map (write-write: two
    parallel shard folds over one table).
    """
    races: Dict[Tuple[str, int], Tuple[str, ...]] = {}
    for event, trigger in list(program.triggers.items()) + list(
        program.batch_triggers.items()
    ):
        hazardous = _hazardous_targets(trigger.statements)
        if hazardous:
            races[event] = tuple(sorted(hazardous))
    return races


def _hazardous_targets(statements: Sequence) -> Set[str]:
    writes: Dict[str, int] = {}
    for statement in statements:
        writes[statement.target] = writes.get(statement.target, 0) + 1
    hazardous: Set[str] = set()
    for statement in statements:
        if writes[statement.target] > 1:
            hazardous.add(statement.target)
        if any(
            statement.target in other.maps_read()
            for other in statements
            if other is not statement
        ):
            hazardous.add(statement.target)
    return hazardous


def mark_serial_folds(program: TriggerProgram) -> TriggerProgram:
    """Force every shard-race-hazardous statement onto the serial fold path.

    Rewrites the program's triggers in place (statements are frozen, so
    flagged ones are rebuilt with ``serial_fold=True``; stale flags from a
    previous marking are cleared).  Idempotent — the flag is recomputed from
    scratch on every call, which is how the multi-view catalog re-marks after
    merging statement lists across views.
    """
    for event, trigger in list(program.triggers.items()):
        rebuilt = _mark_statements(trigger.statements)
        if rebuilt is not None:
            program.triggers[event] = dataclasses.replace(trigger, statements=rebuilt)
    for event, batch_trigger in list(program.batch_triggers.items()):
        rebuilt = _mark_statements(batch_trigger.statements)
        if rebuilt is not None:
            program.batch_triggers[event] = dataclasses.replace(
                batch_trigger, statements=rebuilt
            )
    return program


def _mark_statements(statements: Sequence) -> Optional[Tuple]:
    """The statement tuple with recomputed flags, or ``None`` when unchanged."""
    hazardous = _hazardous_targets(statements)
    rebuilt = []
    changed = False
    for statement in statements:
        flag = statement.target in hazardous
        if statement.serial_fold != flag:
            statement = dataclasses.replace(statement, serial_fold=flag)
            changed = True
        rebuilt.append(statement)
    return tuple(rebuilt) if changed else None
