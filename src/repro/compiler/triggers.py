"""Trigger intermediate representation (the paper's "NC⁰C" programs).

A compiled query becomes a :class:`TriggerProgram`: a set of map definitions
plus, for every base relation ``R`` and every sign, a :class:`Trigger` —
a list of increment statements executed when a tuple is inserted into or
deleted from ``R``.  Each :class:`Statement` increments one map by the value
of a right-hand-side expression that refers only to trigger arguments,
constants, conditions and *other maps* (never to base relations), which is
what makes per-value maintenance work constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.ast import AggSum, Expr, MapRef, walk
from repro.compiler.maps import MapDefinition


def _suffix(annotate, statement) -> str:
    """An annotation suffix for a describe() line (empty without an annotator)."""
    if annotate is None:
        return ""
    text = annotate(statement)
    return f"  {text}" if text else ""


@dataclass(frozen=True)
class Statement:
    """``target[target_keys] += rhs`` (for every key combination produced by ``rhs``).

    The right-hand side is an AGCA expression over map references and
    update-argument variables; evaluating ``AggSum(target_keys, rhs)`` under
    the trigger-argument bindings yields the per-key increments to apply.
    """

    target: str
    target_keys: Tuple[str, ...]
    rhs: Expr
    #: Set by the shard-race detector (:mod:`repro.compiler.verify`): this
    #: statement's fold writes a map another statement of the same dispatch
    #: reads, so it must never run on the parallel per-shard fold path.
    serial_fold: bool = False

    def as_aggregate(self) -> AggSum:
        return AggSum(self.target_keys, self.rhs)

    def maps_read(self) -> Tuple[str, ...]:
        """Names of the maps referenced by the right-hand side."""
        names = []
        for node in walk(self.rhs):
            if isinstance(node, MapRef) and node.name not in names:
                names.append(node.name)
        return tuple(names)

    def describe(self) -> str:
        keys = ", ".join(self.target_keys)
        serial = " [serial fold]" if self.serial_fold else ""
        return f"{self.target}[{keys}] += {self.rhs}{serial}"

    def __repr__(self) -> str:
        return f"Statement({self.describe()})"


@dataclass(frozen=True)
class BatchStatement:
    """``target[target_keys] += Σ rhs`` folded over a whole delta map ``∆R``.

    The right-hand side is the relation-valued delta of the target's
    definition: an AGCA expression whose atoms are references to materialized
    maps *and* to the transient delta map holding the pre-aggregated batch
    (``∆R : key → multiplicity``).  Evaluating ``AggSum(target_keys, rhs)``
    with the delta map bound in the environment yields, per distinct target
    key, the exact increment the whole batch causes — including the
    second-order interaction terms between tuples of the batch (the product
    rule's ``∆α·∆β``), which is what makes one evaluation per batch equal to
    per-tuple replay.

    ``projection``/``coefficient`` record the *key-projection analysis*: when
    the right-hand side is exactly ``coefficient · ∆R(k…)`` with distinct key
    variables and every target key drawn from them, ``projection`` holds the
    position of each target key inside the delta key tuple and executors can
    fold the pre-aggregated batch straight onto the target map — one
    read-modify-write per distinct key, no expression evaluation at all (the
    base-copy and single-atom aggregate statements, the hottest shapes).
    """

    target: str
    target_keys: Tuple[str, ...]
    rhs: Expr
    delta_map: str
    projection: Optional[Tuple[int, ...]] = None
    coefficient: Any = 1
    #: Key-tuple arity of the delta map (the relation's arity); lets the
    #: executors recognize an identity projection without re-walking the rhs.
    delta_arity: Optional[int] = None
    #: Set by the shard-race detector (:mod:`repro.compiler.verify`); see
    #: :attr:`Statement.serial_fold`.
    serial_fold: bool = False

    def as_aggregate(self) -> AggSum:
        return AggSum(self.target_keys, self.rhs)

    def maps_read(self) -> Tuple[str, ...]:
        """Names of the maps referenced by the right-hand side (incl. the delta map)."""
        names = []
        for node in walk(self.rhs):
            if isinstance(node, MapRef) and node.name not in names:
                names.append(node.name)
        return tuple(names)

    def projection_class(self) -> str:
        """The key-projection classification of this statement.

        ``"copy"`` — identity projection, the whole pre-aggregated batch is
        folded verbatim; ``"total"`` — nullary projection, the batch's total
        multiplicity feeds one scalar entry; ``"marginal"`` — a proper key
        subset, the batch is marginalized onto the target keys; ``"general"``
        — no pure projection, the right-hand side must be evaluated.
        """
        if self.projection is None:
            return "general"
        if self.delta_arity is not None and self.projection == tuple(range(self.delta_arity)):
            return "copy"
        if self.projection == ():
            return "total"
        return "marginal"

    def describe(self) -> str:
        keys = ", ".join(self.target_keys)
        mode = ""
        if self.projection is not None:
            mode = f" [project:{self.projection_class()} {self.projection}]"
        serial = " [serial fold]" if self.serial_fold else ""
        return f"{self.target}[{keys}] += fold(Δ={self.delta_map}){mode}{serial} {self.rhs}"

    def __repr__(self) -> str:
        return f"BatchStatement({self.describe()})"


@dataclass(frozen=True)
class RecomputeStatement:
    """``target[affected keys] := re-evaluation of body`` (the nested-aggregate rule).

    A map whose definition reads other materialized maps (extracted nested
    aggregates) cannot always be maintained by a closed-form increment: the
    delta of a condition ``x < M[k]`` is not linear in ``M``.  For update
    events that change one of those source maps, the compiler emits a
    recompute statement instead: after the event's ordinary statements have
    been applied (so every source map holds its *post-update* value, while
    ``target`` still holds its pre-update value), the target's definition is
    re-evaluated over the affected groups and the difference folded in.

    ``body`` is the definition with every base-relation atom replaced by a
    reference to a materialized base-copy map, so re-evaluation reads only
    maps — the runtime never stores base relations.

    ``source_projections`` drives the affected-group analysis: when not
    ``None`` it maps every source map to the positions of the target keys
    inside that source's key tuple, and the affected groups are exactly the
    projections of the source entries that changed during this event (the
    tracked mode — O(changed groups) per update, e.g. HAVING queries).  When
    ``None`` a changed source cannot be pinned to particular groups (e.g. a
    scalar global aggregate feeding every group) and the target is re-derived
    over all its groups from the source maps (still never from base data).
    ``depth`` orders recomputes within one event: inner hierarchies first.
    """

    target: str
    target_keys: Tuple[str, ...]
    body: Expr
    depth: int = 0
    source_projections: Optional[Tuple[Tuple[str, Tuple[int, ...]], ...]] = None

    def as_aggregate(self) -> AggSum:
        return AggSum(self.target_keys, self.body)

    def maps_read(self) -> Tuple[str, ...]:
        """Names of the source maps the re-evaluation body reads."""
        names = []
        for node in walk(self.body):
            if isinstance(node, MapRef) and node.name not in names:
                names.append(node.name)
        return tuple(names)

    @property
    def tracked(self) -> bool:
        return self.source_projections is not None

    def describe(self) -> str:
        keys = ", ".join(self.target_keys)
        mode = "tracked" if self.tracked else "full"
        return f"{self.target}[{keys}] := recompute[{mode}] {self.body}"

    def __repr__(self) -> str:
        return f"RecomputeStatement({self.describe()})"


@dataclass(frozen=True)
class Trigger:
    """All statements to execute for one update event kind ``±R(args)``.

    ``statements`` are evaluated against the pre-update map state and folded
    in afterwards (Equation (1) snapshot semantics); ``recomputes`` — present
    only for programs with nested aggregates — run after that fold, in
    ``depth`` order, each reading the now-current source maps.
    """

    relation: str
    sign: int
    argument_names: Tuple[str, ...]
    statements: Tuple[Statement, ...]
    recomputes: Tuple[RecomputeStatement, ...] = ()

    @property
    def event_name(self) -> str:
        sign = "insert" if self.sign == 1 else "delete"
        return f"on_{sign}_{self.relation}"

    def describe(self, annotate=None) -> str:
        """The trigger as text; ``annotate`` maps a statement to a suffix string."""
        sign = "+" if self.sign == 1 else "-"
        header = f"ON {sign}{self.relation}({', '.join(self.argument_names)}):"
        lines = [
            f"  {statement.describe()}{_suffix(annotate, statement)}"
            for statement in self.statements
        ]
        lines.extend(
            f"  {recompute.describe()}{_suffix(annotate, recompute)}"
            for recompute in self.recomputes
        )
        body = "\n".join(lines)
        return f"{header}\n{body}" if body else f"{header}\n  (no-op)"

    def __repr__(self) -> str:
        return (
            f"Trigger({self.event_name}, {len(self.statements)} statements, "
            f"{len(self.recomputes)} recomputes)"
        )


@dataclass(frozen=True)
class BatchTrigger:
    """All work for one batch group ``±∆R``: statements folded once per batch.

    ``statements`` are evaluated against the pre-batch map state with the
    pre-aggregated delta map bound under ``delta_map``, then folded — the
    batch generalization of Equation (1) snapshot semantics.  ``recomputes``
    run once per batch after the fold, over the union of affected groups,
    instead of once per tuple.
    """

    relation: str
    sign: int
    delta_map: str
    statements: Tuple[BatchStatement, ...]
    recomputes: Tuple[RecomputeStatement, ...] = ()

    #: Batch triggers take a delta map, not positional tuple arguments; the
    #: empty tuple lets codegen treat them uniformly with per-tuple triggers.
    @property
    def argument_names(self) -> Tuple[str, ...]:
        return ()

    @property
    def event_name(self) -> str:
        sign = "insert" if self.sign == 1 else "delete"
        return f"on_{sign}_{self.relation}"

    def describe(self, annotate=None, note: str = "") -> str:
        """The trigger as text; ``annotate`` maps a statement to a suffix
        string, ``note`` is appended to the header line."""
        sign = "+" if self.sign == 1 else "-"
        header = f"ON BATCH {sign}{self.relation} AS {self.delta_map}:" + (note and f"  {note}")
        lines = [
            f"  {statement.describe()}{_suffix(annotate, statement)}"
            for statement in self.statements
        ]
        lines.extend(
            f"  {recompute.describe()}{_suffix(annotate, recompute)}"
            for recompute in self.recomputes
        )
        body = "\n".join(lines)
        return f"{header}\n{body}" if body else f"{header}\n  (no-op)"

    def __repr__(self) -> str:
        return (
            f"BatchTrigger({self.event_name}, {len(self.statements)} statements, "
            f"{len(self.recomputes)} recomputes)"
        )


@dataclass
class MaintenancePlan:
    """How a semiring-compiled program maintains its maps under deletions.

    Present on :class:`TriggerProgram` only when the program was compiled for
    a proper semiring (no additive inverse).  ``strategies`` assigns every
    map one of the :mod:`repro.algebra.semirings` maintenance strategies —
    plus ``"counter"`` for the integer-valued base-copy maps that both
    tracked recomputes and support rebuilds read.  ``counter_maps`` lists
    those integer maps (executors run their folds with plain integer
    arithmetic and convert reads through ``ring.from_int``);
    ``relation_counters`` maps each base relation to its counter map;
    ``supports`` holds the :class:`repro.algebra.lattices.SupportPlan` of
    every support-structure map.
    """

    ring_name: str
    strategies: Dict[str, str] = field(default_factory=dict)
    counter_maps: Tuple[str, ...] = ()
    supports: Dict[str, Any] = field(default_factory=dict)
    relation_counters: Dict[str, str] = field(default_factory=dict)

    def strategy_for(self, name: str) -> Optional[str]:
        return self.strategies.get(name)

    def renamed(self, renaming: Dict[str, str]) -> "MaintenancePlan":
        """The plan under a map renaming (used by the multi-view catalog)."""
        import dataclasses as _dataclasses

        def new(name: str) -> str:
            return renaming.get(name, name)

        return MaintenancePlan(
            ring_name=self.ring_name,
            strategies={new(name): strategy for name, strategy in self.strategies.items()},
            counter_maps=tuple(new(name) for name in self.counter_maps),
            supports={
                new(name): _dataclasses.replace(plan, map_name=new(name))
                for name, plan in self.supports.items()
            },
            relation_counters={
                relation: new(name) for relation, name in self.relation_counters.items()
            },
        )

    def merge(self, other: "MaintenancePlan") -> None:
        """Fold another program's plan into this one (same ring required)."""
        if other.ring_name != self.ring_name:
            raise ValueError(
                f"cannot merge maintenance plans over different rings "
                f"({self.ring_name!r} vs {other.ring_name!r})"
            )
        self.strategies.update(other.strategies)
        merged = dict.fromkeys(self.counter_maps)
        merged.update(dict.fromkeys(other.counter_maps))
        self.counter_maps = tuple(merged)
        self.supports.update(other.supports)
        self.relation_counters.update(other.relation_counters)


@dataclass
class TriggerProgram:
    """A compiled query: the map hierarchy plus one trigger per event kind.

    ``triggers`` hold the per-tuple programs (the paper's single-tuple
    ``±R(~u)`` events); ``batch_triggers`` hold, for the same events, the
    relation-valued variants whose parameter is a whole delta map.  Programs
    without batch triggers (hand-built ones) still execute — the executors
    apply events lacking one per tuple.
    """

    result_map: str
    maps: Dict[str, MapDefinition]
    triggers: Dict[Tuple[str, int], Trigger]
    schema: Dict[str, Tuple[str, ...]]
    batch_triggers: Dict[Tuple[str, int], BatchTrigger] = field(default_factory=dict)
    #: Semiring maintenance contract; ``None`` for ring-compiled programs.
    maintenance: Optional[MaintenancePlan] = None

    def trigger_for(self, relation: str, sign: int) -> Optional[Trigger]:
        return self.triggers.get((relation, sign))

    def batch_trigger_for(self, relation: str, sign: int) -> Optional[BatchTrigger]:
        return self.batch_triggers.get((relation, sign))

    @property
    def result_definition(self) -> MapDefinition:
        return self.maps[self.result_map]

    @property
    def group_vars(self) -> Tuple[str, ...]:
        return self.result_definition.key_vars

    def auxiliary_maps(self) -> Tuple[MapDefinition, ...]:
        """All maps other than the result map, ordered by hierarchy level then name."""
        others = [definition for name, definition in self.maps.items() if name != self.result_map]
        return tuple(sorted(others, key=lambda definition: (definition.level, definition.name)))

    def statement_count(self) -> int:
        return sum(
            len(trigger.statements) + len(trigger.recomputes)
            for trigger in self.triggers.values()
        )

    def explain(self, costs: bool = True) -> str:
        """A human-readable listing of the whole program (maps + triggers).

        With ``costs`` (the default) every statement line carries its static
        per-update cost class (:func:`repro.compiler.cost.statement_cost_class`)
        derived from the program's slice-index signatures; batch statements
        also carry the ``[spec:…]`` class and recomputes the
        ``[recompute:pointwise|scan]`` class of the lowered batch plan
        (:func:`repro.compiler.plan.lower_batch_plan`), and every batch
        trigger's header what the generator fused — ``-- 1 scan of Δ, N reads,
        M shared`` (:class:`repro.compiler.plan.RowReads`); a support-structure
        map's ``[maint:…]`` label names its exhaustion-recovery read
        (``recover:index(0)`` | ``lookup`` | ``scan``).  Annotation is
        best-effort: programs whose statements fall outside the static
        analysis (hand-built IR with exotic right-hand sides) print without
        annotations instead of failing.
        """
        # Imported here: the plan module imports this one at module level.
        from repro.compiler.cost import statement_cost_class
        from repro.compiler.plan import lower_batch_plan

        # The plan carries the slice-index signatures the cost classes are
        # graded against and the per-statement ``[spec:…]`` classes.
        try:
            plan = lower_batch_plan(self)
        except Exception:
            plan = None

        def cost(statement, argument_names):
            if plan is None or not costs:
                return ""
            try:
                return f"-- {statement_cost_class(statement, plan.index_specs, argument_names)}"
            except Exception:
                return ""

        # Per statement (by identity) the plan's label: ``[spec:…]`` for batch
        # statements, ``[recompute:pointwise|scan]`` for recomputes.
        labels = {}
        fused = {}
        for event in plan.events if plan is not None else ():
            if event.batch_trigger is not None:
                fused[event.event] = event.batch_reads.describe()
                for statement, label in zip(event.batch_trigger.statements, event.labels):
                    labels[id(statement)] = f"[spec:{label}]"
            for recompute, kind in zip(event.recomputes, event.recompute_kinds):
                labels[id(recompute)] = f"[recompute:{kind}]"

        def annotate(statement, argument_names=()):
            parts = (cost(statement, argument_names), labels.get(id(statement), ""))
            return " ".join(part for part in parts if part)

        lines = ["MAPS:"]
        for definition in sorted(self.maps.values(), key=lambda d: (d.level, d.name)):
            maint = ""
            if self.maintenance is not None:
                strategy = self.maintenance.strategy_for(definition.name)
                support = self.maintenance.supports.get(definition.name)
                if support is not None:
                    # How an exhausted group finds its rows again.
                    strategy = f"{strategy} recover:{support.recovery}"
                if strategy:
                    maint = f"  [maint:{strategy}]"
            lines.append(f"  [level {definition.level}] {definition.describe()}{maint}")
        order = lambda pair: (pair[0], -pair[1])  # noqa: E731
        lines.append("TRIGGERS:")
        for key in sorted(self.triggers, key=order):
            trigger = self.triggers[key]
            lines.append(
                trigger.describe(
                    annotate=lambda s, args=trigger.argument_names: annotate(s, args)
                )
            )
        if self.batch_triggers:
            lines.append("BATCH TRIGGERS:")
            for key in sorted(self.batch_triggers, key=order):
                lines.append(self.batch_triggers[key].describe(annotate, fused.get(key, "")))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TriggerProgram(result={self.result_map!r}, maps={len(self.maps)}, "
            f"triggers={len(self.triggers)}, statements={self.statement_count()})"
        )
