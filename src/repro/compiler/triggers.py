"""The trigger intermediate representation (the paper's "NC⁰C" programs).

A compiled query becomes a :class:`TriggerProgram`: a set of map definitions
plus, for every base relation ``R`` and every sign, one :class:`BatchTrigger`
— the increment statements executed when a delta ``±∆R`` reaches ``R``.  Each
:class:`BatchStatement` increments one map by the value of a right-hand side
that refers only to the delta map ``∆R : values → count``, constants,
conditions and *other maps* (never to base relations), which is what makes
per-value maintenance work constant.  A single-tuple update ``±R(t)`` is the
one-row delta ``{t: 1}``: in the ring of databases it is just a small ``∆D``,
and the relation-valued delta rule covers it exactly, the ``∆R·∆R`` term of a
self-join included.

Every statement decodes its right-hand side once into :attr:`monomials`
(:func:`decode_monomials`): the monomials in the one left-to-right binding
order both executors evaluate, each map read annotated with the key positions
bound when it runs.  Index specs, row reads, cost classes, the verifier and
the code generator read that annotation instead of re-deriving the order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, NamedTuple, Optional, Tuple

from repro.core.ast import AggSum, Assign, Expr, MapRef, walk
from repro.core.normalization import Monomial, from_polynomial, to_polynomial
from repro.core.simplify import order_for_safety
from repro.compiler.maps import MapDefinition


class DecodedMonomial(NamedTuple):
    """One monomial of a statement body, in the order it is evaluated."""

    coefficient: Any
    factors: Tuple[Expr, ...]
    #: Per factor, the positions of the variables it binds — a map
    #: reference's keys, an assignment's target — that are already bound
    #: when it runs; ``None`` for a factor that binds nothing.
    bound: Tuple[Optional[Tuple[int, ...]], ...]

    def reads(self):
        """``(map reference, bound key positions)`` per map read, in order."""
        return [(f, p) for f, p in zip(self.factors, self.bound) if isinstance(f, MapRef)]


def decode_monomials(body: Expr, bound_vars: Tuple[str, ...] = ()) -> Tuple[DecodedMonomial, ...]:
    """``body``'s monomials in their one left-to-right binding order.

    The order is the eager safety order (:func:`~repro.core.simplify.order_for_safety`
    with ``eager_assignments``) under ``bound_vars``, the variables bound
    before the statement runs; each factor is annotated as
    :class:`DecodedMonomial` describes.  A stored batch right-hand side is
    already in this order (the ring normal form stores it so), so its decode
    only adds the annotation.
    """
    decoded = []
    for monomial in to_polynomial(body):
        factors = order_for_safety(monomial.factors, bound_vars=bound_vars, eager_assignments=True)
        bound = set(bound_vars)
        annotation = []
        for factor in factors:
            if isinstance(factor, MapRef):
                variables = factor.key_vars
            elif isinstance(factor, Assign):
                variables = (factor.var,)
            else:
                annotation.append(None)
                continue
            annotation.append(tuple(i for i, name in enumerate(variables) if name in bound))
            bound.update(variables)
        decoded.append(DecodedMonomial(monomial.coefficient, factors, tuple(annotation)))
    return tuple(decoded)


def _suffix(annotate, statement) -> str:
    """An annotation suffix for a describe() line (empty without an annotator)."""
    if annotate is None:
        return ""
    text = annotate(statement)
    return f"  {text}" if text else ""


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
    one-at-a-time replay.

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

    @cached_property
    def monomials(self) -> Tuple[DecodedMonomial, ...]:
        """The right-hand side, decoded once: nothing is bound before a batch
        statement runs — its ``∆R`` reads bind the row."""
        return decode_monomials(self.rhs)

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
        return f"{self.target}[{keys}] += fold(Δ={self.delta_map}){mode} {self.rhs}"

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

    Both executors evaluate the decoded order (:attr:`monomials`), not the
    stored ``body`` spelling: a tracked recompute starts with its target keys
    bound, a full one with nothing.
    """

    target: str
    target_keys: Tuple[str, ...]
    body: Expr
    depth: int = 0
    source_projections: Optional[Tuple[Tuple[str, Tuple[int, ...]], ...]] = None

    @cached_property
    def monomials(self) -> Tuple[DecodedMonomial, ...]:
        """The body, decoded once under the bindings the re-evaluation starts with."""
        return decode_monomials(self.body, self.target_keys if self.tracked else ())

    def as_aggregate(self) -> AggSum:
        """The re-evaluation as one aggregate, its body in the decoded order."""
        body = from_polynomial([Monomial(m.coefficient, m.factors) for m in self.monomials])
        return AggSum(self.target_keys, body)

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
class BatchTrigger:
    """All work for one update event ``±∆R``: statements folded once per delta.

    ``statements`` are evaluated against the pre-update map state with the
    pre-aggregated delta map bound under ``delta_map``, then folded — the
    relation-valued form of Equation (1) snapshot semantics.  ``recomputes``
    run once per delta after the fold, over the union of affected groups,
    instead of once per tuple.  A single-tuple update runs the same trigger
    on a one-row delta map.
    """

    relation: str
    sign: int
    delta_map: str
    statements: Tuple[BatchStatement, ...]
    recomputes: Tuple[RecomputeStatement, ...] = ()

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

    def merged(self, other: "MaintenancePlan") -> "MaintenancePlan":
        """A new plan: this one plus another program's (same ring required).
        A map both cover keeps this plan's strategy, the first materializer's."""
        if other.ring_name != self.ring_name:
            raise ValueError(
                f"cannot merge maintenance plans over different rings "
                f"({self.ring_name!r} vs {other.ring_name!r})"
            )
        return MaintenancePlan(
            ring_name=self.ring_name,
            strategies=_extended(self.strategies, other.strategies),
            counter_maps=tuple(dict.fromkeys(self.counter_maps + other.counter_maps)),
            supports=_extended(self.supports, other.supports),
            relation_counters=_extended(self.relation_counters, other.relation_counters),
        )


def _extended(mine: Dict[str, Any], theirs: Dict[str, Any]) -> Dict[str, Any]:
    """``mine`` plus the entries of ``theirs`` for keys it lacks, in that order."""
    extended = dict(mine)
    for key, value in theirs.items():
        extended.setdefault(key, value)
    return extended


@dataclass(frozen=True)
class Registration:
    """What compiling one view against a map catalog (``compile_query(...,
    catalog=)``) adds to its sharing registry; ``MapCatalog.absorb`` commits
    it.  ``base`` is the catalog state it was compiled against."""

    base: object
    #: Sharing key -> ``(map name, key order)`` of every map the view adds.
    entries: Dict[object, Tuple[str, Tuple[int, ...]]]
    #: Added map -> the ``(sharing key, key order)`` requests compiling its
    #: statements made, in order.
    requests: Dict[str, Tuple[Tuple[object, Tuple[int, ...]], ...]]
    #: The catalog maps read where an isolated compile would build its own
    #: copy, the statements of those copies, and how many read transposed.
    maps_deduplicated: int = 0
    statements_deduplicated: int = 0
    maps_transposed: int = 0


@dataclass
class TriggerProgram:
    """A compiled query: the map hierarchy plus one trigger per event kind.

    ``triggers`` maps every ``(relation, sign)`` event to its
    :class:`BatchTrigger`, whose parameter is the event's delta map; a
    single-tuple update runs it on a one-row map.
    """

    result_map: str
    maps: Dict[str, MapDefinition]
    triggers: Dict[Tuple[str, int], BatchTrigger]
    schema: Dict[str, Tuple[str, ...]]
    #: Semiring maintenance contract; ``None`` for ring-compiled programs.
    maintenance: Optional[MaintenancePlan] = None
    #: The sharing-registry additions of the compile (see :class:`Registration`).
    registration: Optional[Registration] = field(default=None, compare=False, repr=False)

    def trigger_for(self, relation: str, sign: int) -> Optional[BatchTrigger]:
        return self.triggers.get((relation, sign))

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
        derived from the program's slice-index signatures; statements also
        carry the ``[spec:…]`` class and recomputes the
        ``[recompute:pointwise|scan]`` class of the lowered batch plan
        (:func:`repro.compiler.plan.lower_batch_plan`), and every trigger's
        header what the generator fused — ``-- 1 scan of Δ, N reads,
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

        def cost(statement):
            if plan is None or not costs:
                return ""
            try:
                return f"-- {statement_cost_class(statement, plan.index_specs)}"
            except Exception:
                return ""

        # Per statement (by identity) the plan's label: ``[spec:…]`` for
        # statements, ``[recompute:pointwise|scan]`` for recomputes; per
        # trigger what the generator fused.
        labels = {}
        fused = {}
        for event in plan.events if plan is not None else ():
            fused[event.event] = event.reads.describe()
            for statement, label in zip(event.trigger.statements, event.labels):
                labels[id(statement)] = f"[spec:{label}]"
            for recompute, kind in zip(event.recomputes, event.recompute_kinds):
                labels[id(recompute)] = f"[recompute:{kind}]"

        def annotate(statement):
            parts = (cost(statement), labels.get(id(statement), ""))
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
        lines.append("BATCH TRIGGERS:")
        for key in sorted(self.triggers, key=lambda pair: (pair[0], -pair[1])):
            lines.append(self.triggers[key].describe(annotate, fused.get(key, "")))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"TriggerProgram(result={self.result_map!r}, maps={len(self.maps)}, "
            f"triggers={len(self.triggers)}, statements={self.statement_count()})"
        )
