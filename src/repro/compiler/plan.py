"""The lowered batch plan: every executor decision about a program, made once.

:func:`lower_batch_plan` turns a :class:`~repro.compiler.triggers.TriggerProgram`
(plus the coefficient ring and the ``specialize`` switch) into an explicit
per-event schedule.  :class:`~repro.compiler.runtime.TriggerRuntime` walks it,
:func:`~repro.compiler.codegen.generate_python` prints it, and
``GeneratedTriggers.specializations``, ``explain()``'s ``[spec:…]`` and
``[recompute:…]`` labels, its ``-- 1 scan of Δ, N reads, M shared`` trigger
notes (:class:`RowReads`) and ``repro-lint``'s tally read it — so the two
compiled executors agree on every fork of the batch path because they decode
the same object, not because two copies of the rules are kept equal by hand.

The gates evaluated here and nowhere else:

* **ring** — unrolling ``apply_batch`` per event (``Counter``-counted delta
  tables, fused bare-count totals) is an int-multiplicity optimization, exact
  over ℤ.  Over the float field accumulation order is observable, so only a
  *whole program* of fused totals specializes — with Kahan-compensated folds
  (``kahan``), strictly more accurate than the generic loop's left-to-right
  sums.  Every other ring keeps the generic loop.
* **width** — each unrolled event is one filtered pass over the whole batch,
  so past :data:`~repro.compiler.cost.MAX_SPECIALIZED_EVENTS` events the
  generic single-pass grouping loop wins.
* **index demotion** — a ``total`` event whose target carries slice indexes
  becomes ``counter``: the fold must see a delta table to journal index
  upkeep (nullary-key targets never do; this stays defensive).
* an event without a batch trigger (hand-built programs only) keeps the
  whole program on the generic loop, which applies it per tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, Semiring
from repro.compiler.cost import (
    MAX_SPECIALIZED_EVENTS,
    batch_specialization_class,
    recompute_class,
    trigger_specialization,
    whole_batch_fold,
)
from repro.compiler.indexes import IndexSpecs, Positions, compute_index_specs
from repro.compiler.triggers import (
    BatchTrigger,
    RecomputeStatement,
    Trigger,
    TriggerProgram,
)
from repro.core.ast import Assign, MapRef, Var
from repro.core.normalization import to_polynomial
from repro.core.simplify import order_for_safety

@dataclass(frozen=True)
class RowReads:
    """What one trigger reads as a function of its update row alone — a
    per-tuple trigger's arguments, one entry of a batch trigger's ``∆R``.

    Every statement of an event sees the same row and the same pre-update
    state (Equation (1)), so such a read has one value per row however many
    statements, under whatever zero-guards, consume it: the generated executor
    evaluates the :attr:`shared` ones once, atop its single loop over ``∆R``.
    """

    #: ``((map, bound key positions, row column bound at each), uses)`` in
    #: first-use order: full-key lookups and slice-index buckets.
    reads: Tuple[Tuple[Tuple[str, Positions, Tuple[int, ...]], int], ...] = ()
    #: Python-level passes over ``∆R``: the fused statement loop (none if every
    #: statement is a ``whole_batch_fold``) plus each nested second-order scan.
    scans: int = 0
    #: Per statement, its :func:`ordered_monomials` (``None``: a whole-batch
    #: fold) — kept so the generator does not order them a second time.
    monomials: tuple = field(default=(), compare=False, repr=False)

    @property
    def shared(self) -> frozenset:
        return frozenset(read for read, uses in self.reads if uses > 1)

    def describe(self) -> str:
        scans = f"{self.scans} scan{'' if self.scans == 1 else 's'} of Δ"
        return f"-- {scans}, {len(self.reads)} reads, {len(self.shared)} shared"


def ordered_monomials(statement, bound_vars=()) -> list:
    """``(coefficient, factors)`` per monomial of ``statement.rhs``, the factors
    in the generator's binding order (safety-ordered, eager assignments)."""
    return [
        (m.coefficient, order_for_safety(m.factors, bound_vars=bound_vars, eager_assignments=True))
        for m in to_polynomial(statement.rhs)
    ]


def analyze_row_reads(trigger, specs: IndexSpecs, native: Optional[frozenset]) -> RowReads:
    """The :class:`RowReads` of a per-tuple or batch trigger (or of none).

    Replays the generator's binding discipline (safety-ordered monomials, left
    to right) tracking which variables name a *row column*: trigger arguments,
    the keys of a batch monomial's first ``∆R`` atom (the row in hand) and
    plain ``(v := column)`` aliases.  ``native``: see :class:`EventPlan`.
    """
    delta_map = getattr(trigger, "delta_map", None)
    uses: Dict[tuple, int] = {}
    monomials = []
    looped = nested = 0
    for statement in trigger.statements if trigger is not None else ():
        whole = delta_map and whole_batch_fold(statement, native is None or statement.target in native)
        monomials.append(None if whole else ordered_monomials(statement, trigger.argument_names))
        for _coefficient, factors in monomials[-1] or ():
            row = delta_map  # the first ∆R atom still to come, if any
            if row and not any(isinstance(f, MapRef) and f.name == row for f in factors):
                continue  # evaluated once, before the loop
            column = {name: index for index, name in enumerate(trigger.argument_names)}
            bound = set(column)
            for factor in factors:
                if isinstance(factor, Assign):
                    source = factor.expr
                    if factor.var not in bound and isinstance(source, Var) and source.name in column:
                        column[factor.var] = column[source.name]
                    bound.add(factor.var)
                elif isinstance(factor, MapRef) and factor.name == row:
                    row, looped = None, 1
                    for index, key in enumerate(factor.key_vars):
                        if key not in bound:
                            column[key] = index
                            bound.add(key)
                elif isinstance(factor, MapRef):
                    keys = factor.key_vars
                    positions = tuple(i for i, key in enumerate(keys) if key in bound)
                    if factor.name == delta_map and len(positions) < len(keys):
                        nested += 1
                    served = len(positions) == len(keys) or positions in specs.get(factor.name, ())
                    if positions and served and all(keys[i] in column for i in positions):
                        read = (factor.name, positions, tuple(column[keys[i]] for i in positions))
                        uses[read] = uses.get(read, 0) + 1
                    bound.update(keys)
    return RowReads(tuple(uses.items()), looped + nested, tuple(monomials))


@dataclass(frozen=True)
class EventPlan:
    """Everything the executors need to know about one ``(relation, sign)`` event."""

    relation: str
    sign: int
    #: ``"total"`` — every statement is a bare-count fold: sum the event's net
    #: tuple count, no delta table.  ``"counter"`` — build the delta table
    #: with one C-level ``Counter.update``.  ``"generic"`` — the event rides
    #: the generic grouping loop (all events of an unspecialized program).
    kind: str
    #: The arity check: length every update's ``values`` must have (``None``
    #: when no per-tuple trigger declares the relation's arguments).
    arity: Optional[int]
    trigger: Optional[Trigger]
    batch_trigger: Optional[BatchTrigger]
    #: Maps whose per-event changed keys the per-tuple / batch trigger's
    #: tracked recomputes consume (their folds collect ``touched`` keys).
    tracked: Tuple[str, ...] = ()
    batch_tracked: Tuple[str, ...] = ()
    #: Per batch statement, the ``[spec:…]`` class shown by ``explain()``.
    labels: Tuple[str, ...] = ()
    #: Per entry of :attr:`recomputes`, ``"pointwise"`` — the interpreted
    #: executor runs the body as a lowered closure of lookups at the group
    #: key — or ``"scan"`` (:func:`~repro.compiler.cost.recompute_class`).
    recompute_kinds: Tuple[str, ...] = ()
    #: Analysis inputs: index signatures, natively folding targets (``None``: all).
    specs: IndexSpecs = field(default_factory=dict, compare=False, repr=False)
    native: Optional[frozenset] = field(default=None, compare=False, repr=False)

    @cached_property
    def reads(self) -> RowReads:
        """What the per-tuple trigger (:attr:`batch_reads`: the batch trigger)
        reads per update row.  Analysed on first use: the generator prints from
        it, ``explain()`` and ``repro-lint`` report it, the runtime never asks."""
        return analyze_row_reads(self.trigger, self.specs, self.native)

    @cached_property
    def batch_reads(self) -> RowReads:
        return analyze_row_reads(self.batch_trigger, self.specs, self.native)

    @property
    def event(self) -> Tuple[str, int]:
        return (self.relation, self.sign)

    @property
    def recomputes(self) -> Tuple[RecomputeStatement, ...]:
        """The event's recomputes (its per-tuple and batch trigger share them)."""
        return (self.trigger or self.batch_trigger).recomputes


@dataclass(frozen=True)
class BatchPlan:
    """The per-event schedule of one program, in the executors' static order."""

    events: Tuple[EventPlan, ...]
    index_specs: IndexSpecs
    #: The events' arity checks as ``(relation, sign, arity)`` filters over a
    #: batch — ``sign`` is ``None`` where both signs of a relation agree, so
    #: a batch validates with one C-level filtered pass per relation.
    validations: Tuple[Tuple[str, Optional[int], int], ...]
    #: ``apply_batch`` is unrolled per event (every kind is total/counter).
    specialized: bool
    #: Fused totals fold Kahan-compensated (float-field programs only).
    kahan: bool

    @property
    def specializations(self) -> Dict[Tuple[str, int], str]:
        """``(relation, sign) -> "total" | "counter"``; empty when generic."""
        return {event.event: event.kind for event in self.events if event.kind != "generic"}


def tracked_source_maps(trigger) -> Tuple[str, ...]:
    """Maps whose per-event changed keys the trigger's recomputes consume."""
    names: Dict[str, None] = {}
    for recompute in trigger.recomputes:
        for source, _positions in recompute.source_projections or ():
            names[source] = None
    return tuple(names)


def lower_batch_plan(
    program: TriggerProgram,
    ring: Semiring = INTEGER_RING,
    specialize: bool = True,
) -> BatchPlan:
    """Lower ``program`` into its :class:`BatchPlan` over ``ring``.

    ``specialize=False`` pins every event to the generic loop (A/B
    benchmarking); otherwise events specialize wherever the gates in the
    module docstring allow.  Events are ordered ``(relation, -sign)`` — each
    event's fold is exact against the state it sees, so executing in this
    static order instead of first-seen batch order cannot be observed.
    """
    specs = compute_index_specs(program)
    # Targets folding with Python arithmetic: all of a native ring's (None),
    # else a semiring plan's ℤ-valued counter maps.
    native = None
    if ring is not INTEGER_RING and ring is not FLOAT_FIELD:
        semiring_plan = program.maintenance if not ring.is_ring else None
        native = frozenset(semiring_plan.counter_maps if semiring_plan else ())
    keys = sorted(
        set(program.triggers) | set(program.batch_triggers), key=lambda key: (key[0], -key[1])
    )
    kinds: Dict[Tuple[str, int], str] = {}
    for key, batch_trigger in program.batch_triggers.items():
        kind = trigger_specialization(batch_trigger)
        if kind == "total" and any(specs.get(s.target) for s in batch_trigger.statements):
            kind = "counter"
        kinds[key] = kind
    all_total = all(kind == "total" for kind in kinds.values())
    specialized = (
        specialize
        and (ring is INTEGER_RING or (ring is FLOAT_FIELD and all_total))
        and 0 < len(keys) <= MAX_SPECIALIZED_EVENTS
        and len(kinds) == len(keys)
    )
    events = []
    for key in keys:
        trigger = program.triggers.get(key)
        batch_trigger = program.batch_triggers.get(key)
        events.append(
            EventPlan(
                relation=key[0],
                sign=key[1],
                kind=kinds[key] if specialized else "generic",
                arity=len(trigger.argument_names) if trigger is not None else None,
                trigger=trigger,
                batch_trigger=batch_trigger,
                tracked=tracked_source_maps(trigger) if trigger is not None else (),
                batch_tracked=(
                    tracked_source_maps(batch_trigger) if batch_trigger is not None else ()
                ),
                labels=tuple(
                    batch_specialization_class(statement, batch_trigger)
                    for statement in (batch_trigger.statements if batch_trigger else ())
                ),
                recompute_kinds=tuple(
                    recompute_class(recompute)
                    for recompute in (trigger or batch_trigger).recomputes
                ),
                specs=specs,
                native=native,
            )
        )
    arities = {event.event: event.arity for event in events if event.arity is not None}
    validations = []
    for (relation, sign), arity in arities.items():
        if arities.get((relation, -sign)) != arity:
            validations.append((relation, sign, arity))
        elif (relation, None, arity) not in validations:
            validations.append((relation, None, arity))
    return BatchPlan(
        events=tuple(events),
        index_specs=specs,
        validations=tuple(validations),
        specialized=specialized,
        kahan=specialized and ring is FLOAT_FIELD,
    )
