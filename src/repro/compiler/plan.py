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

A batch reaches the executors already grouped — a
:class:`~repro.gmr.database.Delta`, one signed delta map per relation; a
single update is one relation's one-row map — so the one per-event choice
left is whether an all-bare-count trigger (``total``) folds the event's net
tuple count ``Σ∆R`` through its fused ``total_batch_*`` function instead of
running its trigger on the map.  Over a ring the events are the relations
(each program trigger is signed); under a proper semiring they are the
``(relation, sign)`` pairs its executors split a delta map into.  The gates
evaluated here and nowhere else:

* **ring** — the fused total is an int-multiplicity optimization, exact over
  ℤ.  Over the float field accumulation order is observable, so only a
  *whole program* of fused totals fuses — with Kahan-compensated folds
  (``kahan``), strictly more accurate than left-to-right sums.  Every other
  ring runs every event's trigger.
* **index demotion** — a ``total`` event whose target carries slice indexes
  stays ``generic``: the fold must see a delta table to journal index upkeep
  (nullary-key targets never do; this stays defensive).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, Semiring
from repro.compiler.cost import (
    batch_specialization_class,
    recompute_class,
    trigger_specialization,
    whole_batch_fold,
)
from repro.compiler.indexes import IndexSpecs, Positions, compute_index_specs
from repro.compiler.triggers import BatchTrigger, RecomputeStatement, TriggerProgram
from repro.core.ast import Assign, MapRef, Var


@dataclass(frozen=True)
class RowReads:
    """What one trigger reads as a function of one row of its ``∆R`` alone.

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

    @property
    def shared(self) -> frozenset:
        return frozenset(read for read, uses in self.reads if uses > 1)

    def describe(self) -> str:
        scans = f"{self.scans} scan{'' if self.scans == 1 else 's'} of Δ"
        return f"-- {scans}, {len(self.reads)} reads, {len(self.shared)} shared"


def analyze_row_reads(trigger: BatchTrigger, specs: IndexSpecs, native: Optional[frozenset]) -> RowReads:
    """The :class:`RowReads` of one trigger.

    Walks each statement's decoded monomials (the generator's order, left to
    right, every read annotated with its bound key positions) tracking which
    variables name a *row column*: the keys of a monomial's first ``∆R`` atom
    (the row in hand) and plain ``(v := column)`` aliases.  ``native``: see
    :class:`EventPlan`.
    """
    delta_map = trigger.delta_map
    uses: Dict[tuple, int] = {}
    looped = nested = 0
    for statement in trigger.statements:
        if whole_batch_fold(statement, native is None or statement.target in native):
            continue
        for monomial in statement.monomials:
            if not any(isinstance(f, MapRef) and f.name == delta_map for f in monomial.factors):
                continue  # evaluated once, before the loop
            row = delta_map  # the first ∆R atom, still to come
            column: Dict[str, int] = {}
            for factor, positions in zip(monomial.factors, monomial.bound):
                if isinstance(factor, Assign):
                    source = factor.expr
                    if not positions and isinstance(source, Var) and source.name in column:
                        column[factor.var] = column[source.name]
                elif isinstance(factor, MapRef) and factor.name == row:
                    row, looped = None, 1
                    for index, key in enumerate(factor.key_vars):
                        if index not in positions:
                            column.setdefault(key, index)
                elif isinstance(factor, MapRef):
                    keys = factor.key_vars
                    if factor.name == delta_map and len(positions) < len(keys):
                        nested += 1
                    served = len(positions) == len(keys) or positions in specs.get(factor.name, ())
                    if positions and served and all(keys[i] in column for i in positions):
                        read = (factor.name, positions, tuple(column[keys[i]] for i in positions))
                        uses[read] = uses.get(read, 0) + 1
    return RowReads(tuple(uses.items()), looped + nested)


@dataclass(frozen=True)
class EventPlan:
    """Everything the executors need to know about one event: a relation's
    signed trigger over a ring, one ``(relation, sign)`` under a semiring."""

    relation: str
    sign: int
    #: ``"total"`` — every statement is a bare-count fold: the fused trigger
    #: folds the event's net (signed) tuple count ``Σ∆R``.  ``"generic"`` — the
    #: trigger runs on the event's delta map.
    kind: str
    #: The arity check: length of every key of the event's delta map (the
    #: relation's declared arity in ``program.schema``).
    arity: Optional[int]
    trigger: BatchTrigger
    #: Maps whose per-event changed keys the trigger's tracked recomputes
    #: consume (their folds collect ``touched`` keys).
    tracked: Tuple[str, ...] = ()
    #: Per statement, the ``[spec:…]`` class shown by ``explain()``.
    labels: Tuple[str, ...] = ()
    #: Per statement, whether its fold is one inline update of a nullary
    #: target: no slice index, no tracked recompute reading it, a ring (a
    #: semiring's post-value change capture goes through the fold kernels).
    #: Both executors skip such a fold when its increment cancelled to zero;
    #: a kernel fold counts every key it is handed.  A fused total's
    #: statements fold inline too.
    scalar: Tuple[bool, ...] = ()
    #: Per entry of :attr:`recomputes`, ``"pointwise"`` — the interpreted
    #: executor runs the body as a lowered closure of lookups at the group
    #: key — or ``"scan"`` (:func:`~repro.compiler.cost.recompute_class`).
    recompute_kinds: Tuple[str, ...] = ()
    #: Analysis inputs: index signatures, natively folding targets (``None``: all).
    specs: IndexSpecs = field(default_factory=dict, compare=False, repr=False)
    native: Optional[frozenset] = field(default=None, compare=False, repr=False)

    @cached_property
    def reads(self) -> RowReads:
        """What the trigger reads per row of ``∆R``.  Analysed on first use:
        the generator prints from it, ``explain()`` and ``repro-lint`` report
        it, the runtime never asks."""
        return analyze_row_reads(self.trigger, self.specs, self.native)

    @property
    def event(self) -> Tuple[str, int]:
        return (self.relation, self.sign)

    @property
    def recomputes(self) -> Tuple[RecomputeStatement, ...]:
        return self.trigger.recomputes


@dataclass(frozen=True)
class BatchPlan:
    """The per-event schedule of one program, in the executors' static order."""

    events: Tuple[EventPlan, ...]
    index_specs: IndexSpecs
    #: Fused totals fold Kahan-compensated (float-field programs only).
    kahan: bool

    @property
    def specializations(self) -> Dict[Tuple[str, int], str]:
        """``(relation, sign) -> "total"`` for every event that fuses."""
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

    ``specialize=False`` keeps every event ``generic`` (A/B benchmarking);
    otherwise ``total`` events fuse wherever the gates in the module
    docstring allow.  One event per program trigger — per relation over a
    ring — listed ``(relation, -sign)``; the executors run a batch's events
    in its own order (:func:`~repro.compiler.kernels.make_apply_batch`).
    """
    specs = compute_index_specs(program)
    # Targets folding with Python arithmetic: all of a native ring's (None),
    # else a semiring plan's ℤ-valued counter maps.
    native = None
    if ring is not INTEGER_RING and ring is not FLOAT_FIELD:
        semiring_plan = program.maintenance if not ring.is_ring else None
        native = frozenset(semiring_plan.counter_maps if semiring_plan else ())
    keys = sorted(program.triggers, key=lambda key: (key[0], -key[1]))
    totals = {
        key
        for key, trigger in program.triggers.items()
        if trigger_specialization(trigger) == "total"
        and not any(specs.get(s.target) for s in trigger.statements)
    }
    all_total = bool(keys) and totals.issuperset(keys)
    if not (specialize and (ring is INTEGER_RING or (ring is FLOAT_FIELD and all_total))):
        totals = set()
    events = []
    for key in keys:
        trigger = program.triggers[key]
        fused = key in totals
        columns = program.schema.get(key[0])
        tracked = tracked_source_maps(trigger)
        events.append(
            EventPlan(
                relation=key[0],
                sign=key[1],
                kind="total" if fused else "generic",
                arity=None if columns is None else len(columns),
                trigger=trigger,
                tracked=tracked,
                labels=tuple(
                    batch_specialization_class(statement, trigger if fused else None)
                    for statement in trigger.statements
                ),
                recompute_kinds=tuple(recompute_class(r) for r in trigger.recomputes),
                scalar=tuple(
                    ring.is_ring
                    and not statement.target_keys
                    and specs.get(statement.target) is None
                    and statement.target not in tracked
                    for statement in trigger.statements
                ),
                specs=specs,
                native=native,
            )
        )
    return BatchPlan(
        events=tuple(events),
        index_specs=specs,
        kahan=bool(totals) and ring is FLOAT_FIELD,
    )
