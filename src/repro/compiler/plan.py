"""The lowered batch plan: every executor decision about a program, made once.

:func:`lower_batch_plan` turns a :class:`~repro.compiler.triggers.TriggerProgram`
(plus the coefficient ring and the ``specialize`` switch) into an explicit
per-event schedule.  :class:`~repro.compiler.runtime.TriggerRuntime` walks it,
:func:`~repro.compiler.codegen.generate_python` prints it, and
``GeneratedTriggers.specializations``, ``explain()``'s ``[spec:…]`` and
``[recompute:…]`` labels and ``repro-lint``'s tally read it — so the two
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

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, Semiring
from repro.compiler.cost import (
    MAX_SPECIALIZED_EVENTS,
    batch_specialization_class,
    recompute_class,
    trigger_specialization,
)
from repro.compiler.indexes import IndexSpecs, compute_index_specs
from repro.compiler.triggers import (
    BatchTrigger,
    RecomputeStatement,
    Trigger,
    TriggerProgram,
)


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
