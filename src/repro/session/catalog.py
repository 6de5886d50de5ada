"""Cross-view deduplication of materialized maps (the shared map catalog).

A materialized map is a function of its keys, and the paper's factorization
(Example 1.3) exists so that each such function is stored once and read
wherever it is needed.  The compiler already shares maps *within* one query
(``Compiler._shared_map``).  The :class:`MapCatalog` lifts the same idea
across queries, with the same identity
(:func:`repro.compiler.normal_form.sharing_key`): every map definition of
every compiled view is keyed by its definition modulo binding spelling
(``(k := v)`` substituted away), key order, variable naming and — over
commutative rings — factor order.  When two views' hierarchies contain the
same function the catalog keeps a single map: its triggers run once per
update and its slice indexes are maintained once, instead of once per view.
A map equal to a shared one up to key order is read as that map with its
keys permuted (:func:`rename_map_references`), so a transposed read is a
read bound at other positions, served by an ordinary slice index.

A view's *result* map participates too: registering the same query twice (a
common dashboard pattern) makes the second view a zero-cost alias of the
first, and a view whose whole query equals an auxiliary map of another view
simply reads that map — unless only a transposed map exists: a view result
keeps the user's key order.

The catalog accumulates the merged map set and trigger statements of all
absorbed views and can emit them as one combined
:class:`~repro.compiler.triggers.TriggerProgram`, executable by the ordinary
:class:`~repro.compiler.runtime.TriggerRuntime` or the generated backend —
the sharing is invisible to the execution layer.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.compiler.compile import build_batch_trigger
from repro.compiler.maps import MapDefinition, dependency_depths
from repro.compiler.normal_form import read_positions, sharing_key
from repro.compiler.verify import mark_serial_folds
from repro.compiler.triggers import (
    BatchStatement,
    BatchTrigger,
    MaintenancePlan,
    RecomputeStatement,
    Statement,
    Trigger,
    TriggerProgram,
)
from repro.core.ast import Add, AggSum, Assign, Compare, Expr, MapRef, Mul, Neg
from repro.core.delta import UpdateEvent


def rename_map_references(
    expr: Expr,
    renaming: Dict[str, str],
    permutations: Mapping[str, Tuple[int, ...]] = {},
) -> Expr:
    """Rewrite map references throughout an expression: rename, and permute keys.

    A reference to ``name`` becomes one to ``renaming[name]``; when
    ``permutations`` holds ``name`` (the shared map stores the same function
    with its keys in another order), key ``j`` of the new reference is key
    ``permutations[name][j]`` of the old one.
    """
    if isinstance(expr, MapRef):
        new_name = renaming.get(expr.name, expr.name)
        permutation = permutations.get(expr.name)
        if permutation is not None:
            return MapRef(new_name, tuple(expr.key_vars[p] for p in permutation))
        return expr if new_name == expr.name else MapRef(new_name, expr.key_vars)
    if isinstance(expr, Add):
        return Add(tuple(rename_map_references(t, renaming, permutations) for t in expr.terms))
    if isinstance(expr, Mul):
        return Mul(tuple(rename_map_references(f, renaming, permutations) for f in expr.factors))
    if isinstance(expr, Neg):
        return Neg(rename_map_references(expr.expr, renaming, permutations))
    if isinstance(expr, AggSum):
        return AggSum(expr.group_vars, rename_map_references(expr.expr, renaming, permutations))
    if isinstance(expr, Compare):
        return Compare(
            rename_map_references(expr.left, renaming, permutations),
            expr.op,
            rename_map_references(expr.right, renaming, permutations),
        )
    if isinstance(expr, Assign):
        return Assign(expr.var, rename_map_references(expr.expr, renaming, permutations))
    # Const, Var, Rel carry no map references.
    return expr


class MapCatalog:
    """A deduplicating registry of materialized maps across compiled views.

    Views are added with :meth:`absorb`; the current union program is
    produced by :meth:`program`.  ``maps_deduplicated`` /
    ``statements_deduplicated`` count how much maintenance work sharing
    eliminated (each deduplicated statement would have run on every matching
    update of every additional view).

    The identity key is the compiler's
    (:func:`repro.compiler.normal_form.sharing_key`): a map is a function of
    its keys, so definitions equal modulo binding spelling and key order
    share one map, read with permuted keys; with ``ac_dedup`` (the default)
    also modulo commutativity — two views spelling one join in different
    factor orders share their maps.  Pass ``ac_dedup=False`` for
    non-commutative coefficient rings, where reordering a product is not an
    equivalence.
    """

    def __init__(self, schema, ac_dedup: bool = True):
        self.schema: Dict[str, Tuple[str, ...]] = {
            name: tuple(columns) for name, columns in schema.items()
        }
        self._commutative = ac_dedup
        #: Shared map name -> definition (the union hierarchy).
        self.maps: Dict[str, MapDefinition] = {}
        #: Sharing key -> (shared map name, its key order).
        self._registry: Dict[object, Tuple[str, Tuple[int, ...]]] = {}
        #: Merged per-event statements, in absorption order.
        self._statements: Dict[Tuple[str, int], List[Statement]] = {}
        #: Merged per-event batch (relation-valued) statements.
        self._batch_statements: Dict[Tuple[str, int], List[BatchStatement]] = {}
        #: Merged per-event recompute statements (nested-aggregate readers).
        self._recomputes: Dict[Tuple[str, int], List[RecomputeStatement]] = {}
        #: View name -> the shared map holding its result.
        self.result_maps: Dict[str, str] = {}
        #: Merged semiring maintenance contract of all absorbed views
        #: (``None`` until a plan-carrying program is absorbed).
        self.maintenance: "MaintenancePlan | None" = None
        #: How many map definitions were answered by an existing shared map.
        self.maps_deduplicated = 0
        #: How many trigger statements were dropped because their target map
        #: is already maintained.
        self.statements_deduplicated = 0
        #: How many of the deduplicated maps are read with their keys permuted.
        self.maps_transposed = 0

    # -- transactional support -------------------------------------------------

    def checkpoint(self):
        """An opaque snapshot of the catalog's state (see :meth:`rollback`).

        Registration into a running group is two steps — absorb into the
        catalog, then rebuild the execution artifacts — and the second can
        fail (e.g. the generated backend rejecting the coefficient ring).  The
        group snapshots the catalog first and rolls back on failure, so a
        failed registration never leaves orphaned maps that a later view
        could silently deduplicate onto.
        """
        return (
            dict(self._registry),
            dict(self.maps),
            {event: list(statements) for event, statements in self._statements.items()},
            dict(self.result_maps),
            self.maps_deduplicated,
            self.statements_deduplicated,
            {event: list(statements) for event, statements in self._recomputes.items()},
            {event: list(statements) for event, statements in self._batch_statements.items()},
            # renamed({}) deep-copies the plan's dicts, so a later merge into
            # the live plan cannot leak into the checkpoint.
            self.maintenance.renamed({}) if self.maintenance is not None else None,
            self.maps_transposed,
        )

    def rollback(self, state) -> None:
        """Restore the state captured by :meth:`checkpoint`."""
        (
            self._registry,
            self.maps,
            self._statements,
            self.result_maps,
            self.maps_deduplicated,
            self.statements_deduplicated,
            self._recomputes,
            self._batch_statements,
        ) = (
            dict(state[0]),
            dict(state[1]),
            {event: list(statements) for event, statements in state[2].items()},
            dict(state[3]),
            state[4],
            state[5],
            {event: list(statements) for event, statements in state[6].items()},
            {event: list(statements) for event, statements in state[7].items()},
        )
        self.maintenance = state[8]
        self.maps_transposed = state[9]

    # -- registration ---------------------------------------------------------

    def absorb(self, view_name: str, program: TriggerProgram) -> Tuple[str, Tuple[str, ...]]:
        """Merge one compiled single-view program into the catalog.

        Returns ``(result_map_name, newly_added_map_names)``; the result map
        name differs from ``view_name`` exactly when the view's whole query
        was deduplicated onto an existing shared map.
        """
        if view_name in self.result_maps:
            raise ValueError(f"view {view_name!r} is already registered in this catalog")

        # Stage the whole merge first, so a rejected registration leaves the
        # catalog untouched (an orphaned registry entry would silently serve
        # wrong results to any later view that deduplicates onto it).
        #
        # Maps are merged sources-first (a definition may reference other maps
        # of the same program — extracted nested aggregates, base-relation
        # copies); rewriting those references to their shared names *before*
        # computing the canonical identity is what lets two views' nested
        # hierarchies deduplicate level by level.  A map equal to a shared one
        # up to key order is read as it with its keys permuted
        # (``permutations``) — except a view's result map, which keeps the
        # user's key order.
        renaming: Dict[str, str] = {}
        permutations: Dict[str, Tuple[int, ...]] = {}
        added_maps: Dict[str, MapDefinition] = {}
        added_registry: Dict[object, Tuple[str, Tuple[int, ...]]] = {}
        deduplicated = 0
        semiring = program.maintenance is not None
        depths = dependency_depths(program.maps)
        ordered = sorted(
            program.maps.items(), key=lambda item: (depths[item[0]], item[1].level, item[0])
        )
        for name, definition in ordered:
            rewritten = rename_map_references(definition.definition, renaming, permutations)
            if rewritten is not definition.definition:
                definition = MapDefinition(
                    name=definition.name,
                    key_vars=definition.key_vars,
                    definition=rewritten,
                    level=definition.level,
                )
            identity, order = sharing_key(
                definition.definition, definition.key_vars, self._commutative, semiring
            )
            shared = self._registry.get(identity) or added_registry.get(identity)
            positions = read_positions(shared[1], order) if shared is not None else ()
            transposed = positions != tuple(range(len(positions)))
            if shared is None or (transposed and name == program.result_map):
                if name in self.maps or name in added_maps:
                    raise ValueError(
                        f"map name {name!r} collides with a map of a previously "
                        f"registered view; choose a different view name"
                    )
                added_registry.setdefault(identity, (name, order))
                added_maps[name] = definition
                renaming[name] = name
            else:
                deduplicated += 1
                renaming[name] = shared[0]
                if transposed:
                    permutations[name] = positions

        # Nothing below can fail: commit the staged maps, then the statements.
        for identity, entry in added_registry.items():
            self._registry.setdefault(identity, entry)
        self.maps.update(added_maps)
        self.maps_deduplicated += deduplicated
        self.maps_transposed += len(permutations)
        new_names = list(added_maps)
        new_set = set(new_names)
        for (relation, sign), trigger in program.triggers.items():
            bucket = self._statements.setdefault((relation, sign), [])
            for statement in trigger.statements:
                target = renaming[statement.target]
                if target not in new_set:
                    # The shared map is already maintained by the statements of
                    # the view that first materialized it.
                    self.statements_deduplicated += 1
                    continue
                bucket.append(
                    Statement(
                        target=target,
                        target_keys=statement.target_keys,
                        rhs=rename_map_references(statement.rhs, renaming, permutations),
                    )
                )
            batch_bucket = self._batch_statements.setdefault((relation, sign), [])
            batch_trigger = program.batch_triggers.get((relation, sign))
            for statement in () if batch_trigger is None else batch_trigger.statements:
                target = renaming[statement.target]
                if target not in new_set:
                    # Mirrors the per-tuple dedup above; not double-counted in
                    # ``statements_deduplicated`` (one logical statement).
                    continue
                batch_bucket.append(
                    BatchStatement(
                        target=target,
                        target_keys=statement.target_keys,
                        rhs=rename_map_references(statement.rhs, renaming, permutations),
                        delta_map=statement.delta_map,
                        projection=statement.projection,
                        coefficient=statement.coefficient,
                        delta_arity=statement.delta_arity,
                    )
                )
            recompute_bucket = self._recomputes.setdefault((relation, sign), [])
            for recompute in trigger.recomputes:
                target = renaming[recompute.target]
                if target not in new_set:
                    self.statements_deduplicated += 1
                    continue
                projections = recompute.source_projections
                if projections is not None:
                    projections = tuple(
                        (
                            renaming.get(source, source),
                            _permuted(positions, permutations.get(source)),
                        )
                        for source, positions in projections
                    )
                recompute_bucket.append(
                    RecomputeStatement(
                        target=target,
                        target_keys=recompute.target_keys,
                        body=rename_map_references(recompute.body, renaming, permutations),
                        depth=recompute.depth,
                        source_projections=projections,
                    )
                )

        if program.maintenance is not None:
            # The plan travels under the same renaming as the maps: a
            # deduplicated counter/support map keeps the strategy of the view
            # that first materialized it (identical definitions compile to
            # identical strategies, so merge order cannot disagree).
            renamed_plan = program.maintenance.renamed(renaming)
            if self.maintenance is None:
                self.maintenance = renamed_plan
            else:
                self.maintenance.merge(renamed_plan)

        result_map = renaming[program.result_map]
        self.result_maps[view_name] = result_map
        return result_map, tuple(new_names)

    # -- the combined program ------------------------------------------------

    def program(self) -> TriggerProgram:
        """The union of all absorbed views as one executable trigger program.

        ``result_map`` is the first registered view's result map — the
        combined program serves many views, so callers read each view's map
        directly rather than through ``TriggerRuntime.result()``.
        """
        if not self.result_maps:
            raise ValueError("the catalog has no registered views")
        triggers: Dict[Tuple[str, int], Trigger] = {}
        batch_triggers: Dict[Tuple[str, int], BatchTrigger] = {}
        for event in sorted(
            {event for event in self._statements if self._statements[event]}
            | {event for event in self._recomputes if self._recomputes[event]}
        ):
            relation, sign = event
            ordered = tuple(
                sorted(
                    self._statements.get(event, ()),
                    key=lambda statement: self.maps[statement.target].level,
                )
            )
            recomputes = tuple(
                sorted(self._recomputes.get(event, ()), key=lambda statement: statement.depth)
            )
            argument_names = UpdateEvent.symbolic(
                sign, relation, len(self.schema[relation])
            ).argument_names
            triggers[event] = Trigger(
                relation=relation,
                sign=sign,
                argument_names=argument_names,
                statements=ordered,
                recomputes=recomputes,
            )
            batch_trigger = build_batch_trigger(
                relation, sign, self._batch_statements.get(event, ()), recomputes, self.maps
            )
            if batch_trigger is not None:
                batch_triggers[event] = batch_trigger
        anchor = next(iter(self.result_maps.values()))
        combined = TriggerProgram(
            result_map=anchor,
            maps=dict(self.maps),
            triggers=triggers,
            schema=dict(self.schema),
            batch_triggers=batch_triggers,
            maintenance=self.maintenance.renamed({}) if self.maintenance is not None else None,
        )
        # Merging statement lists across views can create write-read pairs no
        # single view had, so the shard-race analysis re-runs on the union.
        return mark_serial_folds(combined)

    # -- introspection ---------------------------------------------------------

    def view_count(self) -> int:
        return len(self.result_maps)

    def map_count(self) -> int:
        return len(self.maps)

    def sharing_report(self) -> Dict[str, int]:
        """Counters summarizing how much maintenance work sharing removed."""
        return {
            "views": len(self.result_maps),
            "maps": len(self.maps),
            "maps_deduplicated": self.maps_deduplicated,
            "statements_deduplicated": self.statements_deduplicated,
            "maps_transposed": self.maps_transposed,
        }

    def __repr__(self) -> str:
        return (
            f"MapCatalog(views={len(self.result_maps)}, maps={len(self.maps)}, "
            f"deduplicated={self.maps_deduplicated})"
        )


def _permuted(positions: Tuple[int, ...], permutation) -> Tuple[int, ...]:
    """Key positions of a map, re-expressed after its keys were permuted."""
    if permutation is None:
        return positions
    return tuple(permutation.index(position) for position in positions)
