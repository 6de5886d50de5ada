"""Interpreted execution of compiled trigger programs.

The :class:`TriggerRuntime` holds the materialized map hierarchy and applies
updates by executing the compiled triggers.  Within one update event every
statement's right-hand side is evaluated against the *pre-update* map state
and all increments are applied afterwards — equivalent to the
increasing-``j`` in-place order of Equation (1) in the paper.

The runtime never stores or consults the base relations themselves: once
bootstrapped (or started from the empty database), all it does per update is
look up and add a constant number of map entries per maintained value.  To
keep that bound honest for partially-bound map slices, the runtime maintains
the secondary hash indexes of :mod:`repro.compiler.indexes` alongside the
maps: the map environment is an :class:`~repro.compiler.indexes.IndexedMaps`,
so the AGCA evaluator (and the generated backend, which shares the same
environment inside :class:`~repro.ivm.recursive.RecursiveIVM`) slices maps by
bound prefix instead of scanning them.

Every update runs the program's triggers on delta maps.
:meth:`TriggerRuntime.apply_batch` takes a :class:`~repro.gmr.database.Delta`
— the batch as one delta map ``∆R : key → multiplicity`` per ``(relation,
sign)`` event — and :meth:`TriggerRuntime.apply` a single update, which is
the one-row map ``{values: count}`` of its event.  Every statement — the
relation-valued delta of its target's definition — is evaluated once per
event with the delta map bound in the environment, then folded with one
read-modify-write per distinct target key.  Recompute statements run once
per event over the union of affected groups.  Because the statements include
the delta's higher-order terms in ``∆R``, the final state equals
one-at-a-time application exactly, the ``∆R·∆R`` term of a self-join
included.

What is interpreted here is only the right-hand sides (``evaluate`` over the
statement bodies).  Which path an event takes is decided once, by the
lowered :class:`~repro.compiler.plan.BatchPlan` this runtime walks (and
generated modules are printed from); the update loop, the fold itself,
change capture, slice-index upkeep and the recompute write-back are the
shared :mod:`repro.compiler.kernels`.

With ``shards=N`` (N > 1) the map tables are hash-partitioned
(:class:`~repro.compiler.partition.tables.ShardedMapTable`) and every batch
fold splits its increments by target-key hash and folds them shard by shard —
folds into different keys are independent, so each shard's part touches a
disjoint slice of the table.  ``shards=1`` (the default) keeps plain dict
tables and exactly the unsharded code path.

Both entry points accept an optional ``changes`` argument — a mapping from
*watched* map names to accumulator dicts — used for change-data-capture: every
increment folded into a watched map is also ring-added into its accumulator,
so after the call each accumulator holds exactly the per-key delta the
update (or batch) caused in that map.  This is how ``on_change`` subscriptions
of :class:`repro.ivm.base.IVMEngine` and :class:`repro.session.Session` views
observe result deltas without diffing map states.

:meth:`TriggerRuntime.apply_batch` also accepts a ``journal`` — the undo
journal of a transactional batch (:class:`repro.compiler.kernels.UndoJournal`),
threaded to every kernel call and support-tier write exactly like ``changes``
and ``None`` everywhere else.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.algebra.lattices import SupportTier
from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.compiler.cost import RuntimeStatistics
from repro.compiler.indexes import IndexedMaps, SliceIndexes
from repro.compiler.kernels import (
    FoldKernels,
    UndoJournal,
    lower_pointwise,
    make_apply_batch,
    recompute_pairs,
    semiring_order,
)
from repro.compiler.maps import dependency_depths
from repro.compiler.partition.tables import ShardedMapTable, resolve_shard_count
from repro.compiler.plan import BatchPlan, lower_batch_plan
from repro.compiler.triggers import BatchTrigger, RecomputeStatement, TriggerProgram
from repro.core.ast import AggSum
from repro.core.semantics import evaluate
from repro.core.simplify import make_safe
from repro.gmr.database import Database, Delta, Update, group_updates
from repro.gmr.records import Record

MapTable = Dict[Tuple[Any, ...], Any]

_MISSING = object()


class _FromIntView:
    """A read-only mapping adapter exposing a ℤ-valued counter map as its
    ``from_int`` image in the session ring.

    Recompute bodies re-derive group folds from the base-relation counter
    maps; the ring evaluator must see ring values there, while the counter
    itself keeps exact integer multiplicities.  The view shares the
    underlying table (and therefore the slice-index buckets built over its
    keys), converting values lazily on access.
    """

    __slots__ = ("_table", "_from_int")

    def __init__(self, table: MapTable, ring: Semiring):
        self._table = table
        self._from_int = ring.from_int

    def get(self, key, default=None):
        value = self._table.get(key, _MISSING)
        if value is _MISSING:
            return default
        return self._from_int(value)

    def __getitem__(self, key):
        return self._from_int(self._table[key])

    def __contains__(self, key):
        return key in self._table

    def __iter__(self):
        return iter(self._table)

    def __len__(self):
        return len(self._table)

    def keys(self):
        return self._table.keys()

    def items(self):
        from_int = self._from_int
        return ((key, from_int(value)) for key, value in self._table.items())


class TriggerRuntime:
    """Executes a compiled :class:`TriggerProgram` over a stream of updates."""

    def __init__(
        self,
        program: TriggerProgram,
        ring: Semiring = INTEGER_RING,
        shards: Optional[int] = None,
        specialize: bool = True,
    ):
        self.program = program
        self.ring = ring
        #: Semiring maintenance mode: the ring has no additive inverse, so
        #: the program must carry a :class:`~repro.compiler.triggers.MaintenancePlan`
        #: (counter maps in ℤ, support sidecars, tracked recomputes) and CDC
        #: switches from per-key deltas to per-key post-update values.
        self._semiring = not ring.is_ring
        if self._semiring and program.maintenance is None:
            raise TypeError(
                f"program {program.result_map!r} carries no maintenance plan; "
                f"recompile the query with ring={ring.name!r} to run it over a semiring"
            )
        maintenance = program.maintenance if self._semiring else None
        self._maintenance = maintenance
        self._counter_maps = (
            frozenset(maintenance.counter_maps) if maintenance is not None else frozenset()
        )
        self._support_tier: Optional[SupportTier] = None
        self._support_relations: frozenset = frozenset()
        if maintenance is not None and maintenance.supports:
            self._support_tier = SupportTier(ring, maintenance.supports)
            self._support_relations = frozenset(
                plan.relation for plan in maintenance.supports.values()
            )
        #: The lowered batch plan this runtime walks — the same decisions a
        #: generated module for this program is printed from (specialization
        #: kinds, Kahan flag, arities, tracked sources, index signatures).
        self.plan: BatchPlan = lower_batch_plan(program, ring, specialize)
        #: Hash-partition count of the map tables; 1 (the default) keeps the
        #: plain-dict tables and exactly the pre-sharding code path.
        self.shards = resolve_shard_count(shards)
        self.index_specs = self.plan.index_specs
        self.indexes = SliceIndexes(self.index_specs)
        #: The tables, their slice indexes and the Kahan compensation store
        #: travel together — whatever rewrites table contents wholesale
        #: (:meth:`restore_tables`, :meth:`bootstrap`) resets the other two.
        self.maps: Dict[str, MapTable] = IndexedMaps(
            {name: self.make_table() for name in program.maps}, indexes=self.indexes
        )
        self.statistics = RuntimeStatistics()
        self._kernels = FoldKernels(ring)
        #: The plan's pointwise recomputes, each lowered once to a closure
        #: ``(tables, group) -> value`` (keyed by statement identity: the
        #: plan keeps the statements alive).
        self._pointwise: Dict[int, Any] = {}
        for event in self.plan.events:
            for recompute, kind in zip(event.recomputes, event.recompute_kinds):
                # (One statement object serves both signs of a relation.)
                if kind == "pointwise" and id(recompute) not in self._pointwise:
                    self._pointwise[id(recompute)] = lower_pointwise(
                        recompute.body, recompute.target_keys, ring
                    )
        # The update loop, shared with generated modules; here its per-event
        # callables interpret the triggers.

        def interpret(method, *trigger):
            return lambda _maps, payload, _index_data, changes, journal: method(
                *trigger, payload, changes, journal
            )

        events = self.plan.events
        self._apply_batch, self._apply_row = make_apply_batch(
            self.plan,
            ring,
            {
                event.event: interpret(self._apply_batch_trigger, event.trigger, event.tracked)
                for event in events
            },
            {
                event.event: interpret(self._apply_total_trigger, event.trigger)
                for event in events
                if event.kind == "total"
            },
        )
        # The evaluator needs a Database only for its coefficient structure and
        # declared schema; compiled right-hand sides never read base relations.
        self._environment = Database(schema=program.schema, ring=ring)
        #: Counter statements (base-copy folds) evaluate in ℤ, not the ring.
        self._count_env = (
            Database(schema=program.schema, ring=INTEGER_RING) if self._semiring else None
        )
        #: Cached ring view of the map environment (counter tables wrapped in
        #: :class:`_FromIntView`); invalidated whenever tables are replaced.
        self._ring_view: Optional[IndexedMaps] = None

    def make_table(self, contents: Optional[MapTable] = None) -> MapTable:
        """A map table holding ``contents`` under the runtime's shard configuration.

        At ``shards=1`` a plain dict ``contents`` is adopted as the table
        itself, not copied (any other mapping is copied into a dict);
        otherwise the contents are re-partitioned by key hash into a
        :class:`ShardedMapTable` — this is how snapshot restore re-shards
        under a different shard count.
        """
        if self.shards == 1:
            if contents is None:
                return {}
            return contents if type(contents) is dict else dict(contents)
        return ShardedMapTable(self.shards, contents)

    def zero_of(self, name: str) -> Any:
        """The value map ``name`` never stores: ``0`` for a counter map (its
        multiplicities are exact ℤ counts), the ring's zero otherwise."""
        return 0 if name in self._counter_maps else self.ring.zero

    def backup_tables(self) -> Dict[str, MapTable]:
        """Plain-dict copies of every map table (sharded tables merged);
        O(stored entries).

        No library code calls it: the transactional batch path keeps an undo
        journal of the keys it touches instead.  It stays because the
        end-to-end benchmark's tracer wraps it by name and CI's zero-copy
        guard counts the entries copied through it (the guard asserts 0);
        its retirement comes with that metric's.
        """
        return {
            name: table.copy() if type(table) is ShardedMapTable else dict(table)
            for name, table in self.maps.items()
        }

    def restore_tables(self, tables: Dict[str, MapTable]) -> None:
        """Reinstall table contents, rebuild the slice indexes and re-derive
        the support sidecars from the restored counters.

        Only the maps present in ``tables`` are replaced.  Each table goes
        through :meth:`make_table`: at ``shards=1`` a plain dict is adopted,
        so the caller hands it over and must not keep mutating it.
        """
        for name, contents in tables.items():
            self.maps[name] = self.make_table(contents)
        self.indexes.rebuild(self.maps)
        self._ring_view = None
        self.rebuild_supports()
        # Compensation terms refer to the replaced table values; dropping
        # them is always sound (it only forgoes accumulated accuracy).
        self.maps.compensation.clear()

    # -- initialization -----------------------------------------------------------

    def bootstrap(self, db: Database, names: Optional[Iterable[str]] = None) -> None:
        """Populate maps by evaluating their definitions over an existing database.

        This is the "initial values" step of the paper; engines that start
        from the empty database can skip it.  ``names`` restricts the work to
        a subset of maps (used when a new view joins an already-running
        shared hierarchy); by default every map is (re)computed.  Maps are
        evaluated sources-first: a definition that reads other maps (an
        extracted nested aggregate, a base-relation copy) sees their freshly
        computed contents.
        """
        targets = tuple(names) if names is not None else tuple(self.program.maps)
        depths = dependency_depths(self.program.maps)
        # Evaluate against a *plain dict* environment: the slice indexes are
        # only rebuilt after the loop, and the evaluator prefers an attached
        # index bucket when one exists — mid-bootstrap those buckets are
        # stale/empty and a partially-bound read through them would silently
        # come back empty.  The plain view shares the table objects, so maps
        # populated earlier in the loop are visible to later definitions.
        plain: Dict[str, MapTable] = dict(self.maps)
        for name in sorted(targets, key=lambda name: (depths[name], name)):
            definition = self.program.maps[name]
            table: MapTable = {}
            if self._semiring and name in self._counter_maps:
                # Counter maps are identity copies of a base relation, valued
                # in ℤ — read the exact multiplicities straight off the
                # database rather than evaluating under the session ring.
                for values, count in db.counts(definition.definition.name).items():
                    if count > 0:
                        table[values] = count
            else:
                query = AggSum(definition.key_vars, make_safe(definition.definition))
                result = evaluate(query, db, maps=plain)
                for record, value in result.items():
                    key = record.values_for(definition.key_vars)
                    if not self.ring.is_zero(value):
                        table[key] = value
            plain[name] = table
            self.maps[name] = self.make_table(table)
        self.indexes.rebuild(self.maps)
        self._ring_view = None
        self.rebuild_supports()
        self.maps.compensation.clear()

    # -- update processing -----------------------------------------------------------

    def apply(self, update: Update, changes: Optional[Dict[str, MapTable]] = None) -> None:
        """Apply one update ``±R(values)`` (multiplicity ``update.count``) to
        the whole view hierarchy: its event's trigger runs on the one-row
        delta map ``{values: count}``.

        ``changes`` optionally maps watched map names to accumulators that
        receive the per-key deltas this update causes in those maps.
        """
        self.statistics.updates_processed += self._apply_row(
            self.maps, update.relation, update.sign, update.values, update.count, None, changes
        )
        # Fed after the triggers: an exhausted support's rebuild must see the
        # post-update counter map.
        if self._support_tier is not None:
            self.feed_supports(group_updates((update,)), changes)

    def apply_batch(
        self,
        delta: Delta,
        changes: Optional[Dict[str, MapTable]] = None,
        journal: Optional[UndoJournal] = None,
    ) -> int:
        """Apply a batch ``∆D`` through the compiled batch triggers.

        Each event's batch trigger runs once on its delta map — every
        statement evaluated against the pre-event state, increments folded
        per distinct key, and recomputes re-derived once over the union of
        affected groups; a fused event folds its net tuple count instead.
        The final map state equals one-at-a-time application (the statements
        carry the delta's higher-order interaction terms).  Every event's
        keys are arity-checked before any map is touched, so a malformed
        batch cannot leave the hierarchy partially advanced.  Returns the
        batch's logical tuple count.
        """
        count = self._apply_batch(self.maps, delta, self.indexes.data, changes, journal)
        self.statistics.updates_processed += count
        self.feed_supports(delta, changes, journal)
        return count

    def _apply_total_trigger(
        self,
        trigger: BatchTrigger,
        total: int,
        changes: Optional[Dict[str, MapTable]] = None,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """The fused fold of an all-total batch trigger (no delta table).

        Each statement's whole-batch increment is ``coefficient * total`` at
        the empty key — folded through the shared kernels, Kahan-compensated
        over the float field (the plan's ``kahan`` flag).
        """
        fold_total = self._kernels.fold_total if self.plan.kahan else None
        for statement in trigger.statements:
            self.statistics.statements_executed += 1
            increment = statement.coefficient * total
            if fold_total is not None:
                fold_total(self.maps, statement.target, increment, changes, journal)
                self.statistics.entries_updated += 1
            else:
                self._fold_increments(statement.target, {(): increment}, changes, None, journal)

    # -- support-structure maintenance ------------------------------------------------

    def _counter_rows(self, relation: str, positions: Tuple[int, ...] = (), prefix=()):
        """The relation's current ``(row, count)`` pairs from its counter map:
        every row (the support tier's bootstrap source), or the rows whose
        columns at the ascending ``positions`` equal ``prefix`` — one bucket
        of the map's slice index (exhaustion recovery)."""
        name = self._maintenance.relation_counters.get(relation)
        if name is None:
            return ()
        table = self.maps[name]
        if not positions:
            return table.items()
        if len(positions) == self.program.maps[name].arity:  # the whole row is bound
            count = table.get(prefix)
            return () if count is None else ((prefix, count),)
        rows = self.indexes.data[(name, positions)].get(prefix, ())
        return [(row, table[row]) for row in rows]

    @property
    def has_supports(self) -> bool:
        """Whether the maintenance plan keeps support-structure sidecars."""
        return self._support_tier is not None

    def rebuild_supports(self) -> None:
        """(Re)derive every support sidecar from the counter maps.

        Used after map tables were installed wholesale (session restore): the
        sidecars are a function of the base counters, so rebuilding beats
        serializing them — and the rebuilt supports are always untruncated.
        """
        if self._support_tier is not None:
            self._support_tier.bootstrap(self._counter_rows)

    def feed_supports(
        self,
        delta: Delta,
        changes: Optional[Dict[str, MapTable]] = None,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Feed a batch's rows into the support sidecars (post-trigger).

        Called by the interpreted entry points themselves and by the pair
        host after a generated module applied the triggers (it shares this
        runtime's maps and tier).  Must run *after* the triggers so an
        exhausted support's rebuild sees post-update counters.  Rows are fed
        in the triggers' event order, inserts first.
        """
        if self._support_tier is None:
            return
        relations = self._support_relations
        feed = [
            (relation, values, sign, count)
            for (relation, sign), rows in semiring_order(delta)
            if relation in relations
            for values, count in rows.items()
        ]
        if feed:
            diffs = self._support_tier.collect(feed, self._counter_rows, journal)
            self._apply_support_changes(diffs, changes, journal)

    def _apply_support_changes(
        self,
        diffs: Dict[str, Dict[Tuple[Any, ...], Any]],
        changes: Optional[Dict[str, MapTable]],
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Install the support tier's per-group new values into the tables.

        ``None`` (and ring zero) mean the group emptied out; semiring CDC
        reports that as the zero so subscribers can drop the key.
        """
        ring = self.ring
        indexes = self.indexes
        for name, group_values in diffs.items():
            table = self.maps[name]
            collector = None if changes is None else changes.get(name)
            if journal is not None:
                journal.record(table, name, indexes.specs.get(name), list(group_values))
            for key, value in group_values.items():
                self.statistics.entries_updated += 1
                if value is None or ring.is_zero(value):
                    if table.pop(key, None) is not None:
                        indexes.discard(name, key)
                    if collector is not None:
                        collector[key] = ring.zero
                else:
                    if key not in table:
                        indexes.add(name, key)
                    table[key] = value
                    if collector is not None:
                        collector[key] = value

    def _projection_lift(self, statement, is_counter: bool):
        """``multiplicity -> increment`` for a key-projection batch statement."""
        coefficient = statement.coefficient
        if is_counter:
            return lambda multiplicity: coefficient * multiplicity
        ring = self.ring
        if not self._semiring:
            scale = ring.coerce(coefficient)
            return lambda multiplicity: ring.mul(scale, multiplicity)
        # The delta counts tuples in ℤ: a count maps to its ``from_int``
        # image, and a coefficient of 1 stays out of the product entirely —
        # ``coerce(1)`` need not be the multiplicative identity outside a
        # ring (min-plus coerces 1 to the value 1.0, but its ``one`` is 0.0).
        if coefficient == 1:
            return ring.from_int
        scale = ring.coerce(coefficient)
        return lambda multiplicity: ring.mul(scale, ring.from_int(multiplicity))

    def _apply_batch_trigger(
        self,
        trigger: BatchTrigger,
        tracked: Tuple[str, ...],
        delta_table: MapTable,
        changes: Optional[Dict[str, MapTable]] = None,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Run one batch trigger over a pre-aggregated delta map — a whole
        batch's, or the one row of a single update.

        Statements are evaluated against the pre-update state with the delta
        map temporarily overlaid into the map environment (under its reserved
        name, so the evaluator reads it like any other map); a statement with
        a key projection skips evaluation entirely and folds the delta map
        straight onto the target's keys.  All increments are folded after all
        evaluations — the batch form of the snapshot semantics — and the
        recomputes re-derive once per group.
        """
        ring = self.ring
        semiring = self._semiring
        tracked_sources = {name: set() for name in tracked} if tracked else None
        pending = []
        #: Lazily-built ring view for evaluate statements in semiring mode:
        #: counter maps wrapped, plus the delta's ``from_int`` image under
        #: the reserved delta name.
        ring_view: Optional[IndexedMaps] = None
        self.maps[trigger.delta_map] = delta_table
        try:
            for statement in trigger.statements:
                self.statistics.statements_executed += 1
                increments: MapTable = {}
                is_counter = semiring and statement.target in self._counter_maps
                if statement.projection is not None:
                    projection = statement.projection
                    lift = self._projection_lift(statement, is_counter)
                    add = INTEGER_RING.add if is_counter else ring.add
                    for key, multiplicity in delta_table.items():
                        target_key = tuple(key[position] for position in projection)
                        value = lift(multiplicity)
                        existing = increments.get(target_key)
                        increments[target_key] = (
                            value if existing is None else add(existing, value)
                        )
                else:
                    environment = self._environment
                    maps = self.maps
                    if is_counter:
                        environment = self._count_env
                    elif semiring:
                        if ring_view is None:
                            from_int = ring.from_int
                            ring_view = IndexedMaps(
                                self._evaluation_maps(), indexes=self.indexes
                            )
                            ring_view[trigger.delta_map] = {
                                key: from_int(multiplicity)
                                for key, multiplicity in delta_table.items()
                            }
                        maps = ring_view
                    result = evaluate(
                        statement.as_aggregate(), environment, maps=maps
                    )
                    for record, value in result.items():
                        increments[record.values_for(statement.target_keys)] = value
                pending.append((statement, increments))
        finally:
            self.maps.pop(trigger.delta_map, None)
        for statement, increments in pending:
            self._fold_increments(statement.target, increments, changes, tracked_sources, journal)
        for recompute in trigger.recomputes:
            self._run_recompute(recompute, changes, tracked_sources, journal)

    def _fold_increments(
        self,
        target: str,
        increments: MapTable,
        changes: Optional[Dict[str, MapTable]],
        tracked_sources: Optional[Dict[str, set]],
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Fold per-key increments into one map through the shared fold kernel
        (counter maps of a semiring plan fold in ℤ)."""
        kernels = self._kernels
        fold = kernels.fold_int if target in self._counter_maps else kernels.fold
        self.statistics.entries_updated += fold(
            self.maps[target],
            increments,
            target,
            self.indexes.specs.get(target),
            self.indexes.data,
            changes,
            journal,
            None if tracked_sources is None else tracked_sources.get(target),
        )

    def _run_recompute(
        self,
        recompute: RecomputeStatement,
        changes: Optional[Dict[str, MapTable]],
        tracked_sources: Optional[Dict[str, set]],
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Execute one recompute statement: re-evaluate affected groups, write back."""
        self.statistics.statements_executed += 1
        ring = self.ring
        table = self.maps[recompute.target]
        maps = self._evaluation_maps()
        if recompute.tracked:
            groups = set()
            for source, positions in recompute.source_projections:
                for key in tracked_sources.get(source, ()):
                    groups.add(tuple(key[position] for position in positions))
        pointwise = self._pointwise.get(id(recompute))
        if pointwise is not None:
            # O(1) per group — lookups at the group key.
            new_values = [(group, pointwise(maps, group)) for group in groups]
        elif recompute.tracked:

            def evaluate_group(group):
                group_bindings = Record.from_values(recompute.target_keys, group)
                result = evaluate(
                    recompute.as_aggregate(), self._environment, group_bindings, maps=maps
                )
                value = ring.zero
                for _record, part in result.items():
                    value = ring.add(value, part)
                return value

            # Every value is computed before any diff is written back.
            new_values = [(group, evaluate_group(group)) for group in groups]
        else:
            accumulator: Dict[Tuple[Any, ...], Any] = {}
            result = evaluate(recompute.as_aggregate(), self._environment, maps=maps)
            for record, value in result.items():
                key = record.values_for(recompute.target_keys)
                if key in accumulator:
                    accumulator[key] = ring.add(accumulator[key], value)
                else:
                    accumulator[key] = value
            new_values = recompute_pairs(accumulator, table, ring.zero)
        self.statistics.entries_updated += self._kernels.write_back(
            table,
            new_values,
            recompute.target,
            self.indexes.specs.get(recompute.target),
            self.indexes.data,
            changes,
            journal,
            None if tracked_sources is None else tracked_sources.get(recompute.target),
        )

    def _evaluation_maps(self):
        """The ring evaluator's view of the map environment.

        Counter maps hold exact ℤ multiplicities; ring-valued statements and
        recompute bodies can join against them (base-relation copies), so
        their counts must read back as ``from_int`` images.  The view shares
        the underlying tables (and the attached slice indexes, whose buckets
        hold the same keys), so index-backed partially-bound reads keep their
        per-group cost; it is cached until a table object is replaced.
        """
        if not self._semiring or not self._counter_maps:
            return self.maps
        view = self._ring_view
        if view is None:
            view = IndexedMaps(self.maps, indexes=self.indexes)
            for name in self._counter_maps:
                counter = view.get(name)
                if counter is not None:
                    view[name] = _FromIntView(counter, self.ring)
            self._ring_view = view
        return view

    def apply_all(self, updates: Iterable[Update]) -> None:
        for update in updates:
            self.apply(update)

    # -- results -----------------------------------------------------------------------

    def lookup(self, map_name: str, *key: Any) -> Any:
        """The stored value of one map entry (0 when absent)."""
        return self.maps[map_name].get(tuple(key), self.ring.zero)

    def result(self) -> Any:
        """The maintained query result.

        A scalar for a query without group-by variables; otherwise a dict from
        group-key tuples to aggregate values.
        """
        definition = self.program.result_definition
        table = self.maps[self.program.result_map]
        if not definition.key_vars:
            return table.get((), self.ring.zero)
        return dict(table)

    def result_map_contents(self) -> MapTable:
        """A copy of the result map's raw contents (always a dict)."""
        return dict(self.maps[self.program.result_map])

    def total_map_entries(self) -> int:
        """Total number of stored entries across the whole hierarchy (space measure)."""
        return sum(len(table) for table in self.maps.values())

    def map_sizes(self) -> Dict[str, int]:
        """Entry counts per map (used by the factorization experiment)."""
        return {name: len(table) for name, table in self.maps.items()}

    def __repr__(self) -> str:
        return (
            f"TriggerRuntime(result={self.program.result_map!r}, "
            f"maps={len(self.maps)}, entries={self.total_map_entries()})"
        )
