"""Interpreted execution of compiled trigger programs.

The :class:`TriggerRuntime` holds the materialized map hierarchy and applies
single-tuple updates by executing the compiled triggers.  Within one update
event every statement's right-hand side is evaluated against the *pre-update*
map state and all increments are applied afterwards — equivalent to the
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

Batches of updates are applied with :meth:`TriggerRuntime.apply_batch`, which
executes the program's *batch triggers*: the batch is grouped by
``(relation, sign)``, each group is pre-aggregated into a delta map
``∆R : key → multiplicity`` (duplicate tuples add up), and every batch
statement — the relation-valued delta of its target's definition — is
evaluated once per group with the delta map bound in the environment, then
folded with one read-modify-write per distinct target key.  Recompute
statements run once per group over the union of affected groups.  Because the
statements include the delta's higher-order terms in ``∆R``, the final state
equals one-at-a-time application exactly — per-tuple :meth:`TriggerRuntime.apply`
is the reference semantics the property tests compare against.

What is interpreted here is only the right-hand sides (``evaluate`` over the
statement bodies).  Which path a batch takes is decided once, by the lowered
:class:`~repro.compiler.plan.BatchPlan` this runtime walks (and generated
modules are printed from); the fold itself, change capture, slice-index
upkeep and the recompute write-back are the shared
:mod:`repro.compiler.kernels`.

With ``shards=N`` (N > 1) the map tables are hash-partitioned
(:class:`~repro.compiler.partition.tables.ShardedMapTable`) and every batch
fold splits its increments by target-key hash, folding the shards through the
partition tier's backend — folds into different keys are independent, so the
partition gives each worker a disjoint slice of the table.  ``shards=1`` (the
default) keeps plain dict tables and exactly the unsharded code path.

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

from collections import Counter
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.algebra.lattices import SupportTier
from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.compiler.cost import RuntimeStatistics
from repro.compiler.indexes import IndexedMaps, SliceIndexes
from repro.compiler.kernels import (
    FoldKernels,
    UndoJournal,
    lower_pointwise,
    make_generic_apply_batch,
    recompute_pairs,
)
from repro.compiler.maps import dependency_depths
from repro.compiler.partition.backends import ShardBackend, make_shard_backend
from repro.compiler.partition.tables import ShardedMapTable, resolve_shard_count
from repro.compiler.plan import BatchPlan, lower_batch_plan
from repro.compiler.triggers import BatchTrigger, RecomputeStatement, Trigger, TriggerProgram
from repro.core.ast import AggSum
from repro.core.semantics import evaluate
from repro.core.simplify import make_safe
from repro.gmr.database import Database, Update
from repro.gmr.records import Record

MapTable = Dict[Tuple[Any, ...], Any]

_MISSING = object()


def _arity_error(update: Update) -> ValueError:
    return ValueError(
        f"update {update!r} does not match the arity of relation {update.relation!r}"
    )


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
        shard_backend=None,
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
        #: The partition tier's execution backend (``None`` when unsharded):
        #: either a ready :class:`~repro.compiler.partition.backends.ShardBackend`
        #: handed in by the owner (a :class:`~repro.session.Session` shares one
        #: backend — and its worker processes — across runtime rebuilds) or
        #: built here from a backend name / the ``REPRO_SHARD_BACKEND`` env.
        if isinstance(shard_backend, ShardBackend):
            self.shard_backend: Optional[ShardBackend] = shard_backend
        else:
            self.shard_backend = make_shard_backend(shard_backend, self.shards, ring)
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
        self._events = {event.event: event for event in self.plan.events}
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
        # The generic batch loop, shared with generated modules; here its
        # per-event callables interpret the triggers.

        def interpret(method, trigger, tracked):
            return lambda _maps, payload, _index_data, changes, journal: method(
                trigger, tracked, payload, changes, journal
            )

        events = self.plan.events
        self._generic_batch = make_generic_apply_batch(
            {
                event.event: interpret(self._apply_trigger, event.trigger, event.tracked)
                for event in events
                if event.trigger is not None
            },
            {
                event.event: interpret(
                    self._apply_batch_trigger, event.batch_trigger, event.batch_tracked
                )
                for event in events
                if event.batch_trigger is not None
            },
            ring,
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
        """A fresh map table honoring the runtime's shard configuration.

        Plain dict at ``shards=1``; a :class:`ShardedMapTable` otherwise
        (``contents``, when given, are re-partitioned by key hash — this is
        how snapshot restore re-shards under a different shard count).
        """
        if self.shards == 1:
            return dict(contents) if contents else {}
        table = ShardedMapTable(self.shards, contents)
        table.backend = self.shard_backend
        return table

    def backup_tables(self) -> Dict[str, MapTable]:
        """Plain-dict copies of every map table (sharded tables merged).

        The wholesale state copy behind :meth:`RecursiveIVM.state_backup
        <repro.ivm.recursive.RecursiveIVM.state_backup>`; cost is O(stored
        entries).  The transactional batch path does not come here — it keeps
        an undo journal of the keys it touches instead.
        """
        backup = {
            name: table.copy() if type(table) is ShardedMapTable else dict(table)
            for name, table in self.maps.items()
        }
        if self._support_tier is not None:
            # The support sidecars ride the table backup under a reserved key
            # (map names never collide with it — they are identifiers).
            backup["__supports__"] = self._support_tier.serialize()
        return backup

    def restore_tables(self, backup: Dict[str, MapTable]) -> None:
        """Reinstall backed-up table contents and rebuild the slice indexes.

        Only the maps present in ``backup`` are replaced.
        """
        supports = None
        for name, contents in backup.items():
            if name == "__supports__":
                supports = contents
                continue
            self.maps[name] = self.make_table(contents)
        self.indexes.rebuild(self.maps)
        self._ring_view = None
        if self._support_tier is not None:
            if supports is not None:
                self._support_tier.restore(supports)
            else:
                # A backup taken before the tier existed (or from another
                # backend): rebuild the sidecars from the restored counters.
                self.rebuild_supports()
        # Compensation terms refer to the replaced table values.  Dropping
        # them is always sound (it only forgoes accumulated accuracy); a
        # state restore, which knows the terms that belong to the backup,
        # puts them back (CompiledExecutor.restore).
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
            self.maps[name] = self.make_table(table) if self.shards > 1 else table
        self.indexes.rebuild(self.maps)
        self._ring_view = None
        self.rebuild_supports()
        self.maps.compensation.clear()

    # -- update processing -----------------------------------------------------------

    def apply(self, update: Update, changes: Optional[Dict[str, MapTable]] = None) -> None:
        """Apply one single-tuple update to the whole view hierarchy.

        ``changes`` optionally maps watched map names to accumulators that
        receive the per-key deltas this update causes in those maps.
        """
        event = self._events.get((update.relation, update.sign))
        if event is not None and event.arity not in (None, len(update.values)):
            raise _arity_error(update)
        self.statistics.updates_processed += update.count
        if event is not None and event.trigger is not None:
            for _ in range(update.count):
                self._apply_trigger(event.trigger, event.tracked, update.values, changes)
        # Fed after the triggers: an exhausted support's rebuild must see the
        # post-update counter map.
        self.feed_supports((update,), changes)

    def apply_batch(
        self,
        updates: Iterable[Update],
        changes: Optional[Dict[str, MapTable]] = None,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Apply a batch of updates through the compiled batch triggers.

        The batch is grouped by ``(relation, sign)`` and each group is
        pre-aggregated into a delta map ``∆R : values → multiplicity``; the
        group's batch trigger then runs once — every statement evaluated
        against the pre-group state, increments folded per distinct key, and
        recomputes re-derived once over the union of affected groups.  The
        final map state equals one-at-a-time application (the batch
        statements carry the delta's higher-order interaction terms).  An
        event without a batch trigger is applied per tuple.

        The whole batch is arity-validated before any map is touched, so a
        malformed update cannot leave the hierarchy partially advanced.  How
        the grouping runs is the plan's verdict: a specialized plan slices
        the batch once per statically-known event with C-level filtered
        comprehensions — fused totals never build a delta table, the rest
        count value tuples through ``collections.Counter`` — otherwise the
        shared generic loop groups it in one Python-level pass.
        """
        if type(updates) is not list:
            updates = list(updates)
        if not updates:
            return
        self._check_arities(updates)
        if not self.plan.specialized:
            self.statistics.updates_processed += self._generic_batch(
                self.maps, updates, self.indexes.data, changes, journal
            )
            self.feed_supports(updates, changes, journal)
            return
        counted = sum([update.count for update in updates])
        compact = counted != len(updates)
        self.statistics.updates_processed += counted
        for event in self.plan.events:
            relation, sign = event.relation, event.sign
            if event.kind == "total":
                # Every statement is a bare-count fold: the event's net
                # tuple count is the whole delta — no table.
                total = sum(
                    [
                        update.count
                        for update in updates
                        if update.sign == sign and update.relation == relation
                    ]
                )
                if total:
                    self._apply_total_trigger(event.batch_trigger, total, changes, journal)
                continue
            # Counter fast path: count the value tuples in C, then fix up
            # compact updates (count > 1) only when present.  Counts are
            # positive within one same-sign event, so no entry can land on
            # zero.
            delta_table: MapTable = Counter()
            delta_table.update(
                [
                    update.values
                    for update in updates
                    if update.sign == sign and update.relation == relation
                ]
            )
            if compact:
                for update in updates:
                    if (
                        update.sign == sign
                        and update.relation == relation
                        and update.count != 1
                    ):
                        delta_table[update.values] += update.count - 1
            if delta_table:
                self._apply_batch_trigger(
                    event.batch_trigger, event.batch_tracked, delta_table, changes, journal
                )
        self.feed_supports(updates, changes, journal)

    def _check_arities(self, updates: Iterable[Update]) -> None:
        """Validate a batch against the plan's arity checks, one C-level
        filtered pass each; rejects the first offender in batch order."""
        for relation, sign, arity in self.plan.validations:
            if sign is None:
                lengths = {
                    len(update.values) for update in updates if update.relation == relation
                }
            else:
                lengths = {
                    len(update.values)
                    for update in updates
                    if update.sign == sign and update.relation == relation
                }
            if not lengths <= {arity}:
                events = self._events
                for update in updates:
                    event = events.get((update.relation, update.sign))
                    if event is not None and event.arity not in (None, len(update.values)):
                        raise _arity_error(update)

    def _apply_total_trigger(
        self,
        batch_trigger: BatchTrigger,
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
        for statement in batch_trigger.statements:
            self.statistics.statements_executed += 1
            increment = statement.coefficient * total
            if fold_total is not None:
                fold_total(self.maps, statement.target, increment, changes, journal)
                self.statistics.entries_updated += 1
            else:
                self._fold_increments(
                    statement.target, {(): increment}, changes, None, statement.serial_fold,
                    journal,
                )

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
        updates: Iterable[Update],
        changes: Optional[Dict[str, MapTable]] = None,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Feed raw updates into the support sidecars (post-trigger).

        Called by the interpreted entry points themselves and by the pair
        host after a generated module applied the triggers (it shares this
        runtime's maps and tier).  Must run *after* the triggers so an
        exhausted support's rebuild sees post-update counters.
        """
        if self._support_tier is None:
            return
        feed = [
            (update.relation, update.values, update.sign, update.count)
            for update in updates
            if update.relation in self._support_relations
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

    def _apply_trigger(
        self,
        trigger: Trigger,
        tracked: Tuple[str, ...],
        values: Tuple[Any, ...],
        changes: Optional[Dict[str, MapTable]] = None,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        bindings = Record.from_values(trigger.argument_names, values)
        # Per-event changed-key sets of the maps the recomputes track.
        tracked_sources = {name: set() for name in tracked} if tracked else None

        # Evaluate every statement against the pre-update state ...
        pending = []
        for statement in trigger.statements:
            self.statistics.statements_executed += 1
            environment = self._environment
            maps = self.maps
            if self._count_env is not None:
                if statement.target in self._counter_maps:
                    # Counter statements are ℤ-valued whatever the ring is.
                    environment = self._count_env
                else:
                    # Ring statements can join against counter maps (base
                    # copies of the other relations) — read them as ring
                    # values through the from-int view.
                    maps = self._evaluation_maps()
            result = evaluate(
                statement.as_aggregate(), environment, bindings, maps=maps
            )
            increments = {
                record.values_for(statement.target_keys): value
                for record, value in result.items()
            }
            pending.append((statement, increments))

        # ... then apply all increments, keeping the slice indexes in sync.
        for statement, increments in pending:
            self._fold_increments(
                statement.target, increments, changes, tracked_sources, statement.serial_fold,
                journal,
            )

        # Finally re-derive the nested-aggregate readers, inner maps first;
        # each recompute sees the post-update sources and the pre-update target.
        for recompute in trigger.recomputes:
            self._run_recompute(recompute, changes, tracked_sources, journal)

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
        batch_trigger: BatchTrigger,
        tracked: Tuple[str, ...],
        delta_table: MapTable,
        changes: Optional[Dict[str, MapTable]] = None,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Run one batch trigger over a pre-aggregated delta map.

        Statements are evaluated against the pre-group state with the delta
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
        self.maps[batch_trigger.delta_map] = delta_table
        try:
            for statement in batch_trigger.statements:
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
                            ring_view[batch_trigger.delta_map] = {
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
            self.maps.pop(batch_trigger.delta_map, None)
        for statement, increments in pending:
            self._fold_increments(
                statement.target, increments, changes, tracked_sources, statement.serial_fold,
                journal,
            )
        for recompute in batch_trigger.recomputes:
            self._run_recompute(recompute, changes, tracked_sources, journal)

    def _fold_increments(
        self,
        target: str,
        increments: MapTable,
        changes: Optional[Dict[str, MapTable]],
        tracked_sources: Optional[Dict[str, set]],
        serial: bool = False,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """Fold per-key increments into one map through the shared fold kernel.

        Counter maps of a semiring plan fold in ℤ; ``serial`` is the
        shard-race detector's verdict
        (:attr:`~repro.compiler.triggers.Statement.serial_fold`).
        """
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
            serial,
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
            # O(1) per group — lookups at the group key: nothing to fan out.
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

            # Affected groups are per-group independent (they only read source
            # maps, never the target), so large sets fan out over the shard
            # backend — the same tier the batch folds dispatch through.  All
            # values are computed before any diff is written back either way,
            # so the write-back sees identical state at every backend.
            group_list = list(groups)
            backend = self.shard_backend
            if backend is not None and backend.wants_groups(len(group_list)):
                values = backend.map_groups(evaluate_group, group_list)
            else:
                values = [evaluate_group(group) for group in group_list]
            new_values = list(zip(group_list, values))
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
