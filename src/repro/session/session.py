"""The multi-view :class:`Session` facade: one database, many materialized views.

This is the library's primary public API for the realistic serving scenario
of the paper: a single update stream feeds many continuously maintained
aggregate views.

* Relations are declared once, on the session.
* :meth:`Session.view` registers a query (SQL text, AGCA text, or an AGCA
  ``Expr``) under a name and returns a
  :class:`~repro.session.views.MaterializedView` handle.
* :meth:`Session.insert` / :meth:`Session.delete` / :meth:`Session.apply_batch`
  drive *all* registered views at once.

Views on the compiled backends (``"generated"``, the default, and
``"interpreted"``) share one map hierarchy per backend through a
:class:`~repro.session.catalog.MapCatalog`: structurally identical map
definitions produced by different views are maintained once per update, not
once per view.  Views on the baseline backends (``"classical"``, ``"naive"``)
get a standalone engine each — useful for cross-checking and measurement,
exactly like the engines' standalone APIs.

Sessions also support change-data-capture (``view.on_change(callback)``
delivers per-update result deltas) and persistence
(:meth:`Session.snapshot` / :meth:`Session.restore` serialize and revive the
whole materializer state).
"""

from __future__ import annotations

import logging
import time
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.semirings import INTEGER_RING, Semiring, resolve_semiring
from repro.compiler.codegen import GeneratedTriggers, generate_python
from repro.compiler.compile import compile_query
from repro.compiler.cost import RuntimeStatistics
from repro.compiler.executor import CompiledExecutor
from repro.compiler.partition import (
    make_shard_backend,
    resolve_shard_backend,
    resolve_shard_count,
)
from repro.compiler.runtime import TriggerRuntime
from repro.core.ast import AggSum, Expr
from repro.core.errors import SchemaError
from repro.core.parser import parse, to_string
from repro.gmr.database import (
    Database,
    Update,
    coalesce_updates,
    deserialize_update,
    serialize_update,
)
from repro.gmr.records import Record
from repro.gmr.relation import GMR
from repro.ivm.base import EngineStatistics
from repro.ivm.classical import ClassicalIVM
from repro.ivm.naive import NaiveReevaluation
from repro.session.catalog import MapCatalog
from repro.session.views import (
    ALL_BACKENDS,
    COMPILED_BACKENDS,
    MaterializedView,
)
from repro.sql.frontend import is_sql, parse_sql, required_ring_name, translate

#: Snapshot format tag; bump when the layout changes.  Version 2 adds the
#: shard count and per-update net multiplicities in the history log;
#: :meth:`Session.restore` still accepts version-1 snapshots.
SNAPSHOT_FORMAT = "repro-session/2"
_ACCEPTED_SNAPSHOT_FORMATS = ("repro-session/1", SNAPSHOT_FORMAT)

_LOG = logging.getLogger("repro.session")


def _check_snapshot_maps(backend: str, definitions: Mapping[str, Any], tables) -> None:
    """Reject snapshot tables that do not fit the recompiled map hierarchy."""
    problems = []
    unknown = sorted(set(tables) - set(definitions))
    if unknown:
        problems.append(f"maps the recompiled views do not define: {unknown}")
    missing = sorted(set(definitions) - set(tables))
    if missing:
        problems.append(f"maps the snapshot lacks: {missing}")
    misshapen = []
    for name, entries in tables.items():
        if name in definitions:
            arity = definitions[name].arity
            if any(len(key) != arity for key, _value in entries):
                misshapen.append(name)
    misshapen.sort()
    if misshapen:
        problems.append(f"maps whose keys do not match the defined arity: {misshapen}")
    if problems:
        raise ValueError(
            f"session snapshot does not match the compiled {backend!r} views "
            f"(taken by another version of the compiler?) — " + "; ".join(problems)
        )


class _CompiledGroup:
    """All views of one compiled backend flavor, sharing maps and triggers.

    The group owns a :class:`MapCatalog` and one executable artifact built
    from the catalog's combined program: a :class:`TriggerRuntime` (and, for
    the generated flavor, a :class:`GeneratedTriggers` module over the same
    map environment), driven through their
    :class:`~repro.compiler.executor.CompiledExecutor` host.  Registration
    rebuilds the artifacts; map *contents* are carried over, so registering a
    view never disturbs already-maintained state.
    """

    def __init__(
        self,
        schema: Mapping[str, Sequence[str]],
        ring: Semiring,
        backend: str,
        shards: int = 1,
        shard_backend: Optional[str] = None,
    ):
        self.backend = backend
        self.ring = ring
        self.shards = shards
        #: The partition tier's execution backend, constructed once per group
        #: and shared across runtime rebuilds — a late view registration must
        #: not respawn the process backend's workers (their mirrors are keyed
        #: by map name and table identity, both of which rebuilds preserve).
        self.shard_backend_name = resolve_shard_backend(shard_backend)
        self.shard_backend = make_shard_backend(self.shard_backend_name, shards, ring)
        # AC canonicalization reorders products, which is only an equivalence
        # over commutative coefficient structures.
        self.catalog = MapCatalog(schema, ac_dedup=ring.commutative)
        #: Set by the first successful registration (a group is only reachable
        #: from its session after one); ``runtime``/``generated`` alias the
        #: executor's pair — plain attributes, they sit on the read path.
        self.executor: Optional[CompiledExecutor] = None
        self.runtime: Optional[TriggerRuntime] = None
        self.generated: Optional[GeneratedTriggers] = None
        #: Persistent across rebuilds (a rebuild replaces the runtime object).
        self.statistics = RuntimeStatistics()
        #: Watched result-map name -> views with at least one subscriber.
        self.watched: Dict[str, List[MaterializedView]] = {}

    # -- registration -----------------------------------------------------------

    def register(
        self,
        view_name: str,
        query: AggSum,
        bootstrap_source: Optional[Callable[[], Database]],
    ) -> str:
        """Compile ``query``, absorb it into the shared catalog, rebuild artifacts.

        ``bootstrap_source`` lazily produces the session's replayed update
        history when the view arrives mid-stream: newly materialized maps are
        initialized from it, so the late view is immediately consistent with
        the views registered before any updates flowed.  It is only invoked
        when the registration actually materializes new maps — a view that
        fully deduplicates onto existing maps (a duplicate dashboard panel)
        never pays for the replay.

        Registration is transactional: if rebuilding the execution artifacts
        fails (code generation rejecting the ring, a bootstrap error), the
        catalog and the runtime are restored to their pre-registration state
        and the view name stays available.
        """
        state = self.catalog.checkpoint()
        result_map = self.absorb(view_name, query)
        try:
            self.rebuild(bootstrap_source)
        except BaseException:
            self.catalog.rollback(state)
            raise
        return result_map

    def absorb(self, view_name: str, query: AggSum) -> str:
        """Compile ``query`` into the catalog without rebuilding the artifacts.

        For registering several views at once (a snapshot restore): one
        :meth:`rebuild` afterwards serves them all.
        """
        # Passing the ring attaches the semiring maintenance plan (counter
        # maps, tracked recomputes, support structures) that both compiled
        # executors dispatch on; rings with inverses compile exactly as before.
        program = compile_query(
            query, self.catalog.schema, name=view_name, normalize=self.ring.commutative,
            ring=self.ring,
        )
        return self.catalog.absorb(view_name, program)[0]

    def rebuild(self, bootstrap_source: Optional[Callable[[], Database]]) -> None:
        """Rebuild the execution artifacts from the catalog's current program.

        Map contents carry over by name; the maps new to the program are
        bootstrapped from ``bootstrap_source`` (when given).
        """
        combined = self.catalog.program()
        previous = self.runtime.maps if self.runtime is not None else {}
        runtime = TriggerRuntime(
            combined, ring=self.ring, shards=self.shards, shard_backend=self.shard_backend
        )
        runtime.statistics = self.statistics
        for name in combined.maps:
            if name in previous:
                runtime.maps[name] = previous[name]
        fresh = tuple(name for name in combined.maps if name not in previous)
        if bootstrap_source is not None and fresh:
            runtime.bootstrap(bootstrap_source(), names=fresh)
        else:
            runtime.indexes.rebuild(runtime.maps)
            # A rebuild replaces the runtime object (and with it the support
            # tier); re-derive the sidecars from the carried-over counters.
            runtime.rebuild_supports()
        generated = (
            generate_python(combined, ring=self.ring) if self.backend == "generated" else None
        )
        # Installed last: a failed rebuild leaves the previous pair in place.
        self.executor = CompiledExecutor(runtime, generated)
        self.runtime, self.generated = runtime, generated

    # -- update processing ---------------------------------------------------------

    def changes_accumulator(self) -> Optional[Dict[str, Dict[Tuple[Any, ...], Any]]]:
        """Fresh per-watched-map accumulators, or ``None`` when nobody subscribed."""
        if not self.watched:
            return None
        return {name: {} for name in self.watched}

    # -- introspection ------------------------------------------------------------

    def total_map_entries(self) -> int:
        return self.runtime.total_map_entries()

    def map_sizes(self) -> Dict[str, int]:
        return self.runtime.map_sizes()

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Shut the partition-tier backend down (stops process workers)."""
        if self.shard_backend is not None:
            self.shard_backend.close()


class Session:
    """One update stream, many materialized views, shared maps.

    Parameters
    ----------
    schema:
        Relation name -> ordered column names, declared once for all views.
    ring:
        Coefficient structure for multiplicities and aggregates (default ℤ).
    track_history:
        When true (the default) the session keeps the applied update log,
        which is what allows registering additional views *after* updates
        have flowed (their maps are bootstrapped from the replayed history)
        and makes snapshots self-contained.  Disable for long-running
        fixed-view deployments where the log's memory is unwanted.  The log
        stores the *effective* (coalesced) batches — replay-equivalent to
        the submitted updates, without the cancelled churn.
    shards:
        Hash-partition count of the compiled views' map tables
        (:mod:`repro.compiler.partition`).  With ``shards=N`` (N > 1) the
        batch folds split per shard and run on the shard backend; ``None``
        defers to the ``REPRO_SHARDS`` environment variable, and the
        default of 1 keeps plain dict tables and exactly the unsharded
        code path.  Results and ``on_change`` payloads are identical for
        every shard count.
    shard_backend:
        Execution backend of the partition tier
        (:mod:`repro.compiler.partition`): ``"inline"``, ``"thread"`` or
        ``"process"``.  ``None`` defers to ``REPRO_SHARD_BACKEND`` (default
        ``"thread"``).  Only meaningful with ``shards > 1``; the
        ``"process"`` backend spawns one long-lived worker per shard that
        keeps a warm mirror of its shard's tables, so folds run with real
        parallelism even on GIL builds.  State and CDC are identical across
        backends.  Call :meth:`close` (or use the session as a context
        manager) to shut process workers down deterministically.
    """

    def __init__(
        self,
        schema: Mapping[str, Sequence[str]],
        ring: Semiring = INTEGER_RING,
        track_history: bool = True,
        shards: Optional[int] = None,
        shard_backend: Optional[str] = None,
    ):
        self.schema: Dict[str, Tuple[str, ...]] = {
            name: tuple(columns) for name, columns in schema.items()
        }
        self.ring = ring
        self.shards = resolve_shard_count(shards)
        self.shard_backend = resolve_shard_backend(shard_backend)
        self.statistics = EngineStatistics()
        self._views: Dict[str, MaterializedView] = {}
        self._groups: Dict[str, _CompiledGroup] = {}
        self._engine_views: List[MaterializedView] = []
        self._history: Optional[List[Update]] = [] if track_history else None
        self._updates_applied = 0

    # -- view registration -----------------------------------------------------

    def view(
        self,
        name: str,
        query,
        backend: str = "generated",
        group_vars: Optional[Sequence[str]] = None,
    ) -> MaterializedView:
        """Register a continuously maintained query and return its handle.

        ``query`` may be SQL text (the subset of :mod:`repro.sql`), AGCA text
        (``"Sum(R(x) * x)"`` / ``"AggSum([a], ...)"``) or an AGCA ``Expr``.
        ``backend`` selects where maintenance runs: ``"generated"`` (default)
        and ``"interpreted"`` share maps with the session's other compiled
        views; ``"classical"`` and ``"naive"`` get a standalone baseline
        engine.  Registering after updates have been applied requires
        ``track_history=True`` — the new view is bootstrapped from the
        replayed history.
        """
        return self._add_view(name, query, backend, group_vars)

    def _add_view(
        self,
        name: str,
        query,
        backend: str,
        group_vars: Optional[Sequence[str]] = None,
        rebuild: bool = True,
    ) -> MaterializedView:
        """:meth:`view`; ``rebuild=False`` only absorbs a compiled view into its
        group's catalog, for a caller that rebuilds every group afterwards."""
        if not isinstance(name, str) or not name:
            raise ValueError("view name must be a non-empty string")
        if name in self._views:
            raise ValueError(f"view {name!r} is already registered")
        if backend not in ALL_BACKENDS:
            raise ValueError(f"backend must be one of {ALL_BACKENDS}, got {backend!r}")
        query_expr = self._as_query(query, group_vars)

        view = MaterializedView(self, name, query_expr, backend)
        bootstrap_source = self._replayed_database if self._updates_applied else None
        if backend in COMPILED_BACKENDS:
            group = self._groups.get(backend)
            if group is None:
                # Commit the new group only after a successful registration, so
                # a failed first view does not leave an empty group behind.
                group = _CompiledGroup(
                    self.schema,
                    self.ring,
                    backend,
                    shards=self.shards,
                    shard_backend=self.shard_backend,
                )
            view._group = group
            if rebuild:
                view._map_name = group.register(name, query_expr, bootstrap_source)
            else:
                view._map_name = group.absorb(name, query_expr)
            self._groups[backend] = group
        else:
            engine_class = ClassicalIVM if backend == "classical" else NaiveReevaluation
            engine = engine_class(query_expr, self.schema, ring=self.ring)
            if bootstrap_source is not None:
                engine.bootstrap(bootstrap_source())
            view._engine = engine
            self._engine_views.append(view)
        self._views[name] = view
        return view

    def _as_query(self, query, group_vars: Optional[Sequence[str]]) -> AggSum:
        if isinstance(query, str):
            if is_sql(query):
                parsed = parse_sql(query)
                # Lattice aggregates (MIN/MAX/TOPK) carry their semantics in
                # the coefficient structure, so the session must have been
                # created over the matching one — catching the mismatch here
                # names the fix instead of serving silently wrong sums.
                required = required_ring_name(parsed)
                if required is not None and self.ring.name != required:
                    raise ValueError(
                        f"aggregate {parsed.aggregate!r} requires the {required!r} "
                        f"coefficient structure, but this session uses "
                        f"{self.ring.name!r}; create the session with "
                        f"ring=resolve_semiring({required!r})"
                    )
                expr = translate(parsed, self.schema)
            else:
                expr = parse(query)
        elif isinstance(query, Expr):
            expr = query
        else:
            raise TypeError(
                f"query must be SQL text, AGCA text or an AGCA expression, got {type(query).__name__}"
            )
        if not isinstance(expr, AggSum):
            return AggSum(tuple(group_vars or ()), expr)
        if group_vars is not None and tuple(group_vars) != expr.group_vars:
            raise ValueError("group_vars argument conflicts with the query's group variables")
        return expr

    def _replayed_database(self) -> Database:
        if self._history is None:
            raise RuntimeError(
                "cannot register a view after updates on a session created with "
                "track_history=False (the new view's maps cannot be bootstrapped)"
            )
        db = Database(schema=self.schema, ring=self.ring)
        db.apply_all(self._history)
        return db

    # -- view access -------------------------------------------------------------

    @property
    def views(self) -> Dict[str, MaterializedView]:
        """A copy of the registered views, keyed by name (registration order)."""
        return dict(self._views)

    def __getitem__(self, name: str) -> MaterializedView:
        try:
            return self._views[name]
        except KeyError:
            raise KeyError(f"unknown view {name!r}; registered: {sorted(self._views)}") from None

    def __contains__(self, name: object) -> bool:
        return name in self._views

    def results(self) -> Dict[str, Any]:
        """Every view's current result, keyed by view name."""
        return {name: view.result() for name, view in self._views.items()}

    # -- update processing ----------------------------------------------------------

    def insert(self, relation: str, *values: Any) -> None:
        """Insert one tuple; every registered view is maintained.

        Values are passed as separate arguments: ``session.insert("R", 1, 2)``.
        """
        self.apply(Update(1, relation, values))

    def delete(self, relation: str, *values: Any) -> None:
        """Delete one tuple; every registered view is maintained."""
        self.apply(Update(-1, relation, values))

    def _validate_update(self, update: Update) -> None:
        """Reject updates that do not match the declared schema.

        Catching a wrong arity here — e.g. ``insert("R", (1, 2))`` passing one
        tuple instead of splat values — turns an opaque unpacking crash deep
        inside generated trigger code into a :class:`SchemaError` that names
        the relation and the expected columns.
        """
        declared = self.schema.get(update.relation)
        if declared is None:
            raise SchemaError(
                f"relation {update.relation!r} is not declared in the session schema "
                f"(declared: {sorted(self.schema)})"
            )
        if len(update.values) != len(declared):
            values = update.values
            hint = ""
            if len(values) == 1 and isinstance(values[0], (tuple, list)):
                hint = "; pass values as separate arguments, not as one tuple"
            raise SchemaError(
                f"relation {update.relation!r} expects {len(declared)} values "
                f"{tuple(declared)}, got {len(values)}: {values!r}{hint}"
            )

    def apply(self, update: Update) -> None:
        """Apply one single-tuple :class:`Update` to all views.

        Unlike :meth:`apply_batch`, the single-update fast path is *not*
        transactional across views: it skips the transaction bookkeeping
        (opening an undo journal per group and recording the prior value of
        every entry written — O(touched keys), a constant that matters at
        one tuple per call), so an exception raised by one view's trigger
        propagates with the earlier views already advanced.  Wrap risky
        updates as ``apply_batch([update])`` when the all-or-nothing contract
        matters more than the per-update constant.
        """
        if update.count != 1:
            # A net-multiplicity update (e.g. replayed from a coalesced
            # history) is a one-element batch: the batch path folds the
            # count through the delta maps.
            self.apply_batch([update])
            return
        self._validate_update(update)
        started = time.perf_counter()
        notifications = []
        for group in self._groups.values():
            changes = group.changes_accumulator()
            group.executor.apply(update, changes)
            if changes:
                notifications.append((group, changes))
        for view in self._engine_views:
            view._engine.apply(update)
        self._note_applied([update], started)
        self._dispatch(notifications)

    def apply_batch(self, updates: Iterable[Update], *, coalesced: bool = False) -> None:
        """Apply a batch of updates to all views as one unit.

        Equivalent to applying the updates one at a time (ring updates
        commute) with per-batch amortized costs; ``on_change`` subscribers
        receive one consolidated delta per view for the whole batch.

        Insert/delete pairs of the same tuple are cancelled *before* any
        trigger runs (:func:`repro.gmr.database.coalesce_updates`), and
        duplicate tuples collapse into one update carrying the net
        multiplicity: over a ring a net-zero pair cannot change any view, so
        upsert-style churn costs nothing.  The compiled views then execute
        their batch triggers — one pre-aggregated delta map per
        ``(relation, sign)`` group, one fold per distinct key — shared
        across all views of a backend.  ``coalesced=True`` declares the batch
        already compact (at most one update per ``(relation, values)`` pair,
        net multiplicities in ``Update.count``) and skips the cancellation
        pass — the streaming ingestion flusher uses this, its queue having
        coalesced online at enqueue time.

        An *empty or fully-cancelled* batch short-circuits here: no
        transaction is opened, no trigger runs, nothing is appended to the
        history, and no ``on_change`` callback fires — only the submitted
        counters advance.

        The batch is transactional across views: while it runs, every write
        to a compiled view's tables records the entry's prior value in an
        undo journal (O(keys the batch touches), independent of how much
        state the views hold), and an exception raised mid-batch (e.g. a
        ring arithmetic error on one view) replays the journals backwards —
        again O(touched keys) — so all views are back at the pre-batch state
        before it propagates: a poisoned batch can never leave some views
        advanced and others not.  Nothing is appended to the history and no
        ``on_change`` callback fires for a rolled-back batch; the rollback is
        logged at WARNING on the ``repro.session`` logger.
        """
        updates = updates if isinstance(updates, (list, tuple)) else list(updates)
        # Validate the whole batch up front so a malformed update cannot leave
        # some views advanced and others not.
        for update in updates:
            self._validate_update(update)
        started = time.perf_counter()
        effective = updates if coalesced else coalesce_updates(updates)
        if not effective:
            # Nothing survives cancellation: count the submitted churn, touch
            # nothing else (no history entry, no snapshot delta, no CDC).
            self._note_applied((), started, submitted=len(updates))
            return
        notifications = []
        groups = list(self._groups.values())
        engine_states = [(view._engine, view._engine.state_backup()) for view in self._engine_views]
        for group in groups:
            group.executor.begin()
        try:
            for group in groups:
                changes = group.changes_accumulator()
                group.executor.apply_batch(effective, changes)
                if changes:
                    notifications.append((group, changes))
            for view in self._engine_views:
                view._engine.apply_batch(effective)
        except BaseException as error:
            undone = sum([group.executor.rollback() for group in groups])
            for engine, state in engine_states:
                engine.state_restore(state)
            _LOG.warning(
                "rolled back a batch of %d updates after %s: %d journalled entries restored "
                "across groups %s",
                len(effective),
                type(error).__name__,
                undone,
                [group.backend for group in groups],
            )
            raise
        for group in groups:
            group.executor.commit()
        self._note_applied(effective, started, submitted=len(updates))
        self._dispatch(notifications)

    def apply_all(self, updates: Iterable[Update]) -> None:
        """Apply a stream of updates one at a time."""
        for update in updates:
            self.apply(update)

    def ingest(self, **kwargs) -> "Any":
        """A streaming :class:`~repro.ingest.IngestPipeline` over this session.

        Producers on any thread ``submit()`` updates; the pipeline coalesces
        them online and flushes pre-aggregated batches through
        :meth:`apply_batch` on a size/latency watermark, with backpressure and
        per-flush dead-letter quarantine.  Keyword arguments are forwarded to
        :class:`~repro.ingest.IngestPipeline` (``max_pending``,
        ``max_staleness_ms``, ``backpressure``, ...).  While a pipeline is
        running it owns the session's write path — do not call ``insert`` /
        ``apply_batch`` directly until it is closed.  Use as a context
        manager for a final flush on exit::

            with session.ingest(max_staleness_ms=20) as pipe:
                pipe.insert("R", 1)
        """
        from repro.ingest import IngestPipeline

        return IngestPipeline(self, **kwargs)

    def _note_applied(
        self, updates: Sequence[Update], started: float, submitted: Optional[int] = None
    ) -> None:
        """Record an applied batch: ``updates`` is the *effective* (coalesced) form.

        The history therefore never replays cancelled churn —
        ``_replayed_database()`` (late-view bootstrap) and snapshots see the
        net batch, which is state-equivalent to the submitted one.  The
        counters keep counting submitted updates.
        """
        if self._history is not None:
            self._history.extend(updates)
        count = len(updates) if submitted is None else submitted
        self._updates_applied += count
        self.statistics.updates_processed += count
        self.statistics.seconds_in_updates += time.perf_counter() - started

    def _dispatch(self, notifications) -> None:
        """Deliver collected per-map deltas to the subscribed views' callbacks.

        Over a proper semiring the payload carries post-update values and
        ``ring.zero`` marks a removed group — those entries must be delivered,
        not filtered (there are no deltas without additive inverses).
        """
        ring = self.ring
        for group, changes in notifications:
            for map_name, accumulated in changes.items():
                if ring.is_ring:
                    filtered = {
                        key: value
                        for key, value in accumulated.items()
                        if not ring.is_zero(value)
                    }
                else:
                    filtered = accumulated
                if not filtered:
                    continue
                for view in group.watched.get(map_name, ()):
                    for callback in view._callbacks:
                        # Each subscriber gets its own copy: a callback that
                        # drains its payload must not corrupt its siblings'.
                        callback(dict(filtered))

    # -- introspection -----------------------------------------------------------------

    @property
    def updates_applied(self) -> int:
        return self._updates_applied

    def total_map_entries(self) -> int:
        """Stored entries across all compiled views' shared hierarchies."""
        return sum(group.total_map_entries() for group in self._groups.values())

    def map_sizes(self) -> Dict[str, int]:
        """Entry counts per shared map across all compiled groups."""
        sizes: Dict[str, int] = {}
        for group in self._groups.values():
            sizes.update(group.map_sizes())
        return sizes

    def dispatch_statistics(self) -> Dict[str, Dict[str, Any]]:
        """Per-compiled-group partition-tier dispatch decisions and cost models.

        One entry per compiled group with a live shard backend, keyed by the
        group's executor flavor; each value is the backend policy's
        :meth:`~repro.compiler.partition.dispatch.DispatchPolicy.snapshot`
        (policy name, decision tallies, and — for the adaptive policy — the
        learned per-(statement group, mode) cost predictions).  Also mirrored
        into ``self.statistics.extra["shard_dispatch"]`` so engine-level
        consumers see it without a separate call.
        """
        report: Dict[str, Dict[str, Any]] = {}
        for backend_name, group in self._groups.items():
            shard_backend = group.shard_backend
            if shard_backend is not None:
                report[backend_name] = shard_backend.dispatch.snapshot()
        self.statistics.extra["shard_dispatch"] = report
        return report

    def sharing_report(self) -> Dict[str, int]:
        """Aggregated :meth:`MapCatalog.sharing_report` over all compiled groups."""
        totals = dict.fromkeys(
            ("views", "maps", "maps_deduplicated", "statements_deduplicated", "maps_transposed"),
            0,
        )
        for group in self._groups.values():
            for key, value in group.catalog.sharing_report().items():
                totals[key] += value
        totals["views"] += len(self._engine_views)
        return totals

    def explain(self) -> str:
        """The combined map hierarchies and triggers of the compiled groups."""
        sections = []
        for backend, group in self._groups.items():
            sections.append(f"== backend {backend!r} ==\n{group.catalog.program().explain()}")
        for view in self._engine_views:
            sections.append(f"== view {view.name!r} on engine backend {view.backend!r} ==")
        return "\n".join(sections) if sections else "(no views registered)"

    # -- persistence -----------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serialize the whole materializer state as plain Python data.

        The snapshot contains the schema, the ring *name*, every view's query
        (as AGCA text), the shared map tables of the compiled groups, the
        base databases of the engine-backed views, and (when history tracking
        is on) the update log.  It is JSON-serializable whenever the data
        values and ring values are.  Subscriptions (``on_change`` callbacks)
        are not part of the state and must be re-attached after
        :meth:`restore`.
        """
        views = [
            {"name": view.name, "backend": view.backend, "query": to_string(view.query)}
            for view in self._views.values()
        ]
        groups = {
            backend: {
                name: [[list(key), value] for key, value in table.items()]
                for name, table in group.runtime.maps.items()
            }
            for backend, group in self._groups.items()
        }
        engines: Dict[str, Dict[str, list]] = {}
        for view in self._engine_views:
            db = view._engine.db
            engines[view.name] = {
                relation: [
                    [list(record.values_for(db.columns(relation))), multiplicity]
                    for record, multiplicity in gmr.items()
                ]
                for relation, gmr in db
            }
        snapshot: Dict[str, Any] = {
            "format": SNAPSHOT_FORMAT,
            "ring": self.ring.name,
            "schema": {relation: list(columns) for relation, columns in self.schema.items()},
            "updates_applied": self._updates_applied,
            "shards": self.shards,
            "shard_backend": self.shard_backend,
            "views": views,
            "maps": groups,
            "engine_databases": engines,
        }
        if self._history is not None:
            snapshot["history"] = [serialize_update(update) for update in self._history]
        return snapshot

    @classmethod
    def restore(
        cls,
        snapshot: Mapping[str, Any],
        ring: Optional[Semiring] = None,
        shards: Optional[int] = None,
        shard_backend: Optional[str] = None,
    ) -> "Session":
        """Revive a session from :meth:`snapshot` output.

        The coefficient ring is looked up by name among the built-in
        structures; pass ``ring=`` explicitly for custom structures (the
        snapshot only records the name).  ``shards`` overrides the recorded
        shard count — the restored tables are re-partitioned by key hash, so
        a snapshot taken at one shard count can be revived at any other
        (including back to the unsharded plain-dict layout at 1).  Likewise
        ``shard_backend`` overrides the recorded partition-tier backend: a
        snapshot taken under ``"thread"`` can be revived under ``"process"``
        (and vice versa) — the state travels in the same backend-agnostic
        serialization either way.
        """
        if snapshot.get("format") not in _ACCEPTED_SNAPSHOT_FORMATS:
            raise ValueError(f"unsupported session snapshot format: {snapshot.get('format')!r}")
        if ring is None:
            try:
                # resolve_semiring also reconstructs parameterized structures
                # the builtin table cannot enumerate ("top3", "top4-min", …).
                ring = resolve_semiring(snapshot["ring"])
            except KeyError:
                raise ValueError(
                    f"snapshot uses non-built-in ring {snapshot['ring']!r}; "
                    f"pass the ring instance explicitly"
                ) from None
        if shards is None:
            shards = snapshot.get("shards", 1)
        if shard_backend is None:
            shard_backend = snapshot.get("shard_backend")
        schema = {relation: tuple(columns) for relation, columns in snapshot["schema"].items()}
        session = cls(
            schema,
            ring=ring,
            track_history="history" in snapshot,
            shards=shards,
            shard_backend=shard_backend,
        )
        try:
            # Every view joins its group's catalog first; each group then
            # builds its program, runtime and module once, not once per view.
            for spec in snapshot["views"]:
                session._add_view(
                    spec["name"], parse(spec["query"]), spec["backend"], rebuild=False
                )
            for group in session._groups.values():
                group.rebuild(None)
            # The views were just recompiled by *this* compiler: a snapshot
            # whose hierarchy another version laid out differently must not be
            # poured into it (restore_tables would keep unknown names as orphan
            # tables and leave missing ones empty).
            for backend, tables in snapshot["maps"].items():
                _check_snapshot_maps(
                    backend, session._groups[backend].runtime.program.maps, tables
                )
        except BaseException:
            session.close()
            raise
        for backend, tables in snapshot["maps"].items():
            # Re-partitions under the session's shard count, rebuilds the slice
            # indexes and re-derives the support sidecars from the counter maps.
            session._groups[backend].runtime.restore_tables(
                {
                    name: {tuple(key): value for key, value in entries}
                    for name, entries in tables.items()
                }
            )
        for view_name, relations in snapshot["engine_databases"].items():
            engine = session._views[view_name]._engine
            db = Database(schema=schema, ring=ring)
            for relation, rows in relations.items():
                columns = db.columns(relation)
                contents = {
                    Record.from_values(columns, tuple(values)): multiplicity
                    for values, multiplicity in rows
                }
                db.set_relation(relation, GMR(contents, ring=ring))
            engine.bootstrap(db)

        session._updates_applied = snapshot["updates_applied"]
        session.statistics.updates_processed = snapshot["updates_applied"]
        if "history" in snapshot:
            # Version-1 rows are [sign, relation, values]; version 2 appends
            # the net multiplicity (deserialize_update accepts both).
            session._history = [deserialize_update(row) for row in snapshot["history"]]
        return session

    # -- lifecycle -----------------------------------------------------------------------------

    def close(self) -> None:
        """Release partition-tier resources (process-backend workers).

        Idempotent; the session remains usable afterwards — the next batch
        that needs workers respawns them lazily from the current state.
        """
        for group in self._groups.values():
            group.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- dunder --------------------------------------------------------------------------------

    def __repr__(self) -> str:
        return (
            f"Session(relations={len(self.schema)}, views={len(self._views)}, "
            f"updates={self._updates_applied}, entries={self.total_map_entries()})"
        )
