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

Every view is compiled.  The views of one backend (``"generated"``, the
default, or ``"interpreted"``) share one map hierarchy through a
:class:`~repro.session.catalog.MapCatalog`: each view is compiled against it,
so a map equal to one an earlier view materialized is read, not compiled
again — maintained once per update, not once per view — and registering the
view adds only its own maps and statements.

Sessions also support change-data-capture (``view.on_change(callback)``
delivers per-update result deltas) and persistence
(:meth:`Session.snapshot` / :meth:`Session.restore` serialize and revive the
whole materializer state).
"""

from __future__ import annotations

import logging
import time
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.algebra.semirings import INTEGER_RING, Semiring, resolve_semiring
from repro.compiler.codegen import GeneratedTriggers, generate_python
from repro.compiler.compile import compile_query
from repro.compiler.cost import RuntimeStatistics
from repro.compiler.executor import CompiledExecutor
from repro.compiler.runtime import TriggerRuntime
from repro.core.ast import AggSum, Expr
from repro.core.errors import SchemaError
from repro.core.parser import parse, to_string
from repro.gmr.database import (
    Database,
    Delta,
    Update,
    coalesce_updates,
    deserialize_update,
    serialize_update,
)
from repro.ivm.base import ChangeCallback, EngineStatistics
from repro.session.catalog import MapCatalog
from repro.session.views import COMPILED_BACKENDS, MaterializedView
from repro.sql.frontend import is_sql, parse_sql, required_ring_name, translate

#: Snapshot format tag; bump when the layout changes.  :meth:`Session.restore`
#: reads this format only.
SNAPSHOT_FORMAT = "repro-session/2"

_LOG = logging.getLogger("repro.session")

#: The key types a snapshot table may carry: live tuples, or lists after JSON.
_KEY_SEQUENCES = frozenset((tuple, list))


def _check_snapshot_maps(
    backend: str, runtime: TriggerRuntime, tables: Mapping[str, Any]
) -> Dict[str, Dict[Tuple[Any, ...], Any]]:
    """Decode a backend's snapshot tables into the dicts the runtime adopts,
    rejecting any that do not fit the recompiled map hierarchy.

    Each table is a sequence of ``(key, value)`` pairs — tuples when the
    snapshot is the live :meth:`Session.snapshot` output, lists once it went
    through JSON — and is decoded exactly once (``tuple(key)`` is free for a
    tuple key).  The checks then run without a per-entry Python loop: the map
    set against the program's, every key a tuple or a list (one
    ``map(type, …)`` pass over the entries), every key's arity
    (``set(map(len, table))``), no key given twice (the dict is as
    long as the sequence) and no stored zero (a membership test; stored
    tables never hold their map's zero).  Every violation is collected into
    one :class:`ValueError` naming the maps.

    A semiring session's ring maps decode their values through
    ``ring.coerce``, which restores the carrier a JSON round trip loses (a
    top-k tuple comes back as a list); its ℤ counter maps, and every map of
    a ring session, adopt the values as they are.  That is decided once per
    map.
    """
    definitions = runtime.program.maps
    ring = runtime.ring
    counters = () if ring.is_ring else runtime.program.maintenance.counter_maps
    problems = []
    unknown = sorted(set(tables) - set(definitions))
    if unknown:
        problems.append(f"maps the recompiled views do not define: {unknown}")
    missing = sorted(set(definitions) - set(tables))
    if missing:
        problems.append(f"maps the snapshot lacks: {missing}")
    decoded: Dict[str, Dict[Tuple[Any, ...], Any]] = {}
    malformed, misshapen, duplicated, zeroed = [], [], [], []
    for name in sorted(set(tables) & set(definitions)):
        entries = tables[name]
        try:
            if ring.is_ring or name in counters:
                table = {tuple(key): value for key, value in entries}
            else:
                coerce = ring.coerce
                table = {tuple(key): coerce(value) for key, value in entries}
            # tuple() accepts any iterable: a string key would restore as
            # its characters.
            pairs = _KEY_SEQUENCES.issuperset(map(type, map(itemgetter(0), entries)))
        except (TypeError, ValueError, LookupError):
            pairs = False
        if not pairs:
            malformed.append(name)
            continue
        if len(table) != len(entries):
            duplicated.append(name)
        if table and set(map(len, table)) != {definitions[name].arity}:
            misshapen.append(name)
        if runtime.zero_of(name) in table.values():
            zeroed.append(name)
        decoded[name] = table
    if malformed:
        problems.append(f"maps with an entry that is not a (key sequence, value) pair: {malformed}")
    if misshapen:
        problems.append(f"maps whose keys do not match the defined arity: {misshapen}")
    if duplicated:
        problems.append(f"maps that list a key more than once: {duplicated}")
    if zeroed:
        problems.append(f"maps that store a zero value: {zeroed}")
    if problems:
        raise ValueError(
            f"session snapshot does not match the compiled {backend!r} views "
            f"(taken by another version of the compiler?) — " + "; ".join(problems)
        )
    return decoded


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

    def __init__(self, schema: Mapping[str, Sequence[str]], ring: Semiring, backend: str):
        self.backend = backend
        self.ring = ring
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
        #: Result-map name -> the ``on_change`` callbacks of the views on it.
        #: Replaced, never mutated (``MaterializedView._resubscribe``): an
        #: update call reads it once and delivers to that snapshot.
        self.subscribers: Dict[str, Tuple[ChangeCallback, ...]] = {}

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
        catalog's append is undone, the runtime is left as it was, and the
        view name stays available.
        """
        result_map = self.absorb(view_name, query)
        try:
            self.rebuild(bootstrap_source)
        except BaseException:
            self.catalog.rollback()
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
        # Compiled against the catalog, the program holds what the view adds.
        program = compile_query(
            query, self.catalog.schema, name=view_name, normalize=self.ring.commutative,
            ring=self.ring, catalog=self.catalog,
        )
        return self.catalog.absorb(view_name, program)[0]

    def rebuild(self, bootstrap_source: Optional[Callable[[], Database]]) -> None:
        """Rebuild the execution artifacts from the catalog's current program.

        Map contents carry over by name, with the slice-index buckets of
        every signature the previous runtime kept for them: only signatures
        new to the program are built.  The maps new to the program are
        bootstrapped from ``bootstrap_source`` (when given).
        """
        combined = self.catalog.program()
        previous = self.runtime
        carried, buckets = (previous.maps, previous.indexes.data) if previous is not None else ({}, {})
        runtime = TriggerRuntime(combined, ring=self.ring)
        runtime.statistics = self.statistics
        for name in combined.maps:
            if name in carried:
                runtime.maps[name] = carried[name]
        fresh = tuple(name for name in combined.maps if name not in carried)
        data = runtime.indexes.data
        data.update((signature, buckets[signature]) for signature in data.keys() & buckets.keys())
        runtime.indexes.rebuild(
            runtime.maps, [sig for sig in data if sig[0] in carried and sig not in buckets]
        )
        if bootstrap_source is not None and fresh:
            runtime.bootstrap(bootstrap_source(), names=fresh)
        else:
            # A rebuild replaces the runtime object (and with it the support
            # tier); re-derive the sidecars from the carried-over counters.
            runtime.rebuild_supports()
        generated = (
            generate_python(combined, ring=self.ring) if self.backend == "generated" else None
        )
        # Installed last: a failed rebuild leaves the previous pair in place.
        self.executor = CompiledExecutor(runtime, generated)
        self.runtime, self.generated = runtime, generated

    # -- introspection ------------------------------------------------------------

    def total_map_entries(self) -> int:
        return self.runtime.total_map_entries()

    def map_sizes(self) -> Dict[str, int]:
        return self.runtime.map_sizes()


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
        Accepted for compatibility only, and only as ``1``: every map table
        is a plain dict.  Any other value raises :class:`ValueError`, because
        the partition tier that used it was removed.
    """

    def __init__(
        self,
        schema: Mapping[str, Sequence[str]],
        ring: Semiring = INTEGER_RING,
        track_history: bool = True,
        shards: int = 1,
    ):
        if shards != 1:
            raise ValueError(
                f"shards={shards!r}: the partition tier was removed, every map "
                f"table is a plain dict; omit shards= (only shards=1 is accepted)"
            )
        self.schema: Dict[str, Tuple[str, ...]] = {
            name: tuple(columns) for name, columns in schema.items()
        }
        #: Relation -> arity: what update validation checks.
        self._arities: Dict[str, int] = {name: len(columns) for name, columns in self.schema.items()}
        self.ring = ring
        self.statistics = EngineStatistics()
        self._views: Dict[str, MaterializedView] = {}
        self._groups: Dict[str, _CompiledGroup] = {}
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
        ``backend`` selects the compiled executor, ``"generated"`` (default)
        or ``"interpreted"``; the view shares maps with the session's other
        views on that backend.  Registering after updates have been applied
        requires ``track_history=True`` — the new view is bootstrapped from the
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
        """:meth:`view`; ``rebuild=False`` only absorbs the view into its
        group's catalog, for a caller that rebuilds every group afterwards."""
        if not isinstance(name, str) or not name:
            raise ValueError("view name must be a non-empty string")
        if name in self._views:
            raise ValueError(f"view {name!r} is already registered")
        if backend not in COMPILED_BACKENDS:
            raise ValueError(f"backend must be one of {COMPILED_BACKENDS}, got {backend!r}")
        query_expr = self._as_query(query, group_vars)

        group = self._groups.get(backend)
        if group is None:
            # Commit the new group only after a successful registration, so
            # a failed first view does not leave an empty group behind.
            group = _CompiledGroup(self.schema, self.ring, backend)
        view = MaterializedView(self, name, query_expr, backend, group)
        if rebuild:
            bootstrap_source = self._replayed_database if self._updates_applied else None
            view._map_name = group.register(name, query_expr, bootstrap_source)
        else:
            view._map_name = group.absorb(name, query_expr)
        self._groups[backend] = group
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

    def _validate_updates(self, updates: Sequence[Update]) -> None:
        """Reject a chunk of updates unless all of them match the declared schema.

        One pass over the chunk; the message is built only on failure, for
        the first offender.  Catching a wrong arity here — e.g.
        ``insert("R", (1, 2))`` passing one tuple instead of splat values —
        turns an opaque unpacking crash deep inside generated trigger code
        into a :class:`SchemaError` that names the relation and the expected
        columns.
        """
        arities = self._arities
        invalid = [update for update in updates if arities.get(update.relation) != len(update.values)]
        if not invalid:
            return
        relation, values = invalid[0].relation, invalid[0].values
        declared = self.schema.get(relation)
        if declared is None:
            raise SchemaError(
                f"relation {relation!r} is not declared in the session schema "
                f"(declared: {sorted(self.schema)})"
            )
        hint = ""
        if len(values) == 1 and isinstance(values[0], (tuple, list)):
            hint = "; pass values as separate arguments, not as one tuple"
        raise SchemaError(
            f"relation {relation!r} expects {len(declared)} values "
            f"{tuple(declared)}, got {len(values)}: {values!r}{hint}"
        )

    def apply(self, update: Update) -> None:
        """Apply one single-tuple :class:`Update` to all views.

        Each compiled group runs the update's event trigger — the same batch
        trigger :meth:`apply_batch` runs — on the one-row delta map
        ``{values: 1}``, and ``on_change`` subscribers receive the call's
        per-view delta.  Around the triggers a call costs an arity check, a
        fresh accumulator per subscribed map, the work counters and the
        delivery.

        Unlike :meth:`apply_batch`, this path is *not* transactional across
        views: it opens no undo journal and records no prior values (O(touched
        keys), a constant that matters at one tuple per call), so an
        exception raised by one view's trigger propagates with the earlier
        views already advanced.  Wrap risky updates as
        ``apply_batch([update])``, the all-or-nothing form, when that
        contract matters more than the per-update constant.
        """
        if update.count != 1:
            # A net-multiplicity update (e.g. replayed from a coalesced
            # history) is a one-element batch: the batch path folds the
            # count through the delta maps.
            self.apply_batch([update])
            return
        if self._arities.get(update.relation) != len(update.values):
            self._validate_updates((update,))  # raises the SchemaError
        started = time.perf_counter()
        notifications = []
        for group in self._groups.values():
            subscribers = group.subscribers
            changes = {name: {} for name in subscribers} if subscribers else None
            group.executor.apply(update, changes)
            if changes:
                notifications.append((subscribers, changes))
        self._note_applied((update,), 1, started)
        if notifications:
            self._dispatch(notifications)

    def apply_batch(self, updates: Union[Iterable[Update], Delta]) -> None:
        """Apply a batch of updates to all views as one unit.

        Equivalent to applying the updates one at a time (ring updates
        commute) with per-batch amortized costs; ``on_change`` subscribers
        receive one consolidated delta per view for the whole batch.

        The batch is the paper's ``∆D``, coalesced once: ``Update`` input is
        validated against the schema and netted by
        :func:`repro.gmr.database.coalesce_updates` — insert/delete pairs of
        the same tuple cancel *before* any trigger runs and duplicates
        collapse into one net multiplicity, so upsert-style churn costs
        nothing — into a :class:`~repro.gmr.database.Delta`.  A ``Delta``
        (what the streaming ingestion queue drains, already coalesced at
        enqueue) is applied as it is.  The compiled views then run their
        batch triggers on its delta maps — one per ``(relation, sign)``
        event, one fold per distinct key — shared across all views of a
        backend.

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
        started = time.perf_counter()
        if isinstance(updates, Delta):
            delta = updates
            submitted = len(delta)
        else:
            updates = updates if isinstance(updates, (list, tuple)) else list(updates)
            # Validate the whole batch up front so a malformed update cannot
            # leave some views advanced and others not.
            self._validate_updates(updates)
            delta = coalesce_updates(updates)
            submitted = len(updates)
        if not delta:
            # Nothing survives cancellation: count the submitted churn, touch
            # nothing else (no history entry, no snapshot delta, no CDC).
            self._note_applied((), submitted, started)
            return
        notifications = []
        groups = list(self._groups.values())
        for group in groups:
            group.executor.begin()
        try:
            for group in groups:
                subscribers = group.subscribers
                changes = {name: {} for name in subscribers} if subscribers else None
                group.executor.apply_batch(delta, changes)
                if changes:
                    notifications.append((subscribers, changes))
        except BaseException as error:
            undone = sum([group.executor.rollback() for group in groups])
            _LOG.warning(
                "rolled back a batch of %d updates after %s: %d journalled entries restored "
                "across groups %s",
                len(delta),
                type(error).__name__,
                undone,
                [group.backend for group in groups],
            )
            raise
        for group in groups:
            group.executor.commit()
        # The compact Update form, only for the history.
        self._note_applied(
            delta.updates() if self._history is not None else (), submitted, started
        )
        self._dispatch(notifications)

    def apply_all(self, updates: Iterable[Update]) -> None:
        """Apply a stream of updates one at a time."""
        for update in updates:
            self.apply(update)

    def ingest(self, max_pending: int = 4096, max_staleness_ms: Optional[float] = 50.0) -> "Any":
        """A streaming :class:`~repro.ingest.IngestPipeline` over this session.

        Producers on any thread ``submit()`` updates; the pipeline coalesces
        them online and flushes pre-aggregated batches through
        :meth:`apply_batch` once ``max_pending`` distinct keys are pending or
        the oldest is ``max_staleness_ms`` old (``None``: no timer).  While
        the timer is on, a flush also runs as soon as the producers are
        quiet (one submit call since the last drain, begun after a silence
        as long as the previous flush took), so a lone or once-per-tick
        update is visible after one flush; busy producers keep the
        watermarks' batching.
        Producers block at four times ``max_pending`` pending keys, and a
        flush that raises is rolled back and parked on ``dead_letters``.
        While a pipeline is running it owns the session's write path — do
        not call ``insert`` / ``apply_batch`` directly until it is closed.
        Use as a context manager for a final flush on exit::

            with session.ingest(max_staleness_ms=20) as pipe:
                pipe.insert("R", 1)
        """
        from repro.ingest import IngestPipeline

        return IngestPipeline(self, max_pending=max_pending, max_staleness_ms=max_staleness_ms)

    def _note_applied(self, updates: Sequence[Update], submitted: int, started: float) -> None:
        """Record an applied batch: ``updates`` is the *effective* (coalesced) form.

        The history therefore never replays cancelled churn —
        ``_replayed_database()`` (late-view bootstrap) and snapshots see the
        net batch, which is state-equivalent to the submitted one.  The
        counters count the ``submitted`` updates.
        """
        if self._history is not None:
            self._history.extend(updates)
        self._updates_applied += submitted
        self.statistics.updates_processed += submitted
        self.statistics.seconds_in_updates += time.perf_counter() - started

    def _dispatch(self, notifications) -> None:
        """Deliver collected per-map deltas to the subscribed callbacks.

        ``notifications`` pairs each group's subscriber table, as it stood
        when the call began, with the accumulators filled for its maps, so a
        callback that (un)subscribes during a delivery changes the *next*
        call's deliveries, not this one's.  Over a ring, entries that
        cancelled to zero are dropped (scanned for only when the payload
        holds a zero); over a proper semiring ``ring.zero`` marks a removed
        group and is delivered.

        Ownership: the accumulators are fresh on every call and nothing reads
        them afterwards, so the last subscriber of a map receives its
        accumulator itself and every other one a copy of its own: a callback
        that drains its payload cannot corrupt a sibling's.
        """
        ring = self.ring
        drop_zeros, zero = ring.is_ring, ring.zero
        for subscribers, changes in notifications:
            for name, payload in changes.items():
                if not payload:
                    continue
                if drop_zeros and zero in payload.values():
                    payload = {key: value for key, value in payload.items() if not ring.is_zero(value)}
                    if not payload:
                        continue
                callbacks = subscribers[name]
                for callback in callbacks[:-1]:
                    callback(dict(payload))
                callbacks[-1](payload)

    # -- introspection -----------------------------------------------------------------

    @property
    def updates_applied(self) -> int:
        return self._updates_applied

    def total_map_entries(self) -> int:
        """Stored entries across all views' shared hierarchies."""
        return sum(group.total_map_entries() for group in self._groups.values())

    def map_sizes(self) -> Dict[str, int]:
        """Entry counts per shared map across all compiled groups."""
        sizes: Dict[str, int] = {}
        for group in self._groups.values():
            sizes.update(group.map_sizes())
        return sizes

    def sharing_report(self) -> Dict[str, int]:
        """Aggregated :meth:`MapCatalog.sharing_report` over all compiled groups."""
        totals = dict.fromkeys(
            ("views", "maps", "maps_deduplicated", "statements_deduplicated", "maps_transposed"),
            0,
        )
        for group in self._groups.values():
            for key, value in group.catalog.sharing_report().items():
                totals[key] += value
        return totals

    def explain(self) -> str:
        """The combined map hierarchies and triggers of the compiled groups."""
        sections = [
            f"== backend {backend!r} ==\n{group.catalog.program().explain()}"
            for backend, group in self._groups.items()
        ]
        return "\n".join(sections) if sections else "(no views registered)"

    # -- persistence -----------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serialize the whole materializer state as plain Python data.

        The snapshot contains the schema, the ring *name*, every view's query
        (as AGCA text), the shared map tables of the compiled groups, and
        (when history tracking is on) the update log.  It is
        JSON-serializable whenever the data values and ring values are.  Subscriptions (``on_change`` callbacks)
        are not part of the state and must be re-attached after
        :meth:`restore`.

        Each map table is ``list(table.items())``: immutable ``(key, value)``
        pairs sharing their key tuples with the live tables, and each history
        row is a :func:`~repro.gmr.database.serialize_update` tuple.  None of
        them is a container the garbage collector keeps tracking, so a
        snapshot costs the copy of its entries and never a full-heap
        collection.  JSON writes tuples as lists: the serialized bytes are
        those of the ``[[key…], value]`` layout, which :meth:`restore` reads
        through the same decoder.
        """
        views = [
            {"name": view.name, "backend": view.backend, "query": to_string(view.query)}
            for view in self._views.values()
        ]
        groups = {
            backend: {name: list(table.items()) for name, table in group.runtime.maps.items()}
            for backend, group in self._groups.items()
        }
        snapshot: Dict[str, Any] = {
            "format": SNAPSHOT_FORMAT,
            "ring": self.ring.name,
            "schema": {relation: list(columns) for relation, columns in self.schema.items()},
            "updates_applied": self._updates_applied,
            "views": views,
            "maps": groups,
        }
        if self._history is not None:
            snapshot["history"] = [serialize_update(update) for update in self._history]
        return snapshot

    @classmethod
    def restore(
        cls,
        snapshot: Mapping[str, Any],
        ring: Optional[Semiring] = None,
    ) -> "Session":
        """Revive a session from :meth:`snapshot` output.

        The coefficient ring is looked up by name among the built-in
        structures; pass ``ring=`` explicitly for custom structures (the
        snapshot only records the name).  Entries older versions wrote and
        this one does not read (the removed partition tier's ``"shards"`` and
        ``"shard_backend"``, an empty ``engine_databases``) are ignored.  A
        malformed snapshot raises :class:`ValueError` naming what is wrong.
        """
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise ValueError(f"unsupported session snapshot format: {snapshot.get('format')!r}")
        missing = [
            key for key in ("ring", "schema", "updates_applied", "views", "maps")
            if key not in snapshot
        ]
        if missing:
            raise ValueError(f"session snapshot lacks {missing}")
        updates_applied = snapshot["updates_applied"]
        if type(updates_applied) is not int or updates_applied < 0:
            raise ValueError(
                f"session snapshot's updates_applied must be a non-negative integer, "
                f"got {updates_applied!r}"
            )
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
        schema = {relation: tuple(columns) for relation, columns in snapshot["schema"].items()}
        session = cls(schema, ring=ring, track_history="history" in snapshot)
        # Every view joins its group's catalog first; each group then builds
        # its program, runtime and module once, not once per view.
        for spec in snapshot["views"]:
            session._add_view(spec["name"], parse(spec["query"]), spec["backend"], rebuild=False)
        for group in session._groups.values():
            group.rebuild(None)
        # The views were just recompiled by *this* compiler: a snapshot whose
        # hierarchy another version laid out differently must not be poured
        # into it (restore_tables would keep unknown names as orphan tables
        # and leave missing ones empty).
        maps = snapshot["maps"]
        decoded = {}
        for backend in sorted(set(maps) | set(session._groups)):
            group = session._groups.get(backend)
            if group is None:
                raise ValueError(
                    f"session snapshot holds maps of backend {backend!r}, "
                    f"which none of its views uses"
                )
            if backend not in maps:
                raise ValueError(f"session snapshot lacks the maps of its {backend!r} views")
            decoded[backend] = _check_snapshot_maps(backend, group.runtime, maps[backend])
        for backend, tables in decoded.items():
            # Adopts the decoded dicts, rebuilds the slice indexes and
            # re-derives the support sidecars from the counter maps.
            session._groups[backend].runtime.restore_tables(tables)
        session._updates_applied = updates_applied
        session.statistics.updates_processed = updates_applied
        if "history" in snapshot:
            # Rows are (sign, relation, values, net multiplicity) — tuples, or
            # lists once the snapshot went through JSON.
            session._history = [deserialize_update(row) for row in snapshot["history"]]
        return session

    # -- lifecycle -----------------------------------------------------------------------------

    def close(self) -> None:
        """A no-op: the session holds no resources beyond its tables.  Kept,
        with the context-manager protocol, so callers can close a session the
        same way whatever it holds."""

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
