"""The four steady-state workloads of the e2e benchmark.

Each workload is one function of a :class:`Run` that pre-generates its inputs
from the seed, builds its sessions from SQL text, loads the live state to the
stated size, drives the measured phases (which keep the state at that size),
checks every view against the independent reference and its CDC shadow, and
fills in the metrics.  ``Run.tracer`` selects the traced variant: the same
closed-loop phases, shorter, with a span around every layer boundary.

A run is ``ROUNDS`` rounds, and each round gives every phase one short slice
(see ``harness``): slice lengths are shares of ``--seconds`` divided by the
number of rounds.  The shares leave room for the five snapshot/restore
rounds, which are a count, not a time.
"""

from __future__ import annotations

import gc
from typing import Any, Callable, Dict, List, Sequence, Tuple

import harness
import streams
from harness import BenchmarkFailure, Cursor, Reference, SessionSpec, Target, summarize

SALES_SCHEMA = {
    "Customer": ("ck", "nation"),
    "Orders": ("ok", "ck"),
    "Lineitem": ("ok2", "price", "qty"),
    "Probe": ("pid",),
}
#: The four views of ``examples/sales_dashboard.py``.
DASHBOARD_SQL = (
    ("revenue",
     "SELECT c.nation, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
     "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.nation"),
    ("revenue_by_customer",
     "SELECT c.ck, SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
     "WHERE c.ck = o.ck AND o.ok = l.ok2 GROUP BY c.ck"),
    ("orders",
     "SELECT c.ck, SUM(1) FROM Customer c, Orders o WHERE c.ck = o.ck GROUP BY c.ck"),
    ("total_revenue",
     "SELECT SUM(l.price * l.qty) FROM Customer c, Orders o, Lineitem l "
     "WHERE c.ck = o.ck AND o.ok = l.ok2"),
)
DASHBOARD_SPECS = (SessionSpec("dashboard", DASHBOARD_SQL, "generated"),)
DASHBOARD_READS = ("revenue_by_customer", "revenue")

HOTKEY_SCHEMA = {"R": ("a", "b"), "Probe": ("pid",)}
HOTKEY_SPECS = (
    SessionSpec(
        "hotkey",
        (("total", "SELECT SUM(r.b) FROM R r"), ("by_a", "SELECT r.a, SUM(r.b) FROM R r GROUP BY r.a")),
        "generated",
    ),
)

POSTS_SCHEMA = {"P": ("community", "post", "score"), "Probe": ("pid",)}
TIERS_SPECS = (
    SessionSpec(
        "having",
        (("hot", "SELECT p.community, SUM(p.score) FROM P p GROUP BY p.community "
                 "HAVING SUM(p.score) > 1000"),),
        "interpreted",
    ),
    SessionSpec(
        "minplus",
        (("lowest", "SELECT p.community, MIN(p.score) FROM P p GROUP BY p.community"),),
        "interpreted",
        ring="min-plus",
        probe_sql="SELECT p.pid, MIN(p.pid) FROM Probe p GROUP BY p.pid",
    ),
    SessionSpec(
        "top3",
        (("top", "SELECT p.community, TOPK(3, p.score) FROM P p GROUP BY p.community"),),
        "interpreted",
        ring="top3",
        probe_sql="SELECT p.pid, TOPK(3, p.pid) FROM Probe p GROUP BY p.pid",
    ),
)

#: Pipeline settings of both ingest workloads.
MAX_PENDING = 1024
MAX_STALENESS_MS = 25.0
SUBMIT_CHUNK = 256
TICK_S = 0.005
#: Fixed open-loop rates (updates/s).  ``dashboard_ingest`` was lowered once
#: from the issue's 15 000; see the README's "Rates" section.
OPEN_LOOP_RATE = {"dashboard_ingest": 15_000, "hotkey_coalesce": 200_000}

SETUP_REPEATS = 7
SNAPSHOT_REPEATS = 10
#: Slices per phase, spread over the whole run (also the throughput windows).
ROUNDS = 40
#: p95 needs at least ten samples beyond it.
MIN_PROBES = 200


class Series:
    """What one phase collected, slice by slice."""

    def __init__(self) -> None:
        self.rates: List[float] = []
        self.latencies: List[List[float]] = []
        self.reads: List[float] = []
        self.updates = 0

    def add(self, piece: Dict[str, Any], latencies: Sequence[float] = ()) -> None:
        self.rates.append(piece["updates"] / piece["wall_s"])
        self.latencies.append(list(latencies))
        self.updates += piece["updates"]
        reads = sorted(piece.get("reads", ()))
        if reads:
            self.reads.append(harness.quantile(reads, 0.5))


class Run:
    """One workload run: its arguments in, its metrics and record out."""

    def __init__(self, workload: str, seed: int, seconds: float, quick: bool, tracer=None):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.tracer = tracer
        self.rounds = 4 if quick else ROUNDS
        self.metrics: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.record: Dict[str, Any] = {
            "streams": {}, "timings": {}, "slices": {}, "counts": {}, "rates": {},
        }
        self.attempted = 0
        self.failed = 0
        self.snapshot_times: List[Tuple[float, float]] = []

    # -- shared steps ---------------------------------------------------------------

    def generated(self, stream: streams.Stream) -> Cursor:
        self.record["streams"][f"{stream.name}:{stream.params}"] = {
            "digest": stream.digest(),
            "warm_rows": len(stream.warm),
            "cycle_rows": len(stream.cycle),
        }
        return Cursor(stream)

    def freeze_inputs(self) -> None:
        """Keep the pre-generated inputs out of the cyclic collector's way.

        A few hundred thousand ``Update`` objects that live for the whole run
        are a property of the harness, not of the program; left in the
        youngest generations they would make every full collection during a
        measured phase walk them.
        """
        gc.collect()
        gc.freeze()

    def setup(self, schema, specs) -> Callable[[], Dict[str, Any]]:
        def build():
            return harness.build_sessions(schema, specs)

        cold, summary = harness.measure_setup(build, 2 if self.quick else SETUP_REPEATS)
        self.record["timings"]["setup_s"] = summary
        self.metrics["setup_s"] = summary["median"]
        self.layers["harness.setup_cold_s"] = cold
        return build

    def targets(self, sessions: Dict[str, Any]) -> List[Target]:
        wrap = None
        if self.tracer is not None:
            tracer = self.tracer

            def wrap(callback):
                return tracer.wrap("cdc.callback", callback)

        return [Target(key, session, wrap) for key, session in sessions.items()]

    def piece(self, share: float) -> float:
        """Seconds of one slice of a phase that gets ``share`` of the run."""
        return self.seconds * share / self.rounds

    def collect(self, targets: Sequence[Target]) -> List[float]:
        """The slice's probe latencies; a probe unseen by the deadline is a failed operation."""
        harness.await_probes(targets)
        latencies: List[float] = []
        for target in targets:
            seen, unseen = target.probes.take_latencies()
            latencies.extend(seen)
            self.failed += unseen
        return latencies

    def rate(self, name: str, series: Series) -> float:
        self.record["timings"][name] = summarize(series.rates)
        self.record["slices"][name] = series.rates
        return harness.best_rate(series.rates)

    def visible(self, series: Series) -> None:
        """``visible_p50_ms`` / ``visible_p95_ms``: each slice's quantile, then the best slice."""
        pooled = [sample for samples in series.latencies for sample in samples]
        if not self.quick and len(pooled) < MIN_PROBES:
            raise BenchmarkFailure(
                f"{len(pooled)} visibility probes, fewer than {MIN_PROBES}; run with more --seconds"
            )
        self.record["timings"]["visible_ms"] = summarize(pooled, scale=1e3)
        slices = [sorted(samples) for samples in series.latencies if samples]
        for name, fraction in (("visible_p50_ms", 0.5), ("visible_p95_ms", 0.95)):
            per_slice = [harness.quantile(samples, fraction) for samples in slices]
            self.record["timings"][f"{name}_per_slice"] = summarize(per_slice, scale=1e3)
            self.record["slices"][name] = [value * 1e3 for value in per_slice]
            self.metrics[name] = harness.best_time(per_slice) * 1e3

    def reads(self, series: Series) -> None:
        self.record["timings"]["read_ms"] = summarize(series.reads, scale=1e3)
        self.record["slices"]["read_p50_ms"] = [value * 1e3 for value in series.reads]
        self.metrics["read_p50_ms"] = harness.best_time(series.reads) * 1e3

    def count_attempts(self, targets: Sequence[Target], updates: int) -> None:
        self.attempted += updates + sum(target.probes.sent for target in targets)

    def snapshot_if_due(self, round_index: int, targets: Sequence[Target]) -> None:
        """Spread the snapshot/restore rounds over the run like every other phase."""
        tracer = self.tracer
        wanted = 1 if self.quick or tracer else SNAPSHOT_REPEATS
        stride = self.rounds // wanted
        if (round_index + 1) % stride or len(self.snapshot_times) >= wanted:
            return
        # A snapshot allocates several objects per map entry; whether that tips a full
        # collection depends on what ran before it, so every round starts from a collected heap.
        gc.collect()
        if tracer:
            tracer.begin("snapshot_restore")
        self.snapshot_times.append(harness.snapshot_restore(targets))
        if tracer:
            tracer.end()

    def finish(self, targets: Sequence[Target]) -> None:
        """State size, snapshot/restore time and memory — the end of every workload."""
        self.metrics["map_entries"] = sum(target.session.total_map_entries() for target in targets)
        # The two halves are timed apart, so one slow stretch of the host spoils one half only.
        snapshots, restores = zip(*self.snapshot_times)
        self.record["timings"]["snapshot_s"] = summarize(snapshots)
        self.record["timings"]["restore_s"] = summarize(restores)
        self.record["slices"]["snapshot_s"] = snapshots
        self.record["slices"]["restore_s"] = restores
        self.metrics["snapshot_restore_s"] = harness.best_time(snapshots) + harness.best_time(restores)
        self.metrics["peak_rss_mb"] = harness.peak_rss_mb()
        tracer = self.tracer
        if tracer is not None:
            trace = tracer.phase("snapshot_restore")
            rounds = len(self.snapshot_times)
            self.layers["snapshot.snapshot_s"] = trace.self_time("snapshot.snapshot") / rounds
            self.layers["snapshot.restore_s"] = trace.self_time("snapshot.restore") / rounds
            self.layers["snapshot.bytes"] = tracer.gauges.get("snapshot.bytes", 0)
            self.layers["indexes.rebuild_s"] = trace.self_time("indexes.rebuild") / rounds
            indexes = tracer.seen.get("indexes", {}).values()
            self.layers["indexes.keys"] = max(
                (index.total_indexed_keys() for index in indexes), default=0
            )
            self.layers["harness.spans"] = len(tracer.spans)
        shadows = [shadow for target in targets for shadow in target.shadows.values()]
        self.layers["cdc.deliveries"] = sum(shadow.deliveries for shadow in shadows)
        self.layers["cdc.entries"] = sum(shadow.entries for shadow in shadows)
        for target in targets:
            target.session.close()

    # -- traced phases ----------------------------------------------------------------

    def traced_build(self, build) -> Dict[str, Any]:
        """One traced build: where ``setup_s`` goes, layer by layer."""
        tracer = self.tracer
        tracer.begin("build")
        sessions = build()
        tracer.end()
        trace = tracer.phase("build")
        layers = self.layers
        layers["sql.translate_s"] = trace.self_time("sql.parse_sql", "sql.translate")
        layers["sql.calls"] = trace.calls["sql.translate"]
        layers["compile.compile_query_s"] = trace.self_time("compile.compile_query")
        layers["compile.maps"] = trace.counts["compile.maps"]
        layers["compile.statements"] = trace.counts["compile.statements"]
        layers["verify.verify_program_s"] = trace.self_time("verify.verify_program")
        layers["normal_form.normalize_s"] = trace.self_time("normal_form.normalize_rhs")
        layers["normal_form.calls"] = trace.calls["normal_form.normalize_rhs"]
        layers["codegen.generate_python_s"] = trace.self_time("codegen.generate_python")
        layers["codegen.source_lines"] = tracer.gauges.get("codegen.source_lines", 0)
        layers["codegen.spec_classes"] = tracer.gauges.get("codegen.spec_classes", 0)
        layers["catalog.absorb_s"] = trace.self_time("catalog.absorb")
        layers["catalog.program_s"] = trace.self_time("catalog.program")
        for key in ("maps", "maps_deduplicated", "statements_deduplicated"):
            layers[f"catalog.{key}"] = sum(
                session.sharing_report()[key] for session in sessions.values()
            )
        return sessions

    def batch_layers(self, trace) -> None:
        """Per-layer time and counts of one traced batch phase (sync or through the pipeline)."""
        layers = self.layers
        counts = trace.counts
        generated = trace.calls["codegen.apply_batch"] > 0
        work = counts["executor.statements_executed"]
        layers["gmr.coalesce_s"] = trace.self_time("gmr.coalesce_updates")
        layers["gmr.coalesce_in"] = counts["gmr.coalesce_in"]
        layers["gmr.coalesce_out"] = counts["gmr.coalesce_out"]
        layers["session.apply_batch_self_s"] = trace.self_time("session.apply_batch")
        layers["session.batches"] = counts["session.batches"]
        layers["session.updates"] = counts["session.updates"]
        layers["rollback.capture_s"] = trace.self_time("rollback.backup_tables")
        layers["rollback.capture_share"] = trace.share("rollback.backup_tables")
        layers["rollback.entries_copied"] = counts["rollback.entries_copied"]
        layers["rollback.entries_per_batch"] = (
            counts["rollback.entries_copied"] / max(1, counts["session.batches"])
        )
        layers["codegen.apply_batch_s"] = trace.self_time("codegen.apply_batch")
        layers["codegen.apply_batch_share"] = trace.share("codegen.apply_batch")
        layers["runtime.apply_batch_s"] = trace.self_time("runtime.apply_batch")
        layers["runtime.apply_batch_share"] = trace.share("runtime.apply_batch")
        layers["executor.statements_executed"] = work if generated else 0
        layers["executor.entries_updated"] = counts["executor.entries_updated"] if generated else 0
        layers["runtime.statements_executed"] = 0 if generated else work
        layers["support.feed_s"] = trace.self_time("support.collect", "support.feed_supports")
        layers["support.feed_share"] = trace.share("support.collect", "support.feed_supports")
        layers["support.calls"] = trace.calls["support.collect"]
        layers["cdc.callback_s"] = trace.self_time("cdc.callback")
        layers["views.result_s"] = trace.self_time("views.result")
        layers["views.result_calls"] = trace.calls["views.result"]
        layers["views.result_entries"] = counts["views.result_entries"]

    def tuple_layers(self, trace) -> None:
        self.layers["session.apply_self_s"] = trace.self_time("session.apply")
        self.layers["codegen.apply_s"] = trace.self_time("codegen.apply")

    def pipeline_layers(self, trace, moved: Dict[str, float]) -> None:
        layers = self.layers
        layers["queue.submit_s"] = trace.self_time("queue.submit_many") - moved["backpressure_wait_s"]
        layers["queue.drain_s"] = trace.self_time("queue.drain")
        layers["queue.submitted"] = moved["submitted_updates"]
        layers["queue.coalesced"] = moved["coalesced_updates"]
        layers["queue.cancelled"] = moved["cancelled_keys"]
        layers["queue.coalesce_ratio"] = moved["flushed_updates"] / max(1, moved["submitted_updates"])
        layers["queue.stalls"] = moved["backpressure_stalls"]
        layers["queue.stall_s"] = moved["backpressure_wait_s"]
        layers["flusher.flushes"] = moved["flushes"]
        layers["flusher.flush_self_s"] = trace.self_time("flusher.flush")
        layers["flusher.updates_per_flush"] = moved["flushed_updates"] / max(1, moved["flushes"])
        layers["flusher.quarantined"] = moved["quarantined_updates"]

    def overhead(self, untraced: Series, traced: Series) -> None:
        untraced_rate = self.rate("untraced_updates_per_s", untraced)
        traced_rate = self.rate("traced_updates_per_s", traced)
        self.layers["harness.trace_overhead_share"] = 1.0 - traced_rate / untraced_rate


PIPELINE_COUNTERS = (
    "submitted_updates", "coalesced_updates", "cancelled_keys", "flushes", "flushed_updates",
    "quarantined_updates", "backpressure_stalls", "backpressure_wait_s",
)


# -- dashboard_ingest / hotkey_coalesce ----------------------------------------------


def _ingest(run: Run, schema, specs, stream: streams.Stream, expected, read_names, shares) -> None:
    """Both pipeline workloads; a round is closed loop, open loop at the fixed rate, per-tuple."""
    rate = OPEN_LOOP_RATE[run.workload]
    tracer = run.tracer
    cursor = run.generated(stream)
    run.freeze_inputs()
    build = run.setup(schema, specs)
    sessions = run.traced_build(build) if tracer else build()
    (target,) = targets = run.targets(sessions)
    session = target.session
    reference = Reference(stream, expected)
    read_views = [session[name] for name in read_names]
    harness.load_warmup(targets, cursor)
    if tracer:
        harness.prime(tracer, targets, cursor)
    closed, traced, opened, tuples = Series(), Series(), Series(), Series()
    late: List[float] = []
    depths: List[int] = []
    totals = dict.fromkeys(PIPELINE_COUNTERS, 0)
    moved = dict.fromkeys(PIPELINE_COUNTERS, 0)
    for round_index in range(run.rounds):
        # A pipeline owns the session's write path while it is open, so the
        # per-tuple slice runs between two pipelines.
        pipeline = session.ingest(max_pending=MAX_PENDING, max_staleness_ms=MAX_STALENESS_MS)
        try:
            piece = harness.ingest_closed(
                target, pipeline, cursor, run.piece(shares["closed"]), SUBMIT_CHUNK, read_views
            )
            closed.add(piece, run.collect(targets))
            if tracer:
                before = pipeline.stats_snapshot()
                tracer.begin("closed_loop")
                piece = harness.ingest_closed(
                    target, pipeline, cursor, run.piece(shares["traced"]), SUBMIT_CHUNK, read_views
                )
                tracer.end()
                traced.add(piece, run.collect(targets))
                after = pipeline.stats_snapshot()
                for key in PIPELINE_COUNTERS:
                    moved[key] += after[key] - before[key]
            piece = harness.ingest_open(
                target, pipeline, cursor, run.piece(shares["open"]), rate, TICK_S
            )
            opened.add(piece, run.collect(targets))
            late.extend(piece["late"])
            depths.append(piece["queue_depth_end"])
            pipeline.submit_many(cursor.finish_step() + target.probes.retire_all())
            pipeline.flush()
            stats = pipeline.stats_snapshot()
        finally:
            pipeline.close()
        for key in PIPELINE_COUNTERS:
            totals[key] += stats[key]
        if tracer:
            tracer.begin("per_tuple")
        tuples.add(harness.sync_tuples(targets, cursor, run.piece(shares["tuple"])))
        if tracer:
            tracer.end()
        run.snapshot_if_due(round_index, targets)
    harness.settle(targets, cursor)
    reference.check(targets, cursor.position, "at the end of the run")
    run.failed += totals["quarantined_updates"]
    run.count_attempts(targets, closed.updates + traced.updates + opened.updates + tuples.updates)
    run.record["counts"]["pipeline"] = totals

    lateness = summarize(late, scale=1e3)
    achieved = run.rate("open_loop_updates_per_s", opened)
    run.record["timings"]["generator_late_ms"] = lateness
    run.layers["harness.generator_late_p95_ms"] = lateness["p95"]
    run.layers["harness.queue_depth_end"] = max(depths)
    run.record["rates"]["open_loop_fixed_rate"] = rate
    run.record["counts"]["open_loop"] = {
        "tick_s": TICK_S,
        "chunk_size": max(1, round(rate * TICK_S)),
        # The backlog must not grow and the schedule must be kept; see the
        # README on why generator lateness is recorded but not part of this.
        "sustainable": max(depths) <= MAX_PENDING and achieved >= 0.99 * rate,
    }
    if tracer:
        trace = tracer.phase("closed_loop")
        run.batch_layers(trace)
        run.pipeline_layers(trace, moved)
        run.tuple_layers(tracer.phase("per_tuple"))
        run.overhead(closed, traced)
    else:
        run.metrics["updates_per_s"] = run.rate("updates_per_s", closed)
        run.metrics["tuple_updates_per_s"] = run.rate("tuple_updates_per_s", tuples)
        run.visible(opened)
        run.reads(closed)
    run.finish(targets)


def dashboard_ingest(run: Run) -> None:
    stream = streams.sales_stream(run.seed, window=500 if run.quick else 32_000)
    shares = (
        {"closed": 0.20, "traced": 0.30, "open": 0.12, "tuple": 0.05}
        if run.tracer
        else {"closed": 0.30, "open": 0.40, "tuple": 0.06}
    )
    _ingest(run, SALES_SCHEMA, DASHBOARD_SPECS, stream, streams.expected_dashboard,
            DASHBOARD_READS, shares)


def hotkey_coalesce(run: Run) -> None:
    stream = streams.hotkey_stream(run.seed, length=4_000 if run.quick else 100_000)
    shares = (
        {"closed": 0.25, "traced": 0.35, "open": 0.20, "tuple": 0.08}
        if run.tracer
        else {"closed": 0.35, "open": 0.45, "tuple": 0.10}
    )
    _ingest(run, HOTKEY_SCHEMA, HOTKEY_SPECS, stream, streams.expected_hotkey, ("by_a", "total"), shares)


# -- small_batch_sync / tiers_interpreted ----------------------------------------------


class SyncState:
    """One warmed live state driven by direct ``Session`` calls, and what its phases collected."""

    def __init__(self, run: Run, label: str, sessions, stream: streams.Stream, expected,
                 read_names: Sequence[str], shares: Dict[str, float]):
        self.label = label
        self.shares = shares
        self.cursor = run.generated(stream)
        self.targets = run.targets(sessions)
        self.reference = Reference(stream, expected)
        self.read_views = [
            target.session[name] for target in self.targets for name in read_names
            if name in target.session
        ]
        self.batches, self.traced, self.tuples = Series(), Series(), Series()
        self.target_rates: Dict[str, List[float]] = {target.key: [] for target in self.targets}
        harness.load_warmup(self.targets, self.cursor)
        if run.tracer:
            harness.prime(run.tracer, self.targets, self.cursor)

    def round(self, run: Run, batch_size: int) -> None:
        """One slice each of the batch phase (untraced, then traced) and the per-tuple phase."""
        tracer = run.tracer
        label, shares = self.label, self.shares
        piece = harness.sync_batches(
            self.targets, self.cursor, run.piece(shares["batch"]), batch_size, self.read_views
        )
        self.batches.add(piece, run.collect(self.targets))
        for key, busy in piece["busy_s"].items():
            self.target_rates[key].append(piece["per_target"] / busy)
        if tracer:
            tracer.begin(f"{label}_batches")
            piece = harness.sync_batches(
                self.targets, self.cursor, run.piece(shares["traced"]), batch_size, self.read_views
            )
            tracer.end()
            self.traced.add(piece, run.collect(self.targets))
            tracer.begin(f"{label}_per_tuple")
        self.tuples.add(harness.sync_tuples(self.targets, self.cursor, run.piece(shares["tuple"])))
        if tracer:
            tracer.end()

    def close(self, run: Run) -> None:
        """Check every view at the end of the run, then account for what was attempted."""
        harness.settle(self.targets, self.cursor)
        self.reference.check(self.targets, self.cursor.position, f"at the end of the {self.label} state")
        run.count_attempts(
            self.targets, self.batches.updates + self.traced.updates + self.tuples.updates
        )


def _report_sync(run: Run, state: SyncState) -> None:
    """The end-to-end (untraced) or per-layer (traced) metrics of a sync workload's main state."""
    tracer = run.tracer
    if tracer:
        run.batch_layers(tracer.phase(f"{state.label}_batches"))
        run.tuple_layers(tracer.phase(f"{state.label}_per_tuple"))
        run.overhead(state.batches, state.traced)
    else:
        run.metrics["updates_per_s"] = run.rate("updates_per_s", state.batches)
        run.metrics["tuple_updates_per_s"] = run.rate("tuple_updates_per_s", state.tuples)
        run.visible(state.batches)
        run.reads(state.batches)


def small_batch_sync(run: Run) -> None:
    tracer = run.tracer
    small_stream = streams.sales_stream(run.seed, window=100 if run.quick else 2_000)
    large_stream = streams.sales_stream(run.seed, window=500 if run.quick else 32_000)
    run.freeze_inputs()
    build = run.setup(SALES_SCHEMA, DASHBOARD_SPECS)
    if tracer:
        small_shares = {"batch": 0.04, "traced": 0.05, "tuple": 0.02}
        large_shares = {"batch": 0.25, "traced": 0.35, "tuple": 0.06}
    else:
        small_shares = {"batch": 0.06, "tuple": 0.03}
        large_shares = {"batch": 0.60, "tuple": 0.08}
    small = SyncState(run, "small", run.traced_build(build) if tracer else build(), small_stream,
                      streams.expected_dashboard, DASHBOARD_READS, small_shares)
    large = SyncState(run, "large", build(), large_stream,
                      streams.expected_dashboard, DASHBOARD_READS, large_shares)
    for round_index in range(run.rounds):
        large.round(run, 50)
        small.round(run, 50)
        run.snapshot_if_due(round_index, large.targets)
    small.close(run)
    large.close(run)
    ratio = run.rate("small_updates_per_s", small.batches) / harness.best_rate(large.batches.rates)
    run.record["rates"]["state_scaling_ratio"] = ratio
    run.layers["session.state_scaling_ratio"] = ratio
    if tracer:
        run.layers["rollback.capture_share_small"] = tracer.phase("small_batches").share(
            "rollback.backup_tables"
        )
    _report_sync(run, large)
    for target in small.targets:
        target.session.close()
    run.finish(large.targets)


def tiers_interpreted(run: Run) -> None:
    stream = (
        streams.posts_stream(run.seed, live=300, steps=1_500, communities=20)
        if run.quick
        else streams.posts_stream(run.seed, live=5_000, steps=20_000)
    )
    run.freeze_inputs()
    build = run.setup(POSTS_SCHEMA, TIERS_SPECS)
    shares = (
        {"batch": 0.28, "traced": 0.38, "tuple": 0.10}
        if run.tracer
        else {"batch": 0.70, "tuple": 0.20}
    )
    state = SyncState(run, "tiers", run.traced_build(build) if run.tracer else build(), stream,
                      streams.expected_tiers, ("hot", "lowest", "top"), shares)
    for round_index in range(run.rounds):
        state.round(run, 200)
        run.snapshot_if_due(round_index, state.targets)
    state.close(run)
    for key, rates in state.target_rates.items():
        run.layers[f"tiers.{key}_updates_per_s"] = harness.best_rate(rates)
    _report_sync(run, state)
    run.finish(state.targets)


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "dashboard_ingest": dashboard_ingest,
    "hotkey_coalesce": hotkey_coalesce,
    "small_batch_sync": small_batch_sync,
    "tiers_interpreted": tiers_interpreted,
}
