"""Tests of the streaming ingestion subsystem (src/repro/ingest/).

Covers: online coalescing in the queue (duplicates, cancellation, compact
count-carrying updates), watermark flushing (size and latency, the
quiet-producer flush beside them, plus the deterministic inline
``flush()``), the blocking high-water mark (drain, close-while-blocked, the
merge-at-high-water exemption, and a mark derived from ``max_pending`` so a
producer never waits on a flush that is not due),
dead-letter quarantine with transactional rollback, per-flush CDC equal to
``apply_batch``'s, stats accounting, the ``Session.ingest`` entry point and
its two options, and a randomized multi-threaded equivalence property:
concurrent producers through the pipeline leave the views in exactly the
state of applying the stream serially.
"""

import random
import sys
import threading
import time

import pytest

from repro.gmr.database import (
    Delta,
    Update,
    accumulate_update,
    coalesce_updates,
    delete,
    insert,
)
from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, resolve_semiring
from repro.ingest import IngestClosedError, IngestPipeline, IngestQueue
from repro.session import Session
from repro.workloads.streams import producer_streams
from tests.conftest import grouped_batch, grouped_session

SCHEMA = {"R": ("a", "b")}
EXECUTORS = ("generated", "interpreted")


def make_session(schema=SCHEMA, **kwargs):
    session = Session(schema, **kwargs)
    session.view("total", "AggSum([], R(a, b) * b)")
    session.view("by_a", "AggSum([a], R(a, b) * b)")
    return session


def manual_pipeline(session, **kwargs):
    """A pipeline that only flushes when the test says so (no timer, huge
    size watermark) — the deterministic configuration."""
    kwargs.setdefault("max_pending", 1_000_000)
    kwargs.setdefault("max_staleness_ms", None)
    return session.ingest(**kwargs)


def wait_until(predicate, timeout=5.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------------
# Coalescing primitives
# ---------------------------------------------------------------------------


def test_accumulate_update_nets_signed_counts():
    net = {}
    accumulate_update(net, insert("R", 1))
    accumulate_update(net, Update(1, "R", (1,), count=4))
    accumulate_update(net, delete("R", 2))
    assert net == {("R", (1,)): 5, ("R", (2,)): -1}
    # Hitting net zero removes the key entirely — never a count=0 entry.
    accumulate_update(net, Update(-1, "R", (1,), count=5))
    assert ("R", (1,)) not in net
    compact = Delta.from_net(net).updates()
    assert compact == [delete("R", 2)]
    assert all(update.count >= 1 for update in compact)


def test_queue_coalesces_online():
    queue = IngestQueue()
    for _ in range(100):
        queue.submit(insert("R", 1, 10))
    assert queue.pending_keys == 1
    queue.submit(delete("R", 1, 10))
    assert queue.pending_keys == 1
    queue.submit(insert("R", 2, 5))
    queue.submit(delete("R", 2, 5))  # annihilates in place
    assert queue.pending_keys == 1
    [update] = queue.drain().updates()
    assert update == Update(1, "R", (1, 10), count=99)
    assert queue.pending_keys == 0
    assert not queue.drain()


def test_queue_submit_many_matches_one_at_a_time():
    updates = [
        insert("R", 1, 1),
        insert("R", 1, 1),
        delete("R", 2, 2),
        Update(1, "R", (3, 3), count=7),
        delete("R", 1, 1),
        delete("R", 1, 1),  # key (1,1) nets to zero
    ]
    one_at_a_time = IngestQueue()
    for update in updates:
        one_at_a_time.submit(update)
    bulk = IngestQueue()
    bulk.submit_many(updates)
    assert bulk.drain().relations == one_at_a_time.drain().relations
    assert bulk.stats.submitted_updates == one_at_a_time.stats.submitted_updates == 12
    assert bulk.stats.coalesced_updates == one_at_a_time.stats.coalesced_updates
    assert bulk.stats.cancelled_keys == one_at_a_time.stats.cancelled_keys == 1


def test_queue_staleness_clock():
    queue = IngestQueue()
    assert queue.oldest_age_s() == 0.0
    queue.submit(insert("R", 1, 1))
    time.sleep(0.02)
    assert queue.oldest_age_s() >= 0.015
    # Cancelling the only pending key resets the clock.
    queue.submit(delete("R", 1, 1))
    assert queue.oldest_age_s() == 0.0


# ---------------------------------------------------------------------------
# Backpressure
# ---------------------------------------------------------------------------


def test_backpressure_allows_merging_into_pending_keys_at_high_water():
    queue = IngestQueue(high_water=2)
    queue.submit(insert("R", 1, 1))
    queue.submit(insert("R", 2, 2))

    def producer():
        # Same key: merges without growing the queue, so it must pass.
        queue.submit(insert("R", 1, 1))
        queue.submit(delete("R", 2, 2))  # cancels — frees a slot
        queue.submit(insert("R", 4, 4))

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    thread.join(timeout=5.0)
    assert not thread.is_alive(), "a merging submit at the mark must not block"
    assert queue.pending_keys == 2
    assert queue.stats.backpressure_stalls == 0


def test_backpressure_unblocks_on_drain():
    queue = IngestQueue(high_water=2)
    queue.submit(insert("R", 1, 1))
    queue.submit(insert("R", 2, 2))
    unblocked = threading.Event()

    def producer():
        queue.submit(insert("R", 3, 3))
        unblocked.set()

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert not unblocked.wait(0.1), "producer should be stalled at high water"
    assert queue.drain()  # wakes the producer
    assert unblocked.wait(2.0), "producer should proceed after the drain"
    thread.join(timeout=2.0)
    assert queue.pending_keys == 1
    assert queue.stats.backpressure_stalls == 1
    assert queue.stats.backpressure_wait_s > 0


def test_close_wakes_blocked_producer_with_closed_error():
    queue = IngestQueue(high_water=1)
    queue.submit(insert("R", 1, 1))
    outcome = []

    def producer():
        try:
            queue.submit(insert("R", 2, 2))
            outcome.append("submitted")
        except IngestClosedError:
            outcome.append("closed")

    thread = threading.Thread(target=producer, daemon=True)
    thread.start()
    assert wait_until(lambda: queue.stats.backpressure_stalls == 0 and thread.is_alive())
    time.sleep(0.05)  # let the producer reach the wait
    queue.close()
    thread.join(timeout=2.0)
    assert outcome == ["closed"]
    with pytest.raises(IngestClosedError):
        queue.submit(insert("R", 9, 9))


def test_high_water_validation():
    for high_water in (0, -1, 2.5, "8"):
        with pytest.raises(ValueError, match="high_water"):
            IngestQueue(high_water=high_water)
    assert IngestQueue(high_water=1).high_water == 1
    assert IngestQueue().high_water is None


def test_producer_past_max_pending_finishes_without_a_manual_flush():
    """Regression: a high-water mark below ``max_pending`` stalled a producer
    at a depth the size watermark never reached, with no timer to flush it.
    The mark is now derived from ``max_pending``, so the flusher is always
    due by the time a producer stalls."""
    updates = [insert("R", a, a % 7) for a in range(50)]
    session = make_session()
    pipe = session.ingest(max_pending=2, max_staleness_ms=None)
    try:
        producer = threading.Thread(target=lambda: pipe.submit_many(updates), daemon=True)
        producer.start()
        producer.join(timeout=10.0)
        assert not producer.is_alive(), "producer stalled at the high-water mark"
    finally:
        pipe.close()
    serial = make_session()
    serial.apply_batch(updates)
    assert session.results() == serial.results()


@pytest.mark.parametrize(
    "option, call",
    [
        pytest.param("backpressure", lambda session, pipe: session.ingest(backpressure=None),
                     id="ingest-backpressure"),
        pytest.param("quarantine_limit", lambda session, pipe: session.ingest(quarantine_limit=2),
                     id="ingest-quarantine_limit"),
        pytest.param("high_water", lambda session, pipe: session.ingest(high_water=8),
                     id="ingest-high_water"),
        pytest.param("nowait", lambda session, pipe: pipe.submit(insert("R", 1, 1), nowait=True),
                     id="submit-nowait"),
        pytest.param("nowait", lambda session, pipe: pipe.submit_many([], nowait=True),
                     id="submit_many-nowait"),
        pytest.param("nowait", lambda session, pipe: pipe.insert("R", 1, 1, nowait=True),
                     id="insert-nowait"),
    ],
)
def test_a_removed_option_is_a_type_error_naming_it(option, call):
    """``max_pending`` and ``max_staleness_ms`` are the pipeline's only options."""
    session = make_session()
    with manual_pipeline(session) as pipe:
        with pytest.raises(TypeError, match=option):
            call(session, pipe)
        assert pipe.queue_depth == 0


# ---------------------------------------------------------------------------
# Watermark flushing
# ---------------------------------------------------------------------------


def test_manual_flush_applies_coalesced_state():
    session = make_session()
    with manual_pipeline(session) as pipe:
        assert isinstance(pipe, IngestPipeline)  # Session.ingest forwards here
        for _ in range(50):
            pipe.insert("R", 1, 10)
        pipe.insert("R", 2, 3)
        pipe.delete("R", 2, 3)
        assert session["total"].result() == 0  # nothing flushed yet
        flushed = pipe.flush()
        assert flushed == 1  # one surviving key
        assert session["total"].result() == 500
        assert session["by_a"].result_mapping() == {(1,): 500}
    assert session["total"].result() == 500


def test_size_watermark_triggers_background_flush():
    session = make_session()
    pipe = session.ingest(max_pending=4, max_staleness_ms=None)
    try:
        for a in range(4):
            pipe.insert("R", a, 1)
        assert wait_until(lambda: pipe.queue_depth == 0)
        assert session["total"].result() == 4
        assert pipe.stats.flushes >= 1
    finally:
        pipe.close()


def test_a_quiet_producer_is_flushed_without_waiting_for_the_timer():
    """One submit and nothing after it: the flusher sees one call since the
    last drain and flushes at once, long before the 10 s staleness bound."""
    session = make_session()
    pipe = session.ingest(max_pending=1_000_000, max_staleness_ms=10_000)
    try:
        pipe.insert("R", 1, 1)
        assert wait_until(lambda: session["total"].result() == 1, timeout=2.0)
        assert pipe.stats_snapshot()["idle_flushes"] == 1
    finally:
        pipe.close()


def test_latency_watermark_bounds_a_busy_producer():
    """Two submits before the flusher runs: the producer is busy, so the
    flush waits for the staleness watermark, not for quiet."""
    session = make_session()
    pipe = session.ingest(max_pending=1_000_000, max_staleness_ms=15.0)
    try:
        with pipe._flush_lock:
            pipe.insert("R", 1, 1)
            pipe.insert("R", 2, 1)
        assert wait_until(lambda: session["total"].result() == 2)
        snapshot = pipe.stats_snapshot()
        assert snapshot["flushes"] == 1 and snapshot["idle_flushes"] == 0
        assert snapshot["max_flush_staleness_ms"] >= 10.0
    finally:
        pipe.close()


def test_a_submit_right_after_a_flush_is_not_quiet():
    """Producers that were only waiting for the interpreter submit the moment
    a flush ends: one call begun before the silence has lasted as long as the
    last flush took does not count as quiet, so the timer decides."""
    session = make_session()
    pipe = session.ingest(max_pending=1_000_000, max_staleness_ms=10_000)
    try:
        with pipe._flush_lock:
            pipe._quiet_after = time.perf_counter() + 3600.0  # a flush that just ended
            pipe.insert("R", 1, 1)
        time.sleep(0.05)
        assert session["total"].result() == 0
        assert pipe.stats.flushes == 0
    finally:
        pipe.close()
    assert session["total"].result() == 1


def test_without_a_timer_a_quiet_producer_is_not_flushed():
    """``max_staleness_ms=None`` stays size-only / manual: quiet producers
    trigger nothing."""
    session = make_session()
    pipe = session.ingest(max_pending=1_000_000, max_staleness_ms=None)
    try:
        pipe.insert("R", 1, 1)
        time.sleep(0.05)
        assert session["total"].result() == 0
        assert pipe.stats.flushes == 0
    finally:
        pipe.close()


def test_close_flushes_remaining_and_rejects_submits():
    session = make_session()
    pipe = manual_pipeline(session)
    pipe.insert("R", 1, 7)
    pipe.close(flush=True)
    assert session["total"].result() == 7
    with pytest.raises(IngestClosedError):
        pipe.insert("R", 2, 2)
    pipe.close()  # idempotent


def test_close_without_flush_drops_pending():
    session = make_session()
    pipe = manual_pipeline(session)
    pipe.insert("R", 1, 7)
    pipe.close(flush=False)
    assert session["total"].result() == 0


def test_context_manager_flushes_on_clean_exit_only():
    session = make_session()
    with session.ingest(max_pending=1_000_000, max_staleness_ms=None) as pipe:
        pipe.insert("R", 1, 5)
    assert session["total"].result() == 5
    session2 = make_session()
    with pytest.raises(RuntimeError, match="boom"):
        with session2.ingest(max_pending=1_000_000, max_staleness_ms=None) as pipe:
            pipe.insert("R", 1, 5)
            raise RuntimeError("boom")
    # The aborted context did not flush the half-produced state.
    assert session2["total"].result() == 0


# ---------------------------------------------------------------------------
# Dead-letter quarantine
# ---------------------------------------------------------------------------


def make_poisonable_session():
    session = Session({"W": ("k", "v")})
    session.view("w_sum", "AggSum([k], W(k, v) * v)")
    return session


def test_poisoned_flush_is_quarantined_and_pipeline_survives():
    session = make_poisonable_session()
    pipe = manual_pipeline(session)
    try:
        pipe.insert("W", "k1", 10)
        pipe.flush()
        assert session["w_sum"].result_mapping() == {("k1",): 10}
        # A non-numeric value poisons the numeric fold mid-batch.
        pipe.insert("W", "k2", "not-a-number")
        pipe.insert("W", "k3", 5)
        flushed = pipe.flush()
        assert flushed == 2  # the batch was handed over, then rolled back
        # Transactional rollback: the pre-flush state survived intact,
        # including the healthy k3 update that shared the poisoned flush.
        assert session["w_sum"].result_mapping() == {("k1",): 10}
        [dead] = pipe.dead_letters
        assert isinstance(dead.error, TypeError)
        assert len(dead.updates) == 2
        assert pipe.stats.quarantined_batches == 1
        assert pipe.stats.quarantined_updates == 2
        # The pipeline keeps serving subsequent flushes.
        pipe.insert("W", "k4", 4)
        pipe.flush()
        assert session["w_sum"].result_mapping() == {("k1",): 10, ("k4",): 4}
        assert pipe.stats.quarantined_batches == 1
    finally:
        pipe.close()


def test_quarantine_limit_keeps_most_recent(monkeypatch):
    from repro.ingest import flusher

    monkeypatch.setattr(flusher, "QUARANTINE_LIMIT", 2)
    session = make_poisonable_session()
    pipe = manual_pipeline(session)
    try:
        for index in range(4):
            pipe.insert("W", f"k{index}", "poison")
            pipe.flush()
        assert pipe.stats.quarantined_batches == 4
        assert len(pipe.dead_letters) == 2
        kept = [dead.flush_index for dead in pipe.dead_letters]
        assert kept == [2, 3]
    finally:
        pipe.close()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_quarantined_flush_leaves_views_and_cdc_unchanged(executor):
    session = Session({"W": ("k", "v")})
    view = session.view("w_sum", "AggSum([k], W(k, v) * v)", backend=executor)
    payloads = []
    view.on_change(payloads.append)
    with manual_pipeline(session) as pipe:
        pipe.submit_many([insert("W", "k1", 3), insert("W", "k2", 4)])
        pipe.flush()
        before, cdc_before = session.results(), list(payloads)
        pipe.submit_many([insert("W", "k1", 5), insert("W", "k3", "poison"), delete("W", "k2", 4)])
        assert pipe.flush() == 3
        assert len(pipe.dead_letters) == 1
        assert session.results() == before
        assert payloads == cdc_before
        pipe.insert("W", "k4", 1)
        pipe.flush()
    assert view.result_mapping() == {("k1",): 3, ("k2",): 4, ("k4",): 1}
    assert payloads == cdc_before + [{("k4",): 1}]


# ---------------------------------------------------------------------------
# Per-flush CDC
# ---------------------------------------------------------------------------

#: ``(ring, values)``: the float values are dyadic, so every sum is exact
#: whatever order a flush folds it in.
CDC_RINGS = {
    "Z": (INTEGER_RING, [1, 2, 3, 5]),
    "dyadic-float": (FLOAT_FIELD, [0.5, 1.25, 2.0, 3.75]),
    "min-plus": (resolve_semiring("min-plus"), [1.0, 2.0, 3.0, 5.0]),
}


@pytest.mark.parametrize("ring_name", list(CDC_RINGS))
@pytest.mark.parametrize("executor", EXECUTORS)
def test_flush_payloads_equal_apply_batch_payloads(executor, ring_name):
    """Each flush's ``on_change`` payloads equal those of the same ``Delta``
    handed to ``Session.apply_batch``: the pipeline adds no CDC of its own."""
    ring, values = CDC_RINGS[ring_name]
    views = {"total": "AggSum([], R(a, b) * b)", "by_a": "AggSum([a], R(a, b) * b)"}

    def build():
        session = Session(SCHEMA, ring=ring)
        payloads = []
        for name, query in views.items():
            session.view(name, query, backend=executor).on_change(
                lambda payload, name=name: payloads.append((name, sorted(payload.items())))
            )
        return session, payloads

    base, base_payloads = build()
    flushed, flushed_payloads = build()
    rng = random.Random(41)
    live = []
    with manual_pipeline(flushed) as pipe:
        for _ in range(12):
            batch = []
            for _ in range(rng.choice([1, 9, 30])):
                if live and rng.random() < 0.35:
                    batch.append(delete("R", *live.pop(rng.randrange(len(live)))))
                else:
                    row = (rng.randrange(5), rng.choice(values))
                    live.append(row)
                    batch.append(insert("R", *row))
            pipe.submit_many(batch)
            pipe.flush()
            base.apply_batch(coalesce_updates(batch))
            assert flushed_payloads == base_payloads, (executor, ring_name)
            assert flushed.results() == base.results(), (executor, ring_name)


@pytest.mark.parametrize("executor", ["generated", "interpreted"])
def test_flushed_batches_match_the_same_batches_applied(executor):
    """The flusher's batches fold as the same batches handed to
    ``apply_batch`` do, results and CDC alike."""
    base, base_cdc = grouped_session(executor)
    flushed, flushed_cdc = grouped_session(executor)
    rng = random.Random(6)
    with manual_pipeline(flushed) as pipe:
        for size in (150, 1, 40, 150):
            chunk = grouped_batch(rng, size, 25)
            pipe.submit_many(chunk)
            pipe.flush()
            base.apply_batch(chunk)
            assert flushed.results() == base.results(), (executor, size)
            assert flushed_cdc == base_cdc, (executor, size)


# ---------------------------------------------------------------------------
# Concurrency: producers vs flusher
# ---------------------------------------------------------------------------


def test_threaded_producers_match_serial_application():
    """Randomized property: any interleaving of producer threads through the
    pipeline ends in exactly the serially-applied state."""
    rng = random.Random(17)
    for round_index in range(3):
        producers = rng.choice([2, 3, 4])
        partitions = producer_streams(
            SCHEMA,
            producers=producers,
            length=rng.choice([300, 800]),
            seed=rng.randrange(10_000),
            domain_size=rng.choice([4, 12]),
        )
        serial = make_session()
        for partition in partitions:
            serial.apply_batch(list(partition))
        concurrent = make_session()
        pipe = concurrent.ingest(
            max_pending=rng.choice([8, 64]), max_staleness_ms=rng.choice([5.0, None])
        )
        threads = [
            threading.Thread(
                target=lambda p=partition: [
                    pipe.submit_many(batch) for batch in p.batches(rng.choice([7, 50]))
                ],
                daemon=True,
            )
            for partition in partitions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        pipe.close(flush=True)
        assert not pipe.dead_letters
        assert concurrent.results() == serial.results(), f"round={round_index}"
        snapshot = pipe.stats_snapshot()
        assert snapshot["queue_depth"] == 0
        assert snapshot["submitted_updates"] == sum(len(p) for p in partitions)


def test_quiet_producer_flushes_under_a_short_switch_interval_lose_nothing():
    """More producers than cores, a 10 µs switch interval and a pause after
    each chunk, so the flusher often finds one call since the last drain:
    idle flushes interleave with the producers and the views still end in
    the serial state."""
    partitions = producer_streams(SCHEMA, producers=4, length=800, seed=5, domain_size=12)
    serial = make_session()
    for partition in partitions:
        serial.apply_batch(list(partition))
    concurrent = make_session()
    pipe = concurrent.ingest(max_pending=64, max_staleness_ms=5.0)

    def produce(partition):
        for batch in partition.batches(20):
            pipe.submit_many(batch)
            time.sleep(0.003)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=produce, args=(partition,), daemon=True)
            for partition in partitions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    pipe.close(flush=True)
    snapshot = pipe.stats_snapshot()
    assert not pipe.dead_letters
    assert concurrent.results() == serial.results()
    assert snapshot["submitted_updates"] == sum(len(p) for p in partitions)
    assert 0 < snapshot["idle_flushes"] <= snapshot["flushes"]


def test_producers_blocked_by_backpressure_still_complete():
    session = make_session()
    pipe = session.ingest(max_pending=2, max_staleness_ms=5.0)
    partitions = producer_streams(SCHEMA, producers=3, length=600, seed=11, domain_size=64)
    threads = [
        threading.Thread(
            target=lambda p=partition: [pipe.submit(update) for update in p],
            daemon=True,
        )
        for partition in partitions
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30.0)
        assert not thread.is_alive()
    pipe.close(flush=True)
    serial = make_session()
    for partition in partitions:
        serial.apply_batch(list(partition))
    assert session.results() == serial.results()


@pytest.mark.parametrize("executor", EXECUTORS)
def test_close_wakes_producers_blocked_behind_a_busy_flush(executor):
    """Producers stalled at the high-water mark while the flusher is inside
    ``apply_batch`` get ``IngestClosedError`` from ``close()``; the keys
    already pending are flushed on the way out."""
    session = Session(SCHEMA)
    view = session.view("by_a", "AggSum([a], R(a, b) * b)", backend=executor)
    inside, release = threading.Event(), threading.Event()

    def busy(_payload):
        inside.set()
        release.wait(10.0)

    view.on_change(busy)
    pipe = session.ingest(max_pending=2, max_staleness_ms=None)
    outcomes = []

    def producer(offset):
        try:
            pipe.submit_many([insert("R", offset + a, 1) for a in range(50)])
            outcomes.append("submitted")
        except IngestClosedError:
            outcomes.append("closed")

    producers = [threading.Thread(target=producer, args=(offset,), daemon=True)
                 for offset in (0, 100)]
    closer = threading.Thread(target=pipe.close, daemon=True)
    try:
        for thread in producers:
            thread.start()
        assert inside.wait(5.0), "the flusher should be inside apply_batch"
        assert wait_until(lambda: pipe.queue_depth == 8), "producers should fill to 4 * max_pending"
        closer.start()
        for thread in producers:
            thread.join(timeout=5.0)
            assert not thread.is_alive()
        assert outcomes == ["closed", "closed"]
    finally:
        release.set()
        pipe.close()
    closer.join(timeout=10.0)
    assert not closer.is_alive() and pipe.closed
    assert pipe.queue_depth == 0
    assert sum(view.result_mapping().values()) == pipe.stats.flushed_tuples


# ---------------------------------------------------------------------------
# Stats accounting
# ---------------------------------------------------------------------------


def test_stats_snapshot_accounts_for_the_run():
    session = make_session()
    pipe = manual_pipeline(session)
    try:
        pipe.insert("R", 1, 1)
        pipe.insert("R", 1, 1)  # coalesces
        pipe.insert("R", 2, 2)
        pipe.delete("R", 2, 2)  # cancels
        pipe.flush()
        snapshot = pipe.stats_snapshot()
        assert snapshot["submitted_updates"] == 4
        assert snapshot["coalesced_updates"] == 2
        assert snapshot["cancelled_keys"] == 1
        assert snapshot["flushes"] == 1
        assert snapshot["flushed_updates"] == 1
        assert snapshot["flushed_tuples"] == 2
        assert snapshot["queue_depth"] == 0
        assert snapshot["flush_latency"]["max_ms"] >= snapshot["flush_latency"]["p50_ms"] > 0
    finally:
        pipe.close()


def test_submit_calls_counts_calls_not_updates():
    session = make_session()
    with manual_pipeline(session) as pipe:
        pipe.submit_many([insert("R", 1, 1), insert("R", 2, 2), insert("R", 3, 3)])
        pipe.submit(insert("R", 4, 4))
        snapshot = pipe.stats_snapshot()
    assert snapshot["submit_calls"] == 2
    assert snapshot["submitted_updates"] == 4


def test_pipeline_validates_on_submit_not_at_flush():
    session = make_session()
    pipe = manual_pipeline(session)
    try:
        with pytest.raises(Exception):
            pipe.insert("R", 1)  # wrong arity fails at the producer
        assert pipe.queue_depth == 0
        with pytest.raises(Exception):
            pipe.submit(insert("S", 1, 2))  # unknown relation
    finally:
        pipe.close()


# ---------------------------------------------------------------------------
# A flush is a Delta: counts of the plumbing between queue and triggers
# ---------------------------------------------------------------------------


class CountingEvent(threading.Event):
    """A ``threading.Event`` that counts its ``set()`` calls."""

    def __init__(self):
        super().__init__()
        self.sets = 0

    def set(self):
        self.sets += 1
        super().set()


def test_queue_drains_one_signed_delta_per_relation():
    queue = IngestQueue()
    queue.submit_many(
        [insert("R", 1, 1), delete("R", 2, 2), Update(1, "R", (3, 3), count=4), insert("R", 2, 2),
         delete("R", 4, 4), delete("R", 2, 2)]
    )
    delta = queue.drain()
    # (2, 2) cancelled to zero and came back: it takes its new, last place.
    assert list(delta.relations["R"].items()) == [
        ((1, 1), 1), ((3, 3), 4), ((4, 4), -1), ((2, 2), -1),
    ]
    assert list(delta.relations) == ["R"]
    assert (len(delta), delta.tuples) == (4, 7)
    # A semiring's executors split the drained map by sign, inserts first.
    assert delta.by_sign() == [
        (("R", 1), {(1, 1): 1, (3, 3): 4}), (("R", -1), {(2, 2): 1, (4, 4): 1}),
    ]
    assert queue.pending_keys == 0 and not queue.drain()


def test_queue_sets_wake_on_the_two_transitions_only():
    """Empty → non-empty and crossing the size watermark set the event; the
    keys in between never do, and an already-set event is left alone."""
    wake = CountingEvent()
    queue = IngestQueue(watermark_keys=1024, wake=wake)
    keys = [insert("R", value, 0) for value in range(4096)]
    queue.submit_many(keys[:10])
    assert wake.sets == 1
    wake.clear()  # the drainer woke and went back to waiting
    queue.submit_many(keys[10:])
    assert wake.sets == 2  # the crossing at 1024, nothing for the other 3 071 new keys
    queue.submit_many(keys)  # merges: no transition
    assert wake.sets == 2
    queue.drain()
    wake.clear()
    # The one-at-a-time path keeps the same two transitions.
    queue.submit(keys[0])
    assert wake.sets == 3
    wake.clear()
    for update in keys[1:1024]:
        queue.submit(update)
    assert wake.sets == 4


def test_queue_counts_the_calls_since_the_last_drain():
    """The quiet-producer rule's input: one per ``submit_many`` call, however
    many updates it carries, including calls that only merge or cancel."""
    queue = IngestQueue()
    queue.submit_many([insert("R", 1, 1), insert("R", 2, 2)])
    assert queue.calls_since_drain == 1
    queue.submit(delete("R", 2, 2))
    queue.submit(insert("R", 1, 1))
    assert queue.calls_since_drain == 3
    queue.drain()
    assert queue.calls_since_drain == 0


def test_burst_wakes_the_flusher_at_most_twice_per_flush(monkeypatch):
    """A 4 096-key burst against ``max_pending=1024`` costs at most two
    ``wake.set()`` calls per flush cycle, not one per new key past the
    watermark."""
    monkeypatch.setattr(threading, "Event", CountingEvent)
    session = make_session(track_history=False)
    pipe = session.ingest(max_pending=1024, max_staleness_ms=None)
    try:
        wake = pipe._wake
        assert isinstance(wake, CountingEvent)
        burst = [insert("R", value, 1) for value in range(4096)]
        producer = threading.Thread(target=pipe.submit_many, args=(burst,), daemon=True)
        producer.start()
        producer.join(timeout=30.0)
        assert not producer.is_alive(), "the burst stalled at the high-water mark"
        assert wait_until(lambda: pipe.queue_depth == 0 and pipe.stats.flushes >= 1)
        assert wake.sets <= 2 * pipe.stats.flushes
    finally:
        pipe.close()
    assert session["total"].result() == 4096


def test_flush_builds_no_update_objects(monkeypatch):
    """With history off, nothing between ``drain()`` and the triggers decodes
    the Delta into ``Update`` objects: ``Update.__post_init__`` never runs."""
    session = Session(SCHEMA, track_history=False)
    for backend in ("generated", "interpreted"):
        session.view(f"total_{backend}", "AggSum([], R(a, b) * b)", backend=backend)
        session.view(f"by_a_{backend}", "AggSum([a], R(a, b) * b)", backend=backend)
    pipe = manual_pipeline(session)
    try:
        pipe.submit_many([insert("R", value % 97, value) for value in range(2_000)])
        constructed = []
        original = Update.__post_init__

        def counting(self):
            constructed.append(self)
            original(self)

        monkeypatch.setattr(Update, "__post_init__", counting)
        assert pipe.flush() == 2_000
        assert constructed == []
        monkeypatch.undo()
    finally:
        pipe.close()
    assert session["total_generated"].result() == session["total_interpreted"].result()
    assert session["total_generated"].result() == sum(range(2_000))


def test_submit_many_validates_the_chunk_atomically():
    """A bad update mid-chunk raises the session's typed error and nothing of
    the chunk is accepted."""
    from repro.core.errors import SchemaError

    session = make_session()
    pipe = manual_pipeline(session)
    try:
        chunk = [insert("R", 1, 1), insert("R", 2, 2), insert("R", 3), insert("R", 4, 4)]
        with pytest.raises(SchemaError, match="expects 2 values"):
            pipe.submit_many(chunk)
        with pytest.raises(SchemaError, match="not declared"):
            pipe.submit_many([insert("R", 1, 1), insert("S", 1, 2)])
        assert pipe.queue_depth == 0
        assert pipe.stats.submitted_updates == 0
        pipe.submit_many(chunk[:2])
        assert pipe.flush() == 2
    finally:
        pipe.close()
    assert session["total"].result() == 3


def test_poisoned_delta_flush_quarantines_compact_updates():
    """A poisoned flush hands its Delta to ``apply_batch``, is rolled back and
    parked with its compact updates; once the pipeline is closed, the healed
    updates apply with ``apply_batch``."""
    session = make_poisonable_session()
    pipe = manual_pipeline(session)
    try:
        pipe.submit_many([insert("W", "k1", 3), insert("W", "k1", 3), insert("W", "k2", "poison"),
                          insert("W", "k3", 1), delete("W", "k3", 1)])
        assert pipe.flush() == 2
        [dead] = pipe.dead_letters
        assert sorted(dead.updates, key=repr) == sorted(
            [Update(1, "W", ("k1", 3), count=2), insert("W", "k2", "poison")], key=repr
        )
        assert pipe.stats.quarantined_updates == 3
        assert session["w_sum"].result_mapping() == {}
    finally:
        pipe.close()
    session.apply_batch([u for u in dead.updates if u.values[1] != "poison"])
    assert session["w_sum"].result_mapping() == {("k1",): 6}


def test_drain_swap_survives_producers_stalled_mid_chunk():
    """Stress: more producer threads than cores, a tiny high-water mark and a
    shortened switch interval, so ``drain()`` swaps the accumulator out from
    under producers stalled inside ``submit_many`` over and over.  A producer
    that kept writing into the drained accumulator would lose its updates."""
    import sys

    partitions = producer_streams(SCHEMA, producers=4, length=1_500, seed=29, domain_size=40)
    serial = make_session()
    for partition in partitions:
        serial.apply_batch(list(partition))
    session = make_session()
    pipe = session.ingest(max_pending=1, max_staleness_ms=1.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda p=partition: [pipe.submit_many(batch) for batch in p.batches(25)],
                daemon=True,
            )
            for partition in partitions
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
        pipe.close(flush=True)
    assert not pipe.dead_letters
    assert pipe.stats.backpressure_stalls > 0
    assert pipe.stats.submitted_updates == sum(len(p) for p in partitions)
    assert session.results() == serial.results()
