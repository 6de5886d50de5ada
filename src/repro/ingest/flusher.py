"""Watermark flushing and dead-letter quarantine.

:class:`IngestPipeline` is the subsystem's front door: it owns an
:class:`~repro.ingest.queue.IngestQueue`, a daemon flusher thread, the
dead-letter list, and the pipeline's :class:`~repro.ingest.stats.IngestStats`.
Producers on any thread ``submit()`` updates; whenever a watermark trips the
flusher drains the queue's pending state — coalesced once, at enqueue, into
the batch's ``∆D`` (a :class:`~repro.gmr.database.Delta`) — and hands it to
``Session.apply_batch`` as it is:

size watermark
    ``max_pending`` distinct pending keys — the queue sets the wake event the
    moment the threshold is crossed, so a burst flushes immediately.
latency watermark
    ``max_staleness_ms`` since the oldest pending update arrived — no update
    waits longer than the staleness bound just because traffic is light.
    ``max_staleness_ms=None`` disables the timer (size-only / manual
    flushing — what deterministic tests use together with :meth:`flush`).
quiet producers
    While the latency watermark is on, a flusher that finds one
    ``submit_many`` call since the last drain, begun after the producers had
    stayed silent for as long as the previous flush took, flushes at once:
    the producer gave up the interpreter without submitting again, so
    waiting for the timer would coalesce nothing and only delay visibility.
    Busy producers keep the two watermarks' batching: one producer makes
    further calls before the flusher gets to run, and producers that were
    only waiting for the interpreter (several threads contending for it)
    submit the moment a flush ends, with no silence before the call
    (``IngestStats.idle_flushes`` counts the flushes this rule triggers).

Producers block once ``HIGH_WATER_FACTOR * max_pending`` distinct keys are
pending.  The mark is never below the size watermark, so the flusher is
always due by the time a producer stalls.

A flush that raises is *quarantined*, not fatal: ``apply_batch`` has already
rolled every view back to the pre-flush state (its transactional contract: an
undo journal of the entries the flush wrote, replayed backwards — a flush and
a quarantine both cost O(keys touched), never O(stored state)), so the
pipeline parks the offending batch — materialized as compact updates only
then — plus the exception on :attr:`IngestPipeline.dead_letters` and keeps
serving the next flush.  A caller can re-apply a dead letter with
``session.apply_batch(dead.updates)`` once the pipeline is closed.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.gmr.database import DELETE, INSERT, Delta, Update
from repro.ingest.queue import IngestQueue
from repro.ingest.stats import IngestStats

#: The high-water mark in multiples of ``max_pending``: backpressure engages
#: only when the flusher genuinely falls behind the producers.
HIGH_WATER_FACTOR = 4
#: Most recent :class:`DeadLetterBatch` entries kept (older ones are
#: discarded oldest-first).
QUARANTINE_LIMIT = 64


@dataclass(frozen=True)
class DeadLetterBatch:
    """One quarantined flush: the rolled-back batch and why it failed."""

    #: The compact (coalesced) updates of the poisoned flush, in drain order.
    updates: Tuple[Update, ...]
    #: The exception ``Session.apply_batch`` raised; the views were rolled
    #: back to their pre-flush state before it propagated here.
    error: BaseException
    #: Position in the pipeline's flush sequence (0-based).
    flush_index: int
    #: ``time.time()`` of the quarantine.
    timestamp: float = field(compare=False)

    def __repr__(self) -> str:
        return (
            f"DeadLetterBatch(flush_index={self.flush_index}, "
            f"updates={len(self.updates)}, error={self.error!r})"
        )


class IngestPipeline:
    """Queued producers → watermark flushes → one session, with quarantine.

    Parameters
    ----------
    session:
        The :class:`~repro.session.Session` the flusher feeds.  While the
        pipeline is open it owns the session's write path — do not call
        ``insert`` / ``apply_batch`` directly until :meth:`close`.
    max_pending:
        Size watermark: a flush is triggered once this many distinct keys
        are pending.  Producers block at ``HIGH_WATER_FACTOR`` times it.
    max_staleness_ms:
        Latency watermark: a flush is triggered once the oldest pending
        update is this stale.  ``None`` disables the timer.  While it is on,
        a flush is also triggered as soon as the flusher sees the producers
        quiet (one submit call since the last drain, begun after a silence
        as long as the previous flush took).
    """

    def __init__(
        self,
        session,
        max_pending: int = 4096,
        max_staleness_ms: Optional[float] = 50.0,
    ):
        if not isinstance(max_pending, int) or max_pending < 1:
            raise ValueError(f"max_pending must be a positive integer, got {max_pending!r}")
        if max_staleness_ms is not None and max_staleness_ms <= 0:
            raise ValueError(
                f"max_staleness_ms must be positive or None, got {max_staleness_ms!r}"
            )
        self.session = session
        self.max_pending = max_pending
        self.max_staleness_ms = max_staleness_ms
        self.stats = IngestStats()
        self._wake = threading.Event()
        self._queue = IngestQueue(
            high_water=HIGH_WATER_FACTOR * max_pending,
            watermark_keys=max_pending,
            wake=self._wake,
            stats=self.stats,
            validate=session._validate_updates,
        )
        #: Serializes the flusher thread against inline :meth:`flush` /
        #: :meth:`close`.
        self._flush_lock = threading.Lock()
        self._dead_letters: "deque[DeadLetterBatch]" = deque(maxlen=QUARANTINE_LIMIT)
        self._flush_index = 0
        #: ``time.perf_counter()`` before which a first submit after the last
        #: flush does not count as quiet: that flush's end plus its duration.
        self._quiet_after = 0.0
        self._stop = threading.Event()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-ingest-flusher", daemon=True
        )
        self._thread.start()

    # -- producer API ----------------------------------------------------------

    def submit(self, update: Update) -> int:
        """Queue one update (any thread); returns the pending-key depth."""
        return self._queue.submit(update)

    def submit_many(self, updates: Iterable[Update]) -> int:
        """Queue a sequence under one lock acquisition; returns the depth."""
        return self._queue.submit_many(updates)

    def insert(self, relation: str, *values: Any, count: int = 1) -> int:
        return self.submit(Update(INSERT, relation, tuple(values), count=count))

    def delete(self, relation: str, *values: Any, count: int = 1) -> int:
        return self.submit(Update(DELETE, relation, tuple(values), count=count))

    # -- flushing --------------------------------------------------------------

    def flush(self) -> int:
        """Drain and apply the pending state *now*, on the calling thread.

        Deterministic — when it returns, every update submitted before the
        call has either reached the views or been quarantined.  Returns the
        number of compact updates flushed (0 for an empty queue).
        """
        with self._flush_lock:
            return self._flush_once()

    def _should_flush(self) -> Optional[str]:
        """Which flush condition holds: ``"size"``, ``"staleness"``, ``"idle"``
        (the producers are quiet) or ``None``."""
        queue = self._queue
        pending = queue.pending_keys
        if pending >= self.max_pending:
            return "size"
        if self.max_staleness_ms is None or pending == 0:
            return None
        age_s = queue.oldest_age_s()
        if age_s * 1e3 >= self.max_staleness_ms:
            return "staleness"
        # Quiet: one call since the drain, begun after a silence as long as
        # the last flush took.  Producers that were only waiting for the
        # interpreter submit the moment a flush ends.
        if queue.calls_since_drain == 1 and time.perf_counter() - age_s >= self._quiet_after:
            return "idle"
        return None

    def _flush_once(self, idle: bool = False) -> int:
        started = time.perf_counter()
        staleness_ms = self._queue.oldest_age_s() * 1e3
        delta = self._queue.drain()
        if not delta:
            return 0
        self._apply(delta, staleness_ms, idle)
        self._flush_index += 1
        ended = time.perf_counter()
        self._quiet_after = ended + (ended - started)
        return len(delta)

    def _apply(self, delta: Delta, staleness_ms: float, idle: bool) -> None:
        """Hand one flush's ``∆D`` to the session; quarantine it if that raises."""
        started = time.perf_counter()
        try:
            self.session.apply_batch(delta)
        except Exception as error:  # noqa: BLE001 - quarantine is the contract
            # apply_batch already rolled every view back; park the batch and
            # keep the pipeline running.
            self._dead_letters.append(
                DeadLetterBatch(
                    updates=tuple(delta.updates()),
                    error=error,
                    flush_index=self._flush_index,
                    timestamp=time.time(),
                )
            )
            self.stats.record_quarantine(delta.tuples)
            return
        self.stats.record_flush(
            updates=len(delta),
            tuples=delta.tuples,
            latency_s=time.perf_counter() - started,
            staleness_ms=staleness_ms,
            idle=idle,
        )

    def _next_timeout_s(self) -> Optional[float]:
        """Seconds until the staleness watermark trips (``None``: no timer)."""
        if self.max_staleness_ms is None or self._queue.pending_keys == 0:
            return None
        return max(0.0, self.max_staleness_ms / 1e3 - self._queue.oldest_age_s())

    def _run(self) -> None:
        while True:
            self._wake.wait(self._next_timeout_s())
            if self._stop.is_set():
                return
            self._wake.clear()
            with self._flush_lock:
                if self._stop.is_set():
                    return
                due = self._should_flush()
                if due is not None:
                    self._flush_once(idle=due == "idle")

    # -- lifecycle / introspection ---------------------------------------------

    @property
    def dead_letters(self) -> Tuple[DeadLetterBatch, ...]:
        """Quarantined flushes, oldest first (the last ``QUARANTINE_LIMIT``)."""
        return tuple(self._dead_letters)

    @property
    def queue_depth(self) -> int:
        return self._queue.pending_keys

    @property
    def closed(self) -> bool:
        return self._closed

    def stats_snapshot(self) -> Dict[str, Any]:
        """:meth:`IngestStats.snapshot` plus the current queue depth."""
        return self.stats.snapshot(queue_depth=self._queue.pending_keys)

    def close(self, flush: bool = True) -> None:
        """Stop accepting updates, optionally final-flush, stop the thread.

        Producers blocked on backpressure are woken with
        :class:`~repro.ingest.queue.IngestClosedError`.  With ``flush=True``
        (default) the remaining pending state is applied; with
        ``flush=False`` pending updates are dropped.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.close()
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=10.0)
        if flush:
            with self._flush_lock:
                self._flush_once()

    def __enter__(self) -> "IngestPipeline":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close(flush=exc_type is None)

    def __repr__(self) -> str:
        return (
            f"IngestPipeline(pending_keys={self._queue.pending_keys}, "
            f"max_pending={self.max_pending}, max_staleness_ms={self.max_staleness_ms}, "
            f"flushes={self.stats.flushes}, closed={self._closed})"
        )
