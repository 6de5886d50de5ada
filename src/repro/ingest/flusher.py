"""Watermark flushing, dead-letter quarantine, and windowed CDC.

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

A flush that raises is *quarantined*, not fatal: ``apply_batch`` has already
rolled every view back to the pre-flush state (its transactional contract: an
undo journal of the entries the flush wrote, replayed backwards — a flush and
a quarantine both cost O(keys touched), never O(stored state)), so the
pipeline parks the offending batch — materialized as compact updates only
then — plus the exception on :attr:`IngestPipeline.dead_letters` and keeps
serving the next flush.

Cross-batch CDC coalescing: :meth:`IngestPipeline.subscribe` attaches a
callback to a view through a *window* — consecutive per-flush deltas are
ring-added and delivered as one net payload every ``every_flushes`` flushes
or ``every_ms`` milliseconds, whichever comes first.  A hot key rewritten in
every flush costs one callback invocation per window, not per flush, and
changes that cancel across flushes inside a window are never delivered
at all.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.gmr.database import (
    DELETE,
    INSERT,
    Delta,
    Update,
    coalesce_updates,
    deserialize_update,
    serialize_update,
)
from repro.ingest.backpressure import BackpressurePolicy, IngestClosedError
from repro.ingest.queue import IngestQueue
from repro.ingest.stats import IngestStats

ChangeCallback = Callable[[Dict[Tuple[Any, ...], Any]], None]


class QuarantinedError(RuntimeError):
    """Stand-in for a dead letter's original exception after a round-trip.

    Exceptions do not reliably serialize, so :meth:`DeadLetterBatch.to_snapshot`
    stores the type name and message; revival wraps them in this class.
    """


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

    def to_snapshot(self) -> Dict[str, Any]:
        """Plain-data form of the dead letter (JSON-serializable payloads).

        The updates travel in the session snapshot's update-row format
        (:func:`repro.gmr.database.serialize_update`), so a quarantined batch
        can be persisted next to a ``Session.snapshot()`` and retried after a
        restore.  The exception is captured as its type name and message.
        """
        return {
            "updates": [serialize_update(update) for update in self.updates],
            "error": str(self.error),
            "error_type": type(self.error).__name__,
            "flush_index": self.flush_index,
            "timestamp": self.timestamp,
        }

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Any]) -> "DeadLetterBatch":
        """Revive a dead letter from :meth:`to_snapshot` output.

        The original exception object is gone; ``error`` becomes a
        :class:`QuarantinedError` carrying the recorded type and message.
        """
        return cls(
            updates=tuple(deserialize_update(row) for row in snapshot["updates"]),
            error=QuarantinedError(f"{snapshot['error_type']}: {snapshot['error']}"),
            flush_index=snapshot["flush_index"],
            timestamp=snapshot["timestamp"],
        )

    def __repr__(self) -> str:
        return (
            f"DeadLetterBatch(flush_index={self.flush_index}, "
            f"updates={len(self.updates)}, error={self.error!r})"
        )


class _WindowedSubscription:
    """One CDC subscriber's window: ring-accumulated deltas between emits.

    The tap registered with ``view.on_change`` fires inside ``apply_batch``
    on whichever thread is flushing, and :meth:`advance` runs right after the
    flush — both always under the pipeline's flush lock, so the accumulator
    needs no lock of its own.
    """

    def __init__(self, view, callback: ChangeCallback, every_flushes: int,
                 every_ms: Optional[float], ring, stats: IngestStats):
        if not isinstance(every_flushes, int) or every_flushes < 1:
            raise ValueError(f"every_flushes must be a positive integer, got {every_flushes!r}")
        if every_ms is not None and every_ms <= 0:
            raise ValueError(f"every_ms must be positive or None, got {every_ms!r}")
        self.view = view
        self.callback = callback
        self.every_flushes = every_flushes
        self.every_ms = every_ms
        self._ring = ring
        self._stats = stats
        self._accumulated: Dict[Tuple[Any, ...], Any] = {}
        self._flushes = 0  # flushes that delivered deltas into this window
        self._dirty = False  # this flush delivered a delta, not yet counted
        self._deadline: Optional[float] = None
        self._active = True
        view.on_change(self._on_delta)

    def _on_delta(self, delta: Dict[Tuple[Any, ...], Any]) -> None:
        accumulated = self._accumulated
        add = self._ring.add
        for key, value in delta.items():
            existing = accumulated.get(key)
            accumulated[key] = value if existing is None else add(existing, value)
        self._dirty = True

    def advance(self, now: float, force: bool = False) -> None:
        """Count this flush and emit the window if its bound is reached."""
        if self._dirty:
            self._dirty = False
            self._flushes += 1
            if self._deadline is None and self.every_ms is not None:
                self._deadline = now + self.every_ms / 1e3
        if self._flushes == 0:
            return
        due = (
            force
            or self._flushes >= self.every_flushes
            or (self._deadline is not None and now >= self._deadline)
        )
        if not due:
            return
        is_zero = self._ring.is_zero
        payload = {
            key: value for key, value in self._accumulated.items() if not is_zero(value)
        }
        flushes = self._flushes
        self._accumulated = {}
        self._flushes = 0
        self._deadline = None
        if payload:
            self._stats.record_window_emit(flushes)
            self.callback(payload)

    def next_deadline(self) -> Optional[float]:
        return self._deadline

    def cancel(self) -> None:
        """Detach from the view; buffered-but-unemitted deltas are dropped."""
        if self._active:
            self._active = False
            self.view.remove_on_change(self._on_delta)


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
        are pending.
    max_staleness_ms:
        Latency watermark: a flush is triggered once the oldest pending
        update is this stale.  ``None`` disables the timer.
    backpressure:
        :class:`BackpressurePolicy` for producers; defaults to blocking at
        ``4 * max_pending`` distinct keys.
    quarantine_limit:
        Most recent :class:`DeadLetterBatch` entries kept (older ones are
        discarded oldest-first).
    """

    def __init__(
        self,
        session,
        max_pending: int = 4096,
        max_staleness_ms: Optional[float] = 50.0,
        backpressure: Optional[BackpressurePolicy] = None,
        quarantine_limit: int = 64,
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
        if backpressure is None:
            backpressure = BackpressurePolicy(high_water=4 * max_pending)
        self.backpressure = backpressure
        self.stats = IngestStats()
        self._wake = threading.Event()
        self._queue = IngestQueue(
            backpressure=backpressure,
            watermark_keys=max_pending,
            wake=self._wake,
            stats=self.stats,
            validate=session._validate_updates,
        )
        #: Serializes the flusher thread against inline :meth:`flush` /
        #: :meth:`close` (re-entrant: close flushes while holding it).
        self._flush_lock = threading.RLock()
        self._dead_letters: "deque[DeadLetterBatch]" = deque(maxlen=quarantine_limit)
        self._subscriptions: List[_WindowedSubscription] = []
        self._flush_index = 0
        self._stop = threading.Event()
        self._closed = False
        self._thread = threading.Thread(
            target=self._run, name="repro-ingest-flusher", daemon=True
        )
        self._thread.start()

    # -- producer API ----------------------------------------------------------

    def submit(self, update: Update, nowait: bool = False) -> int:
        """Queue one update (any thread); returns the pending-key depth."""
        return self._queue.submit(update, nowait=nowait)

    def submit_many(self, updates: Iterable[Update], nowait: bool = False) -> int:
        """Queue a sequence under one lock acquisition; returns the depth."""
        return self._queue.submit_many(updates, nowait=nowait)

    def insert(self, relation: str, *values: Any, count: int = 1, nowait: bool = False) -> int:
        return self.submit(Update(INSERT, relation, tuple(values), count=count), nowait=nowait)

    def delete(self, relation: str, *values: Any, count: int = 1, nowait: bool = False) -> int:
        return self.submit(Update(DELETE, relation, tuple(values), count=count), nowait=nowait)

    # -- flushing --------------------------------------------------------------

    def flush(self) -> int:
        """Drain and apply the pending state *now*, on the calling thread.

        Deterministic — when it returns, every update submitted before the
        call has either reached the views or been quarantined.  Returns the
        number of compact updates flushed (0 for an empty queue).
        """
        with self._flush_lock:
            return self._flush_once()

    def _should_flush(self) -> bool:
        if self._queue.pending_keys >= self.max_pending:
            return True
        if self.max_staleness_ms is None or self._queue.pending_keys == 0:
            return False
        return self._queue.oldest_age_s() * 1e3 >= self.max_staleness_ms

    def _flush_once(self) -> int:
        staleness_ms = self._queue.oldest_age_s() * 1e3
        delta = self._queue.drain()
        if not delta:
            self._advance_windows()
            return 0
        self._apply(delta, staleness_ms)
        self._flush_index += 1
        self._advance_windows()
        return len(delta)

    def _apply(self, delta: Delta, staleness_ms: float) -> bool:
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
            return False
        self.stats.record_flush(
            updates=len(delta),
            tuples=delta.tuples,
            latency_s=time.perf_counter() - started,
            staleness_ms=staleness_ms,
        )
        return True

    def _advance_windows(self, force: bool = False) -> None:
        now = time.monotonic()
        for subscription in self._subscriptions:
            subscription.advance(now, force=force)

    def _next_timeout_s(self) -> Optional[float]:
        """Seconds until the earliest deadline (staleness or CDC window)."""
        deadlines: List[float] = []
        if self.max_staleness_ms is not None and self._queue.pending_keys > 0:
            deadlines.append(self.max_staleness_ms / 1e3 - self._queue.oldest_age_s())
        now = time.monotonic()
        for subscription in self._subscriptions:
            deadline = subscription.next_deadline()
            if deadline is not None:
                deadlines.append(deadline - now)
        if not deadlines:
            return None
        return max(0.0, min(deadlines))

    def _run(self) -> None:
        while True:
            self._wake.wait(self._next_timeout_s())
            if self._stop.is_set():
                return
            self._wake.clear()
            with self._flush_lock:
                if self._stop.is_set():
                    return
                if self._should_flush():
                    self._flush_once()
                else:
                    self._advance_windows()

    def retry(self, dead: DeadLetterBatch) -> int:
        """Re-apply a quarantined batch on the calling thread.

        ``dead`` may be a live entry of :attr:`dead_letters` or one revived
        with :meth:`DeadLetterBatch.from_snapshot` after a restore.  On
        success the batch counts as a regular flush, any matching quarantine
        entry is dropped, and the number of compact updates applied is
        returned.  On failure the batch is re-quarantined under the fresh
        error (the views were rolled back as usual) and 0 is returned —
        retrying a still-poisoned batch is not fatal, same as the flush path.
        """
        if self._closed:
            raise IngestClosedError("cannot retry a dead letter on a closed pipeline")
        delta = coalesce_updates(dead.updates)
        if not delta:
            return 0
        with self._flush_lock:
            applied = len(delta) if self._apply(delta, staleness_ms=0.0) else 0
            try:
                self._dead_letters.remove(dead)
            except ValueError:
                pass  # revived from a snapshot, or already discarded
            self._flush_index += 1
            self._advance_windows()
            return applied

    # -- CDC windows -----------------------------------------------------------

    def subscribe(
        self,
        view,
        callback: ChangeCallback,
        every_flushes: int = 1,
        every_ms: Optional[float] = None,
    ) -> _WindowedSubscription:
        """Deliver a view's net change once per window instead of per flush.

        ``view`` is a :class:`~repro.session.views.MaterializedView` or its
        name.  The window emits when ``every_flushes`` flushes have delivered
        deltas to the view *or* ``every_ms`` milliseconds have passed since
        the first of them — whichever comes first; the payload is the
        ring-sum of the per-flush deltas with net-zero keys dropped, so it
        is exactly the consolidated ``on_change`` payload of one batch that
        did all the window's work.  Returns a handle with ``.cancel()``.
        """
        if isinstance(view, str):
            view = self.session[view]
        subscription = _WindowedSubscription(
            view, callback, every_flushes, every_ms, self.session.ring, self.stats
        )
        with self._flush_lock:
            self._subscriptions.append(subscription)
        self._wake.set()  # recompute the loop timeout with the new window
        return subscription

    # -- lifecycle / introspection ---------------------------------------------

    @property
    def dead_letters(self) -> Tuple[DeadLetterBatch, ...]:
        """Quarantined flushes, oldest first (bounded by ``quarantine_limit``)."""
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
        :class:`~repro.ingest.backpressure.IngestClosedError`.  With
        ``flush=True`` (default) the remaining pending state is applied and
        every CDC window force-emits its residual accumulation; with
        ``flush=False`` pending updates are dropped.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        self._queue.close()
        self._stop.set()
        self._wake.set()
        self._thread.join(timeout=10.0)
        with self._flush_lock:
            if flush:
                self._flush_once()
            self._advance_windows(force=flush)
            for subscription in self._subscriptions:
                subscription.cancel()
            self._subscriptions.clear()

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
