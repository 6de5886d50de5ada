"""The producer-facing ingestion queue: online coalescing + backpressure.

An :class:`IngestQueue` is a thread-safe signed delta accumulator.  Every
submitted :class:`~repro.gmr.database.Update` (including the compact
``Update.count`` form) is ring-added into a per-``(relation, values)`` net
multiplicity on enqueue — the incremental form of
:func:`repro.gmr.database.coalesce_updates` — so the pending state is
O(distinct keys), not O(submitted updates): ten million upserts of one hot
row occupy one entry, and an insert/delete pair annihilates on arrival
without ever reaching a trigger.

Backpressure is key-based: when the number of distinct pending keys reaches
``high_water``, a producer submitting a *new* key blocks until a drain.
Updates that merge into an already-pending key pass even at the mark — they
cannot grow the queue.

The queue knows nothing about sessions or flush scheduling.  A drainer (the
:class:`~repro.ingest.flusher.IngestPipeline`) calls :meth:`drain` to take
the pending state as the batch's ``∆D`` (a
:class:`~repro.gmr.database.Delta`) and signals waiting producers; the
``wake`` event handed to the constructor is set when the queue becomes
non-empty (starting the staleness clock) and when it crosses
``watermark_keys`` (the size watermark) — the two transitions that wake the
flusher thread, never once per key — and when a producer stalls.  The queue
also counts the ``submit_many`` calls begun since the last drain
(:attr:`IngestQueue.calls_since_drain`): a flusher woken by the empty →
non-empty transition that still sees one call, begun after a silence, knows
the producer gave up the interpreter without submitting again, so waiting
for the staleness timer would coalesce nothing.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Optional, Sequence

from repro.gmr.database import Delta, NetAccumulator, Update
from repro.ingest.stats import IngestStats


class IngestClosedError(RuntimeError):
    """Raised by ``submit`` once the pipeline (or queue) has been closed —
    including for producers that were blocked on backpressure when the
    close happened."""


class IngestQueue:
    """Thread-safe coalescing buffer between producers and the flusher.

    Parameters
    ----------
    high_water:
        Distinct-pending-key count at which submits of new keys block until
        the next :meth:`drain`; ``None`` never stalls.
    watermark_keys:
        Pending-key count at which ``wake`` is set (the flusher's size
        watermark).  ``None`` sets ``wake`` only on the empty→non-empty
        transition.
    wake:
        Optional :class:`threading.Event` the queue sets to wake its drainer.
    stats:
        Shared :class:`IngestStats`; a private instance is created if omitted.
    validate:
        Optional callable run once per submitted chunk of updates *before*
        any of it is accepted (the pipeline passes the session's schema
        validation, so a malformed update fails at the submitting producer
        instead of poisoning a whole flush).
    """

    def __init__(
        self,
        high_water: Optional[int] = None,
        watermark_keys: Optional[int] = None,
        wake: Optional[threading.Event] = None,
        stats: Optional[IngestStats] = None,
        validate: Optional[Callable[[Sequence[Update]], None]] = None,
    ):
        if high_water is not None and (not isinstance(high_water, int) or high_water < 1):
            raise ValueError(f"high_water must be a positive integer, got {high_water!r}")
        self.high_water = high_water
        self.watermark_keys = watermark_keys
        self.stats = stats if stats is not None else IngestStats()
        self._validate = validate
        self._wake = wake
        self._net: NetAccumulator = {}
        self._lock = threading.Lock()
        self._not_full = threading.Condition(self._lock)
        #: ``time.perf_counter()`` of the empty→non-empty transition (the
        #: staleness clock); ``None`` while empty.
        self._since: Optional[float] = None
        #: ``submit_many`` calls begun since the last :meth:`drain`.
        self._calls = 0
        self._closed = False

    # -- producer side ---------------------------------------------------------

    def submit(self, update: Update) -> int:
        """Coalesce one update into the pending state; returns the new depth."""
        return self.submit_many((update,))

    def submit_many(self, updates: Iterable[Update]) -> int:
        """Coalesce a sequence under one lock acquisition; returns the new depth.

        Validation runs once over the chunk (a bad update anywhere rejects
        all of it) and the stats are recorded once for the whole chunk.
        Blocks while an update would add a new key at the high-water mark.
        Raises :class:`IngestClosedError` after :meth:`close` — including for
        producers that were blocked when the close happened.
        """
        updates = updates if isinstance(updates, (list, tuple)) else list(updates)
        if self._validate is not None:
            self._validate(updates)
        tuples = coalesced_tuples = cancelled = 0
        with self._lock:
            if self._closed:
                raise IngestClosedError("ingestion queue is closed")
            self._calls += 1
            net = self._net
            high_water = self.high_water
            watermark = self.watermark_keys
            try:
                for update in updates:
                    key = (update.relation, update.values)
                    existing = net.get(key)
                    if existing is None and high_water is not None and len(net) >= high_water:
                        self._stall()
                        net = self._net  # the flusher drained meanwhile
                        existing = net.get(key)
                    count = update.count
                    tuples += count
                    if existing is None:
                        net[key] = update.sign * count  # count >= 1: never zero
                        depth = len(net)
                        if depth == 1:
                            self._since = time.perf_counter()
                            self._wake_drainer()
                        elif depth == watermark:
                            self._wake_drainer()
                    else:
                        coalesced_tuples += count
                        remaining = existing + update.sign * count
                        if remaining == 0:
                            del net[key]
                            cancelled += 1
                            if not net:
                                self._since = None
                        else:
                            net[key] = remaining
            finally:
                self.stats.record_submit_many(tuples, coalesced_tuples, cancelled)
            return len(net)

    def _wake_drainer(self) -> None:
        """Set ``wake`` unless it is already set: one wake per transition."""
        wake = self._wake
        if wake is not None and not wake.is_set():
            wake.set()

    def _stall(self) -> None:
        """Wait (lock held by the caller) until a drain frees the high-water mark."""
        self._wake_drainer()  # make sure the flusher is coming
        started = time.perf_counter()
        try:
            while len(self._net) >= self.high_water and not self._closed:
                self._not_full.wait()
            if self._closed:
                raise IngestClosedError("ingestion queue closed while a submit was blocked")
        finally:
            self.stats.record_stall(time.perf_counter() - started)

    # -- drainer side ----------------------------------------------------------

    def drain(self) -> Delta:
        """Take the whole pending state as the batch's ``∆D`` and reset.

        The net accumulator is swapped out under the lock and grouped by
        relation after it: one signed delta map per relation, at most one
        entry per ``(relation, values)`` key, first-seen order, no net-zero
        entries — exactly what ``coalesce_updates`` would have built over
        everything submitted since the previous drain, so the flusher hands
        it to ``Session.apply_batch`` as it is.  Wakes every producer blocked
        on backpressure.
        """
        with self._lock:
            net, self._net = self._net, {}
            self._since = None
            self._calls = 0
            self._not_full.notify_all()
        return Delta.from_net(net)

    def close(self) -> None:
        """Reject further submits and wake any producer blocked on backpressure."""
        with self._lock:
            self._closed = True
            self._not_full.notify_all()

    # -- introspection ---------------------------------------------------------

    @property
    def pending_keys(self) -> int:
        """Distinct keys currently pending (the queue-depth gauge)."""
        return len(self._net)

    @property
    def calls_since_drain(self) -> int:
        """``submit``/``submit_many`` calls begun since the last drain."""
        return self._calls

    @property
    def closed(self) -> bool:
        return self._closed

    def oldest_age_s(self) -> float:
        """Seconds since the oldest pending work arrived (0.0 while empty)."""
        since = self._since
        return 0.0 if since is None else time.perf_counter() - since

    def __len__(self) -> int:
        return len(self._net)

    def __repr__(self) -> str:
        return f"IngestQueue(pending_keys={len(self._net)}, closed={self._closed})"
