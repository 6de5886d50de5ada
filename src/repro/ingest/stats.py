"""Observability surface of the streaming ingestion subsystem.

One :class:`IngestStats` instance is shared by a pipeline's queue and
flusher; every counter is maintained under an internal lock so
producer threads, the flusher thread, and a monitoring thread can all touch
it concurrently.  :meth:`IngestStats.snapshot` returns a plain dict — the
stable, JSON-able monitoring contract the README documents and the soak
experiment (E13) records.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, Optional, Sequence

#: How many recent flush latency / staleness samples the percentile window
#: keeps.  A bounded window makes the percentiles reflect *current* behavior
#: (and bounds memory) — long-running pipelines do not average away a stall.
LATENCY_WINDOW = 512


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of a sample set (nearest-rank, 0 if empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(fraction * len(ordered) + 0.5) - 1))
    return ordered[rank]


class IngestStats:
    """Counters, gauges, and latency windows of one ingestion pipeline.

    Counter semantics (all monotonic):

    ``submit_calls`` / ``submitted_updates``
        Producer-side volume: calls to ``submit``/``submit_many`` and the
        logical tuples they carried (``Update.count`` expands — ten inserts
        of one tuple submitted as ``count=10`` are ten submitted updates).
    ``coalesced_updates``
        Submitted tuples absorbed by online coalescing: they merged into an
        already-pending key (or cancelled pending work) instead of growing
        the queue.  ``submitted - coalesced`` ≈ distinct keys enqueued.
    ``cancelled_keys``
        Pending keys dropped because their net multiplicity hit zero before
        any flush saw them — churn that cost no trigger work at all.
    ``flushes`` / ``flushed_updates`` / ``flushed_tuples``
        Flush-side volume: watermark flushes executed, compact updates
        handed to ``Session.apply_batch`` (one per distinct surviving key),
        and the logical tuples those represented.
    ``quarantined_batches`` / ``quarantined_updates``
        Poisoned flushes rolled back and parked on the dead-letter list.
    ``backpressure_stalls`` / ``backpressure_wait_s``
        Producer stalls at the high-water mark and the total time spent
        blocked in them.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.submit_calls = 0
        self.submitted_updates = 0
        self.coalesced_updates = 0
        self.cancelled_keys = 0
        self.flushes = 0
        self.flushed_updates = 0
        self.flushed_tuples = 0
        self.quarantined_batches = 0
        self.quarantined_updates = 0
        self.backpressure_stalls = 0
        self.backpressure_wait_s = 0.0
        self.max_flush_staleness_ms = 0.0
        self._flush_latency_ms = deque(maxlen=LATENCY_WINDOW)
        self._flush_staleness_ms = deque(maxlen=LATENCY_WINDOW)

    # -- recording hooks (called by the queue / flusher) ------------------------

    def record_submit_many(self, tuples: int, coalesced_tuples: int, cancelled: int) -> None:
        """One ``submit``/``submit_many`` call, recorded under one lock
        acquisition for its whole chunk, which is what keeps the producer hot
        loop off this lock."""
        with self._lock:
            self.submit_calls += 1
            self.submitted_updates += tuples
            self.coalesced_updates += coalesced_tuples
            self.cancelled_keys += cancelled

    def record_flush(self, updates: int, tuples: int, latency_s: float, staleness_ms: float) -> None:
        with self._lock:
            self.flushes += 1
            self.flushed_updates += updates
            self.flushed_tuples += tuples
            self._flush_latency_ms.append(latency_s * 1e3)
            self._flush_staleness_ms.append(staleness_ms)
            if staleness_ms > self.max_flush_staleness_ms:
                self.max_flush_staleness_ms = staleness_ms

    def record_quarantine(self, updates: int) -> None:
        with self._lock:
            self.quarantined_batches += 1
            self.quarantined_updates += updates

    def record_stall(self, waited_s: float) -> None:
        with self._lock:
            self.backpressure_stalls += 1
            self.backpressure_wait_s += waited_s

    # -- reading ---------------------------------------------------------------

    def snapshot(self, queue_depth: Optional[int] = None) -> Dict[str, Any]:
        """All counters plus latency percentiles as one plain (JSON-able) dict."""
        with self._lock:
            latency = list(self._flush_latency_ms)
            staleness = list(self._flush_staleness_ms)
            record: Dict[str, Any] = {
                "submit_calls": self.submit_calls,
                "submitted_updates": self.submitted_updates,
                "coalesced_updates": self.coalesced_updates,
                "cancelled_keys": self.cancelled_keys,
                "flushes": self.flushes,
                "flushed_updates": self.flushed_updates,
                "flushed_tuples": self.flushed_tuples,
                "quarantined_batches": self.quarantined_batches,
                "quarantined_updates": self.quarantined_updates,
                "backpressure_stalls": self.backpressure_stalls,
                "backpressure_wait_s": self.backpressure_wait_s,
                "max_flush_staleness_ms": self.max_flush_staleness_ms,
            }
        record["flush_latency"] = {
            "p50_ms": percentile(latency, 0.50),
            "p90_ms": percentile(latency, 0.90),
            "p99_ms": percentile(latency, 0.99),
            "max_ms": max(latency) if latency else 0.0,
        }
        record["flush_staleness"] = {
            "p50_ms": percentile(staleness, 0.50),
            "p99_ms": percentile(staleness, 0.99),
            "max_ms": max(staleness) if staleness else 0.0,
        }
        if queue_depth is not None:
            record["queue_depth"] = queue_depth
        return record

    def __repr__(self) -> str:
        return (
            f"IngestStats(submitted={self.submitted_updates}, "
            f"coalesced={self.coalesced_updates}, flushes={self.flushes}, "
            f"quarantined={self.quarantined_batches})"
        )
