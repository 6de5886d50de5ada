"""Streaming ingestion: queued producers, watermark flushes, backpressure,
and cross-batch CDC coalescing.

The subsystem decouples producers from trigger dispatch.  Many threads
``submit()`` updates into an :class:`IngestQueue`, which coalesces them
*online* into per-``(relation, values)`` net multiplicities — the pending
state is O(distinct keys) and insert/delete churn annihilates before any
trigger runs.  A flusher drains on a size or latency watermark and hands the
batch's ``∆D`` — a :class:`~repro.gmr.database.Delta`, coalesced once, at
enqueue — to ``Session.apply_batch`` as it is; a poisoned flush is rolled
back transactionally and quarantined on a dead-letter list while the
pipeline keeps running.  Backpressure is
explicit (:class:`BackpressurePolicy`), CDC subscribers can window
consecutive flush deltas (:meth:`IngestPipeline.subscribe`), and everything
is observable through :class:`IngestStats`.

The usual entry point is :meth:`Session.ingest`::

    with session.ingest(max_pending=1024, max_staleness_ms=20) as pipe:
        pipe.insert("R", 1, 2)
        pipe.submit_many(stream)
    # closed: everything flushed, views consistent
"""

from repro.ingest.backpressure import (
    BACKPRESSURE_MODES,
    BackpressureError,
    BackpressurePolicy,
    IngestClosedError,
)
from repro.ingest.flusher import DeadLetterBatch, IngestPipeline, QuarantinedError
from repro.ingest.queue import IngestQueue
from repro.ingest.stats import IngestStats

__all__ = [
    "BACKPRESSURE_MODES",
    "BackpressureError",
    "BackpressurePolicy",
    "DeadLetterBatch",
    "IngestClosedError",
    "IngestPipeline",
    "IngestQueue",
    "IngestStats",
    "QuarantinedError",
]
