"""Streaming ingestion: queued producers, watermark flushes, backpressure
and dead-letter quarantine.

The subsystem decouples producers from trigger dispatch.  Many threads
``submit()`` updates into an :class:`IngestQueue`, which coalesces them
*online* into per-``(relation, values)`` net multiplicities — the ring's
additive inverse at work: the pending state is O(distinct keys) and
insert/delete churn annihilates before any trigger runs.  A flusher drains
on a size or latency watermark, or at once when the producers are quiet
(the timer is on and one submit call, begun after a silence, arrived since
the last drain), and hands the batch's ``∆D`` — a
:class:`~repro.gmr.database.Delta`, coalesced once, at enqueue — to
``Session.apply_batch`` as it is; a poisoned flush is rolled back
transactionally and quarantined on a dead-letter list while the pipeline
keeps running.  Producers block once four times the size watermark of
distinct keys is pending, per-flush changes reach ``view.on_change``
subscribers as usual, and everything is observable through
:class:`IngestStats`.

The usual entry point is :meth:`Session.ingest`::

    with session.ingest(max_pending=1024, max_staleness_ms=20) as pipe:
        pipe.insert("R", 1, 2)
        pipe.submit_many(stream)
    # closed: everything flushed, views consistent
"""

from repro.ingest.flusher import DeadLetterBatch, IngestPipeline
from repro.ingest.queue import IngestClosedError, IngestQueue
from repro.ingest.stats import IngestStats

__all__ = [
    "DeadLetterBatch",
    "IngestClosedError",
    "IngestPipeline",
    "IngestQueue",
    "IngestStats",
]
