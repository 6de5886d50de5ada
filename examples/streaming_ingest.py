"""Streaming ingestion: producer threads, watermark flushes, and per-flush CDC.

A small order-events dashboard fed by four concurrent producers.  The script
walks the full ingestion surface in order:

1. producers on separate threads submitting a duplicate-heavy stream while a
   latency watermark keeps the views fresh;
2. a view's ``on_change`` subscriber receiving one net payload per flush;
3. a poisoned update quarantined to the dead-letter list while the pipeline
   keeps running;
4. the stats snapshot summarizing what the queue absorbed.

Run with::

    PYTHONPATH=src python examples/streaming_ingest.py
"""

import random
import threading

from repro import Session

SCHEMA = {"Orders": ("region", "amount")}
REGIONS = ("north", "south", "east", "west")
PRODUCERS = 4
EVENTS_PER_PRODUCER = 5_000


def produce(pipe, seed):
    """One producer: hot-key order events, applied as fast as they arrive."""
    rng = random.Random(seed)
    for _ in range(EVENTS_PER_PRODUCER):
        region = rng.choice(REGIONS)
        amount = rng.choice((10, 20, 50))
        pipe.insert("Orders", region, amount)
        if rng.random() < 0.25:  # a cancellation of the same event shape
            pipe.delete("Orders", region, amount)


def main():
    session = Session(SCHEMA)
    revenue = session.view("revenue", "AggSum([region], Orders(region, amount) * amount)")
    session.view("order_count", "Sum(Orders(region, amount))")

    print("== Concurrent producers through the ingestion pipeline ==")
    revenue_payloads = []
    revenue.on_change(revenue_payloads.append)
    pipe = session.ingest(max_pending=256, max_staleness_ms=10.0)
    threads = [
        threading.Thread(target=produce, args=(pipe, seed), daemon=True)
        for seed in range(PRODUCERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    pipe.close(flush=True)

    print(f"revenue per region after {PRODUCERS * EVENTS_PER_PRODUCER} submitted events:")
    for (region,), total in sorted(revenue.result_mapping().items()):
        print(f"  {region:6s} {total:>10,}")
    print(f"CDC delivered {len(revenue_payloads)} revenue payloads "
          "(one per flush that changed it, net deltas only)")

    stats = pipe.stats_snapshot()
    print("\n== What the queue absorbed ==")
    print(f"  submitted updates   {stats['submitted_updates']:>10,}")
    print(f"  coalesced online    {stats['coalesced_updates']:>10,}  "
          "(merged into an already-pending key)")
    print(f"  cancelled keys      {stats['cancelled_keys']:>10,}  "
          "(net zero before any flush)")
    print(f"  flushes             {stats['flushes']:>10,}")
    print(f"  flushed updates     {stats['flushed_updates']:>10,}  "
          "(compact, one per distinct key)")
    print(f"  flush p99 latency   {stats['flush_latency']['p99_ms']:>10.2f}ms")
    print(f"  max staleness seen  {stats['max_flush_staleness_ms']:>10.1f}ms "
          f"(watermark 10ms)")

    print("\n== Dead-letter quarantine ==")
    fresh = Session({"W": ("k", "v")})
    w_sum = fresh.view("w_sum", "AggSum([k], W(k, v) * v)")
    with fresh.ingest(max_pending=1_000_000, max_staleness_ms=None) as bad_pipe:
        bad_pipe.insert("W", "good", 42)
        bad_pipe.flush()
        bad_pipe.insert("W", "poison", "not-a-number")  # breaks the numeric fold
        bad_pipe.insert("W", "also-lost", 7)            # shares the poisoned flush
        bad_pipe.flush()
        [dead] = bad_pipe.dead_letters
        print(f"quarantined flush #{dead.flush_index}: {len(dead.updates)} updates, "
              f"error: {type(dead.error).__name__}: {dead.error}")
        print(f"views rolled back, pipeline still live: w_sum = {w_sum.result_mapping()}")
        bad_pipe.insert("W", "recovered", 8)
        bad_pipe.flush()
        print(f"next flush applied cleanly:            w_sum = {w_sum.result_mapping()}")


if __name__ == "__main__":
    main()
