"""E15 — lattice-aggregate (MIN) maintenance under deletion churn vs naive.

The PR-10 acceptance scenario: a per-group MIN view over a proper semiring
(min-plus — no additive inverse, so deletions cannot fold) maintained through
the maintenance-strategy contract — integer base counters plus tracked
per-affected-group recomputes — against naive full re-evaluation.  A
deletion-heavy stream is the worst case for the contract: every deletion of a
group's current minimum forces that group's re-derivation, yet the work stays
proportional to the *affected group*, not the database.

The asserted criterion: at 10k updates with deletion churn, the compiled
incremental executors sustain at least **10x** the naive per-update
throughput.  Naive cost grows with the live database, so it is measured on a
sample against the fully warmed database both engines reached.

The state-scaling row prices the paper's size-independence claim on the
support tier: one churn stream that keeps running groups' supports dry,
applied to a relation of ``SCALING_GROUPS[0]`` groups and to one ten times
larger (the extra groups are ballast the stream never touches).  Exhaustion
recovery reads the exhausted group through the counter map's slice index, so
the throughput ratio is ≈ 1; a recovery that rescans the relation makes it
grow with the ballast.  Asserted only loosely (≤ 2) — the exact claim is
counted, not timed, in ``tests/test_support_tier.py``.

Run standalone for a quick table::

    PYTHONPATH=src python benchmarks/bench_lattice.py [--smoke]

or through pytest::

    PYTHONPATH=src python -m pytest benchmarks/bench_lattice.py
"""

import random
import sys
import time

import pytest

from repro.algebra.semirings import MIN_PLUS, resolve_semiring
from repro.core.parser import parse
from repro.gmr.database import Database, delete, insert
from repro.ivm.base import result_as_mapping
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.workloads.streams import StreamGenerator

from conftest import SMOKE, smoke_scaled

SCHEMA = {"P": ("G", "S")}
QUERY = parse("AggSum([g], P(g, s) * s)")

#: The asserted stream length and the speedup floor of the E15 criterion.
STREAM_LENGTH = smoke_scaled(10_000, 1_500)
SPEEDUP_FLOOR = 10.0
#: Deletion-heavy churn: ~40% of the steps delete a live tuple.
DELETE_FRACTION = 0.4
#: Group count / score domain: enough groups that recomputes stay local,
#: enough scores per group that minima actually move under churn.
GROUPS = 40
SCORES = [float(value) for value in range(1, 100)]
#: Naive re-evaluates the whole view per update; a sample suffices.
NAIVE_SAMPLE = smoke_scaled(120, 30)
#: State scaling: churned groups / groups of the 10x relation, rows per group
#: at the start, churn length, and the loose ceiling on small/large throughput.
SCALING_SMOKE = ((40, 400), 1_500)
SCALING_GROUPS, SCALING_CHURN = smoke_scaled(((200, 2_000), 6_000), SCALING_SMOKE)
SCALING_GROUP_SIZE = 25
SCALING_CEILING = 2.0


def make_stream(length=STREAM_LENGTH, seed=5):
    generator = StreamGenerator(
        SCHEMA,
        domains={"G": list(range(GROUPS)), "S": SCORES},
        seed=seed,
        delete_fraction=DELETE_FRACTION,
    )
    stream = generator.generate(length)
    return generator, stream


def direct_min(rows):
    expected = {}
    for group, score in rows:
        value = MIN_PLUS.coerce(score)
        expected[(group,)] = MIN_PLUS.add(expected.get((group,), MIN_PLUS.zero), value)
    return {key: value for key, value in expected.items() if not MIN_PLUS.is_zero(value)}


def measure_min_maintenance(stream_length=None, repeats=1):
    """MIN under deletion churn: incremental per-update cost vs naive.

    Returns the machine-readable record ``run_experiments.py --json`` exports:
    per-engine seconds and updates/s over the full stream, naive sample
    timings against the warmed database, and the per-backend speedups.
    """
    if stream_length is None:
        stream_length = STREAM_LENGTH
    generator, stream = make_stream(stream_length)
    expected = direct_min(generator.live_tuples("P"))

    record = {"stream_length": stream_length, "delete_fraction": DELETE_FRACTION,
              "engines": {}}
    for backend in ("generated", "interpreted"):
        best = float("inf")
        for _ in range(repeats):
            engine = RecursiveIVM(QUERY, SCHEMA, ring=MIN_PLUS, backend=backend)
            started = time.perf_counter()
            engine.apply_all(stream)
            best = min(best, time.perf_counter() - started)
            assert result_as_mapping(engine.result(), MIN_PLUS) == expected, backend
        record["engines"][backend] = {
            "seconds": best,
            "per_update_s": best / len(stream),
            "updates_per_s": len(stream) / best,
        }

    # Naive re-evaluation priced against the same warmed database: bootstrap
    # from the post-stream state, then time a churn sample at that size.
    warm_db = Database(schema=SCHEMA, ring=MIN_PLUS)
    warm_db.apply_all(stream.updates)
    naive = NaiveReevaluation(QUERY, SCHEMA, ring=MIN_PLUS)
    naive.bootstrap(warm_db)
    sample = generator.generate(NAIVE_SAMPLE).updates
    started = time.perf_counter()
    for update in sample:
        naive.apply(update)
    naive_seconds = time.perf_counter() - started
    record["naive"] = {
        "sample_updates": len(sample),
        "per_update_s": naive_seconds / len(sample),
        "updates_per_s": len(sample) / naive_seconds,
    }
    for backend, row in record["engines"].items():
        row["speedup_vs_naive"] = record["naive"]["per_update_s"] / row["per_update_s"]
    return record


def scaling_stream(groups, churn, seed=7):
    """A warm-up of ``SCALING_GROUP_SIZE`` rows per group, then ``churn``
    updates over those groups: ``DELETE_FRACTION`` deletions, every other one
    of a group's current minimum (so supports keep running dry)."""
    rng = random.Random(seed)
    live = {
        group: [rng.choice(SCORES) for _ in range(SCALING_GROUP_SIZE)] for group in range(groups)
    }
    warm = [insert("P", group, score) for group, scores in live.items() for score in scores]
    updates = []
    for _ in range(churn):
        group = rng.randrange(groups)
        scores = live[group]
        if scores and rng.random() < DELETE_FRACTION:
            score = min(scores) if rng.random() < 0.5 else rng.choice(scores)
            scores.remove(score)
            updates.append(delete("P", group, score))
        else:
            score = rng.choice(SCORES)
            scores.append(score)
            updates.append(insert("P", group, score))
    rows = [(group, score) for group, scores in live.items() for score in scores]
    return warm, updates, rows


def measure_state_scaling(groups=SCALING_GROUPS, churn=SCALING_CHURN, repeats=3):
    """One churn stream against a small relation and a 10x larger one.

    Returns, per executor, the per-tuple churn throughput at both sizes and
    their ratio (small / large; ≈ 1 when recovery costs the group).
    """
    small, large = groups
    warm, updates, rows = scaling_stream(small, churn)
    rng = random.Random(11)
    ballast = [
        (group, rng.choice(SCORES))
        for group in range(small, large)
        for _ in range(SCALING_GROUP_SIZE)
    ]
    record = {
        "groups": [small, large],
        "group_size": SCALING_GROUP_SIZE,
        "churn": churn,
        "engines": {},
    }
    for backend in ("generated", "interpreted"):
        rates = []
        for extra in ([], ballast):
            expected = direct_min(rows + extra)
            best = float("inf")
            for _ in range(repeats):
                engine = RecursiveIVM(QUERY, SCHEMA, ring=MIN_PLUS, backend=backend)
                engine.apply_batch(warm + [insert("P", *row) for row in extra])
                started = time.perf_counter()
                engine.apply_all(updates)
                best = min(best, time.perf_counter() - started)
                assert result_as_mapping(engine.result(), MIN_PLUS) == expected, backend
            rates.append(len(updates) / best)
        record["engines"][backend] = {
            "small_updates_per_s": rates[0],
            "large_updates_per_s": rates[1],
            "state_scaling_ratio": rates[0] / rates[1],
        }
    return record


# ---------------------------------------------------------------------------
# pytest entry points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ring_name", ["min-plus", "max-plus", "top3"])
def test_lattice_maintenance_matches_direct_evaluation(ring_name):
    """Correctness guard riding along with the benchmark: the churn stream's
    final state matches direct evaluation on both compiled executors."""
    ring = resolve_semiring(ring_name)
    generator, stream = make_stream(smoke_scaled(2_000, 600))
    expected = {}
    for group, score in generator.live_tuples("P"):
        value = ring.coerce(score)
        expected[(group,)] = ring.add(expected.get((group,), ring.zero), value)
    expected = {key: value for key, value in expected.items() if not ring.is_zero(value)}
    for backend in ("generated", "interpreted"):
        engine = RecursiveIVM(QUERY, SCHEMA, ring=ring, backend=backend)
        engine.apply_all(stream)
        assert result_as_mapping(engine.result(), ring) == expected, backend


def test_min_maintenance_beats_naive_by_10x():
    """The E15 acceptance check: >= 10x naive per-update throughput at 10k
    updates with deletion churn, on both compiled executors."""
    if SMOKE:
        pytest.skip("timing assertion disabled in smoke mode")
    record = measure_min_maintenance()
    for backend, row in record["engines"].items():
        assert row["speedup_vs_naive"] >= SPEEDUP_FLOOR, (
            f"MIN maintenance on the {backend} backend is only "
            f"{row['speedup_vs_naive']:.1f}x naive re-evaluation "
            f"(expected >= {SPEEDUP_FLOOR}x at {record['stream_length']} updates)"
        )


def test_support_recovery_does_not_scale_with_the_relation():
    """The E15 state-scaling row: the same churn at 10x the groups costs the
    same (loose ceiling — the exact claim is counted in the tier-1 suite)."""
    record = measure_state_scaling()
    for backend, row in record["engines"].items():
        assert row["state_scaling_ratio"] <= SCALING_CEILING, (
            f"MIN churn on the {backend} backend is {row['state_scaling_ratio']:.2f}x slower "
            f"at {record['groups'][1]} groups than at {record['groups'][0]}"
        )


# ---------------------------------------------------------------------------
# Standalone mode (CI smoke + quick local table)
# ---------------------------------------------------------------------------


def main(argv):
    smoke = "--smoke" in argv or SMOKE
    length = 1_500 if smoke else STREAM_LENGTH
    record = measure_min_maintenance(stream_length=length)
    print(
        f"MIN (min-plus) under deletion churn: {record['stream_length']} updates, "
        f"delete fraction {record['delete_fraction']}"
    )
    print(f"{'engine':24s} {'per-update':>12s} {'updates/s':>12s} {'vs naive':>10s}")
    for backend, row in record["engines"].items():
        print(
            f"recursive-{backend:14s} {row['per_update_s'] * 1e6:10.1f}µs "
            f"{row['updates_per_s']:10.0f}/s {row['speedup_vs_naive']:8.1f}x"
        )
    naive = record["naive"]
    print(
        f"{'naive (sample)':24s} {naive['per_update_s'] * 1e6:10.1f}µs "
        f"{naive['updates_per_s']:10.0f}/s"
    )
    if not smoke:
        worst = min(row["speedup_vs_naive"] for row in record["engines"].values())
        print(f"worst incremental speedup: {worst:.1f}x (asserted >= {SPEEDUP_FLOOR}x)")
        assert worst >= SPEEDUP_FLOOR
    scaling = measure_state_scaling(*SCALING_SMOKE) if smoke else measure_state_scaling()
    small, large = scaling["groups"]
    print(
        f"state scaling: the same {scaling['churn']}-update churn at {small} and {large} "
        f"groups of {scaling['group_size']}"
    )
    print(f"{'engine':24s} {f'{small} groups':>14s} {f'{large} groups':>14s} {'ratio':>8s}")
    for backend, row in scaling["engines"].items():
        print(
            f"recursive-{backend:14s} {row['small_updates_per_s']:12.0f}/s "
            f"{row['large_updates_per_s']:12.0f}/s {row['state_scaling_ratio']:7.2f}x"
        )
    worst = max(row["state_scaling_ratio"] for row in scaling["engines"].values())
    assert worst <= SCALING_CEILING, worst
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
