"""Per-tuple ``Session.apply`` against the one-update batch, update by update.

``Session.apply(u)`` runs the event's trigger on the one-row delta map
without opening a transaction, feeds the support tier itself and folds the
generated module's work counters inline.  ``Session.apply_batch([u])`` runs
the same trigger through the batch path.  Two twin sessions fed the same
seeded trace, one each way, must agree after every update: equal results,
equal ``on_change`` payloads, and equal work counters.  The semiring cases
(min-plus, top-3) feed the support tier on every update.
"""

import random

import pytest

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, resolve_semiring
from repro.gmr.database import delete, insert
from repro.session import COMPILED_BACKENDS, Session

SCHEMA = {"R": ("a", "b"), "S": ("c", "d")}

#: Views over every ring: a grouped sum, a scalar sum, and a join whose
#: partially bound ``S`` read goes through a slice index.
VIEWS = {
    "by_a": "AggSum([a], R(a, b) * b)",
    "total": "AggSum([], R(a, b) * b)",
    "join": "AggSum([a], R(a, b) * S(b, d) * d)",
}
#: Over a ring also a bare count: a fused ``total`` event (Kahan-compensated
#: over the float field).
RING_VIEWS = dict(VIEWS, count="AggSum([], R(a, b))")

#: ``(ring, views, values)``: float values are dyadic, so every sum is exact
#: whatever order it is folded in.
RINGS = {
    "Z": (INTEGER_RING, RING_VIEWS, [1, 2, 3, 5]),
    "dyadic-float": (FLOAT_FIELD, RING_VIEWS, [0.5, 1.25, 2.0, 3.75]),
    "min-plus": (resolve_semiring("min-plus"), VIEWS, [1.0, 2.0, 3.0, 5.0]),
    "top3": (resolve_semiring("top3"), VIEWS, [1.0, 2.0, 3.0, 5.0]),
}

COUNTERS = ("updates_processed", "statements_executed", "entries_updated")


def seeded_trace(values, length=160, seed=44):
    """Inserts and deletes of live tuples over ``R`` and ``S``; join keys
    and data values come from small pools so groups collide and empty out."""
    rng = random.Random(seed)
    live = {"R": [], "S": []}
    trace = []
    for _ in range(length):
        relation = rng.choice(("R", "R", "S"))
        rows = live[relation]
        if rows and rng.random() < 0.4:
            trace.append(delete(relation, *rows.pop(rng.randrange(len(rows)))))
        else:
            if relation == "R":
                row = (rng.randrange(4), rng.randrange(3))
            else:
                row = (rng.randrange(3), rng.choice(values))
            rows.append(row)
            trace.append(insert(relation, *row))
    return trace


def twin(ring, views, backend):
    session = Session(SCHEMA, ring=ring)
    payloads = []
    for name, query in views.items():
        session.view(name, query, backend=backend).on_change(
            lambda payload, name=name: payloads.append((name, sorted(payload.items())))
        )
    return session, payloads


def counters(session, backend):
    statistics = session._groups[backend].statistics
    return {name: getattr(statistics, name) for name in COUNTERS}


@pytest.mark.parametrize("ring_name", list(RINGS))
@pytest.mark.parametrize("backend", COMPILED_BACKENDS)
def test_apply_equals_a_one_update_batch_after_every_update(backend, ring_name):
    ring, views, values = RINGS[ring_name]
    single, single_payloads = twin(ring, views, backend)
    batched, batched_payloads = twin(ring, views, backend)
    for step, update in enumerate(seeded_trace(values)):
        single.apply(update)
        batched.apply_batch([update])
        where = (backend, ring_name, step, update)
        assert single.results() == batched.results(), where
        assert single_payloads == batched_payloads, where
        assert counters(single, backend) == counters(batched, backend), where
    assert counters(single, backend)["updates_processed"] == step + 1
    assert single_payloads, "the trace must change the views"
