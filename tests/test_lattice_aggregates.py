"""Randomized lattice-aggregate maintenance properties.

MIN/MAX (tropical semirings) and top-k flow through the whole stack now, so
the same cross-validation discipline as :mod:`tests.test_ivm_property`
applies: every backend — naive re-evaluation, classical (recompute-and-diff
fallback), and the recursive engine under the interpreted and the generated
executor — must match *direct evaluation over the live multiset* on every
checked prefix of randomized insert/delete streams.  Deletions are the whole
point: none of these structures has an additive inverse, so agreement proves
the maintenance plan (integer counters + tracked recomputes + support
sidecars) rather than delta folding.

Also covered, at the session layer: CDC payload equivalence (a shadow built
by overwrite-or-drop replay equals the live result), mid-trace
snapshot/restore, and batched application.
"""

import random

import pytest

from repro.algebra.semirings import resolve_semiring
from repro.core.parser import parse
from repro.ivm.base import result_as_mapping, results_agree
from repro.ivm.classical import ClassicalIVM
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM
from repro.session import Session
from repro.workloads.streams import StreamGenerator

SCHEMA = {"P": ("G", "S")}
QUERY = "AggSum([g], P(g, s) * s)"

JOIN_SCHEMA = {"P": ("G", "K"), "Q": ("K", "S")}
JOIN_QUERY = "AggSum([g], P(g, k) * Q(k, s) * s)"

#: Scores drawn as floats so tropical arithmetic stays in one type.
SCORES = [float(v) for v in range(1, 13)]

LATTICE_RINGS = ["min-plus", "max-plus", "top3", "top2-min"]


def lattice_engines(ring):
    """All four execution strategies over an explicit coefficient structure."""
    return {
        "naive": lambda query, schema: NaiveReevaluation(query, schema, ring=ring),
        "classical": lambda query, schema: ClassicalIVM(query, schema, ring=ring),
        "interpreted": lambda query, schema: RecursiveIVM(
            query, schema, ring=ring, backend="interpreted"
        ),
        "generated": lambda query, schema: RecursiveIVM(
            query, schema, ring=ring, backend="generated"
        ),
    }


def direct_single(ring, rows):
    """Fold the live ``P(g, s)`` multiset directly: ``{(g,): ⊕ coerce(s)}``."""
    expected = {}
    for group, score in rows:
        value = ring.coerce(score)
        expected[(group,)] = ring.add(expected.get((group,), ring.zero), value)
    return {key: value for key, value in expected.items() if not ring.is_zero(value)}


def direct_join(ring, p_rows, q_rows):
    """Direct evaluation of the join query over the live multisets."""
    expected = {}
    for group, key in p_rows:
        for other, score in q_rows:
            if key != other:
                continue
            value = ring.coerce(score)
            expected[(group,)] = ring.add(expected.get((group,), ring.zero), value)
    return {key: value for key, value in expected.items() if not ring.is_zero(value)}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("ring_name", LATTICE_RINGS)
def test_backends_match_direct_evaluation_under_churn(ring_name, seed):
    ring = resolve_semiring(ring_name)
    query = parse(QUERY)
    engines = {
        name: factory(query, SCHEMA) for name, factory in lattice_engines(ring).items()
    }
    generator = StreamGenerator(
        SCHEMA,
        domains={"S": SCORES},
        seed=seed * 71 + 5,
        default_domain_size=5,
        delete_fraction=0.35,
    )
    stream = generator.generate(160)
    assert stream.delete_count() > 0, "lattice property streams must mix deletions in"
    live = []  # the stream is pre-generated; track the prefix multiset ourselves
    for position, update in enumerate(stream):
        live.append(update.values) if update.is_insert else live.remove(update.values)
        for engine in engines.values():
            engine.apply(update)
        if position % 9 == 0 or position == len(stream) - 1:
            expected = direct_single(ring, live)
            for name, engine in engines.items():
                assert results_agree(expected, engine.result(), ring=ring), (
                    f"{ring_name}/{name} diverges from direct evaluation after "
                    f"update #{position}: {update!r}"
                )


@pytest.mark.parametrize("ring_name", ["min-plus", "top3"])
def test_backends_match_direct_evaluation_on_joins(ring_name):
    """Joins force the tracked-recompute path (no direct support shape)."""
    ring = resolve_semiring(ring_name)
    query = parse(JOIN_QUERY)
    engines = {
        name: factory(query, JOIN_SCHEMA)
        for name, factory in lattice_engines(ring).items()
    }
    generator = StreamGenerator(
        JOIN_SCHEMA,
        domains={"S": SCORES},
        seed=37,
        default_domain_size=4,
        delete_fraction=0.3,
    )
    stream = generator.generate(140)
    assert stream.delete_count() > 0
    live = {"P": [], "Q": []}
    for position, update in enumerate(stream):
        rows = live[update.relation]
        rows.append(update.values) if update.is_insert else rows.remove(update.values)
        for engine in engines.values():
            engine.apply(update)
        if position % 11 == 0 or position == len(stream) - 1:
            expected = direct_join(ring, live["P"], live["Q"])
            for name, engine in engines.items():
                assert results_agree(expected, engine.result(), ring=ring), (
                    f"{ring_name}/{name} diverges on the join after "
                    f"update #{position}: {update!r}"
                )


@pytest.mark.parametrize("ring_name", LATTICE_RINGS)
def test_batched_application_matches_sequential(ring_name):
    """Random batch sizes agree with one-at-a-time application (both executors)."""
    ring = resolve_semiring(ring_name)
    query = parse(QUERY)
    rng = random.Random(23)
    generator = StreamGenerator(
        SCHEMA, domains={"S": SCORES}, seed=61, default_domain_size=5, delete_fraction=0.3
    )
    stream = generator.generate(150)
    expected = direct_single(ring, generator.live_tuples("P"))
    for backend in ("interpreted", "generated"):
        engine = RecursiveIVM(query, SCHEMA, ring=ring, backend=backend)
        position = 0
        while position < len(stream):
            size = rng.randint(1, 30)
            engine.apply_batch(stream.updates[position : position + size])
            position += size
        assert results_agree(expected, engine.result(), ring=ring), backend


def _shadow_callback(ring, shadow):
    """Overwrite-or-drop replay: the semiring CDC contract."""

    def callback(changes):
        for key, value in changes.items():
            if ring.is_zero(value):
                shadow.pop(key, None)
            else:
                shadow[key] = value

    return callback


@pytest.mark.parametrize("ring_name", ["min-plus", "max-plus", "top3"])
def test_session_cdc_shadows_reconstruct_every_backend(ring_name):
    """One session with a view per compiled backend, and the classical and
    naive engines standalone beside it, a shadow each: after a full
    from-empty trace every shadow equals its view's (engine's) result
    mapping — the CDC payloads carry post-update values with ``ring.zero``
    marking removal."""
    ring = resolve_semiring(ring_name)
    session = Session(SCHEMA, ring=ring)
    subjects = {
        backend: session.view(f"v_{backend}", QUERY, backend=backend)
        for backend in ("generated", "interpreted")
    }
    engines = {
        "classical": ClassicalIVM(parse(QUERY), SCHEMA, ring=ring),
        "naive": NaiveReevaluation(parse(QUERY), SCHEMA, ring=ring),
    }
    subjects.update(engines)
    shadows = {name: {} for name in subjects}
    for name, subject in subjects.items():
        subject.on_change(_shadow_callback(ring, shadows[name]))
    generator = StreamGenerator(
        SCHEMA, domains={"S": SCORES}, seed=91, default_domain_size=5, delete_fraction=0.35
    )
    stream = generator.generate(130)
    assert stream.delete_count() > 0
    for update in stream:
        session.apply(update)
        for engine in engines.values():
            engine.apply(update)
    expected = direct_single(ring, generator.live_tuples("P"))
    for name, subject in subjects.items():
        assert result_as_mapping(subject.result(), ring) == expected, name
        assert shadows[name] == expected, f"{ring_name}/{name} CDC shadow diverged"


@pytest.mark.parametrize("ring_name", ["min-plus", "top3"])
def test_snapshot_restore_mid_trace(ring_name):
    """Snapshot mid-churn, restore, finish the trace on both sessions:
    identical results, both equal to direct evaluation."""
    ring = resolve_semiring(ring_name)
    session = Session(SCHEMA, ring=ring)
    session.view("gen", QUERY, backend="generated")
    session.view("interp", QUERY, backend="interpreted")
    generator = StreamGenerator(
        SCHEMA, domains={"S": SCORES}, seed=17, default_domain_size=5, delete_fraction=0.3
    )
    stream = generator.generate(120)
    for update in stream.updates[:60]:
        session.apply(update)
    snapshot = session.snapshot()
    restored = Session.restore(snapshot)
    for update in stream.updates[60:]:
        session.apply(update)
        restored.apply(update)
    expected = direct_single(ring, generator.live_tuples("P"))
    for label, candidate in (("original", session), ("restored", restored)):
        for view_name in ("gen", "interp"):
            view = candidate.views[view_name]
            assert view.result_mapping() == expected, f"{label}/{view_name}"


def test_untracked_noninvertible_lint_fires_on_a_gutted_plan():
    """The CI lint rule actually detects a map whose deletion story is missing."""
    from repro.algebra.semirings import MIN_PLUS
    from repro.analysis.ir_lint import lint_program
    from repro.compiler.compile import compile_query

    program = compile_query(parse(QUERY), SCHEMA, name="v", ring=MIN_PLUS)
    assert not [
        finding
        for finding in lint_program(program)
        if finding.kind == "untracked-noninvertible"
    ], "a freshly compiled plan must be clean"
    # Gut the plan: pretend the result map has no strategy at all.
    program.maintenance.strategies.pop("v", None)
    kinds = [finding.kind for finding in lint_program(program)]
    assert "untracked-noninvertible" in kinds
