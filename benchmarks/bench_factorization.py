"""E5 — factorized vs unfactorized delta maintenance (Example 1.3).

For Q = SUM(A*F) over R ⋈ S ⋈ T, the delta with respect to ±S factorizes into
an R-side view and a T-side view, each linear in the active domain, instead of
one quadratic view.  This benchmark measures (a) the auxiliary-view space of
the compiled program as the active domain grows, asserting the linear shape,
and (b) per-update time against the classical baseline, which recomputes the
join factors from the stored relations.
"""

import pytest

from repro.compiler.compile import compile_query
from repro.compiler.runtime import TriggerRuntime
from repro.core.parser import parse
from repro.ivm.classical import ClassicalIVM
from repro.workloads.schemas import RST_SCHEMA
from repro.workloads.streams import StreamGenerator

from conftest import smoke_scaled

QUERY = parse("Sum(R(a, b) * S(c, d) * T(e, f) * (b = c) * (d = e) * a * f)")
PROGRAM = compile_query(QUERY, RST_SCHEMA, name="q")
DOMAINS = smoke_scaled([50, 100, 200], [50])


def populate(runtime_or_engine, domain_size, inserts):
    generator = StreamGenerator(RST_SCHEMA, seed=domain_size, default_domain_size=domain_size)
    stream = generator.generate_inserts(inserts)
    if isinstance(runtime_or_engine, TriggerRuntime):
        runtime_or_engine.apply_all(stream.updates)
    else:
        runtime_or_engine.apply_all(stream.updates)
    return generator


@pytest.mark.parametrize("domain_size", DOMAINS)
def test_auxiliary_view_space_is_linear_in_the_domain(benchmark, domain_size):
    """The S-delta views (sum(A) by B, sum(F) by E) stay linear in the active domain."""
    benchmark.group = "E5 view space"

    def build():
        runtime = TriggerRuntime(PROGRAM)
        populate(runtime, domain_size, inserts=4 * domain_size)
        return runtime

    runtime = benchmark(build)
    sizes = runtime.map_sizes()
    # Every level-1 view of the ±S trigger is keyed by a single attribute, so its
    # size is bounded by the active domain — not by its square.
    trigger = PROGRAM.trigger_for("S", 1)
    [q_statement] = [s for s in trigger.statements if s.target == "q"]
    for name in q_statement.maps_read():
        if name == trigger.delta_map:
            continue
        assert sizes[name] <= domain_size
        assert PROGRAM.maps[name].arity == 1


@pytest.mark.parametrize("domain_size", [100])
def test_factorized_update_cost(benchmark, domain_size):
    """Per-update cost of the factorized triggers (reads two map entries for ±S)."""
    benchmark.group = "E5 per-update"
    runtime = TriggerRuntime(PROGRAM)
    generator = populate(runtime, domain_size, inserts=3 * domain_size)
    updates = generator.generate(200, relations=["S"]).updates
    position = {"index": 0}

    def one_update():
        update = updates[position["index"] % len(updates)]
        position["index"] += 1
        runtime.apply(update)

    benchmark(one_update)


@pytest.mark.parametrize("domain_size", [100])
def test_unfactorized_classical_baseline(benchmark, domain_size):
    """Classical IVM evaluates the (un-factorized) ∆Q join against the stored relations."""
    benchmark.group = "E5 per-update"
    engine = ClassicalIVM(QUERY, RST_SCHEMA)
    generator = populate(engine, domain_size, inserts=3 * domain_size)
    updates = generator.generate(200, relations=["S"]).updates
    position = {"index": 0}

    def one_update():
        update = updates[position["index"] % len(updates)]
        position["index"] += 1
        engine.apply(update)

    benchmark(one_update)
