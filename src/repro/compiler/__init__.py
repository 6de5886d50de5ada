"""Compilation of AGCA queries to trigger programs over a materialized-map hierarchy.

* :mod:`repro.compiler.maps` — map (materialized view) definitions;
* :mod:`repro.compiler.triggers` — the trigger IR (statements over delta maps,
  triggers, programs);
* :mod:`repro.compiler.compile` — the recursive compiler (delta → simplify →
  factorize → materialize);
* :mod:`repro.compiler.plan` — the lowered batch plan both executors decode
  (specialization kinds, gates, arities — every batch-path decision, once);
* :mod:`repro.compiler.kernels` — the query-independent execution steps (fold,
  change capture, index upkeep, recompute write-back, the update loop);
* :mod:`repro.compiler.runtime` — interpreted trigger execution;
* :mod:`repro.compiler.codegen` — generation of straight-line Python trigger code
  (the paper's NC⁰C target, retargeted);
* :mod:`repro.compiler.executor` — the host gluing a runtime to its generated module;
* :mod:`repro.compiler.indexes` — secondary hash indexes for partially-bound
  map slices (keeps per-update cost proportional to matching entries);
* :mod:`repro.compiler.cost` — operation counting for the constant-work claims;
* :mod:`repro.compiler.normal_form` — ring normal form and AC-canonical
  identities for compiled statements and map definitions;
* :mod:`repro.compiler.verify` — the static trigger-IR verifier.
"""

from repro.compiler.compile import Compiler, compile_query
from repro.compiler.codegen import GeneratedTriggers, generate_python
from repro.compiler.cost import (
    CountingSemiring,
    OperationCounter,
    RuntimeStatistics,
    statement_cost_class,
)
from repro.compiler.indexes import IndexedMaps, SliceIndexes, compute_index_specs
from repro.compiler.maps import MapDefinition
from repro.compiler.normal_form import (
    ac_canonical_identity,
    ac_canonical_map_key,
    is_normalized,
    normalize_rhs,
    normalizes_to_zero,
)
from repro.compiler.runtime import TriggerRuntime
from repro.compiler.triggers import RecomputeStatement, TriggerProgram
from repro.compiler.verify import (
    IRVerificationError,
    Violation,
    iter_violations,
    verify_program,
)

__all__ = [
    "Compiler",
    "compile_query",
    "RecomputeStatement",
    "GeneratedTriggers",
    "generate_python",
    "CountingSemiring",
    "OperationCounter",
    "RuntimeStatistics",
    "IndexedMaps",
    "SliceIndexes",
    "compute_index_specs",
    "MapDefinition",
    "TriggerRuntime",
    "TriggerProgram",
    "statement_cost_class",
    "ac_canonical_identity",
    "ac_canonical_map_key",
    "is_normalized",
    "normalize_rhs",
    "normalizes_to_zero",
    "IRVerificationError",
    "Violation",
    "iter_violations",
    "verify_program",
]
