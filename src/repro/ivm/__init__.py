"""Incremental view maintenance engines.

* :class:`repro.ivm.recursive.RecursiveIVM` — the paper's recursive-delta scheme;
* :class:`repro.ivm.classical.ClassicalIVM` — classical first-order IVM baseline;
* :class:`repro.ivm.naive.NaiveReevaluation` — from-scratch re-evaluation baseline;
* :mod:`repro.ivm.comparison` — cross-validation and measurement helpers.
"""

from repro.ivm.base import (
    EngineStatistics,
    IVMEngine,
    SubscriberError,
    result_as_mapping,
    results_agree,
)
from repro.ivm.classical import ClassicalIVM
from repro.ivm.comparison import (
    DEFAULT_ENGINES,
    Disagreement,
    EngineMeasurement,
    cross_validate,
    measure_engines,
)
from repro.ivm.naive import NaiveReevaluation
from repro.ivm.recursive import RecursiveIVM

__all__ = [
    "IVMEngine",
    "EngineStatistics",
    "SubscriberError",
    "result_as_mapping",
    "results_agree",
    "RecursiveIVM",
    "ClassicalIVM",
    "NaiveReevaluation",
    "DEFAULT_ENGINES",
    "Disagreement",
    "EngineMeasurement",
    "cross_validate",
    "measure_engines",
]
