"""repro — reproduction of "Incremental Query Evaluation in a Ring of Databases".

The primary public API is the multi-view :class:`Session` facade (one
database, many materialized views, shared maps, change subscriptions); the
engine classes (:class:`RecursiveIVM`, :class:`ClassicalIVM`,
:class:`NaiveReevaluation`) remain available as the single-query low-level
layer.  See README.md for a quickstart.
"""

__version__ = "1.1.0"

from repro.session import MapCatalog, MaterializedView, Session

from repro.gmr import GMR, PGMR, Database, Delta, Record, Update, coalesce_updates, delete, insert
from repro.core import (
    AggSum,
    Assign,
    Compare,
    Const,
    MapRef,
    Mul,
    Neg,
    Rel,
    Sum,
    Var,
    UpdateEvent,
    degree,
    delta,
    delta_for_update,
    evaluate,
    meaning,
    parse,
    simplify,
    to_string,
)

from repro.algebra.semirings import Semiring, resolve_semiring
from repro.ingest import (
    BackpressureError,
    BackpressurePolicy,
    DeadLetterBatch,
    IngestClosedError,
    IngestPipeline,
    IngestQueue,
    IngestStats,
)
from repro.compiler import (
    Compiler,
    TriggerRuntime,
    compile_query,
    generate_python,
)
from repro.ivm import (
    ClassicalIVM,
    EngineStatistics,
    NaiveReevaluation,
    RecursiveIVM,
    cross_validate,
    measure_engines,
    result_as_mapping,
    results_agree,
)
from repro.sql import sql_to_agca

__all__ = [
    "__version__",
    "Session",
    "MaterializedView",
    "MapCatalog",
    "GMR",
    "PGMR",
    "Database",
    "Delta",
    "Record",
    "Update",
    "insert",
    "delete",
    "coalesce_updates",
    "IngestPipeline",
    "IngestQueue",
    "IngestStats",
    "BackpressurePolicy",
    "BackpressureError",
    "IngestClosedError",
    "DeadLetterBatch",
    "AggSum",
    "Assign",
    "Compare",
    "Const",
    "MapRef",
    "Mul",
    "Neg",
    "Rel",
    "Sum",
    "Var",
    "UpdateEvent",
    "degree",
    "delta",
    "delta_for_update",
    "evaluate",
    "meaning",
    "parse",
    "simplify",
    "to_string",
    "Compiler",
    "TriggerRuntime",
    "compile_query",
    "generate_python",
    "RecursiveIVM",
    "ClassicalIVM",
    "NaiveReevaluation",
    "EngineStatistics",
    "cross_validate",
    "measure_engines",
    "result_as_mapping",
    "results_agree",
    "sql_to_agca",
    "Semiring",
    "resolve_semiring",
]
