"""The paper's engine: recursive delta processing over a view hierarchy.

``RecursiveIVM`` compiles the query once (``repro.compiler``), keeps the whole
hierarchy of auxiliary maps materialized, and applies each single-tuple update
with a constant number of map operations per maintained value.  The base
relations themselves are never stored or consulted after initialization.

Two execution back ends are available:

* ``backend="interpreted"`` — trigger statements are evaluated through the
  AGCA evaluator (reference semantics, easiest to inspect);
* ``backend="generated"`` — trigger statements run as generated straight-line
  Python (:mod:`repro.compiler.codegen`), the analogue of the paper's NC⁰C
  output and considerably faster.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Sequence

from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.compiler.codegen import GeneratedTriggers, generate_python
from repro.compiler.compile import compile_query
from repro.compiler.executor import CompiledExecutor
from repro.compiler.runtime import TriggerRuntime
from repro.compiler.triggers import TriggerProgram
from repro.core.ast import Expr
from repro.gmr.database import Database, Update
from repro.ivm.base import IVMEngine


class RecursiveIVM(IVMEngine):
    """Higher-order (recursive-delta) incremental view maintenance."""

    name = "recursive"

    def __init__(
        self,
        query: Expr,
        schema: Mapping[str, Sequence[str]],
        ring: Semiring = INTEGER_RING,
        backend: str = "interpreted",
        map_name: str = "q",
        shards: Optional[int] = None,
        shard_backend: Optional[str] = None,
        normalize: Optional[bool] = None,
        verify: bool = True,
        specialize: bool = True,
    ):
        super().__init__(query, schema)
        if backend not in ("interpreted", "generated"):
            raise ValueError("backend must be 'interpreted' or 'generated'")
        self.ring = ring
        self.backend = backend
        # Ring normal form reorders products — an equivalence only over
        # commutative coefficient structures, so it defaults off for others.
        if normalize is None:
            normalize = ring.commutative
        # Passing the ring attaches a maintenance plan for proper semirings
        # (counter maps, tracked recomputes, support structures); rings with
        # additive inverses compile exactly as before.
        self.program: TriggerProgram = compile_query(
            self.query, self.schema, name=map_name, verify=verify, normalize=normalize,
            ring=ring,
        )
        # shards > 1 hash-partitions the map tables so batch folds run per
        # shard (repro.compiler.partition); the default (None -> REPRO_SHARDS
        # -> 1) keeps plain dict tables and the pre-sharding code path.
        # shard_backend picks the partition tier's execution backend
        # ("inline"/"thread"/"process", None -> REPRO_SHARD_BACKEND).
        # specialize=False pins both compiled executors to the generic batch
        # loop; otherwise the lowered batch plan (repro.compiler.plan) decides
        # per program — non-integer rings keep the generic path regardless.
        self.runtime = TriggerRuntime(
            self.program, ring=ring, shards=shards, shard_backend=shard_backend,
            specialize=specialize,
        )
        self._generated: Optional[GeneratedTriggers] = None
        if backend == "generated":
            # The generated module's arithmetic is specialized to the ring
            # (native +/*/0 for the built-in integer and float structures,
            # ring.add/ring.mul/ring.zero otherwise); proper semirings
            # compile through their maintenance plan.  It executes the
            # triggers over the runtime's state; the executor pair host
            # does the gluing (support feeds, statistics, restore).
            self._generated = generate_python(self.program, ring=ring, specialize=specialize)
        self._executor = CompiledExecutor(self.runtime, self._generated)

    # -- initialization from an existing database --------------------------------------

    def bootstrap(self, db: Database) -> None:
        """Compute initial values of every map from an already-populated database."""
        self.runtime.bootstrap(db)

    def state_backup(self):
        """Plain-dict copies of every map table (sharded tables are merged),
        plus the work counters and the Kahan compensation store."""
        return self._executor.backup()

    def state_restore(self, backup) -> None:
        self._executor.restore(backup)
        self._pending_changes = None

    def close(self) -> None:
        """Shut the partition-tier backend down (stops process workers)."""
        self._executor.close()

    # -- engine interface -----------------------------------------------------------------

    def _change_hook(self):
        """The runtime/codegen change-collection argument for this engine.

        ``None`` unless an ``on_change`` subscriber is attached; otherwise the
        result map is watched and its per-key deltas land directly in the
        engine's pending-change accumulator.
        """
        if self._pending_changes is None:
            return None
        return {self.program.result_map: self._pending_changes}

    def _apply(self, update: Update) -> None:
        self._executor.apply(update, self._change_hook())

    def _apply_batch(self, updates) -> Optional[int]:
        """Batched application through the compiled batch triggers.

        See :meth:`repro.ivm.base.IVMEngine.apply_batch` for the contract.
        Each ``(relation, sign)`` group is pre-aggregated into a delta map and
        folded by the group's batch trigger — per-batch cost scales with the
        number of distinct keys touched, not the number of tuples.
        """
        return self._executor.apply_batch(updates, self._change_hook())

    def result(self) -> Any:
        return self.runtime.result()

    # -- introspection ------------------------------------------------------------------------

    def explain(self) -> str:
        """The compiled map hierarchy and triggers, as text."""
        return self.program.explain()

    def generated_source(self) -> Optional[str]:
        """The generated Python trigger module (``None`` for the interpreted backend)."""
        return self._generated.source if self._generated is not None else None

    def map_sizes(self) -> dict:
        return self.runtime.map_sizes()

    def total_map_entries(self) -> int:
        return self.runtime.total_map_entries()
