"""One host for the compiled executor pair.

A compiled program runs on a :class:`~repro.compiler.runtime.TriggerRuntime`
— which owns the state: map tables, slice indexes, the compensation store,
the support tier, the work counters — and, on the ``generated`` backend, a
:class:`~repro.compiler.codegen.GeneratedTriggers` module that executes the
triggers over that same state.  :class:`CompiledExecutor` is the glue between
the two, spelled out once: which of them applies an update, feeding the
support sidecars after a generated apply, folding the module's work counters
into the runtime's statistics, and the side effects of backup/restore.
:class:`~repro.ivm.recursive.RecursiveIVM` and the session's compiled groups
both delegate to it.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.compiler.codegen import GeneratedTriggers
from repro.compiler.runtime import TriggerRuntime
from repro.gmr.database import Update

Changes = Optional[Dict[str, Dict[Tuple[Any, ...], Any]]]


class CompiledExecutor:
    """A runtime and (optionally) the generated module driving its state."""

    def __init__(self, runtime: TriggerRuntime, generated: Optional[GeneratedTriggers] = None):
        self.runtime = runtime
        self.generated = generated

    # -- update processing ---------------------------------------------------------

    def apply(self, update: Update, changes: Changes = None) -> None:
        """Apply one single-tuple update on whichever executor owns the triggers."""
        runtime = self.runtime
        if self.generated is None:
            runtime.apply(update, changes=changes)
            return
        self.generated.apply(
            runtime.maps,
            update.relation,
            update.sign,
            update.values,
            indexes=runtime.indexes,
            changes=changes,
        )
        self._after_generated((update,), changes, 1)

    def apply_batch(self, updates: Sequence[Update], changes: Changes = None) -> Optional[int]:
        """Apply a batch; returns its tuple count when the executor computed it."""
        runtime = self.runtime
        if self.generated is None:
            runtime.apply_batch(updates, changes=changes)
            return None
        if runtime.has_supports and type(updates) is not list:
            updates = list(updates)  # iterated twice: triggers, then supports
        count = self.generated.apply_batch(
            runtime.maps, updates, indexes=runtime.indexes, changes=changes
        )
        self._after_generated(updates, changes, count)
        return count

    def _after_generated(self, updates: Iterable[Update], changes: Changes, count: int) -> None:
        """What the runtime's own entry points do after their triggers ran.

        The support sidecars (semiring top-k/min/max) are fed here — the
        module owns the triggers, the runtime owns the tier; post-trigger, so
        an exhausted support's rebuild sees the updated counters — and the
        module's work counters fold into the runtime's statistics.
        """
        self.runtime.feed_supports(updates, changes)
        statements, entries = self.generated.drain_statistics()
        statistics = self.runtime.statistics
        statistics.updates_processed += count
        statistics.statements_executed += statements
        statistics.entries_updated += entries

    # -- state ---------------------------------------------------------------------

    def backup(self, updates: Optional[Sequence[Update]] = None):
        """Copies of the map tables a batch could write (all tables if ``None``).

        Restricting the capture to the batch's writable maps keeps the
        transactional overhead proportional to the state *at risk*, not the
        whole hierarchy.  The work counters ride along so a rolled-back
        batch's partial work does not leak into the statistics, and so does
        the Kahan compensation store (one float per fused total): a rollback
        is exact, neither replaying the abandoned fold's term nor forgetting
        the ones earned before it.
        """
        runtime = self.runtime
        names = None if updates is None else runtime.writable_maps_for(updates)
        statistics = runtime.statistics
        counters = (
            statistics.updates_processed,
            statistics.statements_executed,
            statistics.entries_updated,
        )
        return runtime.backup_tables(names), counters, dict(runtime.maps.compensation)

    def restore(self, backup) -> None:
        """Reinstall a :meth:`backup`: tables (and with them the slice indexes
        and support sidecars), the compensation store, then the work counters;
        the module's pending counters of the abandoned work are dropped."""
        tables, counters, compensation = backup
        runtime = self.runtime
        runtime.restore_tables(tables)  # clears the compensation store
        runtime.maps.compensation.update(compensation)
        statistics = runtime.statistics
        (
            statistics.updates_processed,
            statistics.statements_executed,
            statistics.entries_updated,
        ) = counters
        if self.generated is not None:
            self.generated.drain_statistics()

    def close(self) -> None:
        """Shut the partition-tier backend down (stops process workers)."""
        if self.runtime.shard_backend is not None:
            self.runtime.shard_backend.close()
