"""One host for the compiled executor pair.

A compiled program runs on a :class:`~repro.compiler.runtime.TriggerRuntime`
— which owns the state: map tables, slice indexes, the compensation store,
the support tier, the work counters — and, on the ``generated`` backend, a
:class:`~repro.compiler.codegen.GeneratedTriggers` module that executes the
triggers over that same state.  :class:`CompiledExecutor` is the glue between
the two, spelled out once: which of them applies an update, feeding the
support sidecars after a generated apply, folding the module's work counters
into the runtime's statistics, and the two ways of getting state back.
:meth:`~CompiledExecutor.begin` / :meth:`~CompiledExecutor.commit` /
:meth:`~CompiledExecutor.rollback` is the transaction ``Session.apply_batch``
wraps every batch in: while one is open the kernels append the prior value of
every entry they write to an undo journal (:mod:`repro.compiler.kernels`) —
O(keys the batch touches) to keep, to drop and to replay, whatever the tables
hold.  :meth:`~CompiledExecutor.backup` / :meth:`~CompiledExecutor.restore`
are the wholesale O(stored entries) copy behind ``RecursiveIVM.state_backup``;
nothing on the batch path calls them.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Sequence, Tuple

from repro.compiler.codegen import GeneratedTriggers
from repro.compiler.kernels import UndoJournal
from repro.compiler.runtime import TriggerRuntime
from repro.gmr.database import Update

Changes = Optional[Dict[str, Dict[Tuple[Any, ...], Any]]]


class CompiledExecutor:
    """A runtime and (optionally) the generated module driving its state."""

    def __init__(self, runtime: TriggerRuntime, generated: Optional[GeneratedTriggers] = None):
        self.runtime = runtime
        self.generated = generated
        #: The open transaction's undo journal (``None`` outside one) and the
        #: work counters at its start.
        self._journal: Optional[UndoJournal] = None
        self._counters = (0, 0, 0)

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
        journal = self._journal
        if self.generated is None:
            runtime.apply_batch(updates, changes=changes, journal=journal)
            return None
        if runtime.has_supports and type(updates) is not list:
            updates = list(updates)  # iterated twice: triggers, then supports
        count = self.generated.apply_batch(
            runtime.maps, updates, indexes=runtime.indexes, changes=changes, journal=journal
        )
        self._after_generated(updates, changes, count, journal)
        return count

    def _after_generated(
        self,
        updates: Iterable[Update],
        changes: Changes,
        count: int,
        journal: Optional[UndoJournal] = None,
    ) -> None:
        """What the runtime's own entry points do after their triggers ran.

        The support sidecars (semiring top-k/min/max) are fed here — the
        module owns the triggers, the runtime owns the tier; post-trigger, so
        an exhausted support's rebuild sees the updated counters — and the
        module's work counters fold into the runtime's statistics.
        """
        self.runtime.feed_supports(updates, changes, journal)
        statements, entries = self.generated.drain_statistics()
        statistics = self.runtime.statistics
        statistics.updates_processed += count
        statistics.statements_executed += statements
        statistics.entries_updated += entries

    # -- transactions --------------------------------------------------------------

    def begin(self) -> None:
        """Open a transaction: batches applied from here on journal the prior
        value of every entry they write."""
        self._journal = UndoJournal()
        self._counters = self._work_counters()

    def commit(self) -> None:
        """Keep the transaction's writes: the journal is simply dropped."""
        self._journal = None

    def rollback(self) -> int:
        """Undo the transaction's writes; returns the number of journalled
        entries restored.  Table contents, slice-index buckets, compensation
        terms, support structures and the work counters return to their
        values at :meth:`begin`; dict insertion order is not state (a
        re-inserted key may move to the end)."""
        journal, self._journal = self._journal, None
        undone = journal.rollback(self.runtime.indexes.data)
        self._restore_work_counters(self._counters)
        return undone

    def _work_counters(self) -> Tuple[int, int, int]:
        statistics = self.runtime.statistics
        return (
            statistics.updates_processed,
            statistics.statements_executed,
            statistics.entries_updated,
        )

    def _restore_work_counters(self, counters: Tuple[int, int, int]) -> None:
        """Reset the work counters; the module's pending counters of the
        abandoned work are dropped."""
        statistics = self.runtime.statistics
        (
            statistics.updates_processed,
            statistics.statements_executed,
            statistics.entries_updated,
        ) = counters
        if self.generated is not None:
            self.generated.drain_statistics()

    # -- wholesale state copy ------------------------------------------------------

    def backup(self):
        """Copies of every map table (O(stored entries)), the work counters
        and the Kahan compensation store."""
        runtime = self.runtime
        return runtime.backup_tables(), self._work_counters(), dict(runtime.maps.compensation)

    def restore(self, backup) -> None:
        """Reinstall a :meth:`backup`: tables (and with them the slice indexes
        and support sidecars), the compensation store, then the work counters."""
        tables, counters, compensation = backup
        runtime = self.runtime
        runtime.restore_tables(tables)  # clears the compensation store
        runtime.maps.compensation.update(compensation)
        self._restore_work_counters(counters)

    def close(self) -> None:
        """Shut the partition-tier backend down (stops process workers)."""
        if self.runtime.shard_backend is not None:
            self.runtime.shard_backend.close()
