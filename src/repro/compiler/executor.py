"""One host for the compiled executor pair.

A compiled program runs on a :class:`~repro.compiler.runtime.TriggerRuntime`
— which owns the state: map tables, slice indexes, the compensation store,
the support tier, the work counters — and, on the ``generated`` backend, a
:class:`~repro.compiler.codegen.GeneratedTriggers` module that executes the
triggers over that same state.  :class:`CompiledExecutor` is the glue between
the two, spelled out once: which of them applies an update, feeding the
support sidecars after a generated apply, folding the module's work counters
into the runtime's statistics, and the transaction.
:meth:`~CompiledExecutor.begin` / :meth:`~CompiledExecutor.commit` /
:meth:`~CompiledExecutor.rollback` is the transaction ``Session.apply_batch``
wraps every batch in: while one is open the kernels append the prior value of
every entry they write to an undo journal (:mod:`repro.compiler.kernels`) —
O(keys the batch touches) to keep, to drop and to replay, whatever the tables
hold.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.compiler.codegen import GeneratedTriggers
from repro.compiler.kernels import UndoJournal
from repro.compiler.runtime import TriggerRuntime
from repro.gmr.database import Delta, Update

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
        #: Fixed for the pair's lifetime: whether the runtime keeps supports,
        #: and the module's pending work counters (its ``_STATS`` dict).
        self._supports = runtime.has_supports
        self._module_counters = generated._stats if generated is not None else None

    # -- update processing ---------------------------------------------------------

    def apply(self, update: Update, changes: Changes = None) -> None:
        """Apply one update on whichever executor owns the triggers: its
        relation's signed trigger runs on the one-row delta map
        ``{values: ±count}`` (a semiring's event trigger, on ``{values: count}``).

        After a generated apply the support sidecars are fed (when the
        runtime keeps any) and the module's work counters fold into the
        runtime's statistics, inline: at one tuple per call the glue around
        the trigger is what costs.
        """
        runtime = self.runtime
        generated = self.generated
        if generated is None:
            runtime.apply(update, changes=changes)
            return
        count = update.count
        generated.apply(
            runtime.maps,
            update.relation,
            update.sign,
            update.values,
            indexes=runtime.indexes,
            changes=changes,
            count=count,
        )
        if self._supports:
            runtime.feed_supports(
                Delta({update.relation: {update.values: update.sign * update.count}}), changes
            )
        counters = self._module_counters
        statistics = runtime.statistics
        statistics.updates_processed += count
        statistics.statements_executed += counters["statements"]
        statistics.entries_updated += counters["entries"]
        counters["statements"] = counters["entries"] = 0

    def apply_batch(self, delta: Delta, changes: Changes = None) -> int:
        """Apply a batch ``∆D``; returns its tuple count.

        After a generated apply the support sidecars are fed ``delta`` (the
        module owns the triggers, the runtime owns the tier; post-trigger, so
        an exhausted support's rebuild sees the updated counters) and the
        module's work counters fold into the runtime's statistics.
        """
        runtime = self.runtime
        journal = self._journal
        generated = self.generated
        if generated is None:
            return runtime.apply_batch(delta, changes=changes, journal=journal)
        count = generated.apply_batch(
            runtime.maps, delta, indexes=runtime.indexes, changes=changes, journal=journal
        )
        # Called even without supports (it returns at once): the e2e
        # benchmark's tracer meets the runtime's statistics at this boundary.
        runtime.feed_supports(delta, changes, journal)
        statements, entries = generated.drain_statistics()
        statistics = runtime.statistics
        statistics.updates_processed += count
        statistics.statements_executed += statements
        statistics.entries_updated += entries
        return count

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
