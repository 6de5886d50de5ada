"""Naive baseline: re-evaluate the query from scratch after every update."""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.core.ast import Expr
from repro.core.semantics import evaluate
from repro.gmr.database import Database, Update
from repro.ivm.base import IVMEngine


class NaiveReevaluation(IVMEngine):
    """Apply the update to the stored database, then recompute ``Q(D)`` in full."""

    name = "naive"

    def __init__(
        self,
        query: Expr,
        schema: Mapping[str, Sequence[str]],
        ring: Semiring = INTEGER_RING,
    ):
        super().__init__(query, schema)
        self.ring = ring
        self.db = Database(schema=self.schema, ring=ring)
        self._result: Dict[Tuple[Any, ...], Any] = {}

    def bootstrap(self, db: Database) -> None:
        """Adopt an existing database and compute the current result."""
        self.db = db.copy()
        self._result = self._evaluate_full()

    def _apply(self, update: Update) -> None:
        self.db.apply(update)
        previous = self._result
        self._result = self._evaluate_full()
        if self._pending_changes is not None:
            self._diff_into_pending(previous, self._result)

    def _apply_batch(self, updates) -> None:
        """Apply the whole batch to the database, then re-evaluate once."""
        for update in updates:
            self.db.apply(update)
        previous = self._result
        self._result = self._evaluate_full()
        if self._pending_changes is not None:
            self._diff_into_pending(previous, self._result)

    def _diff_into_pending(self, previous, current) -> None:
        """Change capture by diffing: the engine recomputes anyway.

        Over a ring the payload is the delta ``current - previous``; over a
        proper semiring (no subtraction) it is the post-update value of each
        changed group, with ``ring.zero`` marking a removed group — the same
        contract the compiled executors follow.
        """
        zero = self.ring.zero
        delta_mode = self.ring.is_ring
        for key in previous.keys() | current.keys():
            before = previous.get(key, zero)
            after = current.get(key, zero)
            if before != after:
                if delta_mode:
                    self._record_change(key, self.ring.sub(after, before))
                else:
                    self._pending_changes[key] = after

    def result(self) -> Any:
        if not self.query.group_vars:
            return self._result.get((), self.ring.zero)
        return dict(self._result)

    def _evaluate_full(self) -> Dict[Tuple[Any, ...], Any]:
        evaluated = evaluate(self.query, self.db)
        result: Dict[Tuple[Any, ...], Any] = {}
        for record, value in evaluated.items():
            key = record.values_for(self.query.group_vars)
            if not self.ring.is_zero(value):
                result[key] = value
        return result
