"""Classical first-order incremental view maintenance (the literature baseline).

This is the approach the paper's introduction contrasts against: materialize
the query result ``Q(D)`` only, and on each update ``u`` evaluate the delta
query ``∆Q(D, u)`` against the stored base relations, then fold it into the
materialized result.  The delta query is a regular query — typically one join
shallower than ``Q`` — so per-update cost still grows with the database size,
unlike the recursive scheme.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Sequence, Tuple

from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.core.ast import Expr
from repro.core.delta import UpdateEvent, delta
from repro.core.semantics import evaluate
from repro.core.simplify import simplify
from repro.core.variables import all_variables
from repro.gmr.database import Database, Update
from repro.ivm.base import IVMEngine


class ClassicalIVM(IVMEngine):
    """First-order IVM: keep the database, evaluate ``∆Q`` on it per update."""

    name = "classical"

    def __init__(
        self,
        query: Expr,
        schema: Mapping[str, Sequence[str]],
        ring: Semiring = INTEGER_RING,
    ):
        super().__init__(query, schema)
        self.ring = ring
        self.db = Database(schema=self.schema, ring=ring)
        self._materialized: Dict[Tuple[Any, ...], Any] = {}
        # Pre-derive the symbolic delta query per (relation, sign) once; at
        # update time only the update values are bound into it.  Deletion
        # deltas negate, so a proper semiring cannot take this route at all:
        # the engine degrades to recompute-and-diff per update — per-update
        # cost grows with |D| (documented, and exactly the degradation the
        # recursive engine's maintenance strategies avoid), but it stays a
        # valid cross-validation oracle.
        self._delta_queries: Dict[Tuple[str, int], Tuple[Expr, Tuple[str, ...]]] = {}
        self._recompute_fallback = not ring.is_ring
        if not self._recompute_fallback:
            for relation, columns in self.schema.items():
                for sign in (1, -1):
                    event = UpdateEvent.symbolic(sign, relation, len(columns))
                    raw = delta(self.query, event)
                    keep = set(self.query.group_vars) | set(event.argument_names) | all_variables(self.query)
                    simplified = simplify(raw, bound_vars=event.argument_names, needed_vars=keep)
                    self._delta_queries[(relation, sign)] = (simplified, event.argument_names)

    def bootstrap(self, db: Database) -> None:
        """Adopt an existing database and materialize the current result."""
        self.db = db.copy()
        self._materialized = self._evaluate_full()

    # -- engine interface ---------------------------------------------------------------

    def _apply(self, update: Update) -> None:
        if self._recompute_fallback:
            self.db.apply(update)
            previous = self._materialized
            self._materialized = self._evaluate_full()
            if self._pending_changes is not None:
                self._diff_into_pending(previous, self._materialized)
            return
        delta_query, argument_names = self._delta_queries[(update.relation, update.sign)]
        from repro.gmr.records import Record

        bindings = Record.from_values(argument_names, update.values)
        increments = evaluate(delta_query, self.db, bindings)
        group_vars = self.query.group_vars
        for record, value in increments.items():
            if self.ring.is_zero(value):
                # A zero increment touches no group, so it needs no key — and a
                # partially-cancelled delta may legitimately produce records
                # that do not bind every group-by variable.
                continue
            key = tuple(self._group_value(name, record, bindings) for name in group_vars)
            if self._pending_changes is not None:
                self._record_change(key, value)
            new_value = self.ring.add(self._materialized.get(key, self.ring.zero), value)
            if self.ring.is_zero(new_value):
                self._materialized.pop(key, None)
            else:
                self._materialized[key] = new_value
        # The base relations must stay current for the next delta evaluation.
        self.db.apply(update)

    def _apply_batch(self, updates) -> None:
        """In recompute-fallback mode the whole batch lands before one diff."""
        if not self._recompute_fallback:
            super()._apply_batch(updates)
            return
        for update in updates:
            self.db.apply(update)
        previous = self._materialized
        self._materialized = self._evaluate_full()
        if self._pending_changes is not None:
            self._diff_into_pending(previous, self._materialized)

    def _diff_into_pending(self, previous, current) -> None:
        """Semiring change capture: post-update value per changed group,
        ``ring.zero`` marking a removed one (the compiled executors' contract)."""
        zero = self.ring.zero
        for key in previous.keys() | current.keys():
            if previous.get(key, zero) != current.get(key, zero):
                self._pending_changes[key] = current.get(key, zero)

    @staticmethod
    def _group_value(name: str, record, bindings):
        """The value of one group-by variable for a (non-zero) delta increment.

        Looked up in the increment record first, then in the update bindings;
        a variable found in neither means the delta query was not
        range-restricted over it, which is reported as the typed
        :class:`UnboundVariableError` instead of a bare ``KeyError``.
        """
        if name in record:
            return record[name]
        if name in bindings:
            return bindings[name]
        from repro.core.errors import UnboundVariableError

        raise UnboundVariableError(name)

    def result(self) -> Any:
        if not self.query.group_vars:
            return self._materialized.get((), self.ring.zero)
        return dict(self._materialized)

    # -- helpers ----------------------------------------------------------------------------

    def _evaluate_full(self) -> Dict[Tuple[Any, ...], Any]:
        result = evaluate(self.query, self.db)
        materialized: Dict[Tuple[Any, ...], Any] = {}
        for record, value in result.items():
            key = record.values_for(self.query.group_vars)
            if not self.ring.is_zero(value):
                materialized[key] = value
        return materialized
