"""Common interface of the incremental view maintenance engines.

Three engines implement it:

* :class:`repro.ivm.recursive.RecursiveIVM` — the paper's technique
  (compiled trigger program over a hierarchy of materialized views);
* :class:`repro.ivm.classical.ClassicalIVM` — the classical first-order
  baseline (materialize only the query result, evaluate the first delta
  against the stored base relations on every update);
* :class:`repro.ivm.naive.NaiveReevaluation` — re-evaluate the query from
  scratch after every update.

All engines expose the same ``apply`` / ``result`` interface and comparable
timing/operation statistics, which is what the benchmarks and the
cross-validation tests rely on.  The two baselines run only standalone: a
:class:`repro.session.Session` hosts compiled views alone, and the tests
check its views against these engines fed the same stream.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Sequence, Tuple

from repro.algebra.semirings import INTEGER_RING
from repro.core.ast import AggSum, Expr
from repro.gmr.database import Update

#: A change-data-capture payload: group-key tuple -> (non-zero) ring delta.
Changes = Dict[Tuple[Any, ...], Any]
#: Signature of an ``on_change`` subscriber.
ChangeCallback = Callable[[Changes], None]


class SubscriberError(RuntimeError):
    """``on_change`` subscribers raised while a write was delivered.

    The write had committed: every view holds it and stays put.  Every
    subscriber was called, the raising ones included, and this one error
    follows the last call; ``errors`` holds each exception in call order.
    """

    def __init__(self, errors: Sequence[Exception]):
        self.errors = tuple(errors)
        details = "; ".join(f"{type(error).__name__}: {error}" for error in self.errors)
        super().__init__(
            f"the write committed, but {len(self.errors)} change subscriber call(s) "
            f"raised: {details}"
        )


@dataclass
class EngineStatistics:
    """Wall-clock and work counters shared by all engines."""

    updates_processed: int = 0
    seconds_in_updates: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    def seconds_per_update(self) -> float:
        if not self.updates_processed:
            return 0.0
        return self.seconds_in_updates / self.updates_processed


class IVMEngine(ABC):
    """Maintains the result of one aggregate query under single-tuple updates."""

    #: Short identifier used in benchmark tables.
    name: str = "engine"

    #: Coefficient structure; subclasses overwrite this in ``__init__``.
    ring = INTEGER_RING

    def __init__(self, query: Expr, schema: Mapping[str, Sequence[str]]):
        self.query = query if isinstance(query, AggSum) else AggSum((), query)
        self.schema = {relation: tuple(columns) for relation, columns in schema.items()}
        self.statistics = EngineStatistics()
        #: The subscribers, replaced (never mutated) by ``on_change`` /
        #: ``remove_on_change``, so a delivery walks the tuple it started with.
        self._change_callbacks: Tuple[ChangeCallback, ...] = ()
        #: Per-key result deltas collected during ``_apply``/``_apply_batch``
        #: when at least one subscriber is attached, ``None`` otherwise.
        self._pending_changes: Optional[Changes] = None

    # -- change-data-capture ---------------------------------------------------

    def on_change(self, callback: ChangeCallback) -> ChangeCallback:
        """Subscribe to result deltas.

        ``callback`` is invoked once per :meth:`apply` / :meth:`apply_batch`
        call that changed the result, with a mapping from group-key tuples to
        the (non-zero) ring delta of each changed aggregate value; for
        ungrouped queries the key is the empty tuple.  Callbacks run outside
        the timed section and must not mutate the engine.  Returns the
        callback so the method can be used as a decorator.

        A raising callback does not starve the others: every subscriber is
        called, then one :class:`SubscriberError` carrying each exception is
        raised from the update call — whose update has been applied.

        A subscription takes effect from the next update call: one made
        inside a callback does not receive the delta being delivered, and a
        callback removed during a delivery still receives that call's delta
        if it had not yet.
        """
        self._change_callbacks = self._change_callbacks + (callback,)
        return callback

    def remove_on_change(self, callback: ChangeCallback) -> None:
        """Unsubscribe a previously registered callback (from the next update
        call on, like :meth:`on_change`)."""
        callbacks = list(self._change_callbacks)
        callbacks.remove(callback)
        self._change_callbacks = tuple(callbacks)

    def _dispatch_changes(self) -> None:
        """Filter zero deltas out of the pending changes and notify subscribers.

        Over a proper semiring the payload carries *post-update values* (no
        additive inverse means no deltas) and ``ring.zero`` is the removal
        marker for a group that vanished — so nothing is filtered there.
        """
        pending, self._pending_changes = self._pending_changes, None
        if not pending:
            return
        if self.ring.is_ring:
            changes = {
                key: value for key, value in pending.items() if not self.ring.is_zero(value)
            }
        else:
            changes = pending
        if not changes:
            return
        errors: list = []
        for callback in self._change_callbacks:
            # Each subscriber gets its own copy: a callback that drains its
            # payload must not corrupt what sibling subscribers receive.
            try:
                callback(dict(changes))
            except Exception as error:
                errors.append(error)
        if errors:
            raise SubscriberError(errors)

    def _record_change(self, key: Tuple[Any, ...], value: Any) -> None:
        """Ring-add one delta into the pending changes (collection enabled)."""
        pending = self._pending_changes
        pending[key] = self.ring.add(pending.get(key, self.ring.zero), value)

    # -- the engine-specific parts ------------------------------------------------

    @abstractmethod
    def _apply(self, update: Update) -> None:
        """Process one update (timed by :meth:`apply`)."""

    def _apply_batch(self, updates: Sequence[Update]) -> None:
        """Process one batch (timed by :meth:`apply_batch`).

        The default applies the batch one update at a time, expanding net
        multiplicities (``Update.count``, the compact coalesced form) back
        into repeated single-tuple applications; engines override this when
        they can amortize work across the batch (the recursive engine runs
        one signed trigger per relation, naive re-evaluation recomputes the
        result once per batch).
        """
        for update in updates:
            if update.count == 1:
                self._apply(update)
            else:
                single = Update(update.sign, update.relation, update.values)
                for _ in range(update.count):
                    self._apply(single)

    @abstractmethod
    def result(self) -> Any:
        """The current query result: a scalar for ungrouped queries, else a dict."""

    # -- shared driver --------------------------------------------------------------

    def apply(self, update: Update) -> None:
        """Apply one single-tuple update, recording wall-clock time."""
        if update.count != 1:
            # Net multiplicities route through the batch path, which knows
            # how to fold (or expand) the count.
            self.apply_batch([update])
            return
        if self._change_callbacks:
            self._pending_changes = {}
        started = time.perf_counter()
        self._apply(update)
        self.statistics.seconds_in_updates += time.perf_counter() - started
        self.statistics.updates_processed += 1
        if self._pending_changes is not None:
            self._dispatch_changes()

    def apply_batch(self, updates: Iterable[Update]) -> None:
        """Apply a batch of single-tuple updates as one timed unit.

        Semantically equivalent to ``apply``-ing each update in turn (engines
        may regroup the batch internally — the recursive engine nets it into
        one signed delta map per relation; single-tuple updates over a ring
        commute, so the final result is unaffected), but the per-update fixed
        costs (timing, dispatch, map-table lookups) are paid once per batch or
        per group instead of once per tuple.  Intermediate results between the
        batch's updates are not observable.
        """
        updates = updates if isinstance(updates, (list, tuple)) else list(updates)
        if self._change_callbacks:
            self._pending_changes = {}
        started = time.perf_counter()
        # An engine that already knows the batch's logical tuple count
        # returns it (the compiled batch paths compute it anyway).
        counted = self._apply_batch(updates)
        self.statistics.seconds_in_updates += time.perf_counter() - started
        if counted is None:
            # Net multiplicities count as the tuples they stand for.
            counted = sum([update.count for update in updates])
        self.statistics.updates_processed += counted
        if self._pending_changes is not None:
            self._dispatch_changes()

    def apply_all(self, updates: Iterable[Update]) -> None:
        for update in updates:
            self.apply(update)

    def run(self, updates: Iterable[Update]) -> Any:
        """Apply a whole stream and return the final result."""
        self.apply_all(updates)
        return self.result()

    @property
    def group_vars(self) -> Tuple[str, ...]:
        return self.query.group_vars

    def __repr__(self) -> str:
        return f"<{type(self).__name__} for {self.query}>"


def result_as_mapping(result: Any, ring: Optional[Any] = None) -> Dict[Tuple[Any, ...], Any]:
    """Normalize an engine result to a ``{key tuple: value}`` mapping.

    Scalars become ``{(): value}`` (dropping a zero scalar, to match the
    convention that absent keys mean zero).  Pass the coefficient structure
    as ``ring`` when it is not integer-like: min-plus' zero is ``inf`` while
    ``0.0`` is its multiplicative identity, so the default ``!= 0`` filter
    would keep the wrong elements.
    """
    is_zero = ring.is_zero if ring is not None else (lambda value: value == 0)
    if isinstance(result, dict):
        return {key: value for key, value in result.items() if not is_zero(value)}
    if is_zero(result):
        return {}
    return {(): result}


def results_agree(left: Any, right: Any, ring: Optional[Any] = None) -> bool:
    """True when two engine results denote the same mapping."""
    return result_as_mapping(left, ring) == result_as_mapping(right, ring)
