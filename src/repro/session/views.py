"""Materialized-view handles returned by :meth:`repro.session.Session.view`.

A :class:`MaterializedView` is a thin, stable facade over the view's state: a
shared map inside the trigger runtime of the session's compiled group for the
view's backend (``"generated"`` or ``"interpreted"``).  Callers read results
and subscribe to change-data-capture without knowing which map holds them or
which other views share it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.ast import AggSum
from repro.ivm.base import ChangeCallback, EngineStatistics, result_as_mapping

#: The backends :meth:`Session.view` accepts: the two compiled executors,
#: each with its own shared map catalog.
COMPILED_BACKENDS = ("generated", "interpreted")


class MaterializedView:
    """One continuously maintained query result inside a :class:`Session`.

    Attributes
    ----------
    name:
        The view's unique name within its session.
    query:
        The AGCA ``AggSum`` the view maintains.
    backend:
        One of :data:`COMPILED_BACKENDS`.
    """

    def __init__(self, session, name: str, query: AggSum, backend: str, group):
        self._session = session
        self.name = name
        self.query = query
        self.backend = backend
        self._group = group  # _CompiledGroup
        #: Set by the session once the group has absorbed the view.
        self._map_name: Optional[str] = None
        self._callbacks: List[ChangeCallback] = []

    # -- results ---------------------------------------------------------------

    @property
    def group_vars(self) -> Tuple[str, ...]:
        return self.query.group_vars

    def result(self) -> Any:
        """The current result: a scalar for ungrouped queries, else a dict."""
        table = self._group.runtime.maps[self._map_name]
        if not self.group_vars:
            return table.get((), self._session.ring.zero)
        return dict(table)

    def result_mapping(self) -> Dict[Tuple[Any, ...], Any]:
        """The result as a ``{group-key tuple: value}`` mapping (scalars become ``{(): v}``).

        Zero-filtering is ring-aware: min-plus keeps its legitimate ``0.0``
        values and drops its ``inf`` zero, which the default integer
        convention would get exactly backwards.
        """
        return result_as_mapping(self.result(), self._session.ring)

    # -- statistics --------------------------------------------------------------

    @property
    def statistics(self) -> EngineStatistics:
        """Update counters for this view.

        Views are driven together through the shared runtime, so they report
        the session-level statistics (their individual cost is not separable
        — that inseparability is the point of map sharing).
        """
        return self._session.statistics

    @property
    def definition(self):
        """The map definition holding this view's result."""
        return self._group.catalog.maps[self._map_name]

    @property
    def shares_storage(self) -> bool:
        """True when this view's result map is an alias of another view's map."""
        return self._map_name != self.name

    # -- change-data-capture -------------------------------------------------------

    def on_change(self, callback: ChangeCallback) -> ChangeCallback:
        """Subscribe to this view's result deltas.

        ``callback(changes)`` fires once per ``Session.insert`` / ``delete`` /
        ``apply`` / ``apply_batch`` call that changed this view's result, with
        a mapping from group-key tuples to non-zero ring deltas (the empty
        tuple keys ungrouped results).  Replaying the deltas over an earlier
        :meth:`result_mapping` (ring-adding values, dropping keys that reach
        zero) reconstructs the current result exactly.  Over a proper
        semiring the payload instead carries the *post-update value* of each
        changed group, with ``ring.zero`` marking a removed group — replaying
        means overwriting (or dropping) the key.  The payload is the
        callback's own: it may keep or drain it.  Returns the callback, so
        the method can be used as a decorator.

        A subscription takes effect from the next update call.  One made
        inside a callback (say, seeding a new replica from
        :meth:`result_mapping`) does not receive the delta being delivered,
        which that result already includes; likewise, a callback removed
        during a delivery still receives that call's delta if it had not yet.
        """
        self._callbacks.append(callback)
        self._resubscribe()
        return callback

    def remove_on_change(self, callback: ChangeCallback) -> None:
        """Unsubscribe a previously registered callback (from the next update
        call on, like :meth:`on_change`)."""
        self._callbacks.remove(callback)
        self._resubscribe()

    def _resubscribe(self) -> None:
        """Replace the group's subscriber table, with this view's result map
        mapped to the callbacks of every view on it (registration order)."""
        group, name = self._group, self._map_name
        callbacks = tuple(
            callback
            for view in self._session._views.values()
            if view._group is group and view._map_name == name
            for callback in view._callbacks
        )
        table = dict(group.subscribers)
        if callbacks:
            table[name] = callbacks
        else:
            table.pop(name, None)
        group.subscribers = table

    # -- dunder ---------------------------------------------------------------------

    def __repr__(self) -> str:
        shared = " (shared result map)" if self.shares_storage else ""
        return f"<MaterializedView {self.name!r} backend={self.backend!r}{shared}>"
