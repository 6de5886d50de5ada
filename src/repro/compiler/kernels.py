"""The query-independent steps of executing a compiled trigger, each written once.

A compiled trigger is a list of statements ``foreach k: m[k] += rhs``
(Equation (1) of the paper).  Only the right-hand side depends on the query;
everything around it — the ``+=`` itself, change capture, tracked-key
collection, slice-index upkeep, the recompute write-back, the compensated
float total, running a batch's events — is the same for every program.
This module holds those steps as plain Python functions, specialized once
per coefficient ring by :class:`FoldKernels`.
:class:`~repro.compiler.runtime.TriggerRuntime` calls them directly; generated
trigger modules (:mod:`repro.compiler.codegen`) receive the same functions
through their namespace, so the two executors cannot drift apart.

Three ring variants are chosen here and nowhere else: native ``+``/``== 0``
arithmetic for ℤ and ℝ, ``ring.add``/``ring.is_zero`` for every other ring,
and — for proper semirings — change capture of *post-update values* instead
of deltas (differences are undefined without subtraction; ``ring.zero``
marks a removed key).

Kernels keep no statistics: each returns the number of entries it touched
and the caller counts.

Every kernel that writes takes an optional trailing ``journal`` — the
:class:`UndoJournal` of the transactional batch path, ``None`` everywhere
else.  Before it writes, a kernel records the keys it is about to touch with
their stored values.  Committing a batch drops the journal;
:meth:`UndoJournal.rollback` replays it backwards.  A transaction therefore
costs O(keys the batch touches), whatever the tables hold.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Iterable, Tuple

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, Semiring
from repro.compiler.indexes import apply_index_journal
from repro.core.ast import COMPARATORS, Add, Compare, Const, Expr, MapRef, Mul, Neg, Var
from repro.gmr.database import Update

MapTable = Dict[Tuple[Any, ...], Any]


class UndoJournal:
    """The prior values of every entry a transaction wrote, in write order.

    One record ``(table, name, specs, keys, priors)`` per kernel call: the
    values ``keys`` had in ``table`` before the call wrote (``None``: absent).
    ``table`` is any dict-like store whose entries are never ``None`` — a map
    table (``name`` / ``specs`` then address its slice indexes), the Kahan
    compensation store, a support tier's group table.
    """

    __slots__ = ("records",)

    def __init__(self):
        self.records: list = []

    def record(self, table, name, specs, keys, priors=None) -> None:
        """Note that ``keys`` of ``table`` are about to be written.  ``priors``
        defaults to the stored values; pass copies when the values mutate in
        place, or two lists the caller fills as it goes."""
        if priors is None:
            priors = list(map(table.get, keys))
        self.records.append((table, name, specs, keys, priors))

    def rollback(self, index_data) -> int:
        """Undo every recorded write, newest first; returns the number of
        entries restored.

        Replayed backwards, every key ends at the value its *earliest* record
        saw.  The inverse slice-index journal is derived from membership — a
        key present now but absent before leaves its buckets, and the reverse
        — and goes through the same :func:`apply_index_journal` the forward
        path uses.
        """
        undone = 0
        for table, name, specs, keys, priors in reversed(self.records):
            entries = list(zip(keys, priors))
            if specs and index_data is not None:
                added = [key for key, prior in entries if prior is not None and key not in table]
                removed = [key for key, prior in entries if prior is None and key in table]
                if added or removed:
                    apply_index_journal(index_data, specs, name, added, removed)
            for key, prior in entries:
                if prior is None:
                    table.pop(key, None)
                else:
                    table[key] = prior
            undone += len(entries)
        self.records.clear()
        return undone


def make_fold(ring: Semiring, post_values: bool = False) -> Callable:
    """The fold step of one statement: ``fold(table, acc, name, specs, index_data,
    changes=None, journal=None, touched=None) -> entries``.

    Folds the statement's accumulated increments ``acc`` into ``table`` (map
    ``name``) — one read-modify-write ``table[k] += acc[k]`` per key,
    annihilated entries removed — with everything that rides on it: change
    capture into ``changes[name]`` when the map is watched, non-zero keys
    into ``touched`` when a recompute of the same event tracks the map, and
    slice-index upkeep for the signatures ``specs`` in the raw index storage
    ``index_data``.  With a ``journal`` the prior values of *all* of
    ``acc``'s keys are recorded up front, so a fold that raises midway is
    covered (restoring an unmodified key is a no-op).

    The keys the loop inserts / removes are journalled into two lists and
    handed to :func:`~repro.compiler.indexes.apply_index_journal` when the
    loop ends — also when it raised.  A key is mutated strictly after the
    arithmetic that can fail, so the slice indexes match what the table
    holds even after a failed fold, and the undo journal's rollback starts
    from a consistent table and index pair.

    ``post_values`` selects semiring change capture.
    """
    native = ring is INTEGER_RING or ring is FLOAT_FIELD
    add, zero, is_zero = ring.add, ring.zero, ring.is_zero

    def fold(
        table, acc, name, specs=None, index_data=None, changes=None, journal=None,
        touched=None,
    ):
        if not acc:
            return 0
        if journal is not None:
            journal.record(table, name, specs, list(acc))
        if changes is not None:
            collector = changes.get(name)
            if collector is not None:
                if post_values:
                    # Each key folds exactly once per call, so old + delta is
                    # the value the loop below stores.
                    for key, delta in acc.items():
                        collector[key] = add(table.get(key, zero), delta)
                elif native:
                    for key, delta in acc.items():
                        collector[key] = collector.get(key, 0) + delta
                else:
                    for key, delta in acc.items():
                        collector[key] = add(collector.get(key, zero), delta)
        if touched is not None:
            if native:
                touched.update([key for key, delta in acc.items() if delta != 0])
            else:
                touched.update([key for key, delta in acc.items() if not is_zero(delta)])
        if specs is None or index_data is None:
            added = removed = None
        else:
            added = []
            removed = []
        try:
            if native:
                for key, delta in acc.items():
                    new = table.get(key, 0) + delta
                    if new == 0:
                        if table.pop(key, None) is not None and removed is not None:
                            removed.append(key)
                    else:
                        if added is not None and key not in table:
                            added.append(key)
                        table[key] = new
            else:
                for key, delta in acc.items():
                    new = add(table.get(key, zero), delta)
                    if is_zero(new):
                        if table.pop(key, None) is not None and removed is not None:
                            removed.append(key)
                    else:
                        if added is not None and key not in table:
                            added.append(key)
                        table[key] = new
        finally:
            if added or removed:
                apply_index_journal(index_data, specs, name, added, removed)
        return len(acc)

    return fold


def make_write_back(ring: Semiring, post_values: bool = False) -> Callable:
    """The recompute write-back: ``write_back(table, new_values, name, specs,
    index_data, changes=None, journal=None, touched=None) -> entries``.

    ``new_values`` yields ``(key, freshly re-evaluated value)`` pairs of map
    ``name``; every entry whose stored value differs is overwritten, with the
    *difference* (or, under ``post_values``, the new value) captured into
    ``changes[name]``, the key recorded in ``touched`` for shallower
    recomputes of the same event, and the slice indexes kept in sync.  With
    a ``journal`` each overwritten entry's prior value is recorded just before
    the write (one record, filled as the loop advances).  Returns the number
    of entries that changed.
    """
    add, zero, is_zero = ring.add, ring.zero, ring.is_zero
    sub = None if post_values else ring.sub

    def write_back(
        table, new_values, name, specs, index_data, changes=None, journal=None, touched=None
    ):
        collector = None if changes is None else changes.get(name)
        added: list = []
        removed: list = []
        entries = 0
        if journal is not None:
            keys: list = []
            priors: list = []
            journal.record(table, name, specs, keys, priors)
        try:
            for key, new in new_values:
                old = table.get(key, zero)
                if new == old:
                    continue
                entries += 1
                if collector is not None:
                    if post_values:
                        collector[key] = new
                    else:
                        collector[key] = add(collector.get(key, zero), sub(new, old))
                if touched is not None:
                    touched.add(key)
                if journal is not None:
                    keys.append(key)
                    priors.append(table.get(key))
                if is_zero(new):
                    if table.pop(key, None) is not None:
                        removed.append(key)
                else:
                    if key not in table:
                        added.append(key)
                    table[key] = new
        finally:
            if specs and index_data is not None:
                apply_index_journal(index_data, specs, name, added, removed)
        return entries

    return write_back


def fold_total(maps, name, increment, changes=None, journal=None):
    """The Kahan-compensated fold of a fused float total.

    One ``+=`` into the nullary-key entry of map ``name`` whose running
    compensation term recovers the low-order bits the addition drops, so a
    long stream of fused totals tracks ``math.fsum`` accuracy at straight
    accumulation speed.  The compensation store lives with the tables
    (``maps`` is an :class:`~repro.compiler.indexes.IndexedMaps`), so
    whatever backs up, restores or rewrites the tables handles it in the
    same place — and the undo ``journal`` records the term like a table entry,
    so a rolled-back batch neither keeps the abandoned fold's term nor forgets
    one earned before it.
    """
    table = maps[name]
    if changes is not None:
        collector = changes.get(name)
        if collector is not None:
            collector[()] = collector.get((), 0.0) + increment
    compensation = maps.compensation
    if journal is not None:
        journal.record(table, name, None, ((),))
        journal.record(compensation, name, None, (name,))
    old = table.get((), 0.0)
    adjusted = increment - compensation.get(name, 0.0)
    new = old + adjusted
    compensation[name] = (new - old) - adjusted
    if new == 0.0:
        table.pop((), None)
    else:
        table[()] = new


class FoldKernels:
    """The kernel set of one executor, specialized to its coefficient ring."""

    __slots__ = ("fold", "fold_int", "write_back", "fold_total")

    def __init__(self, ring: Semiring):
        semiring = not ring.is_ring
        self.fold = make_fold(ring, post_values=semiring)
        #: The fold of a semiring plan's ℤ-valued counter maps (``None`` over
        #: a ring, which has none).
        self.fold_int = (
            make_fold(INTEGER_RING, post_values=True) if semiring else None
        )
        self.write_back = make_write_back(ring, post_values=semiring)
        self.fold_total = fold_total if ring is FLOAT_FIELD else None


def arity_error(update: Update) -> ValueError:
    """The error of an update whose values do not fit its relation's arity."""
    return ValueError(
        f"update {update!r} does not match the arity of relation {update.relation!r}"
    )


def make_apply_batch(plan, ring: Semiring, triggers, totals) -> Tuple[Callable, Callable]:
    """The update loop of both executors: ``(apply_batch, apply_row)``.

    ``apply_batch(maps, delta, index_data=None, changes=None, journal=None)
    -> tuple count`` takes a :class:`~repro.gmr.database.Delta`, the batch
    already grouped into one signed delta map ``∆R : values → count`` per
    relation, and runs each relation's event as the lowered ``plan`` says: a
    ``total`` event's fused trigger ``totals[event](maps, Σ∆R, index_data,
    changes, journal)`` (no table at all), any other event's trigger
    ``triggers[event](maps, ∆R, …)`` on the delta map itself.  Every
    relation's keys are checked against the plan's arity, one pass per
    relation, before any trigger runs.

    ``apply_row(maps, relation, sign, values, count=1, index_data=None,
    changes=None, journal=None) -> count`` is a single update ``±R(values)``
    with multiplicity ``count``: the same tables, run on the one-row delta
    map ``{values: ±count}`` — the paper's single-tuple delta is the
    relation-valued one at ``|∆R| = 1``.

    Over a ring every event is a relation's one signed trigger, keyed
    ``(relation, +1)`` in ``triggers`` / ``totals``, and the relations run in
    first-seen order on their signed maps.  A proper semiring has no −1: its
    events run as :meth:`~repro.gmr.database.Delta.by_sign` splits them,
    their delta maps positive ℤ counts (ring statements read them through
    ``from_int``).  Any other non-native ring's triggers read each map's
    ``from_int`` image, zero images dropped (a finite ring's ``from_int`` can
    wrap to zero).
    """
    semiring = not ring.is_ring
    lifted = not semiring and ring is not INTEGER_RING and ring is not FLOAT_FIELD
    one, from_int, is_zero = ring.one, ring.from_int, ring.is_zero
    if not semiring:
        if any(sign != 1 for _relation, sign in triggers):
            raise ValueError("over a ring a relation has one signed trigger, keyed (relation, +1)")
        # A relation's one signed trigger, looked up by the relation alone.
        triggers = {relation: trigger for (relation, _sign), trigger in triggers.items()}
        totals = {relation: trigger for (relation, _sign), trigger in totals.items()}
    arities = {event.relation: event.arity for event in plan.events if event.arity is not None}

    def apply_batch(maps, delta, index_data=None, changes=None, journal=None):
        relations = delta.relations
        for relation, rows in relations.items():
            arity = arities.get(relation)
            if arity is not None and not set(map(len, rows)) <= {arity}:
                values = next(key for key in rows if len(key) != arity)
                count = rows[values]
                raise arity_error(Update(1 if count > 0 else -1, relation, values, abs(count)))
        for event, rows in delta.by_sign() if semiring else relations.items():
            trigger = totals.get(event)
            if trigger is not None:
                trigger(maps, sum(rows.values()), index_data, changes, journal)
                continue
            trigger = triggers.get(event)
            if trigger is not None:
                if lifted:
                    rows = {values: one if n == 1 else from_int(n) for values, n in rows.items()}
                    rows = {values: value for values, value in rows.items() if not is_zero(value)}
                if rows:
                    trigger(maps, rows, index_data, changes, journal)
        return delta.tuples

    #: Per event, what a single row needs: one lookup instead of three.
    row_plan = {
        event: (arities.get(event[0] if semiring else event), totals.get(event), trigger)
        for event, trigger in triggers.items()
    }

    def apply_row(
        maps, relation, sign, values, count=1, index_data=None, changes=None, journal=None
    ):
        if semiring:
            entry, multiplicity = row_plan.get((relation, sign)), count
        else:
            entry, multiplicity = row_plan.get(relation), sign * count
        if entry is None:
            return count
        arity, total, trigger = entry
        if arity is not None and len(values) != arity:
            raise arity_error(Update(sign, relation, values, count))
        if total is not None:
            total(maps, multiplicity, index_data, changes, journal)
        elif not lifted:
            trigger(maps, {values: multiplicity}, index_data, changes, journal)
        else:
            value = from_int(multiplicity) if multiplicity != 1 else one
            if not is_zero(value):
                trigger(maps, {values: value}, index_data, changes, journal)
        return count

    return apply_batch, apply_row


def lower_pointwise(body: Expr, target_keys: Tuple[str, ...], ring: Semiring) -> Callable:
    """A pointwise recompute body as a closure ``(tables, group) -> value``.

    ``body`` is classed ``"pointwise"`` by
    :func:`~repro.compiler.cost.recompute_class`: constants, target-key
    variables, fully-bound map reads and comparisons of those under ``+``,
    ``*`` and negation.  The closure computes what
    :func:`~repro.core.semantics.evaluate` folds for one group — a product
    is zero at its first zero factor, comparison operands are data values in
    native arithmetic, everything else is in the ring — without building a
    record or a relation.
    """
    position = {key: index for index, key in enumerate(target_keys)}
    zero, one, is_zero, times = ring.zero, ring.one, ring.is_zero, ring.mul
    identity = tuple(range(len(target_keys)))

    def fold(children, combine, start):
        def run(tables, group):
            result = start
            for child in children:
                result = combine(result, child(tables, group))
            return result

        return run

    def lower(expr: Expr, as_value: bool) -> Callable:
        # as_value: the data-value position of a comparison operand.
        if isinstance(expr, Const):
            constant = expr.value if as_value else ring.coerce(expr.value)
            return lambda tables, group: constant
        if isinstance(expr, Var):
            place = position[expr.name]
            if as_value:
                return lambda tables, group: group[place]
            return lambda tables, group: ring.coerce(group[place])
        if isinstance(expr, MapRef):
            name = expr.name
            places = tuple(position[key] for key in expr.key_vars)
            if places == identity:
                return lambda tables, group: tables[name].get(group, zero)
            return lambda tables, group: tables[name].get(
                tuple([group[place] for place in places]), zero
            )
        if isinstance(expr, Compare):
            holds = COMPARATORS[expr.op]
            left, right = lower(expr.left, True), lower(expr.right, True)
            return lambda tables, group: (
                one if holds(left(tables, group), right(tables, group)) else zero
            )
        if isinstance(expr, Neg):
            inner = lower(expr.expr, as_value)
            negate = operator.neg if as_value else ring.neg
            return lambda tables, group: negate(inner(tables, group))
        if isinstance(expr, Add):
            terms = [lower(term, as_value) for term in expr.terms]
            return fold(terms, operator.add, 0) if as_value else fold(terms, ring.add, zero)
        if isinstance(expr, Mul):
            factors = [lower(factor, as_value) for factor in expr.factors]
            if as_value:
                return fold(factors, operator.mul, 1)

            def product(tables, group):
                result = one
                for factor in factors:
                    value = factor(tables, group)
                    if is_zero(value):
                        return zero
                    result = times(result, value)
                return result

            return product
        raise TypeError(f"not a pointwise recompute body: {expr!r}")

    return lower(body, False)


def recompute_pairs(accumulator: MapTable, table: Iterable, zero: Any) -> list:
    """The ``(key, new value)`` pairs of a full recompute for ``write_back``:
    every re-derived key plus every stored key the re-derivation dropped."""
    return [(key, accumulator.get(key, zero)) for key in set(accumulator) | set(table)]
