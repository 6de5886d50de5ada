"""Lattice-style aggregate structures: k-best semirings and group supports.

Proper semirings (MIN/MAX, top-k) have no additive inverse, so deletions
cannot be folded in as negated deltas.  This module supplies the two pieces
the maintenance-strategy contract needs beyond plain recomputation:

* :func:`top_k` — the k-best tropical semiring (the k-shortest-paths
  algebra): carrier = sorted tuples of at most ``k`` scores, addition merges
  keeping the k best, multiplication keeps the k best pairwise sums.  MIN and
  MAX are the ``k = 1`` shadows of this family (``MIN_PLUS`` / ``MAX_PLUS``
  in :mod:`repro.algebra.semirings`).  Its operations rely on a carrier
  invariant: every value is a best-first tuple of at most ``k`` floats, and
  only ``coerce`` normalizes foreign input (lists, ints, unsorted tuples), so
  ``add`` and ``mul`` never re-convert or re-sort what they are given.

* :class:`SupportStructure` — a bounded best-first sidecar kept per group so
  that most deletions are O(log capacity): the support stores the best
  ``capacity`` distinct per-row contributions together with multiplicities.
  Only when enough of the stored prefix has been deleted that the fold can no
  longer be trusted (``exhausted``) does the maintainer fall back to
  re-reading the group's rows — through the slice index the base counter map
  carries at the plan's key positions, so recovery costs the group, not the
  relation.

The trust argument: the structure only ever rejects or evicts *worst*
entries, and records ``threshold`` — the best sort key ever rejected.  Every
base row strictly better than ``threshold`` is therefore still stored, so
folding the stored entries strictly better than ``threshold`` equals the true
group fold whenever their total multiplicity covers ``support_needed``
(1 for MIN/MAX, ``k`` for top-k).  The same argument stops the fold early:
once a best-first prefix covers ``support_needed``, every entry strictly
worse than the prefix's last sort key is as irrelevant as an evicted one, so
:meth:`SupportStructure.value` reads one entry for MIN/MAX and at most ``k``
(plus sort-key ties) for top-k, whatever ``capacity`` is.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.ast import (
    AggSum,
    Compare,
    Const,
    Expr,
    Add,
    Mul,
    Rel,
    Var,
    walk,
)
from repro.algebra.semirings import SUPPORT_STRUCTURE, Semiring

# ---------------------------------------------------------------------------
# k-best tropical semirings
# ---------------------------------------------------------------------------

_TOP_K_CACHE: Dict[Tuple[int, bool], Semiring] = {}


def top_k(k: int, largest: bool = True) -> Semiring:
    """The k-best tropical semiring over float scores.

    Carrier: tuples of at most ``k`` floats sorted best-first (descending
    when ``largest``).  ``add`` merges two tuples keeping the k best;
    ``mul(a, b)`` keeps the k best of the pairwise sums ``{x + y}`` — the
    standard k-shortest-paths algebra, hence a genuine semiring.  A base row
    with multiplicity ``c`` contributes ``from_int(c) * coerce(v) ==
    (v,) * min(c, k)``, so folding a group yields the exact multiset top-k.

    The carrier invariant — best-first, at most ``k`` elements, every element
    a ``float`` — is established by ``coerce`` alone; ``add`` and ``mul``
    assume it of their operands and keep it.  ``add`` returns an operand
    unchanged when the other is empty, and concatenates when the left one
    already ends no worse than the right one starts (a best-first fold);
    ``mul`` by a singleton shifts the other operand, which stays sorted.  Each
    equals the normalizing definition (``normalize(a + b)``, ``normalize(x +
    y for x in a for y in b)``) exactly, ties included
    (``tests/test_top_k_ops.py``).  ``±inf`` scores are fine, except that a
    product of ``inf`` and ``-inf`` is undefined (NaN) in both definitions.
    """
    if k < 1:
        raise ValueError("top_k needs k >= 1")
    cached = _TOP_K_CACHE.get((k, largest))
    if cached is not None:
        return cached

    def normalize(values) -> Tuple[float, ...]:
        return tuple(sorted((float(v) for v in values), reverse=largest)[:k])

    def add_(a, b):
        if not a:
            return b
        if not b:
            return a
        merged = a + b
        if a[-1] >= b[0] if largest else a[-1] <= b[0]:
            return merged[:k]  # already best-first: the stable sort's answer
        return tuple(sorted(merged, reverse=largest)[:k])

    def mul_(a, b):
        # Adding one score to a sorted tuple keeps it sorted (float addition
        # is monotone), and it has at most k elements already.
        if len(a) == 1:
            x = a[0]
            return tuple([x + y for y in b])
        if len(b) == 1:
            y = b[0]
            return tuple([x + y for x in a])
        return tuple(sorted([x + y for x in a for y in b], reverse=largest)[:k])

    def coerce(value):
        if isinstance(value, (tuple, list)):
            return normalize(value)
        return (float(value),)

    name = f"top{k}" if largest else f"top{k}-min"
    structure = Semiring(
        zero=(),
        one=(0.0,),
        add=add_,
        mul=mul_,
        neg=None,
        coerce=coerce,
        name=name,
        maintenance=SUPPORT_STRUCTURE,
        # Best contribution first: a contribution is a (typically singleton)
        # sorted tuple; compare on its best score.
        sort_key=(lambda t: -t[0]) if largest else (lambda t: t[0]),
        support_capacity=k + 8,
        support_needed=k,
    )
    _TOP_K_CACHE[(k, largest)] = structure
    return structure


# ---------------------------------------------------------------------------
# Per-group support structure
# ---------------------------------------------------------------------------


class SupportStructure:
    """Bounded best-first multiset of per-row contributions for one group.

    Entries are immutable ``(sort_key, value, count)`` tuples sorted best
    (smallest key) first; a changed count replaces its entry, so a list copy
    is a snapshot.  At most ``capacity`` distinct values are stored; overflow
    evicts the worst entry and records its key in ``threshold``.  The
    *trusted* entries — strictly better than ``threshold`` — are a prefix of
    the list; ``value(ring)`` folds as much of it as covers ``needed``, which
    equals the true group fold unless ``exhausted`` (see the module
    docstring).
    """

    __slots__ = ("_key", "capacity", "needed", "entries", "truncated", "threshold", "_dirty")

    def __init__(self, ring: Semiring):
        if ring.sort_key is None:
            raise TypeError(f"{ring.name} does not declare a support sort key")
        self._key: Callable[[Any], Any] = ring.sort_key
        self.capacity: int = max(int(ring.support_capacity), int(ring.support_needed))
        self.needed: int = int(ring.support_needed)
        self.entries: List[Tuple[Any, Any, int]] = []  # (sort_key, value, count), best first
        self.truncated: bool = False
        self.threshold: Optional[Any] = None  # best sort key ever rejected
        self._dirty: bool = False  # inconsistency observed -> force rebuild

    # -- mutation ------------------------------------------------------------

    def _find(self, key: Any, value: Any) -> int:
        """The position of the entry for ``value`` (sort key ``key``), or
        where it would be inserted — a probe ``(key, value)`` sorts just
        before ``(key, value, count)``."""
        return bisect_left(self.entries, (key, value))

    def _note_rejection(self, key: Any) -> None:
        self.truncated = True
        if self.threshold is None or key < self.threshold:
            self.threshold = key

    def insert(self, value: Any, count: int = 1) -> None:
        key = self._key(value)
        entries = self.entries
        at = self._find(key, value)
        if at < len(entries):
            entry = entries[at]
            if entry[0] == key and entry[1] == value:
                entries[at] = (key, value, entry[2] + count)
                return
        if len(entries) >= self.capacity:
            worst = entries[-1]
            if key >= worst[0]:
                self._note_rejection(key)
                return
            # A key better than the worst one sorts before it: ``at`` stays
            # in range after the eviction.
            entries.pop()
            self._note_rejection(worst[0])
        entries.insert(at, (key, value, count))

    def remove(self, value: Any, count: int = 1) -> None:
        key = self._key(value)
        entries = self.entries
        at = self._find(key, value)
        if at < len(entries):
            entry = entries[at]
            if entry[0] == key and entry[1] == value:
                remaining = entry[2] - count
                if remaining > 0:
                    entries[at] = (key, value, remaining)
                else:
                    if remaining < 0:
                        self._dirty = True
                    del entries[at]
                return
        # The row lived in the evicted region; fine while truncated,
        # otherwise the support drifted from the base -> force a rebuild.
        if not self.truncated or (self.threshold is not None and key < self.threshold):
            self._dirty = True

    def reload(self, contributions) -> None:
        """Rebuild from ``(value, count)`` pairs of every base row in the group."""
        key_of = self._key
        counts: Dict[Tuple[Any, Any], int] = {}
        for value, count in contributions:
            slot = (key_of(value), value)
            counts[slot] = counts.get(slot, 0) + count
        ordered = sorted([(key, value, count) for (key, value), count in counts.items()])
        self.entries = ordered[: self.capacity]
        dropped = ordered[self.capacity :]
        self.truncated = bool(dropped)
        self.threshold = dropped[0][0] if dropped else None
        self._dirty = False

    # -- inspection ----------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True when the stored prefix can no longer prove the group fold."""
        if self._dirty:
            return True
        if not self.truncated:
            return False
        threshold, needed = self.threshold, self.needed
        total = 0
        for key, _value, count in self.entries:
            if threshold is not None and key >= threshold:
                break
            total += count
            if total >= needed:
                return False
        return True

    @property
    def empty(self) -> bool:
        return not self.entries and not self.truncated and not self._dirty

    def value(self, ring: Semiring) -> Any:
        """Fold the trusted prefix that covers ``needed``, up to the end of
        its last sort key (the true group fold unless ``exhausted``)."""
        threshold, needed = self.threshold, self.needed
        result = boundary = None
        covered = 0
        for key, value, count in self.entries:
            if threshold is not None and key >= threshold:
                break
            if covered >= needed and key != boundary:
                break
            # from_int(1) is the ring's one: a single row contributes itself.
            term = value if count == 1 else ring.mul(ring.from_int(count), value)
            result = term if result is None else ring.add(result, term)
            covered += count
            boundary = key
        return ring.zero if result is None else result

    # -- snapshot ------------------------------------------------------------

    def copy(self) -> "SupportStructure":
        """An independent structure in exactly this state (the undo journal's
        prior value of a group about to be fed)."""
        clone = object.__new__(SupportStructure)
        clone._key, clone.capacity, clone.needed = self._key, self.capacity, self.needed
        clone.entries = self.entries.copy()  # the entries are immutable
        clone.truncated, clone.threshold, clone._dirty = self.truncated, self.threshold, self._dirty
        return clone

    def serialize(self) -> Dict[str, Any]:
        return {
            "entries": [[entry[1], entry[2]] for entry in self.entries],
            "truncated": self.truncated,
            "threshold": self.threshold,
        }


# ---------------------------------------------------------------------------
# Support plans: which maps qualify, and how rows map to contributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportPlan:
    """How raw updates of one base relation feed one supported map.

    Derived from a *direct-shape* map definition
    ``AggSum(group, Rel(R, cols) * value-and-condition factors)``: every
    update row binds ``cols`` directly, so group key, WHERE conditions and
    the per-row contribution can all be computed without the evaluator
    (:meth:`lower`).  An exhausted group is re-read from the relation's base
    counter map sliced at :attr:`slice_positions`
    (:func:`repro.compiler.indexes.iter_partial_reads` reports that read, so
    the map carries the slice index).
    """

    map_name: str
    relation: str
    columns: Tuple[str, ...]
    key_vars: Tuple[str, ...]
    conditions: Tuple[Compare, ...]
    value_factors: Tuple[Expr, ...]
    #: The group key's column positions, in ``key_vars`` order.
    key_positions: Tuple[int, ...] = field(init=False)
    #: The same positions ascending — a slice-index signature.
    slice_positions: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        positions = tuple(self.columns.index(var) for var in self.key_vars)
        object.__setattr__(self, "key_positions", positions)
        object.__setattr__(self, "slice_positions", tuple(sorted(positions)))

    def slice_prefix(self, group: Tuple[Any, ...]) -> Tuple[Any, ...]:
        """``group`` reordered to match :attr:`slice_positions`."""
        positions = self.key_positions
        if positions == self.slice_positions:
            return group
        return tuple(value for _position, value in sorted(zip(positions, group)))

    @property
    def recovery(self) -> str:
        """How an exhausted group's rows are found: ``index(…)`` — a bucket
        of the counter map's slice index; ``lookup`` — the group key is the
        whole row; ``scan`` — no group key, the relation is the group."""
        if not self.slice_positions:
            return "scan"
        if len(self.slice_positions) == len(self.columns):
            return "lookup"
        return f"index({','.join(map(str, self.slice_positions))})"

    def describe(self) -> str:
        keys = ", ".join(self.key_vars)
        return f"support of {self.map_name}[{keys}] recovers from {self.relation} by {self.recovery}"

    def lower(self, ring: Semiring) -> Callable[[Tuple[Any, ...]], Tuple[Tuple[Any, ...], Any]]:
        """The plan as a closure ``row -> (group, contribution | None)``.

        Column positions are resolved and ring operations bound once; the
        contribution is the product of the conditions and value factors as
        :func:`repro.compiler.kernels.lower_pointwise` computes it with the
        row's columns for variables.  ``None`` stands for the ring's zero — a
        failed condition or a zero factor — which no fold can observe.
        """
        # Imported here: repro.compiler imports this module.
        from repro.compiler.kernels import lower_pointwise

        positions = self.key_positions
        if len(positions) == 1:
            (place,) = positions
            group_of = lambda row: (row[place],)  # noqa: E731
        elif positions:
            group_of = itemgetter(*positions)
        else:
            group_of = lambda row: ()  # noqa: E731
        factors = self.conditions + self.value_factors
        # (No factors at all: the empty product, the ring's one.)
        body = factors[0] if len(factors) == 1 else Mul(factors)
        value = lower_pointwise(body, self.columns, ring)
        is_zero = ring.is_zero

        def feed(row):
            contribution = value(None, row)
            return group_of(row), (None if is_zero(contribution) else contribution)

        return feed


def _data_only(expr: Expr) -> bool:
    return all(isinstance(node, (Const, Var, Add, Mul)) for node in walk(expr))


def direct_shape_plan(
    map_name: str, key_vars: Tuple[str, ...], definition: Expr
) -> Optional[SupportPlan]:
    """Build a :class:`SupportPlan` when the definition has the direct shape.

    Direct shape: ``AggSum(group, Rel * factors)`` over exactly one base
    relation with distinct columns, where every other factor is a pure
    value/condition over that relation's columns and the group key is a
    subset of those columns.  Anything else (joins, nested aggregates, map
    references) falls back to tracked recomputation.
    """
    body = definition
    if isinstance(body, AggSum):
        if tuple(body.group_vars) != tuple(key_vars):
            return None
        body = body.expr
    factors = list(body.factors) if isinstance(body, Mul) else [body]
    relations = [factor for factor in factors if isinstance(factor, Rel)]
    if len(relations) != 1:
        return None
    rel = relations[0]
    columns = rel.columns
    if len(set(columns)) != len(columns):
        return None
    available = set(columns)
    if not set(key_vars) <= available:
        return None
    conditions: List[Compare] = []
    value_factors: List[Expr] = []
    for factor in factors:
        if factor is rel:
            continue
        if isinstance(factor, Compare):
            if not (_data_only(factor.left) and _data_only(factor.right)):
                return None
            used = {node.name for node in walk(factor) if isinstance(node, Var)}
            if not used <= available:
                return None
            conditions.append(factor)
            continue
        if not _data_only(factor):
            return None
        used = {node.name for node in walk(factor) if isinstance(node, Var)}
        if not used <= available:
            return None
        value_factors.append(factor)
    return SupportPlan(
        map_name=map_name,
        relation=rel.name,
        columns=columns,
        key_vars=tuple(key_vars),
        conditions=tuple(conditions),
        value_factors=tuple(value_factors),
    )


# ---------------------------------------------------------------------------
# Support tier: the runtime-side maintainer shared by both executors
# ---------------------------------------------------------------------------


class SupportTier:
    """Owns the per-group supports of every support-structure map.

    Both compiled executors drive the tier the same way: after the trigger
    statements of a batch ran (so base counter maps are post-update), call
    :meth:`collect` with the raw updates; apply the returned
    ``{map: {group: new_value_or_None}}`` diff to the tables with the
    executor's own index/CDC machinery (``None`` means the group emptied and
    the key must be removed).

    The tier reads the base counter maps through one callable,
    ``counter_rows(relation, positions=(), prefix=())``: the ``(row, count)``
    pairs of the relation whose columns at the ascending ``positions`` equal
    ``prefix`` — all of them by default.
    """

    def __init__(self, ring: Semiring, plans: Dict[str, "SupportPlan"]):
        self.ring = ring
        self.plans = dict(plans)
        self.groups: Dict[str, Dict[Tuple[Any, ...], SupportStructure]] = {
            name: {} for name in self.plans
        }
        #: Every plan lowered once (:meth:`SupportPlan.lower`).
        self._feeds: Dict[str, Callable] = {
            name: plan.lower(ring) for name, plan in self.plans.items()
        }
        self._by_relation: Dict[str, List[Tuple[str, Callable]]] = {}
        for name, plan in self.plans.items():
            self._by_relation.setdefault(plan.relation, []).append((name, self._feeds[name]))

    def _contributions(self, name: str, rows: Iterable) -> Dict[Tuple[Any, ...], list]:
        """Per group, the ``(contribution, count)`` pairs of ``(row, count)`` pairs."""
        feed = self._feeds[name]
        grouped: Dict[Tuple[Any, ...], list] = {}
        for row, count in rows:
            if count <= 0:
                continue
            group, contribution = feed(row)
            if contribution is not None:
                grouped.setdefault(group, []).append((contribution, count))
        return grouped

    # -- lifecycle -----------------------------------------------------------

    def bootstrap(self, counter_rows) -> None:
        """(Re)build every support from scratch — the one whole-relation read."""
        for name, plan in self.plans.items():
            table = self.groups[name] = {}
            for group, contributions in self._contributions(
                name, counter_rows(plan.relation)
            ).items():
                support = table[group] = SupportStructure(self.ring)
                support.reload(contributions)

    # -- maintenance ---------------------------------------------------------

    def collect(
        self, updates, counter_rows, journal=None
    ) -> Dict[str, Dict[Tuple[Any, ...], Any]]:
        """Fold raw ``(relation, row, sign, count)`` updates into the supports.

        Three phases.  The batch's contributions are bucketed by
        ``(map, group)``; each touched structure is then looked up once and
        fed its bucket in batch order; finally every group that saw a
        deletion yields its new value, an exhausted one first reloading from
        its own rows of the post-update counter map (``counter_rows`` sliced
        at the plan's key positions) — so a batch costs the rows fed plus the
        rows of the groups that ran dry, whatever the relation holds.
        Inserts only feed the sidecars (the normal insert-side ring folds
        already wrote the tables).  ``journal`` is the undo journal of a
        transactional batch (:class:`repro.compiler.kernels.UndoJournal`): a
        copy of every structure about to be fed is recorded, one record per
        map, so rollback costs the groups fed.
        """
        ring = self.ring
        by_relation = self._by_relation
        fed: Dict[str, Dict[Tuple[Any, ...], list]] = {}
        for relation, row, sign, count in updates:
            feeds = by_relation.get(relation)
            if not feeds or count <= 0:
                continue
            for name, feed in feeds:
                group, contribution = feed(row)
                if contribution is None:
                    continue
                groups = fed.get(name)
                if groups is None:
                    groups = fed[name] = {}
                steps = groups.get(group)
                if steps is None:
                    groups[group] = [(contribution, sign, count)]
                else:
                    steps.append((contribution, sign, count))
        shrunk: List[Tuple[str, Tuple[Any, ...], SupportStructure]] = []
        for name, groups in fed.items():
            table = self.groups[name]
            supports = list(map(table.get, groups))
            if journal is not None:
                priors = [None if support is None else support.copy() for support in supports]
                journal.record(table, name, None, list(groups), priors)
            for (group, steps), support in zip(groups.items(), supports):
                if support is None:
                    support = table[group] = SupportStructure(ring)
                deleted = False
                for contribution, sign, count in steps:
                    if sign >= 0:
                        support.insert(contribution, count)
                    else:
                        support.remove(contribution, count)
                        deleted = True
                if deleted:
                    shrunk.append((name, group, support))
        changes: Dict[str, Dict[Tuple[Any, ...], Any]] = {}
        for name, group, support in shrunk:
            if support.exhausted:
                plan = self.plans[name]
                rows = counter_rows(plan.relation, plan.slice_positions, plan.slice_prefix(group))
                support.reload(self._contributions(name, rows).get(group, ()))
            if support.empty:
                del self.groups[name][group]
                value = None
            else:
                value = support.value(ring)
            changes.setdefault(name, {})[group] = value
        return changes

    # -- state comparison ------------------------------------------------------

    def serialize(self) -> Dict[str, Any]:
        """Every group's support as plain data: what two tiers compare by."""
        return {
            name: {
                "groups": [[list(group), support.serialize()] for group, support in table.items()]
            }
            for name, table in self.groups.items()
        }
