"""Lattice-style aggregate structures: k-best semirings and group supports.

Proper semirings (MIN/MAX, top-k) have no additive inverse, so deletions
cannot be folded in as negated deltas.  This module supplies the two pieces
the maintenance-strategy contract needs beyond plain recomputation:

* :func:`top_k` — the k-best tropical semiring (the k-shortest-paths
  algebra): carrier = sorted tuples of at most ``k`` scores, addition merges
  keeping the k best, multiplication keeps the k best pairwise sums.  MIN and
  MAX are the ``k = 1`` shadows of this family (``MIN_PLUS`` / ``MAX_PLUS``
  in :mod:`repro.algebra.semirings`).

* :class:`SupportStructure` — a bounded best-first sidecar kept per group so
  that most deletions are O(log capacity): the support stores the best
  ``capacity`` distinct per-row contributions together with multiplicities.
  Only when enough of the stored prefix has been deleted that the fold can no
  longer be trusted (``exhausted``) does the maintainer fall back to a
  per-group rescan of the base counter map.

The trust argument: the structure only ever rejects or evicts *worst*
entries, and records ``threshold`` — the best sort key ever rejected.  Every
base row strictly better than ``threshold`` is therefore still stored, so
folding the stored entries strictly better than ``threshold`` equals the true
group fold whenever their total multiplicity covers ``support_needed``
(1 for MIN/MAX, ``k`` for top-k).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    """
    if k < 1:
        raise ValueError("top_k needs k >= 1")
    cached = _TOP_K_CACHE.get((k, largest))
    if cached is not None:
        return cached

    def normalize(values) -> Tuple[float, ...]:
        return tuple(sorted((float(v) for v in values), reverse=largest)[:k])

    def add_(a, b):
        return normalize(a + b)

    def mul_(a, b):
        return normalize(x + y for x in a for y in b)

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

    Entries are ``[sort_key, value, count]`` sorted best (smallest key)
    first.  At most ``capacity`` distinct values are stored; overflow evicts
    the worst entry and records its key in ``threshold``.  ``value(ring)``
    folds only the *trusted* prefix — entries strictly better than
    ``threshold`` — which equals the true group fold while their total
    multiplicity covers ``needed`` (see the module docstring).
    """

    __slots__ = ("_key", "capacity", "needed", "entries", "truncated", "threshold", "_dirty")

    def __init__(self, ring: Semiring):
        if ring.sort_key is None:
            raise TypeError(f"{ring.name} does not declare a support sort key")
        self._key: Callable[[Any], Any] = ring.sort_key
        self.capacity: int = max(int(ring.support_capacity), int(ring.support_needed))
        self.needed: int = int(ring.support_needed)
        self.entries: List[List[Any]] = []  # [sort_key, value, count], best first
        self.truncated: bool = False
        self.threshold: Optional[Any] = None  # best sort key ever rejected
        self._dirty: bool = False  # inconsistency observed -> force rebuild

    # -- mutation ------------------------------------------------------------

    def _find(self, key: Any, value: Any) -> Optional[List[Any]]:
        for entry in self.entries:
            if entry[0] == key and entry[1] == value:
                return entry
            if entry[0] > key:
                break
        return None

    def _note_rejection(self, key: Any) -> None:
        self.truncated = True
        if self.threshold is None or key < self.threshold:
            self.threshold = key

    def insert(self, value: Any, count: int = 1) -> None:
        key = self._key(value)
        entry = self._find(key, value)
        if entry is not None:
            entry[2] += count
            return
        if len(self.entries) >= self.capacity:
            worst = self.entries[-1]
            if key >= worst[0]:
                self._note_rejection(key)
                return
            self.entries.pop()
            self._note_rejection(worst[0])
        insort(self.entries, [key, value, count])

    def remove(self, value: Any, count: int = 1) -> None:
        key = self._key(value)
        entry = self._find(key, value)
        if entry is None:
            # The row lived in the evicted region; fine while truncated,
            # otherwise the support drifted from the base -> force a rebuild.
            if not self.truncated or (self.threshold is not None and key < self.threshold):
                self._dirty = True
            return
        entry[2] -= count
        if entry[2] <= 0:
            if entry[2] < 0:
                self._dirty = True
            self.entries.remove(entry)

    def reload(self, contributions) -> None:
        """Rebuild from ``(value, count)`` pairs of every base row in the group."""
        grouped: Dict[Any, List[Any]] = {}
        for value, count in contributions:
            key = self._key(value)
            entry = grouped.get((key, value))
            if entry is None:
                grouped[(key, value)] = [key, value, count]
            else:
                entry[2] += count
        ordered = sorted(grouped.values())
        self.entries = ordered[: self.capacity]
        dropped = ordered[self.capacity :]
        self.truncated = bool(dropped)
        self.threshold = dropped[0][0] if dropped else None
        self._dirty = False

    # -- inspection ----------------------------------------------------------

    def _trusted(self):
        if self.threshold is None:
            return self.entries
        return [entry for entry in self.entries if entry[0] < self.threshold]

    @property
    def exhausted(self) -> bool:
        """True when the stored prefix can no longer prove the group fold."""
        if self._dirty:
            return True
        if not self.truncated:
            return False
        needed = self.needed
        total = 0
        for entry in self._trusted():
            total += entry[2]
            if total >= needed:
                return False
        return True

    @property
    def empty(self) -> bool:
        return not self.entries and not self.truncated and not self._dirty

    def value(self, ring: Semiring) -> Any:
        """Fold the trusted prefix (the true group fold unless ``exhausted``)."""
        return ring.sum(
            ring.mul(ring.from_int(entry[2]), entry[1]) for entry in self._trusted()
        )

    # -- snapshot ------------------------------------------------------------

    def copy(self) -> "SupportStructure":
        """An independent structure in exactly this state (the undo journal's
        prior value of a group about to be fed)."""
        clone = object.__new__(SupportStructure)
        clone._key, clone.capacity, clone.needed = self._key, self.capacity, self.needed
        clone.entries = [list(entry) for entry in self.entries]
        clone.truncated, clone.threshold, clone._dirty = self.truncated, self.threshold, self._dirty
        return clone

    def serialize(self) -> Dict[str, Any]:
        return {
            "entries": [[entry[1], entry[2]] for entry in self.entries],
            "truncated": self.truncated,
            "threshold": self.threshold,
        }

    @classmethod
    def restore(cls, data: Dict[str, Any], ring: Semiring) -> "SupportStructure":
        support = cls(ring)
        for value, count in data["entries"]:
            coerced = ring.coerce(value)
            insort(support.entries, [support._key(coerced), coerced, int(count)])
        support.truncated = bool(data["truncated"])
        support.threshold = data["threshold"]
        return support


# ---------------------------------------------------------------------------
# Support plans: which maps qualify, and how rows map to contributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportPlan:
    """How raw updates of one base relation feed one supported map.

    Derived from a *direct-shape* map definition
    ``AggSum(group, Rel(R, cols) * value-and-condition factors)``: every
    update row binds ``cols`` directly, so group key, WHERE conditions and
    the per-row contribution can all be computed without the evaluator.
    """

    map_name: str
    relation: str
    columns: Tuple[str, ...]
    key_vars: Tuple[str, ...]
    conditions: Tuple[Compare, ...]
    value_factors: Tuple[Expr, ...]
    key_positions: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        positions = tuple(self.columns.index(var) for var in self.key_vars)
        object.__setattr__(self, "key_positions", positions)

    def group_key(self, row: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(row[position] for position in self.key_positions)

    def contribution(self, row: Tuple[Any, ...], ring: Semiring) -> Optional[Any]:
        """The row's semiring contribution, or ``None`` when a condition fails."""
        bindings = dict(zip(self.columns, row))
        for condition in self.conditions:
            if not _holds(condition, bindings):
                return None
        return ring.product(_eval_value(factor, bindings, ring) for factor in self.value_factors)


_COMPARISONS = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _eval_raw(expr: Expr, bindings: Dict[str, Any]) -> Any:
    """Evaluate a data-level expression (comparison operand) on plain values."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return bindings[expr.name]
    if isinstance(expr, Add):
        return sum(_eval_raw(term, bindings) for term in expr.terms)
    if isinstance(expr, Mul):
        product = 1
        for factor in expr.factors:
            product *= _eval_raw(factor, bindings)
        return product
    raise TypeError(f"not a data expression: {expr!r}")


def _holds(condition: Compare, bindings: Dict[str, Any]) -> bool:
    left = _eval_raw(condition.left, bindings)
    right = _eval_raw(condition.right, bindings)
    return _COMPARISONS[condition.op](left, right)


def _eval_value(expr: Expr, bindings: Dict[str, Any], ring: Semiring) -> Any:
    """Evaluate a value factor under the ring (Vars bound to coerced row values)."""
    if isinstance(expr, Const):
        return ring.coerce(expr.value)
    if isinstance(expr, Var):
        return ring.coerce(bindings[expr.name])
    if isinstance(expr, Mul):
        return ring.product(_eval_value(factor, bindings, ring) for factor in expr.factors)
    if isinstance(expr, Add):
        return ring.sum(_eval_value(term, bindings, ring) for term in expr.terms)
    raise TypeError(f"not a value expression: {expr!r}")


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
    """

    def __init__(self, ring: Semiring, plans: Dict[str, "SupportPlan"]):
        self.ring = ring
        self.plans = dict(plans)
        self.groups: Dict[str, Dict[Tuple[Any, ...], SupportStructure]] = {
            name: {} for name in self.plans
        }
        self._by_relation: Dict[str, List[SupportPlan]] = {}
        for plan in self.plans.values():
            self._by_relation.setdefault(plan.relation, []).append(plan)

    # -- lifecycle -----------------------------------------------------------

    def bootstrap(self, counter_rows) -> None:
        """(Re)build every support from scratch.

        ``counter_rows(relation)`` yields ``(row, count)`` pairs of the
        relation's current contents (the base counter map).
        """
        for name, plan in self.plans.items():
            grouped: Dict[Tuple[Any, ...], List[Tuple[Any, int]]] = {}
            for row, count in counter_rows(plan.relation):
                if count <= 0:
                    continue
                contribution = plan.contribution(row, self.ring)
                if contribution is None:
                    continue
                grouped.setdefault(plan.group_key(row), []).append((contribution, count))
            tables = self.groups[name] = {}
            for group, contributions in grouped.items():
                support = SupportStructure(self.ring)
                support.reload(contributions)
                tables[group] = support

    # -- maintenance ---------------------------------------------------------

    def collect(
        self, updates, counter_rows, journal=None
    ) -> Dict[str, Dict[Tuple[Any, ...], Any]]:
        """Fold raw ``(relation, row, sign, count)`` updates into the supports.

        Inserts only feed the sidecars (the normal insert-side ring folds
        already wrote the tables).  Deletions additionally produce the new
        group value; exhausted supports rebuild from the post-update counter
        map via ``counter_rows(relation)``.  ``journal`` is the undo journal
        of a transactional batch (:class:`repro.compiler.kernels.UndoJournal`):
        a copy of a group's structure is recorded on its first touch, so
        rollback costs the groups fed.
        """
        ring = self.ring
        journalled: set = set()
        deleted: Dict[Tuple[str, Tuple[Any, ...]], SupportPlan] = {}
        for relation, row, sign, count in updates:
            plans = self._by_relation.get(relation)
            if not plans or count <= 0:
                continue
            for plan in plans:
                contribution = plan.contribution(row, ring)
                if contribution is None:
                    continue
                group = plan.group_key(row)
                table = self.groups[plan.map_name]
                support = table.get(group)
                if journal is not None and (plan.map_name, group) not in journalled:
                    journalled.add((plan.map_name, group))
                    prior = None if support is None else support.copy()
                    journal.record(table, plan.map_name, None, (group,), (prior,))
                if support is None:
                    support = table[group] = SupportStructure(ring)
                if sign >= 0:
                    support.insert(contribution, count)
                else:
                    support.remove(contribution, count)
                    deleted[(plan.map_name, group)] = plan
        changes: Dict[str, Dict[Tuple[Any, ...], Any]] = {}
        for (map_name, group), plan in deleted.items():
            table = self.groups[map_name]
            support = table[group]
            if support.exhausted:
                contributions = []
                for row, count in counter_rows(plan.relation):
                    if count <= 0 or plan.group_key(row) != group:
                        continue
                    contribution = plan.contribution(row, ring)
                    if contribution is not None:
                        contributions.append((contribution, count))
                support.reload(contributions)
            if support.empty:
                del table[group]
                changes.setdefault(map_name, {})[group] = None
            else:
                changes.setdefault(map_name, {})[group] = support.value(ring)
        return changes

    # -- state copy (RecursiveIVM.state_backup) --------------------------------

    def serialize(self) -> Dict[str, Any]:
        return {
            name: {
                "groups": [[list(group), support.serialize()] for group, support in table.items()]
            }
            for name, table in self.groups.items()
        }

    def restore(self, data: Dict[str, Any]) -> None:
        for name in self.groups:
            payload = data.get(name)
            table: Dict[Tuple[Any, ...], SupportStructure] = {}
            if payload:
                for group, serialized in payload["groups"]:
                    table[tuple(group)] = SupportStructure.restore(serialized, self.ring)
            self.groups[name] = table
