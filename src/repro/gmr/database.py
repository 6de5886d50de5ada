"""Databases, schemas, and single-tuple update events ``±R(t)`` (Sections 3 and 6).

A :class:`Database` is a finite collection of named gmrs, each with a declared
column order (needed to interpret positional relation atoms ``R(x1, ..., xk)``
in AGCA).  A :class:`Update` is the paper's single-tuple insertion/deletion
event; applying it adds ``±{t}`` to the named relation — precisely the ``D + u``
of the introduction.  A :class:`Delta` is a whole batch as one element of the
ring of databases: per relation, the signed delta map ``∆R`` the batch
triggers read — a deletion is an insertion with multiplicity −1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.gmr.records import Record
from repro.gmr.relation import GMR

INSERT = 1
DELETE = -1


@dataclass(frozen=True)
class Update:
    """A single-tuple update event ``±R(t)``, optionally with a net multiplicity.

    ``sign`` is +1 for an insertion and -1 for a deletion; ``values`` are the
    tuple's data values in the relation's declared column order.  ``count``
    (default 1) is a positive net multiplicity: ``Update(1, "R", t, count=3)``
    denotes three insertions of the same tuple in one event — the compact
    form :meth:`Delta.updates` materializes.
    """

    sign: int
    relation: str
    values: Tuple[Any, ...]
    count: int = 1

    def __post_init__(self):
        if self.sign not in (INSERT, DELETE):
            raise ValueError("update sign must be +1 (insert) or -1 (delete)")
        if not isinstance(self.count, int) or self.count < 1:
            raise ValueError(f"update count must be a positive integer, got {self.count!r}")
        object.__setattr__(self, "values", tuple(self.values))

    @property
    def is_insert(self) -> bool:
        return self.sign == INSERT

    @property
    def is_delete(self) -> bool:
        return self.sign == DELETE

    def inverted(self) -> "Update":
        """The update that undoes this one."""
        return Update(-self.sign, self.relation, self.values, count=self.count)

    def __repr__(self) -> str:
        sign = "+" if self.is_insert else "-"
        inner = ", ".join(repr(value) for value in self.values)
        suffix = f" x{self.count}" if self.count != 1 else ""
        return f"{sign}{self.relation}({inner}){suffix}"


def serialize_update(update: Update) -> tuple:
    """The plain-data row form of one update: ``(sign, relation, values, count)``.

    This is the session snapshot's history-row format (JSON-serializable
    whenever the values are), reused verbatim by the ingestion tier's durable
    dead letters so a failed batch survives the process and can be retried
    after a restore.  The row is a tuple sharing the update's ``values``
    tuple, so it holds no fresh container the collector must keep tracking;
    JSON writes it as the list ``[sign, relation, [values…], count]``.
    """
    return (update.sign, update.relation, update.values, update.count)


def deserialize_update(row: Sequence[Any]) -> Update:
    """Revive an update from :func:`serialize_update` output — the tuple row
    or its JSON-decoded list form."""
    sign, relation, values, count = row
    return Update(sign, relation, tuple(values), count=count)


def insert(relation: str, *values: Any) -> Update:
    """Convenience constructor: ``insert('R', 1, 2)`` is ``+R(1, 2)``."""
    return Update(INSERT, relation, values)


def delete(relation: str, *values: Any) -> Update:
    """Convenience constructor: ``delete('R', 1, 2)`` is ``-R(1, 2)``."""
    return Update(DELETE, relation, values)


#: A signed net-multiplicity accumulator: ``(relation, values) -> net count``.
#: This is the online form of :func:`coalesce_updates` — the ingestion queue
#: ring-adds every submitted update into one of these on enqueue, so pending
#: state stays O(distinct keys) no matter how many updates were submitted.
NetAccumulator = Dict[Tuple[str, Tuple[Any, ...]], int]

def accumulate_update(net: NetAccumulator, update: Update) -> int:
    """Ring-add one update into a net accumulator, dropping net-zero entries.

    Returns the entry's new net count (0 means the update cancelled pending
    work and the key was removed).  A key is *never* left in the accumulator
    with net 0: the ingestion queue relies on it to keep its pending-key
    watermark honest under insert/delete churn.
    """
    key = (update.relation, update.values)
    count = net.get(key, 0) + update.sign * update.count
    if count == 0:
        net.pop(key, None)
    else:
        net[key] = count
    return count


class Delta:
    """A batch as one element of the ring of databases, ``∆D``.

    ``relations`` maps each relation to its delta map ``∆R : values -> count``
    — the counts signed and never 0, a deletion being a negative count —
    relations and keys in first-seen order.  This is the one form a batch
    takes below the public entry points: the ingestion queue drains into it,
    :func:`coalesce_updates` builds it, and both compiled executors run each
    relation's signed batch trigger on its delta map as it is (a proper
    semiring's split each map by sign first).  ``len()`` is the number of
    compact updates it denotes; :meth:`updates` materializes them, for the
    readers that want :class:`Update` objects (the session's history log,
    dead letters).  Consumers read the maps and never mutate them.
    """

    __slots__ = ("relations", "_tuples", "_by_sign")

    def __init__(self, relations: Dict[str, Dict[Tuple[Any, ...], int]]):
        self.relations = relations
        self._tuples: Optional[int] = None
        self._by_sign: Optional[list] = None

    @classmethod
    def from_net(cls, net: NetAccumulator) -> "Delta":
        """Group a net accumulator by relation, net-zero entries dropped (the
        accumulator never holds them when built through
        :func:`accumulate_update`; this is the second line of defense)."""
        relations: Dict[str, Dict[Tuple[Any, ...], int]] = {}
        for (relation, values), count in net.items():
            if count:
                rows = relations.get(relation)
                if rows is None:
                    rows = relations[relation] = {}
                rows[values] = count
        return cls(relations)

    @property
    def tuples(self) -> int:
        """The logical tuples the batch carries: its counts' magnitudes summed,
        unless its builder counted the tuples it was handed
        (:func:`group_updates`)."""
        if self._tuples is None:
            self._tuples = sum([sum(map(abs, rows.values())) for rows in self.relations.values()])
        return self._tuples

    def by_sign(self) -> list:
        """The batch split by sign: ``((relation, sign), delta map)`` pairs of
        positive counts, every insert event first.

        The event order of a proper semiring's executors, which have no −1 to
        run a signed delta map with: a delete-event recompute reads the ℤ
        counter maps through ``from_int``, which has no image for a
        transiently negative count.  Split once, for the triggers and the
        support tier alike.
        """
        if self._by_sign is None:
            inserts, deletes = [], []
            for relation, rows in self.relations.items():
                added, removed = {}, {}
                for values, count in rows.items():
                    if count > 0:
                        added[values] = count
                    else:
                        removed[values] = -count
                if added:
                    inserts.append(((relation, INSERT), added))
                if removed:
                    deletes.append(((relation, DELETE), removed))
            self._by_sign = inserts + deletes
        return self._by_sign

    def updates(self) -> List[Update]:
        """The compact :class:`Update` form: one per ``(relation, values)`` entry."""
        return [
            Update(INSERT, relation, values, count) if count > 0
            else Update(DELETE, relation, values, -count)
            for relation, rows in self.relations.items()
            for values, count in rows.items()
        ]

    def __len__(self) -> int:
        return sum(map(len, self.relations.values()))

    def __bool__(self) -> bool:
        return any(self.relations.values())

    def __repr__(self) -> str:
        return f"Delta({len(self)} updates in {len(self.relations)} relations)"


def coalesce_updates(updates: Iterable[Update]) -> Delta:
    """Net out duplicate and opposing updates of the same tuple: the batch's ``∆D``.

    One pass ring-adds every update into a net multiplicity per
    ``(relation, values)`` pair — an insert and a delete of the same tuple
    annihilate, and 10k inserts of one tuple become one entry with count
    10000 — and the survivors, signed, group by relation into the
    :class:`Delta` the batch triggers read.  Over a ring, applying the
    coalesced batch yields exactly the state of applying the original one
    (``D + u - u = D``), so net-zero churn (upserts, rollbacks, rapid
    add/remove cycles) costs no trigger work at all.  Relations and keys keep
    the first-seen order of the surviving tuples.

    This is the one-shot form of :func:`accumulate_update`, which the
    streaming ingestion queue (:mod:`repro.ingest`) applies per enqueue.
    """
    net: NetAccumulator = {}
    for update in updates:
        key = (update.relation, update.values)
        count = net.get(key, 0) + update.sign * update.count
        if count:
            net[key] = count
        else:
            del net[key]  # a zero sum means the key held the opposite count
    return Delta.from_net(net)


def group_updates(updates: Iterable[Update]) -> Delta:
    """The engine-level ``apply_batch`` form: :func:`coalesce_updates`, but
    counting every tuple it was handed — an insert/delete pair of one tuple
    nets to nothing and still counts 2 — so an engine's
    ``updates_processed`` matches applying the updates one at a time.
    """
    updates = updates if isinstance(updates, (list, tuple)) else list(updates)
    delta = coalesce_updates(updates)
    delta._tuples = sum([update.count for update in updates])
    return delta


class Database:
    """A named collection of gmrs with declared column orders.

    Parameters
    ----------
    schema:
        Mapping from relation name to its ordered column names, e.g.
        ``{"R": ("A", "B"), "S": ("C", "D")}``.  Relations not mentioned can
        still be added later with :meth:`declare`.
    ring:
        Coefficient structure for multiplicities (default ℤ).
    """

    def __init__(self, schema: Optional[Mapping[str, Sequence[str]]] = None, ring: Semiring = INTEGER_RING):
        self.ring = ring
        self._columns: Dict[str, Tuple[str, ...]] = {}
        self._relations: Dict[str, GMR] = {}
        #: Per-relation integer row counts, kept only for proper semirings:
        #: deletions cannot be folded as ``from_int(-1)`` multiplicities, so
        #: the counts are the source of truth and each relation's gmr is
        #: rebuilt lazily (``count`` rows become ``from_int(count)``).
        self._counts: Optional[Dict[str, Dict[Tuple[Any, ...], int]]] = (
            None if ring.is_ring else {}
        )
        self._stale: set = set()
        if schema:
            for name, columns in schema.items():
                self.declare(name, columns)

    # -- schema management ---------------------------------------------------------

    def declare(self, name: str, columns: Sequence[str]) -> None:
        """Declare (or re-declare, if unchanged) a relation and its column order."""
        columns = tuple(columns)
        if len(set(columns)) != len(columns):
            raise ValueError(f"relation {name!r} has duplicate column names: {columns}")
        existing = self._columns.get(name)
        if existing is not None and existing != columns:
            raise ValueError(
                f"relation {name!r} already declared with columns {existing}, got {columns}"
            )
        self._columns[name] = columns
        self._relations.setdefault(name, GMR.zero(ring=self.ring))
        if self._counts is not None:
            self._counts.setdefault(name, {})

    def columns(self, name: str) -> Tuple[str, ...]:
        """The declared column order of a relation."""
        try:
            return self._columns[name]
        except KeyError:
            raise KeyError(f"unknown relation {name!r}; declared: {sorted(self._columns)}") from None

    def relation_names(self) -> Iterable[str]:
        return self._columns.keys()

    def arity(self, name: str) -> int:
        return len(self.columns(name))

    def has_relation(self, name: str) -> bool:
        return name in self._columns

    @property
    def schema(self) -> Dict[str, Tuple[str, ...]]:
        """A copy of the full schema mapping."""
        return dict(self._columns)

    # -- contents --------------------------------------------------------------------

    def relation(self, name: str) -> GMR:
        """The current gmr stored under ``name`` (empty if never touched)."""
        self.columns(name)
        if self._counts is not None and name in self._stale:
            self._stale.discard(name)
            self._relations[name] = self._gmr_from_counts(name)
        return self._relations[name]

    def _gmr_from_counts(self, name: str) -> GMR:
        """Rebuild one relation's gmr from its integer row counts."""
        columns = self._columns[name]
        ring = self.ring
        data = {
            Record.from_values(columns, values): ring.from_int(count)
            for values, count in self._counts[name].items()
            if count > 0
        }
        return GMR(data, ring=ring)

    def counts(self, name: str) -> Dict[Tuple[Any, ...], int]:
        """The integer row counts of one relation (semiring databases only).

        Proper semirings cannot recover counts from multiplicities
        (``from_int`` is not injective — every positive count maps to the
        same idempotent value), so the database tracks them alongside the
        gmrs; this is what support-structure rebuilds and counter-map
        bootstraps read.
        """
        self.columns(name)
        if self._counts is None:
            raise TypeError(
                f"row counts are tracked only for proper semirings; "
                f"{self.ring.name!r} is a ring — read multiplicities off the gmr"
            )
        return self._counts[name]

    def __getitem__(self, name: str) -> GMR:
        return self.relation(name)

    def set_relation(self, name: str, value: GMR) -> None:
        """Replace the contents of a relation wholesale.

        Over a proper semiring the integer row counts cannot be recovered
        from the multiplicities, so each record is counted as one row —
        callers that care about multiset counts should :meth:`load` or
        :meth:`apply` instead.
        """
        self.columns(name)
        if value.ring != self.ring:
            raise ValueError("relation coefficient structure does not match the database")
        self._relations[name] = value
        if self._counts is not None:
            columns = self._columns[name]
            self._counts[name] = {
                record.values_for(columns): 1 for record, _value in value.items()
            }
            self._stale.discard(name)

    def load(self, name: str, tuples: Iterable[Sequence[Any]]) -> None:
        """Bulk-insert tuples (each in declared column order) into a relation."""
        columns = self.columns(name)
        if self._counts is not None:
            counts = self._counts[name]
            for row in tuples:
                values = tuple(row)
                if len(values) != len(columns):
                    raise ValueError(
                        f"tuple {values!r} does not match the arity of {name!r}"
                    )
                counts[values] = counts.get(values, 0) + 1
            self._stale.add(name)
            return
        addition = GMR.from_tuples(columns, tuples, ring=self.ring)
        self._relations[name] = self._relations[name] + addition

    def _refresh_all(self) -> None:
        """Rebuild every count-stale gmr (whole-database read paths)."""
        if self._counts is not None:
            for name in tuple(self._stale):
                self.relation(name)

    def size(self, name: Optional[str] = None) -> int:
        """Number of distinct records in one relation, or in the whole database."""
        if name is not None:
            return len(self.relation(name))
        self._refresh_all()
        return sum(len(gmr) for gmr in self._relations.values())

    def active_domain(self) -> frozenset:
        """All data values appearing anywhere in the database."""
        self._refresh_all()
        values = set()
        for gmr in self._relations.values():
            values.update(gmr.active_domain())
        return frozenset(values)

    def is_empty(self) -> bool:
        self._refresh_all()
        return all(gmr.is_zero() for gmr in self._relations.values())

    # -- updates -----------------------------------------------------------------------

    def record_for(self, update: Update) -> Record:
        """The record ``{A_i -> t_i}`` denoted by an update's values."""
        columns = self.columns(update.relation)
        if len(columns) != len(update.values):
            raise ValueError(
                f"update arity mismatch for {update.relation!r}: "
                f"expected {len(columns)} values, got {len(update.values)}"
            )
        return Record.from_values(columns, update.values)

    def delta_gmr(self, update: Update) -> GMR:
        """The gmr ``±count·{t}`` that the update adds to its relation."""
        record = self.record_for(update)
        return GMR.singleton(
            record,
            multiplicity=self.ring.from_int(update.sign * update.count),
            ring=self.ring,
        )

    def apply(self, update: Update) -> None:
        """Apply a single-tuple update in place: ``R += ±{t}``.

        Over a proper semiring the update adjusts the relation's integer row
        counts (deletions have no foldable ``from_int(-1)`` image); the gmr
        is rebuilt lazily on the next read.
        """
        if self._counts is not None:
            self.record_for(update)  # arity validation
            counts = self._counts[update.relation]
            values = update.values
            count = counts.get(values, 0) + update.sign * update.count
            if count <= 0:
                counts.pop(values, None)
            else:
                counts[values] = count
            self._stale.add(update.relation)
            return
        self._relations[update.relation] = self.relation(update.relation) + self.delta_gmr(update)

    def apply_all(self, updates: Iterable[Update]) -> None:
        for update in updates:
            self.apply(update)

    def updated(self, update: Update) -> "Database":
        """A copy of the database with the update applied (``D + u``)."""
        clone = self.copy()
        clone.apply(update)
        return clone

    def copy(self) -> "Database":
        """A shallow-but-safe copy (gmrs are immutable, so sharing them is fine)."""
        clone = Database(ring=self.ring)
        clone._columns = dict(self._columns)
        clone._relations = dict(self._relations)
        if self._counts is not None:
            clone._counts = {name: dict(counts) for name, counts in self._counts.items()}
            clone._stale = set(self._stale)
        return clone

    # -- dunder -----------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        if self.ring != other.ring or self._columns != other._columns:
            return False
        self._refresh_all()
        other._refresh_all()
        return self._relations == other._relations

    def __iter__(self) -> Iterator[Tuple[str, GMR]]:
        self._refresh_all()
        return iter(self._relations.items())

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}{self._columns[name]}: {len(gmr)} rows" for name, gmr in self._relations.items()
        )
        return f"Database({parts})"
