"""Secondary hash indexes over materialized maps (index-backed map slices).

The paper's constant-work result assumes that a trigger statement touching a
map slice ``M[a, y]`` with ``a`` bound and ``y`` free costs time proportional
to the number of *matching* entries, not to ``|M|``.  A plain Python dict only
supports full-key lookups, so a partially-bound map reference would otherwise
degenerate into an O(|M|) scan of ``M.items()``.

This module restores the per-update cost bound:

* :func:`compute_index_specs` statically analyses a compiled
  :class:`~repro.compiler.triggers.TriggerProgram` and reports, for every map,
  which *bound-position signatures* its triggers will query it with (e.g.
  "``q_m1`` is sliced with key position 0 bound and position 1 free");
* :class:`SliceIndexes` maintains, for each ``(map, positions)`` signature, a
  hash index from the bound-prefix tuple to the full keys currently stored
  under it — one O(1) dict operation per signature per entry inserted/removed.
  A prefix with one key maps to that key tuple itself, a prefix with several
  to an insertion-ordered ``{key: None}`` dict, so the common one-key bucket
  costs no container (nothing for a restore to allocate or for the cyclic
  collector to walk).  Only this module knows the two shapes: interpreted
  readers go through :func:`slice_keys`, emitted code through
  :data:`SLICE_LOOP`;
* :class:`IndexedMaps` is a plain ``dict`` of map tables that additionally
  carries its :class:`SliceIndexes`, so the AGCA evaluator and the generated
  trigger code can discover the indexes without any API changes.

Both execution backends (:class:`~repro.compiler.runtime.TriggerRuntime` and
the generated module of :mod:`repro.compiler.codegen`) keep the indexes in
sync through the same fold kernels (:mod:`repro.compiler.kernels`), so the
two can even be mixed over one runtime.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Set, Tuple, Union

from repro.compiler.triggers import TriggerProgram
from repro.core.delta import is_delta_map

#: A bound-position signature: the key positions bound at lookup time, sorted.
Positions = Tuple[int, ...]
#: Per-map signatures needed by a program.
IndexSpecs = Dict[str, Tuple[Positions, ...]]
#: What one prefix maps to: its lone key bare, or two or more keys as
#: ``{key: None}`` in insertion order.  Keys are tuples, never dicts.
Bucket = Union[Tuple[Any, ...], Dict[Tuple[Any, ...], None]]

#: The emitted slice loop's header, binding ``{key}`` to each full key of
#: one bucket.  ``{lookup}`` is the bucket expression
#: ``_idx.get(prefix, _NO_KEYS)`` — an absent prefix reads the empty dict
#: ``_NO_KEYS = {}`` — assigned to ``{bucket}`` by a walrus, or, for a read
#: the row shares, the shared local itself.  It tells the shapes apart by the
#: container the index creates, never by the key's type.
SLICE_LOOP = "for {key} in ({bucket} if type({lookup}) is dict else ({bucket},)):"


def slice_keys(index: Mapping[Tuple[Any, ...], Bucket], prefix) -> Iterable[Tuple[Any, ...]]:
    """The full keys one signature's raw storage ``index`` holds under
    ``prefix`` (``()`` when none) — the interpreted readers' one view of a
    bucket's shape."""
    entry = index.get(prefix)
    if type(entry) is dict:
        return entry
    return () if entry is None else (entry,)


def iter_partial_reads(program: TriggerProgram):
    """Yield ``(statement, map_name, positions)`` for every partially-bound read.

    One pass over the statements' decoded monomials
    (:attr:`~repro.compiler.triggers.BatchStatement.monomials`), which carry
    the key positions every map read has bound when it runs — the order both
    executors evaluate.  A map reference whose key variables are *partially*
    bound there is reported once per occurrence, tagged with the statement
    (or recompute) performing it; delta maps are transient per-update tables
    that bind their keys by iteration and are never worth indexing.  A
    semiring program's support plans read too: an exhausted group reloads
    from its relation's base counter map, bound at the plan's key positions
    (tagged with the :class:`~repro.algebra.lattices.SupportPlan`).

    This is the single source of truth shared by :func:`compute_index_specs`
    (which turns the reads into index signatures) and the static verifier
    (:mod:`repro.compiler.verify`, which checks that a runtime's specs cover
    every read).
    """
    for trigger in program.triggers.values():
        for statement in trigger.statements + trigger.recomputes:
            for monomial in statement.monomials:
                for reference, positions in monomial.reads():
                    if (
                        positions
                        and len(positions) < len(reference.key_vars)
                        and not is_delta_map(reference.name)
                    ):
                        yield statement, reference.name, positions
    maintenance = program.maintenance
    if maintenance is not None:
        for plan in maintenance.supports.values():
            counter = maintenance.relation_counters.get(plan.relation)
            if counter is not None and 0 < len(plan.slice_positions) < len(plan.columns):
                yield plan, counter, plan.slice_positions


def index_specs_of(reads: Iterable[Tuple[Any, str, Positions]]) -> IndexSpecs:
    """One ``(map, positions)`` signature per distinct read shape of ``reads``."""
    specs: Dict[str, Set[Positions]] = {}
    for _statement, name, positions in reads:
        specs.setdefault(name, set()).add(positions)
    return {name: tuple(sorted(positions)) for name, positions in sorted(specs.items())}


def compute_index_specs(program: TriggerProgram) -> IndexSpecs:
    """The bound-position signatures every trigger statement slices each map with
    (:func:`index_specs_of` the reads of :func:`iter_partial_reads`)."""
    return index_specs_of(iter_partial_reads(program))


def _prefixes(keys, positions: Positions) -> list:
    """The bound prefix of every key, built without a generator per key."""
    if len(positions) == 1:
        (position,) = positions
        return [(key[position],) for key in keys]
    return [tuple([key[index] for index in positions]) for key in keys]


def apply_index_journal(index_data, specs, name: str, added, removed) -> None:
    """Insert/remove keys in raw slice-index storage — the one bucket upkeep.

    ``index_data`` is the ``(map, positions) -> {prefix -> bucket}`` dict of
    :class:`SliceIndexes` (``.data``), which generated trigger modules address
    directly; ``specs`` are the map's bound-position signatures.  A prefix's
    first key is stored bare; the second promotes the bucket to a
    ``{key: None}`` dict, and a removal that leaves one key demotes it back
    to that key, so no empty bucket survives and the shape always follows
    the count.  Re-adding a present key or removing an absent one changes
    nothing.  Every fold kernel (:mod:`repro.compiler.kernels`) journals the
    keys it inserted into / removed from its table and replays them here once
    its loop ends, also when the loop raised, so a failed fold leaves the
    indexes matching what the table holds; the undo journal's rollback
    replays its inverse through here too.  ``added`` and ``removed`` are
    walked twice (sequences or dicts, not iterators).
    """
    for positions in specs:
        bucket = index_data[(name, positions)]
        for key, prefix in zip(added, _prefixes(added, positions)):
            entry = bucket.get(prefix)
            if entry is None:
                bucket[prefix] = key
            elif type(entry) is dict:
                entry[key] = None
            elif entry != key:
                bucket[prefix] = {entry: None, key: None}
        for key, prefix in zip(removed, _prefixes(removed, positions)):
            entry = bucket.get(prefix)
            if type(entry) is dict:
                if entry.pop(key, entry) is None and len(entry) == 1:
                    bucket[prefix] = next(iter(entry))
            elif entry == key:
                del bucket[prefix]


class SliceIndexes:
    """Secondary hash indexes: ``(map, positions) -> {bound prefix -> bucket}``.

    A bucket is the prefix's lone key, stored bare, or an insertion-ordered
    ``{key: None}`` dict of its two or more keys (:func:`apply_index_journal`
    keeps the shape; :func:`slice_keys` reads either).

    The index set is fixed at construction from an :data:`IndexSpecs`; maps or
    signatures outside the specs are ignored by :meth:`add`/:meth:`discard`,
    which keeps maintenance O(#signatures of the touched map) per entry.
    """

    __slots__ = ("specs", "data")

    def __init__(self, specs: Optional[Mapping[str, Iterable[Positions]]] = None):
        self.specs: Dict[str, Tuple[Positions, ...]] = {
            name: tuple(sorted(set(map(tuple, positions))))
            for name, positions in (specs or {}).items()
            if positions
        }
        #: Raw storage, shared verbatim with the generated trigger code.
        self.data: Dict[Tuple[str, Positions], Dict[Tuple[Any, ...], Bucket]] = {
            (name, positions): {}
            for name, all_positions in self.specs.items()
            for positions in all_positions
        }

    # -- maintenance ---------------------------------------------------------

    def add(self, name: str, key: Tuple[Any, ...]) -> None:
        """Register a key that was just inserted into map ``name``."""
        self.apply_journal(name, (key,), ())

    def discard(self, name: str, key: Tuple[Any, ...]) -> None:
        """Forget a key that was just removed from map ``name``."""
        self.apply_journal(name, (), (key,))

    def apply_journal(self, name: str, added: Iterable[Tuple[Any, ...]],
                      removed: Iterable[Tuple[Any, ...]]) -> None:
        """Register ``added`` and forget ``removed`` keys of map ``name``."""
        apply_index_journal(self.data, self.specs.get(name, ()), name, added, removed)

    def rebuild(
        self,
        maps: Mapping[str, Mapping[Tuple[Any, ...], Any]],
        signatures: Optional[Iterable[Tuple[str, Positions]]] = None,
    ) -> None:
        """Re-derive indexes from the current map contents (post-bootstrap):
        every signature, or only ``signatures`` (``(map, positions)`` pairs
        of the specs)."""
        for signature in tuple(self.data) if signatures is None else signatures:
            name, positions = signature
            self.data[signature].clear()
            table = maps.get(name)
            if table:
                apply_index_journal(self.data, (positions,), name, table, ())

    # -- lookups -------------------------------------------------------------

    def bucket(
        self, name: str, positions: Positions
    ) -> Optional[Dict[Tuple[Any, ...], Bucket]]:
        """The prefix index for one signature (raw buckets: read them with
        :func:`slice_keys`), or ``None`` when not maintained."""
        return self.data.get((name, tuple(positions)))

    def lookup(
        self, name: str, positions: Positions, prefix: Tuple[Any, ...]
    ) -> Iterable[Tuple[Any, ...]]:
        """All full keys of ``name`` matching the bound prefix (empty when absent)."""
        index = self.data.get((name, tuple(positions)))
        if index is None:
            return ()
        return slice_keys(index, tuple(prefix))

    # -- introspection -------------------------------------------------------

    def signature_count(self) -> int:
        return len(self.data)

    def total_indexed_keys(self) -> int:
        """Total key registrations across all signatures (space measure)."""
        return sum(
            len(slice_keys(index, prefix)) for index in self.data.values() for prefix in index
        )

    def __repr__(self) -> str:
        return (
            f"SliceIndexes(maps={len(self.specs)}, signatures={self.signature_count()}, "
            f"keys={self.total_indexed_keys()})"
        )


class IndexedMaps(dict):
    """A map environment (``name -> table``) that carries its slice indexes.

    Being a ``dict`` subclass, it is a drop-in map environment for both the
    AGCA evaluator and the generated trigger module; the evaluator discovers
    the attached :class:`SliceIndexes` via ``getattr(maps, "indexes", None)``
    and uses them to avoid full-table scans for partially-bound references.
    ``compensation`` is the Kahan compensation store of the fused float totals
    (target map -> running low-order term): it lives with the tables, so
    whoever replaces table contents wholesale clears it, and whoever backs
    them up for a rollback copies it, in the same place.
    """

    __slots__ = ("indexes", "compensation")

    def __init__(self, tables: Mapping[str, Dict] = (), indexes: Optional[SliceIndexes] = None):
        super().__init__(tables)
        self.indexes = indexes if indexes is not None else SliceIndexes()
        self.compensation: Dict[str, float] = {}
