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
  hash index from the bound-prefix tuple to the set of full keys currently
  stored — one O(1) dict operation per signature per entry inserted/removed;
* :class:`IndexedMaps` is a plain ``dict`` of map tables that additionally
  carries its :class:`SliceIndexes`, so the AGCA evaluator and the generated
  trigger code can discover the indexes without any API changes.

Both execution backends (:class:`~repro.compiler.runtime.TriggerRuntime` and
the generated module of :mod:`repro.compiler.codegen`) keep the indexes in
sync through the same fold kernels (:mod:`repro.compiler.kernels`), so the
two can even be mixed over one runtime.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.compiler.triggers import TriggerProgram
from repro.core.delta import is_delta_map

#: A bound-position signature: the key positions bound at lookup time, sorted.
Positions = Tuple[int, ...]
#: Per-map signatures needed by a program.
IndexSpecs = Dict[str, Tuple[Positions, ...]]


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

    ``index_data`` is the ``(map, positions) -> {prefix -> keys}`` dict of
    :class:`SliceIndexes` (``.data``), which generated trigger modules address
    directly; ``specs`` are the map's bound-position signatures.  Every fold
    kernel (:mod:`repro.compiler.kernels`) journals the keys it inserted into
    / removed from its table and replays them here — per shard on a sharded
    table: buckets are keyed by bound *prefix*, so two shards' keys can share
    one.  ``added`` and
    ``removed`` are walked twice (sequences or dicts, not iterators).
    """
    for positions in specs:
        bucket = index_data[(name, positions)]
        for key, prefix in zip(added, _prefixes(added, positions)):
            entry = bucket.get(prefix)
            if entry is None:
                bucket[prefix] = {key}
            else:
                entry.add(key)
        for key, prefix in zip(removed, _prefixes(removed, positions)):
            entry = bucket.get(prefix)
            if entry is not None:
                entry.discard(key)
                if not entry:
                    del bucket[prefix]


class SliceIndexes:
    """Secondary hash indexes: ``(map, positions) -> {bound prefix -> set of keys}``.

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
        self.data: Dict[Tuple[str, Positions], Dict[Tuple[Any, ...], Set[Tuple[Any, ...]]]] = {
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

    def rebuild(self, maps: Mapping[str, Mapping[Tuple[Any, ...], Any]]) -> None:
        """Re-derive every index from the current map contents (post-bootstrap)."""
        for bucket in self.data.values():
            bucket.clear()
        for name in self.specs:
            table = maps.get(name)
            if table:
                self.apply_journal(name, table, ())

    # -- lookups -------------------------------------------------------------

    def bucket(
        self, name: str, positions: Positions
    ) -> Optional[Dict[Tuple[Any, ...], Set[Tuple[Any, ...]]]]:
        """The prefix index for one signature, or ``None`` when not maintained."""
        return self.data.get((name, tuple(positions)))

    def lookup(
        self, name: str, positions: Positions, prefix: Tuple[Any, ...]
    ) -> Iterable[Tuple[Any, ...]]:
        """All full keys of ``name`` matching the bound prefix (empty when absent)."""
        bucket = self.data.get((name, tuple(positions)))
        if bucket is None:
            return ()
        return bucket.get(tuple(prefix), ())

    # -- introspection -------------------------------------------------------

    def signature_count(self) -> int:
        return len(self.data)

    def total_indexed_keys(self) -> int:
        """Total key registrations across all signatures (space measure)."""
        return sum(
            len(entry) for bucket in self.data.values() for entry in bucket.values()
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
