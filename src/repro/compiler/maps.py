"""Materialized-map definitions for the trigger compiler.

A map is a materialized view ``M[k1, ..., kn] := AggSum((k1, ..., kn), body)``:
one stored aggregate value per combination of key values.  The result of a
compiled query is the level-0 map; the maps materializing delta components are
its children, grandchildren, and so on — the view hierarchy of Section 1.1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Tuple

from repro.core.ast import AggSum, Expr, map_references, relations_mentioned
from repro.core.degree import degree


@dataclass(frozen=True)
class MapDefinition:
    """One materialized view of the compiled hierarchy.

    Attributes
    ----------
    name:
        Unique map name (``q`` for the result map, ``q_m1``, ``q_m2``, ... for
        auxiliary maps).
    key_vars:
        The map's key variables, in storage order.  The stored content is one
        aggregate value per key combination.
    definition:
        The AGCA body; the map's meaning is ``AggSum(key_vars, definition)``
        evaluated over the current database.
    level:
        Depth in the materialization hierarchy (0 for the query result map).
    """

    name: str
    key_vars: Tuple[str, ...]
    definition: Expr
    level: int = 0

    @property
    def arity(self) -> int:
        return len(self.key_vars)

    @property
    def relations(self) -> FrozenSet[str]:
        """Base relations this map depends on (each contributes two triggers)."""
        return relations_mentioned(self.definition)

    @property
    def degree(self) -> int:
        """Degree of the defining expression — bounds the remaining recursion depth."""
        return degree(self.definition)

    def as_aggregate(self) -> AggSum:
        """The full defining query ``AggSum(key_vars, definition)``."""
        return AggSum(self.key_vars, self.definition)

    def describe(self) -> str:
        """A one-line human-readable description used by ``explain()`` output."""
        keys = ", ".join(self.key_vars)
        return f"{self.name}[{keys}] := Sum_[{keys}] {self.definition}"

    def __repr__(self) -> str:
        return f"MapDefinition({self.describe()})"


def dependency_depths(maps: Mapping[str, "MapDefinition"]) -> Dict[str, int]:
    """Map-reference dependency depth of every map in a hierarchy.

    A map whose definition reads no other map has depth 0; otherwise its depth
    is one more than its deepest source.  This is the single ordering notion
    shared by the runtime's bootstrap (sources evaluated first), the map
    catalog's absorb (a view's maps listed sources first), and the
    compiler's recompute ordering (inner hierarchies refreshed first).

    Map references outside ``maps`` (delta maps, hand-built IR mistakes — the
    static verifier reports the latter) contribute no depth; a reference
    cycle raises :class:`ValueError` instead of exhausting the stack, naming
    the map on the cycle.
    """
    depths: Dict[str, int] = {}
    in_progress: set = set()

    def depth(name: str) -> int:
        cached = depths.get(name)
        if cached is None:
            if name in in_progress:
                raise ValueError(f"map dependency cycle through {name!r}")
            in_progress.add(name)
            sources = [
                ref for ref in map_references(maps[name].definition) if ref.name in maps
            ]
            cached = 1 + max((depth(ref.name) for ref in sources), default=-1)
            in_progress.discard(name)
            depths[name] = cached
        return cached

    for name in maps:
        depth(name)
    return depths
