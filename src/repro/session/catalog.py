"""Cross-view sharing of materialized maps (the shared map catalog).

A materialized map is a function of its keys, and the paper's factorization
(Example 1.3) exists so that each such function is stored once and read
wherever it is needed.  There is one sharing registry, the compiler's
(:meth:`repro.compiler.compile.Compiler._shared_map`, keyed by
:func:`repro.compiler.normal_form.sharing_key`).  The :class:`MapCatalog`
holds it across the views of a session: each view is compiled against the
catalog (``compile_query(..., catalog=catalog)``), so a function another view
materialized is read under its shared name from birth — keys permuted when it
is stored transposed — and its statements are never compiled; its triggers
and slice indexes are maintained once, not once per view.
:meth:`MapCatalog.absorb` only appends what the view adds.  A view whose
whole query is a stored map reads it (a duplicate registration is a free
alias) — unless the map is transposed: a view result keeps the user's key
order.

The catalog emits the union of its views as one
:class:`~repro.compiler.triggers.TriggerProgram`, executable by either
compiled backend — the sharing is invisible to the execution layer.
"""

from __future__ import annotations

from collections import ChainMap, Counter
from typing import Dict, List, Tuple

from repro.compiler.compile import assemble_triggers
from repro.compiler.maps import MapDefinition, dependency_depths
from repro.compiler.triggers import (
    BatchStatement,
    MaintenancePlan,
    RecomputeStatement,
    TriggerProgram,
)


class MapCatalog:
    """The sharing registry of materialized maps across compiled views.

    Views are compiled with ``compile_query(..., catalog=catalog)`` and added
    with :meth:`absorb`; :meth:`program` is their union.
    ``maps_deduplicated`` / ``statements_deduplicated`` count the maps (and
    their statements) isolated compiles would have built although the
    catalog held them.  With ``ac_dedup`` (the default) the identity sees
    through factor order, so two views spelling one join differently share
    their maps; pass ``ac_dedup=False`` for non-commutative coefficient rings.
    """

    def __init__(self, schema, ac_dedup: bool = True):
        self.schema: Dict[str, Tuple[str, ...]] = {
            name: tuple(columns) for name, columns in schema.items()
        }
        self.commutative = ac_dedup
        #: Shared map name -> definition (the union hierarchy).
        self.maps: Dict[str, MapDefinition] = {}
        #: Sharing key -> (shared map name, its key order).
        self.registry: Dict[object, Tuple[str, Tuple[int, ...]]] = {}
        #: Map -> the registry requests compiling its statements made; a view
        #: that reads the map replays them to number its own maps.
        self.requests: Dict[str, Tuple[Tuple[object, Tuple[int, ...]], ...]] = {}
        #: Map -> how many statements maintain it.
        self.statement_counts: Counter = Counter()
        #: Replaced by every absorb; a compiled view records the one it saw.
        self.state = object()
        #: Merged per-event statements, in absorption order.
        self._statements: Dict[Tuple[str, int], List[BatchStatement]] = {}
        #: Merged per-event recompute statements (nested-aggregate readers).
        self._recomputes: Dict[Tuple[str, int], List[RecomputeStatement]] = {}
        #: View name -> the shared map holding its result.
        self.result_maps: Dict[str, str] = {}
        #: Merged semiring maintenance contract of all absorbed views
        #: (``None`` until a plan-carrying program is absorbed).
        self.maintenance: "MaintenancePlan | None" = None
        #: Maps answered by a shared one, their statements, the transposed reads.
        self.maps_deduplicated = 0
        self.statements_deduplicated = 0
        self.maps_transposed = 0
        #: What :meth:`rollback` needs to undo the last absorb.
        self._last = None

    # -- registration ---------------------------------------------------------

    def absorb(self, view_name: str, program: TriggerProgram) -> Tuple[str, Tuple[str, ...]]:
        """Append one view compiled against this catalog.

        Returns ``(result_map_name, newly_added_map_names)``; the result map
        differs from ``view_name`` when the whole query is a stored map.  A
        rejected view leaves the catalog untouched.
        """
        if view_name in self.result_maps:
            raise ValueError(f"view {view_name!r} is already registered in this catalog")
        registration = program.registration
        if registration is None or registration.base is not self.state:
            raise ValueError(
                f"program {program.result_map!r} was not compiled against this catalog's "
                f"current state; compile it with compile_query(..., catalog=catalog)"
            )
        for name in program.maps:
            if name in self.maps:
                raise ValueError(
                    f"map name {name!r} collides with a map of a previously "
                    f"registered view; choose a different view name"
                )
        maintenance = self.maintenance
        if program.maintenance is not None:
            maintenance = (
                program.maintenance if maintenance is None else maintenance.merged(program.maintenance)
            )

        # Nothing below can fail.  A view's maps are listed sources first.
        depths = dependency_depths(ChainMap(program.maps, self.maps))
        added = sorted(
            program.maps, key=lambda name: (depths[name], program.maps[name].level, name)
        )
        for name in added:
            self.maps[name] = program.maps[name]
        identities = [identity for identity in registration.entries if identity not in self.registry]
        for identity in identities:
            self.registry[identity] = registration.entries[identity]
        self.requests.update(registration.requests)
        for event, trigger in program.triggers.items():
            self._statements.setdefault(event, []).extend(trigger.statements)
            self._recomputes.setdefault(event, []).extend(trigger.recomputes)
            self.statement_counts.update(s.target for s in trigger.statements + trigger.recomputes)
        self._last = (view_name, program, identities, self.maintenance, self.state)
        self.maintenance = maintenance
        self.maps_deduplicated += registration.maps_deduplicated
        self.statements_deduplicated += registration.statements_deduplicated
        self.maps_transposed += registration.maps_transposed
        self.result_maps[view_name] = program.result_map
        self.state = object()
        return program.result_map, tuple(added)

    def rollback(self) -> None:
        """Undo the last :meth:`absorb`: a group whose artifacts failed to
        rebuild for a view (e.g. code generation rejecting the ring) leaves no
        orphaned map that a later view could silently deduplicate onto."""
        view_name, program, identities, maintenance, state = self._last
        self._last = None
        del self.result_maps[view_name]
        for name in program.maps:
            del self.maps[name]
            del self.requests[name]
            self.statement_counts.pop(name, None)
        for identity in identities:
            del self.registry[identity]
        for event, trigger in program.triggers.items():
            for merged, appended in (
                (self._statements[event], trigger.statements),
                (self._recomputes[event], trigger.recomputes),
            ):
                del merged[len(merged) - len(appended):]
        registration = program.registration
        self.maps_deduplicated -= registration.maps_deduplicated
        self.statements_deduplicated -= registration.statements_deduplicated
        self.maps_transposed -= registration.maps_transposed
        self.maintenance = maintenance
        self.state = state

    # -- the combined program ------------------------------------------------

    def program(self) -> TriggerProgram:
        """The union of all absorbed views as one executable trigger program.

        ``result_map`` is the first registered view's result map — the
        combined program serves many views, so callers read each view's map
        directly rather than through ``TriggerRuntime.result()``.
        """
        if not self.result_maps:
            raise ValueError("the catalog has no registered views")
        anchor = next(iter(self.result_maps.values()))
        return TriggerProgram(
            result_map=anchor,
            maps=dict(self.maps),
            triggers=assemble_triggers(
                self._statements, self._recomputes, self.maps, signed=self.maintenance is None
            ),
            schema=dict(self.schema),
            maintenance=self.maintenance,
        )

    # -- introspection ---------------------------------------------------------

    def sharing_report(self) -> Dict[str, int]:
        """Counters summarizing how much maintenance work sharing removed."""
        return {
            "views": len(self.result_maps),
            "maps": len(self.maps),
            "maps_deduplicated": self.maps_deduplicated,
            "statements_deduplicated": self.statements_deduplicated,
            "maps_transposed": self.maps_transposed,
        }

    def __repr__(self) -> str:
        return (
            f"MapCatalog(views={len(self.result_maps)}, maps={len(self.maps)}, "
            f"deduplicated={self.maps_deduplicated})"
        )
