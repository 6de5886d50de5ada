"""The recursive trigger compiler (the paper's compilation algorithm).

Given an aggregate query ``AggSum(group_vars, body)`` over declared base
relations, the compiler produces a :class:`~repro.compiler.triggers.TriggerProgram`:

1. every *nested* aggregate (an ``AggSum`` appearing inside the body — as a
   factor, a condition operand, or an assignment source) is extracted into an
   auxiliary map one level below its parent, keyed by its group-by variables
   plus its correlation variables, and replaced by a map reference; this is
   the materialization hierarchy of the paper's closure theorem (AGCA is
   closed under deltas even for nested aggregates);
2. the query itself becomes the level-0 map;
3. for every map ``M`` and every event kind ``±∆R`` (a single-tuple update
   ``±R(~u)`` is the one-row case):

   * when ``R`` cannot change any map that ``M``'s definition *reads*, the
     delta of the definition with respect to the delta map ``∆R`` is taken
     symbolically (Section 6), simplified, expanded into monomials,
     factorized into variable-connected components (Example 1.3) —
     relation-bearing components are materialized as child maps,
     deduplicated structurally — and summed into one increment statement
     ``M[keys] += Σ rhs`` folded over ``∆R``;
   * when ``R`` *can* change a map that ``M`` reads (a nested aggregate below
     it), no closed-form increment exists — the delta of a condition
     ``x < M'[k]`` is not linear in ``M'`` — and the compiler emits a
     :class:`~repro.compiler.triggers.RecomputeStatement` instead: after the
     inner hierarchy's own triggers have fired, the affected groups of ``M``
     are re-evaluated from materialized maps only and the differences are
     folded in.  The definition is factorized first (Example 1.3 again): a
     relation-bearing component that shares only key variables with the
     map-reading guard beside it — SQL ``HAVING`` — becomes an aggregate
     child map, so the recompute is lookups at the group key; a relation
     that stays correlated with a nested map (``x < M'[k]``) is instead
     replaced by a *base-copy* map, itself maintained by ordinary triggers,
     whose slice the recompute walks per group;

4. steps 3 recurses on the newly created maps.  Termination is guaranteed by
   Theorem 6.4 for the closed-form part (child degrees strictly decrease) and
   by the finite nesting depth for the recompute part (each recompute's
   sources lie strictly deeper in the hierarchy).

Conditions may therefore contain aggregates of base relations, but not bare
relation atoms (``R(x) > 0`` must be written ``Sum(R(x)) > 0``); map
references never appear in user queries.
"""

from __future__ import annotations

import dataclasses
from collections import ChainMap, defaultdict
from types import SimpleNamespace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.ast import (
    Add,
    AggSum,
    Assign,
    Compare,
    Const,
    Expr,
    MapRef,
    Mul,
    Neg,
    Rel,
    Var,
    is_zero_literal,
    map_references,
    mul,
    relations_mentioned,
    walk,
)
from repro.core.delta import BatchUpdateEvent, delta, delta_map_name, is_delta_map
from repro.core.errors import CompilationError, SchemaError
from repro.core.factorization import Component, connected_components
from repro.core.normalization import (
    Monomial,
    combine_like_terms,
    from_polynomial,
    monomials_of,
    to_polynomial,
)
from repro.core.simplify import make_safe, order_for_safety, rename_variables, simplify
from repro.core.variables import all_variables, check_safety
from repro.algebra.lattices import direct_shape_plan
from repro.algebra.semirings import SUPPORT_STRUCTURE, TRACKED_RECOMPUTE, Semiring
from repro.compiler.maps import MapDefinition, dependency_depths
from repro.compiler.normal_form import normalize_rhs, read_positions, sharing_key
from repro.compiler.triggers import (
    BatchStatement,
    BatchTrigger,
    MaintenancePlan,
    RecomputeStatement,
    Registration,
    TriggerProgram,
)
from repro.compiler.verify import verify_program

#: What a compile without a catalog is seeded with.
_NO_CATALOG = SimpleNamespace(maps={}, registry={}, requests={}, statement_counts={}, state=None)


class Compiler:
    """Compiles AGCA aggregate queries into trigger programs over a map hierarchy."""

    def __init__(self, schema: Mapping[str, Sequence[str]]):
        self.schema: Dict[str, Tuple[str, ...]] = {
            name: tuple(columns) for name, columns in schema.items()
        }

    # -- public API -------------------------------------------------------------

    def compile(
        self,
        query: Expr,
        name: str = "q",
        group_vars: Optional[Sequence[str]] = None,
        verify: bool = True,
        normalize: bool = True,
        ring: Optional[Semiring] = None,
        catalog=None,
    ) -> TriggerProgram:
        """Compile a query into a trigger program.

        ``query`` may be an ``AggSum`` (its group variables are used) or a bare
        body combined with explicit ``group_vars``.

        With ``normalize`` (the default) statement right-hand sides are
        brought into ring normal form (:mod:`repro.compiler.normal_form`) —
        AC-sorted, like terms merged, cancelling statements dropped — and map
        deduplication keys are AC-canonical, so commuted spellings of one
        product share their materialized maps.  Only valid over commutative
        rings; pass ``normalize=False`` when compiling for a non-commutative
        coefficient structure.  With ``verify`` (the default) the finished
        program is checked against the trigger-IR invariants
        (:func:`repro.compiler.verify.verify_program`) before being returned.

        ``ring`` selects the maintenance contract: ``None`` or a true ring
        (additive inverses) compiles the classic invertible program — one
        signed trigger per relation, whose delta map carries a deletion as
        count −1.  A proper *semiring* (MIN/MAX, top-k,
        boolean, natural) instead routes deletions through the declared
        maintenance strategy: integer-valued base counter maps absorb both
        signs, support-structure maps are maintained by the executors'
        support tier, and everything else re-derives affected groups via
        tracked :class:`RecomputeStatement`\\ s.  The resulting program
        carries a :class:`~repro.compiler.triggers.MaintenancePlan`.

        ``catalog`` (a :class:`repro.session.MapCatalog`) seeds the map
        registry with the maps other views materialized: a function it stores
        is read under its shared name (keys permuted when stored transposed)
        and its statements are never compiled, so the program holds only what
        this view adds, plus the ``registration`` :meth:`MapCatalog.absorb`
        commits.  An added map is numbered as in an isolated compile.  Under
        a semiring a catalog map keeps the strategy it was materialized with.
        The catalog's ``commutative`` flag, not ``normalize``, then decides
        whether the identity sees through factor order.
        """
        body, keys = self._normalize_query(query, group_vars)
        self._validate(body, keys)
        if is_delta_map(name):
            raise CompilationError(
                f"map name {name!r} uses the reserved delta-map prefix"
            )

        semiring_mode = ring is not None and not ring.is_ring
        self._commutative = normalize if catalog is None else catalog.commutative
        self._catalog = catalog = _NO_CATALOG if catalog is None else catalog
        #: The maps this compile reads or adds, in the order an isolated
        #: compile would register them; :attr:`_shared` marks the catalog's.
        self._maps: Dict[str, MapDefinition] = {}
        self._shared: set = set()
        #: Every map a definition may read: this compile's, then the catalog's.
        self._known = ChainMap(self._maps, catalog.maps)
        #: Sharing key -> (map name, its key order); see :meth:`_shared_map`.
        self._registry: Dict[object, Tuple[str, Tuple[int, ...]]] = {}
        #: Added map -> the requests compiling its statements made (see
        #: :meth:`_lookup`); ``_log`` is the one being recorded.
        self._requests: Dict[str, Dict[object, Tuple[int, ...]]] = {}
        self._log: Optional[Dict[object, Tuple[int, ...]]] = None
        self._transposed = 0
        self._statements: Dict[Tuple[str, int], List[BatchStatement]] = defaultdict(list)
        self._recomputes: Dict[Tuple[str, int], List[RecomputeStatement]] = defaultdict(list)
        #: Relation -> the name of its base-copy map.
        self._base_copies: Dict[str, str] = {}
        self._trigger_relations_cache: Dict[str, frozenset] = {}
        self._counter = 0
        self._base_name = name
        self._normalize = normalize
        self._semiring_mode = semiring_mode

        worklist: List[MapDefinition] = []
        simplified = simplify(body, needed_vars=set(keys) | all_variables(body))
        extracted = self._extract_nested(simplified, frozenset(keys), level=1, worklist=worklist)
        result_body = make_safe(
            simplify(extracted, needed_vars=set(keys) | all_variables(extracted))
        )
        if semiring_mode and isinstance(result_body, Rel):
            # A bare relation count is integer-valued by construction; there
            # is no ring-valued fold to maintain, and it would share the
            # relation's counter map.
            raise CompilationError(
                "the result of a semiring query must aggregate a value "
                f"expression; a bare relation count cannot be maintained in {ring.name}"
            )
        result_map = MapDefinition(name=name, key_vars=tuple(keys), definition=result_body, level=0)
        result_name, result_entry = self._register_result(result_map, worklist)

        while worklist:
            self._process_map(worklist.pop(0), worklist)

        maintenance = None
        if semiring_mode:
            maintenance = self._apply_semiring_maintenance(ring)

        added = {name: d for name, d in self._maps.items() if name not in self._shared}
        entries = {
            identity: entry
            for identity, entry in self._registry.items()
            if entry[0] not in self._shared
        }
        entries.update(result_entry)
        program = TriggerProgram(
            result_map=result_name,
            maps=added,
            triggers=assemble_triggers(
                self._statements, self._recomputes, added, signed=maintenance is None
            ),
            schema=dict(self.schema),
            maintenance=maintenance,
            registration=Registration(
                base=catalog.state,
                entries=entries,
                requests={name: tuple(log.items()) for name, log in self._requests.items()},
                maps_deduplicated=len(self._shared),
                statements_deduplicated=sum(catalog.statement_counts[name] for name in self._shared),
                maps_transposed=self._transposed,
            ),
        )
        if verify:
            # The added statements, against every map they may read.
            verify_program(dataclasses.replace(program, maps={**catalog.maps, **added}))
        return program

    # -- query validation ----------------------------------------------------------

    def _normalize_query(
        self, query: Expr, group_vars: Optional[Sequence[str]]
    ) -> Tuple[Expr, Tuple[str, ...]]:
        if isinstance(query, AggSum):
            if group_vars is not None and tuple(group_vars) != query.group_vars:
                raise CompilationError(
                    "group_vars argument conflicts with the query's AggSum group variables"
                )
            return query.expr, query.group_vars
        return query, tuple(group_vars or ())

    def _validate(self, body: Expr, keys: Tuple[str, ...]) -> None:
        for node in walk(body):
            if isinstance(node, MapRef):
                raise CompilationError("user queries must not contain map references")
            if isinstance(node, Rel):
                declared = self.schema.get(node.name)
                if declared is None:
                    raise SchemaError(f"relation {node.name!r} is not declared in the schema")
                if len(declared) != len(node.columns):
                    raise SchemaError(
                        f"relation atom {node.name}{node.columns} does not match declared "
                        f"arity {len(declared)}"
                    )
            if isinstance(node, Compare):
                self._validate_value_operand(node.left)
                self._validate_value_operand(node.right)
            if isinstance(node, Assign):
                self._validate_value_operand(node.expr)
        check_safety(AggSum(keys, body))

    @staticmethod
    def _validate_value_operand(operand: Expr) -> None:
        """Condition operands may aggregate relations, never read them bare.

        ``x < Sum(R(y) * y)`` compiles (the aggregate is materialized);
        ``x < R(y)`` does not denote a value and is rejected up front.
        """
        stack = [operand]
        while stack:
            node = stack.pop()
            if isinstance(node, AggSum):
                continue  # relations below an aggregate are materialized away
            if isinstance(node, Rel):
                raise CompilationError(
                    "condition operands and assignment sources must not contain bare "
                    f"relation atoms (wrap {node.name}{node.columns} in Sum(...))"
                )
            stack.extend(node.children())

    # -- nested-aggregate extraction (the materialization hierarchy) -------------------

    def _extract_nested(
        self,
        expr: Expr,
        outer_keys: frozenset,
        level: int,
        worklist: List[MapDefinition],
    ) -> Expr:
        """Replace every nested ``AggSum`` in ``expr`` by a materialized map reference.

        Correlation follows the product's sideways binding discipline: an
        inner aggregate sees the enclosing map's key variables plus whatever
        the factors to its *left* produce, so any of its variables shared with
        that context become key variables of the extracted map.  (Place nested
        aggregates after the factors that bind their correlated variables —
        the order the SQL frontend emits.)
        """
        rewritten: List[Monomial] = []
        for monomial in to_polynomial(expr):
            bound = set(outer_keys)
            factors: List[Expr] = []
            for factor in monomial.factors:
                factors.append(
                    self._extract_in_factor(factor, frozenset(bound), level, worklist)
                )
                bound.update(_produced_variables(factor))
            rewritten.append(Monomial(monomial.coefficient, tuple(factors)))
        return from_polynomial(rewritten)

    def _extract_in_factor(
        self, factor: Expr, context: frozenset, level: int, worklist: List[MapDefinition]
    ) -> Expr:
        if isinstance(factor, AggSum):
            return self._materialize_aggregate(factor, context, level, worklist)
        if isinstance(factor, Compare):
            left = self._extract_in_value(factor.left, context, level, worklist)
            right = self._extract_in_value(factor.right, context, level, worklist)
            if left is factor.left and right is factor.right:
                return factor
            return Compare(left, factor.op, right)
        if isinstance(factor, Assign):
            source = self._extract_in_value(factor.expr, context, level, worklist)
            return factor if source is factor.expr else Assign(factor.var, source)
        return factor

    def _extract_in_value(
        self, expr: Expr, context: frozenset, level: int, worklist: List[MapDefinition]
    ) -> Expr:
        """Extract aggregates from a value-position expression (condition operand)."""
        if isinstance(expr, AggSum):
            return self._materialize_aggregate(expr, context, level, worklist)
        if isinstance(expr, Neg):
            inner = self._extract_in_value(expr.expr, context, level, worklist)
            return expr if inner is expr.expr else Neg(inner)
        if isinstance(expr, Add):
            terms = tuple(
                self._extract_in_value(term, context, level, worklist) for term in expr.terms
            )
            return expr if terms == expr.terms else Add(terms)
        if isinstance(expr, Mul):
            factors = tuple(
                self._extract_in_value(factor, context, level, worklist)
                for factor in expr.factors
            )
            return expr if factors == expr.factors else Mul(factors)
        return expr

    def _materialize_aggregate(
        self,
        aggregate: AggSum,
        context: frozenset,
        level: int,
        worklist: List[MapDefinition],
    ) -> MapRef:
        """Materialize one nested aggregate as a (possibly shared) auxiliary map.

        The map is keyed by the aggregate's group-by variables plus its
        correlation variables (variables shared with the enclosing context —
        a correlated subquery stores one aggregate value per correlation
        binding).  In factor position the returned reference behaves like a
        relation whose multiplicities are the stored values; in value
        position it is read as a scalar, with absent entries reading as zero
        — exactly the value the aggregate would have produced.
        """
        inner_context = context | frozenset(aggregate.group_vars)
        inner_body = self._extract_nested(aggregate.expr, inner_context, level + 1, worklist)
        inner_body = simplify(inner_body)

        ordered_vars = ordered_variables(inner_body)
        for group_var in aggregate.group_vars:
            if group_var not in ordered_vars:
                ordered_vars.append(group_var)
        key_set = (frozenset(ordered_vars) & context) | frozenset(aggregate.group_vars)
        original_keys = tuple(name for name in ordered_vars if name in key_set)

        renaming = {name: f"k{index}" for index, name in enumerate(original_keys)}
        fresh = 0
        for name in ordered_vars:
            if name not in renaming:
                renaming[name] = f"v{fresh}"
                fresh += 1
        canonical_expr = make_safe(rename_variables(inner_body, renaming))
        canonical_keys = tuple(f"k{index}" for index in range(len(original_keys)))
        return self._shared_map(canonical_expr, canonical_keys, original_keys, level, worklist)

    # -- per-map trigger generation ---------------------------------------------------

    def _process_map(self, definition: MapDefinition, worklist: List[MapDefinition]) -> None:
        if definition.name in self._shared:
            # Its statements exist: replay the requests compiling them made,
            # which numbers this view's maps as compiling them would.
            for identity, order in self._catalog.requests[definition.name]:
                self._lookup(identity, order, worklist)
            return
        self._log = self._requests[definition.name] = {}
        self._compile_map(definition, worklist)
        self._log = None

    def _compile_map(self, definition: MapDefinition, worklist: List[MapDefinition]) -> None:
        source_maps = tuple(
            dict.fromkeys(ref.name for ref in map_references(definition.definition))
        )
        recompute_relations = set()
        for source in source_maps:
            recompute_relations |= self._map_trigger_relations(source)
        if recompute_relations and not self._semiring_mode:
            definition = self._factor_guarded_components(
                definition, recompute_relations, worklist
            )
        closed_relations = set(definition.relations) - recompute_relations

        # Over a ring the +∆R trigger runs on signed counts and serves
        # deletions too; a semiring's deletions route through its own.
        signs = (1, -1) if self._semiring_mode else (1,)
        if recompute_relations:
            recompute = self._build_recompute(definition, worklist)
            for relation in sorted(recompute_relations):
                for sign in signs:
                    self._recomputes[(relation, sign)].append(recompute)

        for relation in sorted(closed_relations):
            for sign in signs:
                self._compile_statement(definition, relation, sign, worklist)

    #: Overridden per-compile; class default keeps hand-driven uses working.
    _semiring_mode = False

    def _normal_form(self, rhs: Expr) -> Expr:
        """Right-hand-side cleanup: ring normal form, or plain like-term merging.

        Statements start with nothing bound — the delta references drive the
        fold; the delta-first factor rank of the normal form keeps them in the
        leading position the projection analysis needs.
        """
        if self._semiring_mode:
            # Like-term merging rewrites m + m as 2·m — only sound when integer
            # coefficients act ℤ-linearly, which idempotent semirings break.
            return rhs
        if self._normalize:
            return normalize_rhs(rhs)
        return from_polynomial(combine_like_terms(to_polynomial(rhs)))

    def _shared_map(
        self,
        canonical_expr: Expr,
        canonical_keys: Tuple[str, ...],
        original_keys: Tuple[str, ...],
        level: int,
        worklist: List[MapDefinition],
    ) -> MapRef:
        """A reference at ``original_keys`` to the map ``AggSum(canonical_keys, canonical_expr)``.

        The registry is keyed by the map's identity as a function
        (:func:`repro.compiler.normal_form.sharing_key`: modulo bindings, key
        order and — under normalization — commutativity), so a commuted,
        binding-spelled or transposed spelling of a registered map reads it,
        its keys permuted; otherwise a new map is registered.  The *stored*
        definition keeps its safety-ordered spelling either way.
        """
        identity, order = sharing_key(
            canonical_expr, canonical_keys, self._commutative, self._semiring_mode
        )
        entry = self._lookup(identity, order, worklist)
        if entry is None:
            name = f"{self._base_name}_m{self._counter}"
            definition = MapDefinition(
                name=name, key_vars=canonical_keys, definition=canonical_expr, level=level
            )
            self._registry[identity] = (name, order)
            self._maps[name] = definition
            worklist.append(definition)
            return MapRef(name, original_keys)
        name, registered = entry
        positions = read_positions(registered, order)
        return MapRef(name, tuple(original_keys[position] for position in positions))

    def _lookup(
        self, identity: object, order: Tuple[int, ...], worklist: List[MapDefinition]
    ) -> Optional[Tuple[str, Tuple[int, ...]]]:
        """The registered ``(name, key order)`` of a function, or ``None`` when new.

        A function this compile has not met takes the next map number whether
        the catalog stores it or not, as in an isolated compile; a catalog map
        joins the worklist where that compile would process its own copy.
        The request is logged for the map whose statements are compiling.
        """
        if self._log is not None:
            self._log.setdefault(identity, order)
        entry = self._registry.get(identity)
        if entry is None:
            self._counter += 1
            entry = self._catalog.registry.get(identity)
            if entry is not None:
                self._registry[identity] = entry
                self._share(entry[0], worklist)
                if read_positions(entry[1], order) != tuple(range(len(order))):
                    self._transposed += 1
        return entry

    def _share(self, name: str, worklist: List[MapDefinition]) -> None:
        """Read the catalog map ``name`` in this compile."""
        definition = self._catalog.maps[name]
        self._shared.add(name)
        self._maps[name] = definition
        worklist.append(definition)

    def _register_result(
        self, definition: MapDefinition, worklist: List[MapDefinition]
    ) -> Tuple[str, Dict[object, Tuple[str, Tuple[int, ...]]]]:
        """The view's result map and its registry entry (none when shared).

        A query the catalog stores in the same key order is read from that
        map; a transposed one gets its own, a view result keeping the user's
        key order.  No map below the result can equal it, so it stays out of
        this compile's own registry.
        """
        identity, order = sharing_key(
            definition.definition, definition.key_vars, self._commutative, self._semiring_mode
        )
        entry = self._catalog.registry.get(identity)
        if entry is not None and read_positions(entry[1], order) == tuple(range(len(order))):
            self._share(entry[0], worklist)
            return entry[0], {}
        self._maps[definition.name] = definition
        worklist.append(definition)
        return definition.name, ({identity: (definition.name, order)} if entry is None else {})

    # -- trigger statements (relation-valued deltas) ----------------------------------

    def _compile_statement(
        self,
        definition: MapDefinition,
        relation: str,
        sign: int,
        worklist: List[MapDefinition],
    ) -> None:
        """Compile one ``target += fold(∆R)`` statement for a closed-form event.

        The delta is taken with respect to the *relation-valued* update
        ``±∆R`` (:class:`~repro.core.delta.BatchUpdateEvent`): matching atoms
        become references to the delta map, whose key variables stay free, so
        the statement is a fold over the pre-aggregated delta joined against
        materialized child maps (the component registry deduplicates them
        structurally).  Higher-degree monomials in ``∆R`` — the product rule's
        ``∆α·∆β`` — carry the interactions between rows of one delta that
        one-at-a-time replay realizes sequentially; on a one-row delta they
        are the single-tuple delta's self-join terms.
        """
        arity = len(self.schema[relation])
        event = BatchUpdateEvent(sign, relation, arity)
        raw_delta = delta(definition.definition, event)
        if is_zero_literal(raw_delta):
            return
        keys = set(definition.key_vars)
        simplified = simplify(raw_delta, bound_vars=keys, needed_vars=keys)
        if is_zero_literal(simplified):
            return
        rhs_terms: List[Expr] = []
        for monomial in monomials_of(simplified):
            compiled = self._compile_monomial(monomial, definition, event, worklist)
            if compiled is not None:
                # Alpha-rename the monomial's free variables canonically so the
                # symmetric terms of a self-join delta (∆R·M over x vs over y)
                # become structurally equal and combine into one scaled fold.
                rhs_terms.append(_canonicalize_free_variables(compiled, keys))
        if not rhs_terms:
            return
        rhs = rhs_terms[0] if len(rhs_terms) == 1 else Add(tuple(rhs_terms))
        rhs = self._normal_form(rhs)
        if is_zero_literal(rhs):
            return
        statement = BatchStatement(
            target=definition.name,
            target_keys=definition.key_vars,
            rhs=rhs,
            delta_map=event.delta_map,
            delta_arity=arity,
        )
        projection, coefficient = _delta_projection(statement)
        if projection is not None:
            decoded = statement.monomials
            statement = dataclasses.replace(statement, projection=projection, coefficient=coefficient)
            # The same right-hand side: the cached decode carries over.
            vars(statement)["monomials"] = decoded
        self._statements[(relation, sign)].append(statement)

    def _compile_monomial(
        self,
        monomial: Monomial,
        parent: MapDefinition,
        event: BatchUpdateEvent,
        worklist: List[MapDefinition],
    ) -> Optional[Expr]:
        """Materialize one delta monomial's relation-bearing components.

        The separator — the variable set across which components must not be
        merged — is the parent's key variables plus every variable a delta-map
        reference binds: at execution time those are bound by iterating the
        (small) delta map.  Because all of a delta reference's
        variables lie in the separator, delta references always form singleton
        components and are never swallowed into a materialized child map.
        """
        if monomial.is_zero():
            return None
        delta_vars = set()
        for factor in monomial.factors:
            if isinstance(factor, MapRef) and factor.name == event.delta_map:
                delta_vars.update(factor.key_vars)
        separator = frozenset(parent.key_vars) | frozenset(delta_vars)
        components = connected_components(monomial.factors, separator)
        rhs_factors: List[Expr] = []
        for component in components:
            if component.has_relations:
                map_reference, deferred = self._materialize_component(
                    component, separator, parent, worklist
                )
                rhs_factors.append(map_reference)
                rhs_factors.extend(deferred)
            else:
                rhs_factors.extend(component.factors)
        # The delta references drive the fold: list them first so both
        # executors iterate the (small) batch rather than a materialized map.
        # The safety ordering then runs over the whole monomial with eager
        # assignment conversion, so an equality between two delta key
        # variables (a within-batch self-join) becomes an assignment after
        # the first reference and turns the second into a hash lookup
        # instead of a nested scan — in the stored (interpreted) order, not
        # just in the generated code.
        driving = [
            factor
            for factor in rhs_factors
            if isinstance(factor, MapRef) and factor.name == event.delta_map
        ]
        rest = [
            factor
            for factor in rhs_factors
            if not (isinstance(factor, MapRef) and factor.name == event.delta_map)
        ]
        ordered = order_for_safety(
            driving + rest, bound_vars=(), eager_assignments=True
        )
        return Monomial(monomial.coefficient, tuple(ordered)).to_expr()

    # -- semiring maintenance routing ---------------------------------------------------

    def _apply_semiring_maintenance(self, ring: Semiring) -> MaintenancePlan:
        """Reroute deletion handling for a coefficient structure without inverses.

        Insert-side folds are kept wherever the simplified delta is free of
        negation (monotone joins fold correctly in any semiring).  Deletions
        cannot fold, so per map either (a) the map has the *direct shape* and
        the ring declares support-structure maintenance — the executors'
        support tier keeps a bounded best-k sidecar per group and this pass
        only has to drop the delete-side folds — or (b) a tracked
        :class:`RecomputeStatement` re-derives the affected groups from
        integer-valued base counter maps (which absorb both signs with plain
        integer arithmetic).
        """
        read_elsewhere = self._maps_read_elsewhere()
        strategies: Dict[str, str] = {}
        supports: Dict[str, object] = {}
        worklist: List[MapDefinition] = []
        ring_maps = [
            name
            for name, definition in self._maps.items()
            if not isinstance(definition.definition, Rel)
        ]
        for name in ring_maps:
            definition = self._maps[name]
            if name in self._shared:
                # It keeps the strategy it was materialized with; request the
                # base copies that strategy reads, as compiling it did.
                for node in walk(definition.definition):
                    if isinstance(node, Rel):
                        self._base_copy(node.name, definition, worklist)
                continue
            plan = None
            if (
                ring.maintenance == SUPPORT_STRUCTURE
                and name not in read_elsewhere
                and not self._unsafe_insert_relations(name)
            ):
                plan = direct_shape_plan(name, definition.key_vars, definition.definition)
            if plan is not None:
                strategies[name] = SUPPORT_STRUCTURE
                supports[name] = plan
                # The support rebuilds on exhaustion by scanning the base
                # counter map, so make sure the relation has one.
                self._base_copy(plan.relation, definition, worklist)
                self._drop_folds(name, sign=-1)
                continue
            strategies[name] = TRACKED_RECOMPUTE
            recompute = self._build_recompute(definition, worklist)
            self._drop_folds(name, sign=-1)
            for relation in sorted(self._map_trigger_relations(name)):
                self._attach_recompute(relation, -1, recompute)
            for relation in self._drop_unsafe_insert_folds(name):
                self._attach_recompute(relation, 1, recompute)
        while worklist:
            self._process_map(worklist.pop(0), worklist)
        counter_maps = tuple(
            name
            for name, definition in self._maps.items()
            if isinstance(definition.definition, Rel) and name not in self._shared
        )
        for name in counter_maps:
            strategies[name] = "counter"
        return MaintenancePlan(
            ring_name=ring.name,
            strategies=strategies,
            counter_maps=counter_maps,
            supports=supports,
            relation_counters=dict(self._base_copies),
        )

    def _maps_read_elsewhere(self) -> frozenset:
        """Maps referenced by any definition, statement RHS, or recompute body."""
        reads = set()
        for definition in self._maps.values():
            for ref in map_references(definition.definition):
                reads.add(ref.name)
        for statements in self._statements.values():
            for statement in statements:
                reads.update(statement.maps_read())
        for recomputes in self._recomputes.values():
            for recompute in recomputes:
                reads.update(recompute.maps_read())
        return frozenset(reads)

    def _unsafe_insert_relations(self, name: str) -> List[str]:
        """Relations whose insert-side fold into ``name`` requires negation."""
        return sorted(
            relation
            for (relation, sign), statements in self._statements.items()
            if sign == 1
            and any(
                statement.target == name
                and (
                    _contains_negation(statement.rhs)
                    or _is_negative_coefficient(statement.coefficient)
                )
                for statement in statements
            )
        )

    def _drop_folds(self, name: str, sign: int, relations=None) -> None:
        """Remove every fold statement targeting ``name`` for one event sign
        (of ``relations`` only, when given)."""
        for (relation, event_sign), statements in list(self._statements.items()):
            if event_sign == sign and (relations is None or relation in relations):
                self._statements[(relation, event_sign)] = [
                    statement for statement in statements if statement.target != name
                ]

    def _drop_unsafe_insert_folds(self, name: str) -> List[str]:
        """Drop negation-bearing insert folds of ``name``; the affected relations.

        The recompute that replaces them must not double-count with a
        surviving fold.
        """
        unsafe = self._unsafe_insert_relations(name)
        self._drop_folds(name, 1, unsafe)
        return unsafe

    def _attach_recompute(
        self, relation: str, sign: int, recompute: RecomputeStatement
    ) -> None:
        """Register a recompute for one event unless the target already has one."""
        existing = self._recomputes[(relation, sign)]
        if not any(statement.target == recompute.target for statement in existing):
            existing.append(recompute)

    # -- recompute-based maintenance (maps reading other maps) --------------------------

    def _map_trigger_relations(self, name: str) -> frozenset:
        """All base relations whose updates can change the contents of map ``name``."""
        cached = self._trigger_relations_cache.get(name)
        if cached is None:
            definition = self._known[name]
            relations = set(definition.relations)
            for ref in map_references(definition.definition):
                relations |= self._map_trigger_relations(ref.name)
            cached = frozenset(relations)
            self._trigger_relations_cache[name] = cached
        return cached

    def _factor_guarded_components(
        self,
        definition: MapDefinition,
        recompute_relations: "set[str]",
        worklist: List[MapDefinition],
    ) -> MapDefinition:
        """Example 1.3 applied to a map definition that reads other maps.

        ``Sum`` distributes over factors that share no variable beyond the
        map's keys, so in ``P(c, p, s) * s * (m[c] > 1000)`` — SQL ``HAVING``
        — the relation part is an aggregate of its own, guarded by a
        condition on the group key alone.  Such a component (no map read, next
        to a relation-free component that reads one) becomes a child map
        through the ordinary component registry, which deduplicates it against
        the inner aggregate; the definition keeps only lookups, and the
        recompute needs no base copy.  Only relations whose events recompute
        this map anyway are factored away, so no closed-form trigger is lost.
        Ring mode only: a support-structure map must not gain a reader.
        """
        separator = frozenset(definition.key_vars)
        rewritten: List[Monomial] = []
        changed = False
        for monomial in to_polynomial(definition.definition):
            components = connected_components(monomial.factors, separator)
            reads_maps = [bool(map_references(c.to_expr())) for c in components]
            guarded = any(
                reads and not component.has_relations
                for component, reads in zip(components, reads_maps)
            )
            factors: List[Expr] = []
            for component, reads in zip(components, reads_maps):
                if (
                    guarded
                    and component.has_relations
                    and not reads
                    and relations_mentioned(component.to_expr()) <= recompute_relations
                ):
                    reference, deferred = self._materialize_component(
                        component, separator, definition, worklist
                    )
                    factors.append(reference)
                    factors.extend(deferred)
                    changed = True
                else:
                    factors.extend(component.factors)
            rewritten.append(Monomial(monomial.coefficient, tuple(factors)))
        if not changed:
            return definition
        factored = dataclasses.replace(
            definition, definition=make_safe(from_polynomial(rewritten))
        )
        self._maps[definition.name] = factored
        return factored

    def _build_recompute(
        self, definition: MapDefinition, worklist: List[MapDefinition]
    ) -> RecomputeStatement:
        body = make_safe(self._replace_relations(definition.definition, definition, worklist))
        return RecomputeStatement(
            target=definition.name,
            target_keys=definition.key_vars,
            body=body,
            # Nesting depth of the sources: orders recomputes within one event.
            depth=dependency_depths(self._known)[definition.name],
            source_projections=self._source_projections(body, definition.key_vars),
        )

    def _replace_relations(
        self, expr: Expr, parent: MapDefinition, worklist: List[MapDefinition]
    ) -> Expr:
        """Swap every base-relation atom for a reference to its base-copy map.

        The resulting re-evaluation body reads materialized maps only, so a
        recompute never needs the base relations the runtime does not store.
        """
        if isinstance(expr, Rel):
            return self._base_copy(expr.name, parent, worklist, expr.columns)
        if isinstance(expr, Add):
            return Add(tuple(self._replace_relations(t, parent, worklist) for t in expr.terms))
        if isinstance(expr, Mul):
            return Mul(tuple(self._replace_relations(f, parent, worklist) for f in expr.factors))
        if isinstance(expr, Neg):
            return Neg(self._replace_relations(expr.expr, parent, worklist))
        if isinstance(expr, AggSum):
            return AggSum(expr.group_vars, self._replace_relations(expr.expr, parent, worklist))
        if isinstance(expr, Compare):
            return Compare(
                self._replace_relations(expr.left, parent, worklist),
                expr.op,
                self._replace_relations(expr.right, parent, worklist),
            )
        if isinstance(expr, Assign):
            return Assign(expr.var, self._replace_relations(expr.expr, parent, worklist))
        return expr

    def _base_copy(
        self,
        relation: str,
        parent: MapDefinition,
        worklist: List[MapDefinition],
        columns: Sequence[str] = (),
    ) -> MapRef:
        """A read of the materialized copy of one base relation (created on demand).

        The copy is keyed by all columns and holds the relation's
        multiplicities; it is an ordinary leaf of the hierarchy, maintained by
        the closed-form trigger ``B[~u] += ±1``.  The reference reads the
        relation's columns as ``columns`` (a transposed copy shared with
        another map reads them permuted).
        """
        keys = tuple(f"k{index}" for index in range(len(self.schema[relation])))
        copy = self._shared_map(Rel(relation, keys), keys, keys, parent.level + 1, worklist)
        self._base_copies[relation] = copy.name
        return rename_variables(copy, dict(zip(keys, columns)))

    @staticmethod
    def _source_projections(
        body: Expr, target_keys: Tuple[str, ...]
    ) -> Optional[Tuple[Tuple[str, Tuple[int, ...]], ...]]:
        """Per-source key positions of the target keys, or ``None`` for full mode.

        When every source map's key tuple contains all of the target's group
        variables, a changed source entry pins the one group it can affect —
        the recompute visits only those groups (tracked mode).  A source
        lacking a group variable (e.g. a scalar global aggregate) can affect
        every group, so the target is re-derived in full.
        """
        if not target_keys:
            return None
        projections: Dict[Tuple[str, Tuple[int, ...]], None] = {}
        for ref in map_references(body):
            try:
                positions = tuple(ref.key_vars.index(key) for key in target_keys)
            except ValueError:
                return None
            projections[(ref.name, positions)] = None
        return tuple(projections)

    def _materialize_component(
        self,
        component: Component,
        separator: frozenset,
        parent: MapDefinition,
        worklist: List[MapDefinition],
    ) -> Tuple[MapRef, Tuple[Expr, ...]]:
        """Materialize one relation-bearing component as a (possibly shared) child map.

        Non-equality conditions that link a component variable to a separator
        variable (a group-by key or an update argument) cannot be folded into
        the materialized view — the view would acquire an "input variable"
        ranging over the whole domain.  Such conditions are *deferred* to the
        trigger statement, and the component variables they mention become
        additional keys of the child map so the statement can still constrain
        them (this is how inequality joins stay incrementally maintainable).
        Returns the map reference plus the deferred condition factors.
        """
        component, deferred = self._defer_boundary_conditions(component, separator)
        ordered_vars = self._variables_in_order(component)
        deferred_vars = set()
        for condition in deferred:
            deferred_vars.update(all_variables(condition))
        child_keys_original = tuple(
            name
            for name in ordered_vars
            if name in separator or name in deferred_vars
        )

        renaming = {}
        for index, name in enumerate(child_keys_original):
            renaming[name] = f"k{index}"
        fresh = 0
        for name in ordered_vars:
            if name not in renaming:
                renaming[name] = f"v{fresh}"
                fresh += 1

        canonical_factors = tuple(
            rename_variables(factor, renaming) for factor in component.factors
        )
        canonical_factors = order_for_safety(canonical_factors, bound_vars=())
        canonical_keys = tuple(f"k{index}" for index in range(len(child_keys_original)))
        canonical_expr = mul(*canonical_factors)
        reference = self._shared_map(
            canonical_expr, canonical_keys, child_keys_original, parent.level + 1, worklist
        )
        return reference, deferred

    @staticmethod
    def _defer_boundary_conditions(
        component: Component, separator: frozenset
    ) -> Tuple[Component, Tuple[Expr, ...]]:
        """Split off non-equality conditions that cross the component/separator boundary."""
        from repro.core.ast import Compare

        kept: List[Expr] = []
        deferred: List[Expr] = []
        for factor in component.factors:
            if isinstance(factor, Compare) and factor.op != "=":
                variables = all_variables(factor)
                crosses_boundary = bool(variables & separator) and bool(variables - separator)
                if crosses_boundary:
                    deferred.append(factor)
                    continue
            kept.append(factor)
        return Component(tuple(kept)), tuple(deferred)

    @staticmethod
    def _variables_in_order(component: Component) -> List[str]:
        """Component variables ordered by first appearance (stable canonical order)."""
        seen: List[str] = []
        for factor in component.factors:
            for name in sorted(all_variables(factor)):
                if name not in seen:
                    seen.append(name)
        return seen


def assemble_triggers(
    statements: Mapping[Tuple[str, int], Sequence[BatchStatement]],
    recomputes: Mapping[Tuple[str, int], Sequence[RecomputeStatement]],
    maps: Mapping[str, MapDefinition],
    signed: bool = True,
) -> Dict[Tuple[str, int], BatchTrigger]:
    """One :class:`BatchTrigger` per event with any work, in event order;
    ``signed`` (a ring program's) marks each one as the relation's signed
    trigger.

    Statements are ordered parents-before-children: within one event all
    reads use the pre-update state, so this ordering is presentational — it
    mirrors Equation (1)'s increasing-j order.  Recomputes run after the
    fold, inner hierarchies first, so each one reads post-update sources and
    pre-update target values.  Shared between the compiler (a view's added
    statements) and the multi-view :class:`repro.session.MapCatalog` (the
    union of every view's) so both order one statement set identically.
    """
    triggers: Dict[Tuple[str, int], BatchTrigger] = {}
    for event in sorted(set(statements) | set(recomputes)):
        ordered = tuple(
            sorted(statements.get(event, ()), key=lambda statement: maps[statement.target].level)
        )
        inner_first = tuple(
            sorted(recomputes.get(event, ()), key=lambda statement: statement.depth)
        )
        if ordered or inner_first:
            relation, sign = event
            triggers[event] = BatchTrigger(
                relation=relation,
                sign=sign,
                delta_map=delta_map_name(relation),
                statements=ordered,
                recomputes=inner_first,
                signed=signed,
            )
    return triggers


def _canonicalize_free_variables(expr: Expr, fixed: "set[str] | frozenset") -> Expr:
    """Rename every variable outside ``fixed`` to ``__b0, __b1, ...`` in walk order."""
    renaming: Dict[str, str] = {}
    fresh = 0
    for name in ordered_variables(expr):
        if name in fixed or name in renaming:
            continue
        renaming[name] = f"__b{fresh}"
        fresh += 1
    return rename_variables(expr, renaming)


def _delta_projection(statement: BatchStatement) -> Tuple[Optional[Tuple[int, ...]], Any]:
    """The key-projection analysis behind the pre-aggregated fast fold.

    Returns ``(positions, coefficient)`` when the statement's right-hand side
    is exactly one monomial ``coefficient · ∆R(k…)`` over its delta map with
    pairwise-distinct key variables and every target key among them — the
    statement is then a pure projection of the pre-aggregated batch onto the
    target map, executable without evaluating any expression.  ``(None, 1)``
    otherwise.  Reads the decoded monomial: the delta reference leads it, and
    a trailing assignment that binds (nothing bound at its position) renames
    a delta key.
    """
    if len(statement.monomials) != 1:
        return None, 1
    coefficient, factors, bound = statement.monomials[0]
    reference = factors[0] if factors else None
    if not (
        isinstance(coefficient, (int, float))
        and isinstance(reference, MapRef)
        and reference.name == statement.delta_map
        and len(set(reference.key_vars)) == len(reference.key_vars)
    ):
        return None, 1
    # Delta key positions by variable, extended through pure-rename assignments
    # (``k0 := v0`` with ``v0`` a delta key variable — the base-copy shape).
    positions_by_variable: Dict[str, int] = {
        key_var: position for position, key_var in enumerate(reference.key_vars)
    }
    for factor, positions in zip(factors[1:], bound[1:]):
        if (
            isinstance(factor, Assign)
            and not positions
            and isinstance(factor.expr, Var)
            and factor.expr.name in positions_by_variable
        ):
            positions_by_variable[factor.var] = positions_by_variable[factor.expr.name]
            continue
        return None, 1
    try:
        positions = tuple(positions_by_variable[key] for key in statement.target_keys)
    except KeyError:
        return None, 1
    return positions, coefficient


def _contains_negation(expr: Expr) -> bool:
    """True when a statement RHS uses the additive inverse.

    ``Neg`` nodes and bare negative constant coefficients both require
    ``ring.neg`` at execution time.  Comparison operands are data-level
    expressions (a ``Const(-5)`` inside ``x < -5`` is a value, not a
    coefficient), so the scan does not descend into them.
    """
    if isinstance(expr, Compare):
        return False
    if isinstance(expr, Neg):
        return True
    if isinstance(expr, Const):
        return _is_negative_coefficient(expr.value)
    return any(_contains_negation(child) for child in expr.children())


def _is_negative_coefficient(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and value < 0


def _produced_variables(factor: Expr) -> frozenset:
    """Variables a monomial factor binds for the factors to its right."""
    if isinstance(factor, Rel):
        return frozenset(factor.columns)
    if isinstance(factor, MapRef):
        return frozenset(factor.key_vars)
    if isinstance(factor, Assign):
        return frozenset({factor.var})
    return frozenset()


def compile_query(
    query: Expr,
    schema: Mapping[str, Sequence[str]],
    name: str = "q",
    group_vars: Optional[Sequence[str]] = None,
    verify: bool = True,
    normalize: bool = True,
    ring: Optional[Semiring] = None,
    catalog=None,
) -> TriggerProgram:
    """Convenience wrapper around :class:`Compiler`."""
    return Compiler(schema).compile(
        query,
        name=name,
        group_vars=group_vars,
        verify=verify,
        normalize=normalize,
        ring=ring,
        catalog=catalog,
    )


def ordered_variables(expr: Expr) -> List[str]:
    """All variable names of an expression in first-appearance (walk) order.

    Unlike :func:`repro.core.variables.all_variables` (a set), the order is a
    deterministic function of the expression structure, which makes it usable
    for alpha-renaming into a canonical naming.
    """
    seen: List[str] = []
    seen_set = set()

    def note(name: str) -> None:
        if name not in seen_set:
            seen_set.add(name)
            seen.append(name)

    for node in walk(expr):
        if isinstance(node, Rel):
            for column in node.columns:
                note(column)
        elif isinstance(node, MapRef):
            for key in node.key_vars:
                note(key)
        elif isinstance(node, AggSum):
            for group_var in node.group_vars:
                note(group_var)
        elif isinstance(node, Var):
            note(node.name)
        elif isinstance(node, Assign):
            note(node.var)
    return seen
