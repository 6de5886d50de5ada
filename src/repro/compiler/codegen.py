"""Code generation: compiled triggers as straight-line Python (the "NC⁰C" analogue).

The paper compiles update triggers to a tiny fragment of C whose statements
only add and multiply fixed-size numbers and read/write individual map
entries.  This module performs the same compilation step targeting Python
source code: every trigger becomes a function of the event's delta map
``∆R : values → multiplicity`` (one row for a single-tuple update) that
manipulates plain dictionaries with a bounded amount of arithmetic per entry
touched.  The generated code contains no query operators — no joins, no
aggregation — just lookups, loops over map slices, additions and
multiplications, which is precisely the point of the paper's compilation
result.

Three properties of the generated module matter for the paper's cost claims:

* **Ring-generic arithmetic.**  Generation is parameterized by the coefficient
  :class:`~repro.algebra.semirings.Semiring`.  For the two structures whose
  operations are native Python arithmetic (``INTEGER_RING`` and
  ``FLOAT_FIELD``) the emitted code uses ``+``/``*``/literal ``0`` directly;
  for every other *ring* the emitted code routes through ``ring.add`` /
  ``ring.mul`` / ``ring.zero`` so that e.g. ``Fraction`` or operation-counting
  coefficients compute exactly what the interpreted backend computes.
  Structures without additive inverses (proper semirings) are compiled in
  *maintenance mode*: the program must carry a
  :class:`~repro.compiler.compile.MaintenancePlan` (``compile_query(...,
  ring=...)``), whose ℤ-valued counter maps fold with native integer
  arithmetic while ring-valued maps fold with the semiring's operations —
  counter-map and delta-map reads inside ring statements pass through
  ``ring.from_int``, change capture carries post-update values (differences
  are undefined without subtraction), and deletions lower to counter updates
  plus tracked/full recomputes exactly as in the interpreted runtime.  A
  proper semiring without a plan still raises :class:`CompilationError`.

* **Index-backed map slices.**  A map reference whose key variables are only
  partially bound at its point of use is compiled to a lookup in a secondary
  hash index (``repro.compiler.indexes``) instead of an O(|map|) scan of
  ``.items()``, keeping the per-update work proportional to the number of
  matching entries.  The generated apply loop maintains those indexes as
  entries are inserted and removed; the emitted slice loop's header is the
  index module's :data:`~repro.compiler.indexes.SLICE_LOOP`, which walks a
  bucket of either shape (a lone key, or a ``{key: None}`` dict).

* **One trigger form.**  ``apply_batch`` takes a batch as a
  :class:`~repro.gmr.database.Delta` — one signed delta map
  ``∆R : values → multiplicity`` per relation — and hands each map to the
  relation's generated trigger, compiled from the relation-valued delta of
  each map's definition (``repro.core.delta.BatchUpdateEvent``); ``apply``
  hands it the one-row map of a single update, a deletion's count negated.
  Over a ring that is one trigger per relation; a proper semiring's module
  keeps one per ``(relation, sign)`` and runs each sign's rows apart.  A
  trigger scans ``∆R`` once: one loop unpacks each row, reads what the row
  alone addresses once for all statements (the plan's
  :class:`~repro.compiler.plan.RowReads`) and runs every statement's
  remaining factors; the folds follow, one read-modify-write per distinct
  target key, then recomputes, once per group.

* **Only the query-dependent part is generated.**  What is emitted is the
  statement bodies (``batch_on_*`` / ``total_batch_*``), printed from the
  lowered :class:`~repro.compiler.plan.BatchPlan`.  The query-independent
  steps — the fold itself (change capture, tracked keys, slice-index
  upkeep), the recompute write-back, the compensated float total and the
  update loop over a ``Delta``'s relations or one row — are the plain-Python
  :mod:`repro.compiler.kernels`, injected into the module
  namespace (``_fold``, ``_rwrite``, ``_fold_total``, …) exactly as the
  interpreted runtime calls them.

In addition, the generated functions thread an optional change-collection
hook (``_CH``): a mapping from *watched* map names to accumulator dicts into
which every fold also ring-adds its increments.  This powers the
change-data-capture of ``on_change`` subscriptions (engine- and session-level)
at zero cost when no subscriber is attached — the hook is ``None`` and every
guard short-circuits.  The undo journal of the transactional batch path
(``_J``) travels the same way: one more trailing argument handed to the
kernels, ``None`` outside a transaction.

The generated module is also useful practically: it is considerably faster
than interpreting the trigger statements' decoded monomials (see
``benchmarks/bench_update_cost_vs_size.py`` and
``benchmarks/bench_batch_updates.py`` for the comparisons).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.algebra.semirings import FLOAT_FIELD, INTEGER_RING, Semiring
from repro.compiler.cost import whole_batch_fold
from repro.compiler.indexes import SLICE_LOOP, IndexedMaps, IndexSpecs, SliceIndexes
from repro.compiler.kernels import FoldKernels, make_apply_batch, recompute_pairs
from repro.compiler.plan import BatchPlan, EventPlan, lower_batch_plan
from repro.gmr.database import Delta
from repro.compiler.triggers import BatchStatement, BatchTrigger, TriggerProgram
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
)
from repro.core.errors import CompilationError

_PYTHON_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}

#: Internal identifiers the name allocator must never hand out to AGCA variables.
_RESERVED_NAMES = (
    "maps", "_new", "_fkey", "_chm", "_CH", "_J", "_IDX", "_TRK", "_sk",
    "_delta", "_k", "_v", "_total", "_ent", "type", "dict",
)


class _NameAllocator:
    """Maps AGCA variable names to unique, valid Python identifiers."""

    def __init__(self, reserved: Iterable[str] = _RESERVED_NAMES):
        self._names: Dict[str, str] = {}
        self._used = set(reserved)

    def reserve(self, name: str) -> None:
        self._used.add(name)

    def __call__(self, variable: str) -> str:
        if variable in self._names:
            return self._names[variable]
        candidate = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in variable)
        if not candidate or candidate[0].isdigit():
            candidate = "v_" + candidate
        base = candidate
        suffix = 0
        while candidate in self._used:
            suffix += 1
            candidate = f"{base}_{suffix}"
        self._used.add(candidate)
        self._names[variable] = candidate
        return candidate


class _Writer:
    """Accumulates indented source lines."""

    def __init__(self, indent: int = 0):
        self.lines: List[str] = []
        self.indent = indent

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def block(self) -> "_Writer":
        """Return self after increasing the indentation (used after emitting a header)."""
        self.indent += 1
        return self

    def dedent(self, levels: int = 1) -> None:
        self.indent -= levels


class _Row:
    """What one emitted block computes once per ``∆R`` row, printed where the
    block began.  ``columns`` are the locals holding the row's columns (none:
    a block that sees no row); a key made only of those is *row-bound*.
    :meth:`local` names an expression on first request and :meth:`flush`
    inserts the assignments at the mark in request order — key tuples, the
    reads ``shared`` by several statements
    (:attr:`~repro.compiler.plan.RowReads.shared`), common coefficient
    prefixes; at function level, slice-index handles."""

    def __init__(self, writer: _Writer, columns=(), shared=frozenset(), row_key=None):
        self.writer, self.mark, self.indent = writer, len(writer.lines), writer.indent
        self.columns: Dict[str, int] = {local: at for at, local in enumerate(columns)}
        self.shared = shared
        #: The local holding the whole row as a tuple (a batch loop's ``_k``).
        self.row_key = row_key
        self.locals: Dict[str, str] = {}

    def local(self, prefix: str, expression: str) -> str:
        return self.locals.setdefault(expression, f"{prefix}{len(self.locals)}")

    def key(self, key_vars, environment: Dict[str, str]) -> str:
        """A key-tuple expression; a row-bound one is built once per row."""
        literal = _key_tuple(key_vars, environment)
        columns = [self.columns.get(environment[key]) for key in key_vars]
        if not columns or None in columns:
            return literal
        if self.row_key is not None and columns == list(range(len(self.columns))):
            return self.row_key
        return self.local("_kt", literal)

    def read(self, name, positions, key_vars, environment, expression: str) -> Optional[str]:
        """The per-row local of a read the plan shares across statements."""
        columns = tuple(self.columns.get(environment[key_vars[p]]) for p in positions)
        if (name, positions, columns) in self.shared:
            return self.local("_r", expression)
        return None

    def flush(self) -> None:
        pad = "    " * self.indent
        self.writer.lines[self.mark : self.mark] = [
            f"{pad}{name} = {expression}" for expression, name in self.locals.items()
        ]


class _Frame:
    """One emitted trigger function: its table names, its function-level
    ``prologue`` (``_idxN = _IDX[(map, positions)]``) and the :class:`_Row` of
    the block being emitted — the trigger's one loop over ``∆R``; a row
    without columns elsewhere."""

    def __init__(self, writer: _Writer, table, delta_map: str):
        self.table = table
        self.delta_map = delta_map
        self.prologue = self.row = _Row(writer)


class _EmitContext:
    """Everything statement emission needs to know about the target module.

    ``native`` selects literal ``+``/``*``/``0`` arithmetic (exact for the
    built-in integer and float structures); otherwise the emitted code calls
    the ring-operation aliases bound in the module prologue.  ``specs`` are
    the index signatures of :func:`compute_index_specs`, consulted to decide
    whether a partially-bound map reference can use an index lookup.

    In semiring maintenance mode the master (ring) context carries three
    extras: ``counter_maps`` (the plan's ℤ-valued base-copy maps, folded with
    native arithmetic through the companion ``int_context``), ``int_sources``
    (maps whose stored values are integers — counter maps plus, inside a
    batch trigger, its delta map — that ring statements must read through
    ``ring.from_int``), and ``semiring`` (switches change capture to
    post-update values).
    """

    def __init__(self, writer: _Writer, ring: Semiring, native: bool, specs: IndexSpecs):
        self.writer = writer
        self.ring = ring
        self.native = native
        self.specs = specs
        self.semiring = False
        self.counter_maps: frozenset = frozenset()
        self.int_sources: frozenset = frozenset()
        self.int_context: Optional["_EmitContext"] = None
        self._constants: Dict[str, str] = {}

    # -- semiring-mode statement routing ------------------------------------

    def for_target(self, map_name: str) -> "_EmitContext":
        """The context whose arithmetic a statement targeting ``map_name`` uses."""
        if self.int_context is not None and map_name in self.counter_maps:
            return self.int_context
        return self

    def fold_name(self, map_name: str) -> str:
        """The fold helper for a statement targeting ``map_name``."""
        if self.int_context is not None and map_name in self.counter_maps:
            return "_fold_int"
        return "_fold"

    # -- ring-dependent fragments -------------------------------------------

    def zero_literal(self) -> str:
        return "0" if self.native else "_ZERO"

    def folded_add(self, left: str, right: str) -> str:
        if self.native:
            return f"{left} + {right}"
        return f"_add({left}, {right})"

    def nonzero_guard(self, expression: str) -> str:
        if self.native:
            return f"if {expression} != 0:"
        return f"if not _is_zero({expression}):"

    def coerced(self, expression: str) -> str:
        """A data value used as a multiplicity (mirrors the evaluator's coercion)."""
        if self.native:
            return expression
        return f"_coerce({expression})"

    def constant(self, value: Any) -> str:
        """A module-level constant holding ``value`` in the coefficient structure."""
        if self.native:
            return repr(value)
        key = repr(value)
        name = self._constants.get(key)
        if name is None:
            name = f"_C{len(self._constants)}"
            self._constants[key] = name
        return name

    def value_product(self, coefficient: Any, value_terms: List[str], row: _Row) -> str:
        """The increment expression ``coefficient * t1 * ... * tn``.  Native
        products associate left, so a leading run of per-row terms (``_v``,
        row columns) is a subexpression: ``row`` computes it once, and floats
        round exactly as in the unshared text."""
        if self.native:
            if not value_terms:
                return repr(coefficient)
            terms = value_terms if coefficient in (1, -1) else [repr(coefficient)] + value_terms
            run = len(terms) - len(value_terms)
            while run < len(terms) and (terms[run] == "_v" or terms[run] in row.columns):
                run += 1
            if run > 1:
                terms = [row.local("_c", " * ".join(terms[:run]))] + terms[run:]
            product = " * ".join(terms)
            return f"-({product})" if coefficient == -1 else product
        if not value_terms:
            if self.semiring:
                # A bare multiplicity: n identical tuples contribute
                # one ⊕ ... ⊕ one = from_int(n), not coerce(n) (those
                # differ for min-plus and friends).
                return "_ONE" if coefficient == 1 else f"_from_int({coefficient!r})"
            return self.constant(coefficient)
        product = value_terms[0]
        for term in value_terms[1:]:
            product = f"_mul({product}, {term})"
        if coefficient == 1:
            return product
        if coefficient == -1:
            return f"_neg({product})"
        if self.semiring:
            return f"_mul(_from_int({coefficient!r}), {product})"
        return f"_mul({self.constant(coefficient)}, {product})"

    def emit_constant_definitions(self) -> None:
        for literal, name in self._constants.items():
            self.writer.emit(f"{name} = _coerce({literal})")


class GeneratedTriggers:
    """The result of code generation: Python source plus the executable namespace.

    The module's arithmetic is fixed to the ``ring`` used at generation time;
    :class:`~repro.ivm.recursive.RecursiveIVM` regenerates when constructed
    over a different coefficient structure.  ``plan`` is the lowered
    :class:`~repro.compiler.plan.BatchPlan` the source was printed from; its
    ``index_specs`` describe the secondary slice indexes the generated code
    expects (and maintains) — when the caller does not supply a
    :class:`SliceIndexes`, directly or attached to the map environment
    (:class:`~repro.compiler.indexes.IndexedMaps`), one is built and kept per
    map environment automatically.
    """

    def __init__(self, program: TriggerProgram, source: str, ring: Semiring, plan: BatchPlan):
        self.program = program
        self.source = source
        self.ring = ring
        self.plan = plan
        self.index_specs: IndexSpecs = plan.index_specs
        self._required_signatures = {
            (name, positions)
            for name, all_positions in self.index_specs.items()
            for positions in all_positions
        }
        kernels = FoldKernels(ring)
        self._namespace: Dict[str, Any] = {
            "_RING": ring,
            # The query-independent steps (repro.compiler.kernels), shared
            # with the interpreted runtime: statement folds (``_fold_int`` for
            # a semiring plan's ℤ-valued counter maps), the recompute
            # write-back and the Kahan-compensated float total.
            "_fold": kernels.fold,
            "_fold_int": kernels.fold_int,
            "_rwrite": kernels.write_back,
            "_rpairs": recompute_pairs,
            "_fold_total": kernels.fold_total,
        }
        namespace = self._namespace
        exec(compile(source, f"<generated triggers for {program.result_map}>", "exec"), namespace)
        self._stats: Dict[str, int] = namespace["_STATS"]
        # The shared update loop (repro.compiler.kernels) over the emitted triggers.
        self._apply_batch, self._apply_row = make_apply_batch(
            plan,
            ring,
            namespace["BATCH_TRIGGERS"],
            {
                event.event: namespace[f"total_batch_{_function_stem(event)}"]
                for event in plan.events
                if event.kind == "total"
            },
        )
        self._own_indexes: Optional[SliceIndexes] = None
        self._own_maps: Optional[Dict[str, Dict[Tuple[Any, ...], Any]]] = None
        self._own_counts: Dict[str, int] = {}
        #: ``(storage, data)``: the last supplied ``SliceIndexes.data`` found
        #: to hold every signature the module reads (its keys are fixed at
        #: construction), and what the triggers then get (it, or ``None``).
        self._verified: Tuple[Any, Any] = (None, None)
        #: ``(plain dict, its IndexedMaps wrapper)`` — see :meth:`_compensated`.
        self._own_environment: Tuple[Any, Any] = (None, None)

    # -- update application ---------------------------------------------------

    def apply(
        self,
        maps: Dict[str, Dict[Tuple[Any, ...], Any]],
        relation: str,
        sign: int,
        values: Tuple[Any, ...],
        indexes: Optional[SliceIndexes] = None,
        changes: Optional[Dict[str, Dict[Tuple[Any, ...], Any]]] = None,
        count: int = 1,
    ) -> None:
        """Apply one update ``±relation(values)`` with multiplicity ``count``:
        the relation's generated trigger runs on the one-row delta map
        ``{values: ±count}`` (a semiring module's event trigger, on
        ``{values: count}``).

        ``changes`` optionally maps watched map names to accumulators that
        receive the per-key deltas this update causes in those maps (the
        change-data-capture hook used by ``on_change`` subscriptions).

        Handed the index storage it verified before (the runtime's own, on
        every call of a session), the call goes straight to the trigger.
        """
        verified, data = self._verified
        unverified = indexes is None or indexes.data is not verified
        if unverified:
            data = self._index_data(maps, indexes)
        environment = self._compensated(maps) if self.plan.kahan else maps
        self._apply_row(environment, relation, sign, tuple(values), count, data, changes)
        if unverified:
            self._note_own_counts(maps, data)

    def apply_batch(
        self,
        maps: Dict[str, Dict[Tuple[Any, ...], Any]],
        delta: Delta,
        indexes: Optional[SliceIndexes] = None,
        changes: Optional[Dict[str, Dict[Tuple[Any, ...], Any]]] = None,
        journal=None,
    ) -> int:
        """Apply a batch ``∆D`` through the generated batch triggers.

        Each relation's signed delta map goes to its trigger (a semiring
        module's, split by sign, to each event's), which folds it once —
        one read-modify-write per distinct target key — or, for a fused
        event, its net tuple count to the ``total_batch_*`` function.
        Equivalent to applying the updates one at a time (the statements
        include the delta's higher-order interaction terms).  ``changes``
        collects per-key deltas of watched maps across the whole batch, as in
        :meth:`apply`; ``journal`` (an
        :class:`~repro.compiler.kernels.UndoJournal`) receives the prior
        value of every entry written.

        Returns the batch's logical tuple count, which the loop sums anyway.
        """
        data = self._index_data(maps, indexes)
        environment = self._compensated(maps) if self.plan.kahan else maps
        count = self._apply_batch(environment, delta, data, changes, journal)
        self._note_own_counts(maps, data)
        return count

    def _compensated(self, maps):
        """The map environment of a Kahan plan, which carries the compensation
        store of its fused totals: an :class:`IndexedMaps` as is; a plain dict
        (a module driven standalone) wrapped in one — sharing its tables —
        kept for as long as the caller keeps passing the same dict."""
        if isinstance(maps, IndexedMaps):
            return maps
        source, wrapper = self._own_environment
        if source is not maps:
            wrapper = IndexedMaps()
            self._own_environment = (maps, wrapper)
        wrapper.update(maps)  # the caller may have rebound a table since
        return wrapper

    def _index_data(self, maps, indexes: Optional[SliceIndexes]):
        """The raw index storage to hand the generated code (``None`` if unneeded)."""
        if not self.index_specs:
            if indexes is not None:
                self._verified = (indexes.data, None)
            return None
        if indexes is None:
            indexes = getattr(maps, "indexes", None)
        if indexes is not None and self._required_signatures <= indexes.data.keys():
            self._verified = (indexes.data, indexes.data)
            return indexes.data
        # No usable index supplied: maintain a private one per map environment.
        # The cache is invalidated when a different maps object shows up or
        # when an indexed table's entry count changed outside our own applies
        # (e.g. the caller re-bootstrapped or cleared the maps); a same-size
        # external rewrite is not detectable this way, so callers that mutate
        # tables directly should pass their own SliceIndexes.
        if (
            self._own_maps is not maps
            or self._own_indexes is None
            or any(
                len(maps.get(name, ())) != self._own_counts.get(name, 0)
                for name in self.index_specs
            )
        ):
            self._own_indexes = SliceIndexes(self.index_specs)
            self._own_indexes.rebuild(maps)
            self._own_maps = maps
            self._record_own_counts(maps)
        return self._own_indexes.data

    def _note_own_counts(self, maps, data) -> None:
        """After an apply through the private index, remember the table sizes."""
        if data is not None and self._own_indexes is not None and data is self._own_indexes.data:
            self._record_own_counts(maps)

    def _record_own_counts(self, maps) -> None:
        self._own_counts = {name: len(maps.get(name, ())) for name in self.index_specs}

    # -- statistics ------------------------------------------------------------

    def statistics(self) -> Dict[str, int]:
        """Cumulative ``statements`` / ``entries`` counters of the module."""
        return dict(self._stats)

    def drain_statistics(self) -> Tuple[int, int]:
        """Return ``(statements_executed, entries_updated)`` since the last drain."""
        stats = self._stats
        result = (stats["statements"], stats["entries"])
        stats["statements"] = 0
        stats["entries"] = 0
        return result

    @property
    def specializations(self) -> Dict[Tuple[str, int], str]:
        """Per-event specialization classes of the emitted module:
        ``(relation, sign) -> "total"`` for every event whose fused
        ``total_batch_*`` function runs instead of its trigger."""
        return self.plan.specializations


def generate_python(
    program: TriggerProgram,
    ring: Semiring = INTEGER_RING,
    specialize: bool = True,
) -> GeneratedTriggers:
    """Generate a Python module implementing the program's triggers over ``ring``.

    The module is printed from the program's lowered
    :class:`~repro.compiler.plan.BatchPlan`
    (:func:`~repro.compiler.plan.lower_batch_plan` — where the ring gate and
    the float whole-program rule live): every event gets its trigger, and a
    ``total`` event also a fused ``total_batch_*`` function, which folds the
    event's net tuple count with no delta map at all (Kahan-compensated
    through ``_fold_total`` when the plan says so).  The update loop that
    runs them — over a batch's events or one row — is the shared
    :func:`repro.compiler.kernels.make_apply_batch`.  ``specialize=False``
    fuses nothing.

    Raises
    ------
    CompilationError
        When ``ring`` is a proper semiring (no additive inverse) and the
        program carries no maintenance plan: deletion triggers multiply by
        ``-1``, which such structures cannot represent.  Recompile with
        ``compile_query(..., ring=ring)`` so the plan lowers deletions to
        counter updates, recomputes and support structures.
    """
    semiring_mode = not ring.is_ring
    if semiring_mode:
        maintenance = program.maintenance
        if maintenance is None:
            raise CompilationError(
                f"the generated backend requires a coefficient ring with additive "
                f"inverses, but {ring.name!r} is a proper semiring and the program "
                f"carries no maintenance plan; recompile the query with "
                f"ring={ring.name!r} so deletions lower to counter updates and "
                f"recomputes (or use the interpreted backend the same way)"
            )
        if maintenance.ring_name != ring.name:
            raise CompilationError(
                f"the program's maintenance plan was compiled for ring "
                f"{maintenance.ring_name!r}; cannot generate {ring.name!r} triggers from it"
            )
    native = ring is INTEGER_RING or ring is FLOAT_FIELD
    plan = lower_batch_plan(program, ring, specialize)

    writer = _Writer()
    context = _EmitContext(writer, ring, native, plan.index_specs)
    if semiring_mode:
        counter_maps = frozenset(program.maintenance.counter_maps)
        context.semiring = True
        context.counter_maps = counter_maps
        context.int_sources = counter_maps
        int_context = _EmitContext(writer, INTEGER_RING, True, plan.index_specs)
        int_context.semiring = True
        int_context.counter_maps = counter_maps
        context.int_context = int_context

    writer.emit('"""Generated trigger code — see repro.compiler.codegen."""')
    writer.emit("")
    writer.emit('_STATS = {"statements": 0, "entries": 0}')
    writer.emit("_NO_KEYS = {}")
    if not native:
        writer.emit("_ZERO = _RING.zero")
        writer.emit("_ONE = _RING.one")
        writer.emit("_add = _RING.add")
        writer.emit("_mul = _RING.mul")
        writer.emit("_neg = _RING.neg")
        writer.emit("_coerce = _RING.coerce")
        writer.emit("_is_zero = _RING.is_zero")
        writer.emit("_from_int = _RING.from_int")
    writer.emit("")

    table = []
    for event in plan.events:
        trigger = event.trigger
        stem = _function_stem(event)
        table.append((event.event, f"batch_{stem}"))
        _generate_trigger(context, event, stem)
        writer.emit("")
        if event.kind == "total":
            _generate_total_trigger(context, trigger, stem, kahan=plan.kahan)
            writer.emit("")
    writer.emit("BATCH_TRIGGERS = {")
    for key, function in table:
        writer.emit(f"    {key!r}: {function},")
    writer.emit("}")
    writer.emit("")
    context.emit_constant_definitions()
    source = "\n".join(writer.lines) + "\n"
    return GeneratedTriggers(program, source, ring, plan)


# ---------------------------------------------------------------------------
# Emitting triggers and statements
# ---------------------------------------------------------------------------


def _function_stem(event) -> str:
    """The emitted functions' name stem for one event: ``on_insert_R`` /
    ``on_delete_R`` after its ``BATCH_TRIGGERS`` key ``(relation, sign)``.  A
    ring program's signed trigger is keyed ``(relation, +1)`` and so named
    ``batch_on_insert_R``, although it folds deletions too."""
    return f"on_{'insert' if event.sign == 1 else 'delete'}_{event.relation}"


def _emit_work_counters(writer: _Writer, statements: int) -> None:
    """The statistics prologue of a trigger function: statements are counted
    up front, entries accumulate in the local ``_ent`` (each kernel returns
    the number it touched) and land in ``_STATS`` on the way out."""
    writer.emit(f'_STATS["statements"] += {statements}')
    writer.emit("_ent = 0")


def _spec_literal(context: _EmitContext, map_name: str) -> str:
    positions = context.specs.get(map_name)
    return repr(positions) if positions else "None"


def _collect_table_locals(trigger, names: _NameAllocator) -> Tuple[Dict[str, str], List[str]]:
    """Hoisted map-table locals for every map a trigger's statements touch."""
    table_locals: Dict[str, str] = {}
    touched: List[str] = []
    reads: List[str] = []
    for statement in trigger.statements:
        reads.extend((statement.target,) + statement.maps_read())
    for recompute in trigger.recomputes:
        reads.extend((recompute.target,) + recompute.maps_read())
    for name in reads:
        if name != trigger.delta_map and name not in table_locals:
            local = f"_tbl{len(table_locals)}"
            names.reserve(local)
            table_locals[name] = local
            touched.append(name)
    return table_locals, touched


def _generate_trigger(context: _EmitContext, event: EventPlan, stem: str) -> None:
    """A relation-valued trigger: one scan of the delta map, then the folds.

    ``_delta`` is the pre-aggregated update ``values → multiplicity`` — a
    whole batch, or the one row of a single update.  The statement bodies
    were compiled from the delta with respect to the whole delta relation, so
    a single evaluation per event — accumulators keyed by target key, folded
    once per distinct key — produces exactly the state one-at-a-time
    application would, including the interaction terms between rows.
    Recomputes run once per group after the folds.
    """
    trigger, tracked_maps = event.trigger, event.tracked
    writer = context.writer
    names = _NameAllocator()
    counter = [0]
    table_locals, touched = _collect_table_locals(trigger, names)
    writer.emit(f"def batch_{stem}(maps, _delta, _IDX=None, _CH=None, _J=None):")
    writer.block()
    _emit_work_counters(writer, len(trigger.statements) + len(trigger.recomputes))
    for name in touched:
        writer.emit(f"{table_locals[name]} = maps[{name!r}]")
    if tracked_maps:
        writer.emit(f"_TRK = {{_n: set() for _n in {tracked_maps!r}}}")

    frame = _Frame(
        writer,
        lambda name: "_delta" if name == trigger.delta_map else table_locals[name],
        trigger.delta_map,
    )
    saved_int_sources = context.int_sources
    if context.semiring:
        # The pre-aggregated delta map holds ℤ counts even in semiring mode;
        # ring statements reading it must pass through _from_int.
        context.int_sources = saved_int_sources | {trigger.delta_map}
    try:
        _generate_trigger_body(context, event, names, frame, counter)
        _generate_recomputes(context, trigger, names, frame, tracked_maps, counter)
    finally:
        context.int_sources = saved_int_sources
    frame.prologue.flush()
    writer.emit('_STATS["entries"] += _ent')
    writer.dedent()


def _generate_total_trigger(
    context: _EmitContext, trigger: BatchTrigger, stem: str, kahan: bool = False
) -> None:
    """The fused variant of an all-total trigger.

    Every statement of the trigger is a bare-count fold (``projection_class()
    == "total"``: the right-hand side is exactly ``coefficient · ∆R(k…)``
    summed over all keys), so the update loop never hands it the event's
    delta map — it passes the net tuple count ``_total = Σ∆R`` and each
    statement becomes one multiplication plus one scalar fold.

    ``kahan`` (the plan's flag, float-field programs only) replaces the plain
    scalar fold with the Kahan-compensated ``_fold_total`` kernel, whose
    per-target compensation term recovers the low-order bits a bare ``+=``
    drops so a long stream of fused float totals tracks ``math.fsum`` accuracy.
    """
    writer = context.writer
    writer.emit(
        f"def total_batch_{stem}(maps, _total, _IDX=None, _CH=None, _J=None):"
    )
    writer.block()
    _emit_work_counters(writer, len(trigger.statements))
    for index, statement in enumerate(trigger.statements):
        accumulator = f"_acc{index}"
        coefficient = statement.coefficient
        if coefficient == 1:
            writer.emit(f"{accumulator} = _total")
        elif coefficient == -1:
            writer.emit(f"{accumulator} = -_total")
        else:
            writer.emit(f"{accumulator} = {coefficient!r} * _total")
    table_ref = lambda name: f"maps[{name!r}]"  # noqa: E731
    for index, statement in enumerate(trigger.statements):
        if kahan:
            writer.emit(f"_fold_total(maps, {statement.target!r}, _acc{index}, _CH, _J)")
        else:
            _emit_scalar_fold(context, statement, f"_acc{index}", table_ref)
    if kahan:
        writer.emit(f"_ent += {len(trigger.statements)}")
    writer.emit('_STATS["entries"] += _ent')
    writer.dedent()


def _generate_trigger_body(
    context: _EmitContext,
    event: EventPlan,
    names: _NameAllocator,
    frame: _Frame,
    counter: List[int],
) -> None:
    """Emit the evaluation of every statement into accumulators, then the folds.

    All right-hand sides are evaluated before any increment is applied — the
    snapshot semantics of Equation (1): within one update event every read
    sees the pre-update state.  So every statement is a function of the same
    ``∆R`` row and the same old state, and the trigger is one loop: a single
    ``for _k, _v in _delta.items()`` unpacks the row once and runs each
    statement's remaining factors against one per-row table (:class:`_Row`)
    of key tuples, the reads the plan marks shared (``event.reads``) and
    common coefficient prefixes.  Only a statement folding the whole delta
    with one C-level call (:func:`~repro.compiler.cost.whole_batch_fold`)
    stays outside.

    A statement the plan marks ``scalar`` produces exactly one key per
    event, so its accumulator degenerates to a scalar and its fold inlines to
    a single table update, skipped when the increment cancelled to zero.
    """
    trigger, tracked_maps, reads, scalar_flags = (
        event.trigger, event.tracked, event.reads, event.scalar
    )
    writer = context.writer
    delta_map = frame.delta_map
    evaluated = []  # what still needs its right-hand side evaluated
    arity = None  # of ∆R, once a monomial holds a ∆R atom
    for index, statement in enumerate(trigger.statements):
        statement_context = context.for_target(statement.target)
        accumulator = f"_acc{index}"
        names.reserve(accumulator)
        scalar = scalar_flags[index]
        whole = whole_batch_fold(statement, statement_context.native)
        if whole == "copy":
            # The delta map is per-event scratch, never reused after the trigger.
            writer.emit(f"{accumulator} = dict(_delta)")
        elif whole == "total":
            total = ("" if statement.coefficient == 1 else "-") + "sum(_delta.values())"
            writer.emit(f"{accumulator} = {total if scalar else '{(): ' + total + '}'}")
        else:
            writer.emit(f"{accumulator} = {statement_context.zero_literal() if scalar else '{}'}")
            split = ([], [])  # monomials evaluated once / once per row of ∆R
            for monomial in statement.monomials:
                atoms = [f for f in monomial.factors if isinstance(f, MapRef) and f.name == delta_map]
                split[bool(atoms)].append(monomial)
                if atoms:
                    arity = len(atoms[0].key_vars)
            evaluated.append((statement_context, statement, accumulator, scalar, split))

    def evaluate(row: _Row, per_row: bool) -> None:
        frame.row = row
        for statement_context, statement, accumulator, scalar, split in evaluated:
            _generate_statement(
                statement_context, statement.target_keys, split[per_row], accumulator,
                names, counter, frame, scalar, projection=statement.projection,
            )
        row.flush()
        frame.row = frame.prologue

    # A monomial without a ∆R atom (no compiled delta has one) sees no row.
    evaluate(_Row(writer), per_row=False)
    if arity is not None:
        writer.emit("for _k, _v in _delta.items():")
        writer.block()
        columns = [f"_d{position}" for position in range(arity)]
        for column in columns:
            names.reserve(column)
        unpack = ", ".join(columns) + ("," if len(columns) == 1 else "") + " = "
        writer.emit((unpack if columns else "") + "_k")
        evaluate(_Row(writer, columns, reads.shared, "_k"), per_row=True)
        writer.dedent()
    for index, statement in enumerate(trigger.statements):
        accumulator = f"_acc{index}"
        if scalar_flags[index]:
            _emit_scalar_fold(
                context.for_target(statement.target), statement, accumulator, frame.table
            )
        else:
            trk = f", _TRK[{statement.target!r}]" if statement.target in tracked_maps else ""
            writer.emit(
                f"_ent += {context.fold_name(statement.target)}("
                f"{frame.table(statement.target)}, {accumulator}, {statement.target!r}, "
                f"{_spec_literal(context, statement.target)}, _IDX, _CH, _J{trk})"
            )


def _generate_recomputes(
    context: _EmitContext,
    trigger: BatchTrigger,
    names: _NameAllocator,
    frame: _Frame,
    tracked_maps: Tuple[str, ...],
    counter: List[int],
) -> None:
    """Emit the re-evaluation loops over affected groups (nested aggregates).

    Runs after every ordinary fold, so source maps hold post-update values
    while each target still holds its pre-update value; recomputes are
    ordered inner-hierarchy-first, and a recompute whose target feeds a
    shallower one records its changed keys into ``_TRK`` like any source.
    """
    writer = context.writer
    zero = context.zero_literal()
    for rindex, recompute in enumerate(trigger.recomputes):
        target_table = frame.table(recompute.target)
        spec = _spec_literal(context, recompute.target)
        trk_expr = f"_TRK[{recompute.target!r}]" if recompute.target in tracked_maps else "None"
        accumulator = f"_racc{rindex}"
        names.reserve(accumulator)
        if recompute.tracked:
            affected = f"_raff{rindex}"
            names.reserve(affected)
            writer.emit(f"{affected} = set()")
            for source, positions in recompute.source_projections:
                projection = "(" + ", ".join(f"_sk[{p}]" for p in positions) + ",)"
                writer.emit(f"for _sk in _TRK[{source!r}]:")
                writer.emit(f"    {affected}.add({projection})")
            group_key = f"_gk{rindex}"
            body = f"_rbody{rindex}"
            names.reserve(group_key)
            names.reserve(body)
            # The per-group re-evaluation as a nested function, called once
            # per affected group; the _rwrite kernel applies every diff
            # afterwards.
            writer.emit(f"def {body}({group_key}):")
            writer.block()
            key_locals = [names(key) for key in recompute.target_keys]
            unpack = ", ".join(key_locals) + ("," if len(key_locals) == 1 else "")
            writer.emit(f"{unpack} = {group_key}")
            writer.emit(f"{accumulator} = {zero}")
            _generate_statement(
                context, recompute.target_keys, recompute.monomials, accumulator, names,
                counter, frame, scalar=True, bound=recompute.target_keys,
            )
            writer.emit(f"return {accumulator}")
            writer.dedent()
            new_values = f"[({group_key}, {body}({group_key})) for {group_key} in {affected}]"
        else:
            writer.emit(f"{accumulator} = {{}}")
            _generate_statement(
                context, recompute.target_keys, recompute.monomials, accumulator,
                names, counter, frame, scalar=False,
            )
            new_values = f"_rpairs({accumulator}, {target_table}, {zero})"
        writer.emit(
            f"_ent += _rwrite({target_table}, {new_values}, "
            f"{recompute.target!r}, {spec}, _IDX, _CH, _J, {trk_expr})"
        )


def _emit_scalar_fold(
    context: _EmitContext, statement: BatchStatement, accumulator: str, table_ref
) -> None:
    """The fold of a nullary-target statement's scalar accumulator (target
    map unindexed) — the one table write emitted inline, so it appends its
    own undo record."""
    writer = context.writer
    table = table_ref(statement.target)
    writer.emit(context.nonzero_guard(accumulator))
    writer.block()
    writer.emit("if _CH is not None:")
    writer.emit(f"    _chm = _CH.get({statement.target!r})")
    writer.emit("    if _chm is not None:")
    change_read = f"_chm.get((), {context.zero_literal()})"
    writer.emit(f"        _chm[()] = {context.folded_add(change_read, accumulator)}")
    writer.emit(f"_new = {context.folded_add(f'{table}.get((), {context.zero_literal()})', accumulator)}")
    writer.emit("_ent += 1")
    writer.emit("if _J is not None:")
    writer.emit(f"    _J.record({table}, {statement.target!r}, None, ((),))")
    if context.native:
        writer.emit("if _new == 0:")
    else:
        writer.emit("if _is_zero(_new):")
    writer.emit(f"    {table}.pop((), None)")
    writer.emit("else:")
    writer.emit(f"    {table}[()] = _new")
    writer.dedent()


def _generate_statement(
    context: _EmitContext,
    target_keys: Tuple[str, ...],
    monomials,
    accumulator: str,
    names: _NameAllocator,
    counter: List[int],
    frame: _Frame,
    scalar: bool = False,
    bound: Tuple[str, ...] = (),
    projection: Optional[Tuple[int, ...]] = None,
) -> None:
    """Emit the evaluation of ``monomials`` (a statement's decoded
    :attr:`~repro.compiler.triggers.BatchStatement.monomials`, the variables
    ``bound`` already bound to same-named locals) into ``accumulator``, keyed
    by ``target_keys``.  Factors are emitted in the decoded order, and a map
    read slices or looks up at the key positions its annotation says are
    bound.  Inside a trigger's row loop each monomial's first ``∆R`` atom is
    the row in hand: no scan — its free key variables name the column locals
    (a bound one must equal its column), its value is ``_v``."""
    writer = context.writer
    row = frame.row
    in_loop = row.row_key is not None
    # A projection that permutes all of the row's columns yields each target
    # key once per event: a plain store, no read-modify-write.
    distinct = (
        in_loop and projection is not None and sorted(projection) == list(range(len(row.columns)))
    )
    for coefficient, factors, annotation in monomials:
        base_indent = writer.indent
        environment = {variable: names(variable) for variable in bound}
        value_terms: List[str] = []
        row_pending = in_loop
        for factor, bound_positions in zip(factors, annotation):
            if row_pending and isinstance(factor, MapRef) and factor.name == frame.delta_map:
                row_pending = False
                for position, key in enumerate(factor.key_vars):
                    if key in environment:
                        writer.emit(f"if _d{position} == {environment[key]}:")
                        writer.block()
                    else:
                        environment[key] = f"_d{position}"
                # A ring statement reads the batch's ℤ counts through from_int.
                ring_read = not context.native and factor.name in context.int_sources
                value_terms.append(row.local("_c", "_from_int(_v)") if ring_read else "_v")
                continue
            coefficient = _generate_factor(
                context, factor, bound_positions, environment, value_terms, coefficient,
                counter, names, frame,
            )
            if coefficient is None:
                break
        if coefficient is not None and coefficient != 0:
            value_expression = context.value_product(coefficient, value_terms, row)
            if scalar:
                writer.emit(
                    f"{accumulator} = " + context.folded_add(accumulator, value_expression)
                )
            else:
                key_expression = row.key(target_keys, environment)
                if not distinct:
                    if not key_expression.isidentifier() and key_expression != "()":
                        # Not row-bound: still built once for the read and the write.
                        writer.emit(f"_fkey = {key_expression}")
                        key_expression = "_fkey"
                    value_expression = context.folded_add(
                        f"{accumulator}.get({key_expression}, {context.zero_literal()})",
                        value_expression,
                    )
                writer.emit(f"{accumulator}[{key_expression}] = {value_expression}")
        writer.indent = base_indent


def _generate_factor(
    context: _EmitContext,
    factor: Expr,
    bound_positions: Optional[Tuple[int, ...]],
    environment: Dict[str, str],
    value_terms: List[str],
    coefficient: Any,
    counter: List[int],
    names: _NameAllocator,
    frame: _Frame,
):
    """Emit code for one monomial factor; returns the (possibly folded) coefficient.

    ``bound_positions`` is the factor's annotation: for a map read, the key
    positions bound when it runs.  Returning ``None`` means the monomial is
    statically zero and should be dropped.  A partially-bound read with a
    slice index emits :data:`~repro.compiler.indexes.SLICE_LOOP` over its
    bucket: the header alone knows a bucket's two shapes, so the loop body
    sees full keys either way.
    """
    writer = context.writer
    if isinstance(factor, Const):
        value = factor.value
        if not isinstance(value, (int, float)):
            raise CompilationError(f"non-numeric constant {value!r} as a multiplicity")
        if value == 0:
            return None
        if context.semiring and not context.native:
            # Keep explicit constants as coerced value terms so the
            # coefficient stays a pure multiplicity (lifted via from_int
            # by value_product); native folding would conflate the two
            # lifts, which disagree outside genuine rings.
            value_terms.append(context.constant(value))
            return coefficient
        return coefficient * value

    if isinstance(factor, Var):
        value_terms.append(context.coerced(_value_expression(factor, environment)))
        return coefficient

    if isinstance(factor, Assign):
        target = factor.var
        source = _value_expression(factor.expr, environment, context, frame.table)
        if target in environment:
            writer.emit(f"if {environment[target]} == {source}:")
            writer.block()
        elif isinstance(factor.expr, Var):
            environment[target] = source  # a second name for a bound local: no code
        else:
            local = names(target)
            writer.emit(f"{local} = {source}")
            environment[target] = local
        return coefficient

    if isinstance(factor, Compare):
        left = _value_expression(factor.left, environment, context, frame.table)
        right = _value_expression(factor.right, environment, context, frame.table)
        writer.emit(f"if {left} {_PYTHON_OPS[factor.op]} {right}:")
        writer.block()
        return coefficient

    if isinstance(factor, MapRef):
        counter[0] += 1
        index = counter[0]
        value_name = f"_v{index}"
        table = frame.table(factor.name)
        keys = factor.key_vars
        # An integer-valued source (counter map / batch delta) read from a
        # ring statement: test the raw count, then map it into the ring.
        int_source = not context.native and factor.name in context.int_sources
        if len(bound_positions) == len(keys):
            # Fully bound: one hash lookup (once per row when the plan shares it).
            zero = "0" if int_source else context.zero_literal()
            lookup = f"{table}.get({frame.row.key(keys, environment)}, {zero})"
            value = frame.row.read(factor.name, bound_positions, keys, environment, lookup)
            if value is None:
                value = value_name
                writer.emit(f"{value_name} = {lookup}")
            if int_source:
                writer.emit(f"if {value}:")
                writer.block()
                writer.emit(f"{value_name} = _from_int({value})")
                value = value_name
            else:
                writer.emit(context.nonzero_guard(value))
                writer.block()
            value_terms.append(value)
            return coefficient
        key_name = f"_k{index}"
        indexed = bool(bound_positions) and bound_positions in context.specs.get(factor.name, ())
        if indexed:
            # Partially bound: iterate only the matching keys via the slice
            # index — one bucket lookup (or the row's shared read of it),
            # walked by the index module's loop header whatever its shape.
            prefix = frame.row.key([keys[position] for position in bound_positions], environment)
            handle = frame.prologue.local("_idx", f"_IDX[({factor.name!r}, {bound_positions!r})]")
            lookup = f"{handle}.get({prefix}, _NO_KEYS)"
            shared = frame.row.read(factor.name, bound_positions, keys, environment, lookup)
            bucket = shared or f"_b{index}"
            writer.emit(SLICE_LOOP.format(
                key=key_name, bucket=bucket, lookup=shared or f"{bucket} := {lookup}"
            ))
            writer.block()
            writer.emit(f"{value_name} = {table}[{key_name}]")
        else:
            # No key bound (or no index available): scan the whole table.
            writer.emit(f"for {key_name}, {value_name} in {table}.items():")
            writer.block()
        if int_source:
            writer.emit(f"{value_name} = _from_int({value_name})")
        for position, key in enumerate(keys):
            if indexed and position in bound_positions:
                continue
            if key in environment:
                # Bound, or a repeated free variable: occurrences become tests.
                writer.emit(f"if {key_name}[{position}] == {environment[key]}:")
                writer.block()
            else:
                local = names(key)
                writer.emit(f"{local} = {key_name}[{position}]")
                environment[key] = local
        value_terms.append(value_name)
        return coefficient

    if isinstance(factor, (Rel, AggSum)):
        raise CompilationError(
            f"cannot generate code for factor {factor!r}: compiled trigger statements must not "
            "contain base relations or nested aggregates"
        )

    raise CompilationError(f"cannot generate code for factor {factor!r}")


# ---------------------------------------------------------------------------
# Expression fragments
# ---------------------------------------------------------------------------


def _value_expression(
    expr: Expr,
    environment: Dict[str, str],
    context: Optional[_EmitContext] = None,
    table_ref=None,
) -> str:
    """A Python expression computing a data value from bound locals.

    Data-level arithmetic (inside conditions and assignments) is native Python
    in every coefficient structure — it mirrors ``evaluate_value`` in the
    interpreted semantics, which also computes data values natively.  A map
    reference in value position (an extracted nested aggregate consulted by a
    condition) is a scalar lookup with the map's zero as the default — the
    value its aggregate would have produced on an empty slice: ``0`` for a
    semiring plan's ℤ counter map (the counter context's literal), the ring
    zero otherwise.
    """
    if isinstance(expr, Const):
        return repr(expr.value)
    if isinstance(expr, Var):
        if expr.name not in environment:
            raise CompilationError(f"variable {expr.name!r} is not bound in generated code")
        return environment[expr.name]
    if isinstance(expr, MapRef):
        if context is None or table_ref is None:
            raise CompilationError(
                f"map reference {expr.name!r} in a value position without map access"
            )
        key = _key_tuple(expr.key_vars, environment)
        zero = context.for_target(expr.name).zero_literal()
        return f"{table_ref(expr.name)}.get({key}, {zero})"
    if isinstance(expr, Neg):
        return f"-({_value_expression(expr.expr, environment, context, table_ref)})"
    if isinstance(expr, Add):
        inner = " + ".join(
            _value_expression(term, environment, context, table_ref) for term in expr.terms
        )
        return f"({inner})"
    if isinstance(expr, Mul):
        inner = " * ".join(
            _value_expression(factor, environment, context, table_ref)
            for factor in expr.factors
        )
        return f"({inner})"
    raise CompilationError(f"cannot generate a value expression for {expr!r}")


def _key_tuple(key_vars: Iterable[str], environment: Dict[str, str]) -> str:
    parts = []
    for key in key_vars:
        if key not in environment:
            raise CompilationError(f"key variable {key!r} is not bound in generated code")
        parts.append(environment[key])
    if not parts:
        return "()"
    return "(" + ", ".join(parts) + ",)"
