"""Cost accounting for incremental maintenance.

The paper's practical claim is that a compiled trigger performs only a
constant number of ring operations (+ and *) per maintained value and per
single-tuple update.  To *measure* that claim rather than assert it, the
engines can be run over a :class:`CountingSemiring` — a transparent wrapper
that counts every addition, multiplication and negation flowing through the
coefficient structure — and the runtimes additionally count map lookups and
entry updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Tuple

from repro.algebra.semirings import INTEGER_RING, Semiring
from repro.core.ast import AggSum, Assign, MapRef, Rel, Var, walk
from repro.core.delta import is_delta_map


@dataclass
class OperationCounter:
    """Mutable tally of arithmetic operations."""

    additions: int = 0
    multiplications: int = 0
    negations: int = 0

    @property
    def total(self) -> int:
        return self.additions + self.multiplications + self.negations

    def reset(self) -> None:
        self.additions = 0
        self.multiplications = 0
        self.negations = 0

    def snapshot(self) -> "OperationCounter":
        return OperationCounter(self.additions, self.multiplications, self.negations)

    def __sub__(self, other: "OperationCounter") -> "OperationCounter":
        return OperationCounter(
            self.additions - other.additions,
            self.multiplications - other.multiplications,
            self.negations - other.negations,
        )

    def __repr__(self) -> str:
        return (
            f"OperationCounter(+={self.additions}, *={self.multiplications}, "
            f"neg={self.negations})"
        )


class CountingSemiring(Semiring):
    """A coefficient structure that counts the operations performed through it.

    The wrapper reports the same ``name`` as the wrapped structure so that
    gmrs built over the two interoperate (structural equality of semirings is
    by name).
    """

    def __init__(self, inner: Semiring = INTEGER_RING, counter: OperationCounter = None):
        self.inner = inner
        self.counter = counter if counter is not None else OperationCounter()

        def counted_add(left: Any, right: Any) -> Any:
            self.counter.additions += 1
            return inner.add(left, right)

        def counted_mul(left: Any, right: Any) -> Any:
            self.counter.multiplications += 1
            return inner.mul(left, right)

        counted_neg = None
        if inner.is_ring:

            def counted_neg(value: Any) -> Any:
                self.counter.negations += 1
                return inner.neg(value)

        super().__init__(
            zero=inner.zero,
            one=inner.one,
            add=counted_add,
            mul=counted_mul,
            neg=counted_neg,
            coerce=inner.coerce,
            name=inner.name,
            commutative=inner.commutative,
        )


# ---------------------------------------------------------------------------
# Static per-statement cost classes
# ---------------------------------------------------------------------------

#: Read classes, worst one wins: full-key lookups only, an index-backed
#: partial slice, a second ``∆R`` read that rescans the delta per row, or an
#: unindexed scan of a whole map.
_LOOKUP, _SLICE, _DELTA_SQUARED, _SCAN = 0, 1, 2, 3
_READ_CLASSES = ("O(|Δ| keys)", "O(|Δ| × indexed slice)", "O(|Δ|²)", "O(|Δ| × map scan)")


def _monomial_read_class(monomial, specs: Mapping[str, Tuple[Tuple[int, ...], ...]]) -> int:
    """Grade one decoded monomial's map reads by their annotated bound positions."""
    worst = _LOOKUP
    driven = False
    for reference, positions in monomial.reads():
        delta = is_delta_map(reference.name)
        if len(positions) == len(reference.key_vars):
            pass  # full-key lookup, O(1)
        elif delta:
            # The first ∆R read drives the iteration, already priced into the
            # |Δ| factor; a later one not fully bound scans ∆R once per row.
            if driven:
                worst = max(worst, _DELTA_SQUARED)
        elif positions and positions in specs.get(reference.name, ()):
            worst = max(worst, _SLICE)
        else:
            worst = max(worst, _SCAN)
        driven = driven or delta
    return worst


def statement_cost_class(
    statement,
    specs: Optional[Mapping[str, Tuple[Tuple[int, ...], ...]]] = None,
) -> str:
    """The static per-update cost class of one compiled trigger statement.

    ``specs`` are the program's slice-index signatures
    (:func:`repro.compiler.indexes.compute_index_specs`) — a partially-bound
    read covered by a signature costs one indexed slice, an uncovered one a
    whole-map scan, and a second ``∆R`` read not fully bound (a within-batch
    self-join on a key subset) rescans the delta per row, ``O(|Δ|²)``.  Each
    read's bound positions come from the statement's decoded monomials.
    The kind of statement is recognized structurally so the
    function prices :class:`~repro.compiler.triggers.BatchStatement` and
    ``RecomputeStatement`` alike.  ``|Δ|`` is the number of rows in the delta
    map: 1 for a single-tuple update.
    """
    specs = specs or {}
    if hasattr(statement, "tracked"):
        if not statement.tracked:
            return "O(all groups)"
        if recompute_class(statement) == "pointwise":
            return "O(changed groups)"
        return "O(changed groups × indexed slice)"
    if statement.projection is not None:
        return "O(|Δ| keys)"
    worst = max((_monomial_read_class(m, specs) for m in statement.monomials), default=_LOOKUP)
    return _READ_CLASSES[worst]


def recompute_scan_reason(recompute) -> Optional[str]:
    """Why re-deriving one group takes more than lookups — ``None`` if it doesn't.

    A tracked recompute is *pointwise* when its body only looks things up at
    the group key: every map reference and variable is bound by the target
    keys and nothing iterates or binds (no relation, aggregate or
    assignment) — O(1) per changed group, the shape SQL ``HAVING`` compiles
    to.  Everything else is a *scan*, for the reason returned (the text of
    ``repro-lint``'s ``recompute-scan`` note): the body walks a slice of some
    map per group (a base copy correlated with a nested aggregate), or the
    recompute is untracked and re-derives every group.
    """
    if not recompute.tracked:
        return "a source map lacks a group key, so every group is re-derived"
    bound = set(recompute.target_keys)
    nodes = list(walk(recompute.body))
    sliced = dict.fromkeys(
        str(node)
        for node in nodes
        if isinstance(node, MapRef) and not bound.issuperset(node.key_vars)
    )
    if sliced:
        return (
            f"{', '.join(sliced)} stays correlated with a nested map and is "
            "walked per changed group"
        )
    if any(
        isinstance(node, (Rel, AggSum, Assign))
        or (isinstance(node, Var) and node.name not in bound)
        for node in nodes
    ):
        return "the body binds or aggregates beyond the group key"
    return None


def recompute_class(recompute) -> str:
    """``"pointwise"`` or ``"scan"`` (:func:`recompute_scan_reason`)."""
    return "pointwise" if recompute_scan_reason(recompute) is None else "scan"


# ---------------------------------------------------------------------------
# Batch-trigger specialization classes
# ---------------------------------------------------------------------------

def trigger_specialization(batch_trigger) -> str:
    """The specialization class of one compiled batch trigger.

    ``"total"`` — every statement is a bare-count fold (nullary projection:
    the batch's total multiplicity feeds one scalar entry each) and there are
    no recomputes, so the executor can fold the event's net tuple count
    ``Σ∆R`` instead of running the trigger on the delta map.  ``"generic"``
    — everything else.  Recognized structurally (duck-typed) so hand-built IR
    prices the same as compiled programs.
    """
    statements = getattr(batch_trigger, "statements", ())
    recomputes = getattr(batch_trigger, "recomputes", ())
    if statements and not recomputes:
        if all(
            getattr(statement, "projection_class", lambda: "general")() == "total"
            for statement in statements
        ):
            return "total"
    return "generic"


def batch_specialization_class(statement, trigger=None) -> str:
    """The specialization class of one batch statement, for explain/lint.

    ``"fused-total"`` — a bare-count statement inside an all-total trigger
    (passed as ``trigger`` when its event fuses): the whole event folds one
    integer, no delta map read at all.  ``"generic-bare-count"`` — a
    bare-count statement whose event does *not* fuse (sibling statements,
    recomputes or a ring gate keep the delta map), the shape ``repro-lint
    --fail-on generic-bare-count`` promotes to an error.  ``"fused-copy"`` /
    ``"fused-marginal"`` — projection fast paths that fold the delta map
    without expression evaluation.  ``"generic"`` — the right-hand side must
    be evaluated per distinct key.
    """
    projection = getattr(statement, "projection_class", lambda: "general")()
    if projection == "general":
        return "generic"
    if projection == "total":
        if trigger is not None and trigger_specialization(trigger) == "total":
            return "fused-total"
        return "generic-bare-count"
    return f"fused-{projection}"


def whole_batch_fold(statement, native: bool) -> Optional[str]:
    """``"copy"`` / ``"total"`` when the generated executor folds all of ``∆R``
    with one C-level call — ``dict(∆R)``, ``±sum(∆R.values())`` — instead of
    in its trigger's row loop (``native``: the target folds with ``+``)."""
    kind = getattr(statement, "projection_class", lambda: "general")() if native else None
    signs = {"copy": (1,), "total": (1, -1)}.get(kind, ())
    return kind if statement.coefficient in signs else None


@dataclass
class RuntimeStatistics:
    """Per-engine counters collected while processing an update stream."""

    updates_processed: int = 0
    statements_executed: int = 0
    entries_updated: int = 0
    map_entries_scanned: int = 0
    operations: OperationCounter = field(default_factory=OperationCounter)

    def per_update(self) -> dict:
        """Average per-update figures (empty dict before any update)."""
        if not self.updates_processed:
            return {}
        scale = float(self.updates_processed)
        return {
            "statements": self.statements_executed / scale,
            "entries_updated": self.entries_updated / scale,
            "arithmetic_ops": self.operations.total / scale,
        }

    def reset(self) -> None:
        self.updates_processed = 0
        self.statements_executed = 0
        self.entries_updated = 0
        self.map_entries_scanned = 0
        self.operations.reset()
