"""Per-layer tracing from outside: spans around the library's public callables.

The tracer patches the binding each caller actually uses (a module global
such as ``repro.session.session.compile_query``, or a class attribute such
as ``IngestQueue.drain``) with a wrapper that records one span per call and
restores every binding on :meth:`Tracer.uninstall`.  Nothing under ``src/``
knows about it.

A span is ``[name, start, end, parent, child_time, request]``: ``parent`` is
the span that was open on the same thread when this one started, ``request``
is shared by a root span (one ``Session.apply_batch`` / flush / build) and
everything it caused.  A layer's *self time* is its spans' duration minus the
part their child spans cover.  Counts are taken in ``after`` hooks at the same
boundaries, outside the span's clock.  Spans stay in memory until
:meth:`Tracer.write`.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

_NAME, _START, _END, _PARENT, _CHILD, _REQUEST = range(6)


class PhaseTrace:
    """Per-name totals and boundary counts of one traced phase (all its slices)."""

    def __init__(self, label: str):
        self.label = label
        self.wall_s = 0.0
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = {}

    def add(self, wall_s: float, spans: List[list], counts: Counter) -> None:
        self.wall_s += wall_s
        self.counts.update(counts)
        for span in spans:
            name = span[_NAME]
            duration = span[_END] - span[_START]
            self.calls[name] += 1
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - span[_CHILD]

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def share(self, *names: str) -> float:
        return self.self_time(*names) / self.wall_s if self.wall_s else 0.0


class Tracer:
    """Installs span wrappers, collects spans per phase, writes them out."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        #: Last-value readings (not summed, not differenced per phase).
        self.gauges: Dict[str, float] = {}
        #: Objects seen at a boundary whose public counters are read later
        #: (``RuntimeStatistics``, ``SliceIndexes``), keyed by role.
        self.seen: Dict[str, Dict[int, Any]] = {}
        self.phases: Dict[str, PhaseTrace] = {}
        #: (phase label, first span, end span, wall seconds) of every traced slice.
        self.slices: List[Tuple[str, int, int, float]] = []
        self._stacks: Dict[int, List[list]] = {}
        self._requests = itertools.count(1)
        self._patched: List[Tuple[Any, str, Any]] = []
        self._phase_label = ""
        self._phase_start = 0
        self._phase_clock = 0.0
        self._phase_counts: Counter = Counter()
        self._phase_work = (0, 0)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, function: Callable, after: Optional[Callable] = None) -> Callable:
        """A callable that records a ``name`` span around ``function`` while active.

        ``after(tracer, args, kwargs, result)`` runs once the span is closed.
        """
        spans = self.spans
        stacks = self._stacks
        requests = self._requests
        get_ident = threading.get_ident

        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            thread = get_ident()
            stack = stacks.get(thread)
            if stack is None:
                stack = stacks[thread] = []
            parent = stack[-1] if stack else None
            request = parent[_REQUEST] if parent is not None else next(requests)
            span = [name, 0.0, 0.0, parent, 0.0, request]
            stack.append(span)
            span[_START] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = span[_END] = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += end - span[_START]
                spans.append(span)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def patch(self, owner: Any, attribute: str, name: str, after: Optional[Callable] = None) -> None:
        """Replace ``owner.attribute`` (module global or class attribute) with a span wrapper."""
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement: Any = classmethod(self.wrap(name, original.__func__, after))
        else:
            replacement = self.wrap(name, original, after)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every patched binding."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)
        self.active = False

    def note(self, role: str, thing: Any) -> None:
        self.seen.setdefault(role, {})[id(thing)] = thing

    # -- phases -----------------------------------------------------------------

    def _executor_work(self) -> Tuple[int, int]:
        """Summed public ``RuntimeStatistics`` counters of every executor seen so far."""
        seen = self.seen.get("statistics", {}).values()
        return (
            sum(statistics.statements_executed for statistics in seen),
            sum(statistics.entries_updated for statistics in seen),
        )

    def begin(self, label: str) -> None:
        """Start (or resume) the traced phase ``label``.

        Executors are discovered at their first traced call, so run one
        traced call before the first slice whose executor counts matter.
        """
        self._phase_label = label
        self._phase_start = len(self.spans)
        self._phase_counts = Counter(self.counts)
        self._phase_work = self._executor_work()
        self._phase_clock = perf_counter()
        self.active = True

    def end(self) -> None:
        """Stop tracing and add the slice to its phase's totals."""
        self.active = False
        wall = perf_counter() - self._phase_clock
        counts = Counter(self.counts)
        counts.subtract(self._phase_counts)
        statements, entries = self._executor_work()
        counts["executor.statements_executed"] = statements - self._phase_work[0]
        counts["executor.entries_updated"] = entries - self._phase_work[1]
        label = self._phase_label
        self.slices.append((label, self._phase_start, len(self.spans), wall))
        self.phase(label).add(wall, self.spans[self._phase_start :], counts)

    def phase(self, label: str) -> PhaseTrace:
        if label not in self.phases:
            self.phases[label] = PhaseTrace(label)
        return self.phases[label]

    # -- output -----------------------------------------------------------------

    def write(self, path) -> None:
        """Dump every span as ``[name, start, end, parent index, request id]``."""
        index = {id(span): position for position, span in enumerate(self.spans)}
        names = sorted({span[_NAME] for span in self.spans})
        name_index = {name: position for position, name in enumerate(names)}
        rows = [
            [
                name_index[span[_NAME]],
                round(span[_START], 7),
                round(span[_END], 7),
                index.get(id(span[_PARENT]), -1) if span[_PARENT] is not None else -1,
                span[_REQUEST],
            ]
            for span in self.spans
        ]
        record = {
            "schema": "repro-e2e-spans/1",
            "columns": ["name", "start_s", "end_s", "parent", "request"],
            "names": names,
            "slices": [
                {"phase": label, "first_span": first, "end_span": end, "wall_s": wall}
                for label, first, end, wall in self.slices
            ],
            "spans": rows,
        }
        with open(path, "w") as handle:
            json.dump(record, handle, separators=(",", ":"))


# -- the layer boundaries -----------------------------------------------------
#
# ``after`` hooks take counts where the work happens.  They run outside the
# span's clock, so an expensive count (the snapshot's JSON length) does not
# inflate the layer's time.


def _count_coalesce(tracer, args, kwargs, result):
    updates = args[0]
    if hasattr(updates, "__len__"):
        tracer.counts["gmr.coalesce_in"] += len(updates)
    tracer.counts["gmr.coalesce_out"] += len(result)


def _count_compile(tracer, args, kwargs, program):
    tracer.counts["compile.maps"] += len(program.maps)
    tracer.counts["compile.statements"] += sum(
        len(trigger.statements) for trigger in program.triggers.values()
    )


def _count_codegen(tracer, args, kwargs, generated):
    # Each registration regenerates the whole module; the last one is the
    # module that runs, so these are gauges, not sums.
    tracer.gauges["codegen.source_lines"] = generated.source.count("\n") + 1
    tracer.gauges["codegen.spec_classes"] = len(generated.specializations)


def _count_session_batch(tracer, args, kwargs, result):
    updates = args[1]
    tracer.counts["session.batches"] += 1
    if hasattr(updates, "__len__"):
        tracer.counts["session.updates"] += len(updates)


def _count_session_apply(tracer, args, kwargs, result):
    tracer.counts["session.updates"] += 1


def _count_backup(tracer, args, kwargs, backup):
    tracer.note("statistics", args[0].statistics)
    tracer.counts["rollback.captures"] += 1
    tracer.counts["rollback.entries_copied"] += sum(
        len(table) for name, table in backup.items() if name != "__supports__"
    )


def _note_runtime(tracer, args, kwargs, result):
    tracer.note("statistics", args[0].statistics)


def _note_generated_batch(tracer, args, kwargs, result):
    indexes = kwargs.get("indexes")
    if indexes is not None:
        tracer.note("indexes", indexes)


def _count_result(tracer, args, kwargs, result):
    tracer.counts["views.result_entries"] += len(result) if isinstance(result, dict) else 1


def _count_snapshot(tracer, args, kwargs, snapshot):
    tracer.gauges["snapshot.bytes"] = len(json.dumps(snapshot))


def _note_indexes(tracer, args, kwargs, result):
    tracer.note("indexes", args[0])


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the benchmark attributes time to."""
    import repro.compiler.compile as compile_module
    import repro.session.session as session_module
    from repro.algebra.lattices import SupportTier
    from repro.compiler.codegen import GeneratedTriggers
    from repro.compiler.indexes import SliceIndexes
    from repro.compiler.runtime import TriggerRuntime
    from repro.ingest.flusher import IngestPipeline
    from repro.ingest.queue import IngestQueue
    from repro.session.catalog import MapCatalog
    from repro.session.session import Session
    from repro.session.views import MaterializedView

    patch = tracer.patch
    # sql, compiler.*: bound by name in the module that calls them.
    patch(session_module, "parse_sql", "sql.parse_sql")
    patch(session_module, "translate", "sql.translate")
    patch(session_module, "compile_query", "compile.compile_query", _count_compile)
    patch(compile_module, "verify_program", "verify.verify_program")
    patch(compile_module, "normalize_rhs", "normal_form.normalize_rhs")
    patch(session_module, "generate_python", "codegen.generate_python", _count_codegen)
    patch(MapCatalog, "absorb", "catalog.absorb")
    patch(MapCatalog, "program", "catalog.program")
    # ingest
    patch(IngestQueue, "submit_many", "queue.submit_many")
    patch(IngestQueue, "drain", "queue.drain")
    patch(IngestPipeline, "flush", "flusher.flush")
    # gmr.database
    patch(session_module, "coalesce_updates", "gmr.coalesce_updates", _count_coalesce)
    # session
    patch(Session, "apply_batch", "session.apply_batch", _count_session_batch)
    patch(Session, "apply", "session.apply", _count_session_apply)
    patch(Session, "snapshot", "snapshot.snapshot", _count_snapshot)
    patch(Session, "restore", "snapshot.restore")
    patch(MaterializedView, "result", "views.result", _count_result)
    # executors, rollback copy, support tier, slice indexes
    patch(TriggerRuntime, "backup_tables", "rollback.backup_tables", _count_backup)
    patch(GeneratedTriggers, "apply_batch", "codegen.apply_batch", _note_generated_batch)
    patch(GeneratedTriggers, "apply", "codegen.apply", _note_generated_batch)
    patch(TriggerRuntime, "apply_batch", "runtime.apply_batch", _note_runtime)
    patch(TriggerRuntime, "apply", "runtime.apply", _note_runtime)
    patch(TriggerRuntime, "feed_supports", "support.feed_supports", _note_runtime)
    patch(SupportTier, "collect", "support.collect")
    patch(SliceIndexes, "rebuild", "indexes.rebuild", _note_indexes)
