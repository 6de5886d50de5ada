"""Load drivers, visibility probes, CDC shadows and statistics for the e2e benchmark.

Everything here sits *outside* the library: it builds sessions from SQL
text, hands them generated ``Update`` objects, and observes what a user
could observe — when a change became visible (``on_change``), what a view
returns, how long a call took.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.algebra.semirings import INTEGER_RING, resolve_semiring
from repro.gmr.database import Update
from repro.session import Session

from streams import LiveRows, Stream

#: A probe still unseen this long after the run's last flush is a failed operation.
PROBE_DEADLINE_S = 2.0


class BenchmarkFailure(Exception):
    """A correctness check failed or a phase was too short to report; no metrics are printed."""


# -- statistics -----------------------------------------------------------------


def quantile(ordered: Sequence[float], fraction: float) -> float:
    """Linear-interpolated quantile of an already sorted, non-empty sequence."""
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summarize(samples: Iterable[float], scale: float = 1.0) -> Dict[str, float]:
    """Sample count, median, quartiles and tail quantiles of a timing (scaled, e.g. s -> ms)."""
    ordered = sorted(samples)
    if not ordered:
        raise BenchmarkFailure("a timing has no samples")
    return {
        "n": len(ordered),
        "median": quantile(ordered, 0.5) * scale,
        "q1": quantile(ordered, 0.25) * scale,
        "q3": quantile(ordered, 0.75) * scale,
        "p10": quantile(ordered, 0.1) * scale,
        "p90": quantile(ordered, 0.9) * scale,
        "p95": quantile(ordered, 0.95) * scale,
        "max": ordered[-1] * scale,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint(root: Path) -> Dict[str, Any]:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    gil_enabled = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil": bool(gil_enabled),
        "load_average_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 and done.stdout.strip() else "unknown"


# -- sessions built from SQL text -------------------------------------------------


class SessionSpec:
    """One session of a workload: ring, backend and its views as SQL text."""

    def __init__(self, key: str, views: Sequence[Tuple[str, str]], backend: str,
                 ring: Optional[str] = None, probe_sql: Optional[str] = None):
        self.key = key
        self.views = tuple(views)
        self.backend = backend
        self.ring = ring
        self.probe_sql = probe_sql or "SELECT p.pid, SUM(1) FROM Probe p GROUP BY p.pid"


def build_sessions(schema: Dict[str, Tuple[str, ...]], specs: Sequence[SessionSpec]) -> Dict[str, Session]:
    """SQL text -> sessions with every view registered (what ``setup_s`` times).

    History tracking is off — all views are registered up front, and a log
    that grows with run length would make state size a function of run length.
    ``shards=1`` pins the unsharded path whatever ``REPRO_SHARDS`` says.
    """
    sessions = {}
    for spec in specs:
        ring = resolve_semiring(spec.ring) if spec.ring else INTEGER_RING
        session = Session(schema, ring=ring, track_history=False, shards=1)
        for name, sql in spec.views:
            session.view(name, sql, backend=spec.backend)
        session.view("probe_seen", spec.probe_sql, backend=spec.backend)
        sessions[spec.key] = session
    return sessions


def measure_setup(build: Callable[[], Dict[str, Session]], repeats: int) -> Tuple[float, Dict[str, float]]:
    """One discarded cold build, then ``repeats`` fresh builds: (cold seconds, summary)."""
    samples = []
    cold = 0.0
    for attempt in range(repeats + 1):
        started = perf_counter()
        sessions = build()
        elapsed = perf_counter() - started
        for session in sessions.values():
            session.close()
        if attempt == 0:
            cold = elapsed
        else:
            samples.append(elapsed)
    return cold, summarize(samples)


# -- what a subscriber sees ---------------------------------------------------------


class Probes:
    """Benchmark-owned ``Probe(pid)`` tuples that time update-to-visible latency.

    One probe rides at the end of every chunk.  ``due`` is stamped by the
    driver, ``seen`` by the ``probe_seen`` view's ``on_change`` subscriber.
    Probes already seen are retired (deleted) with later chunks, oldest
    first, so the probe view stays small and a probe's delete can never meet
    its own insert in the queue.
    """

    def __init__(self, ring):
        self.due: Dict[int, float] = {}
        self.seen: Dict[int, float] = {}
        self.live: "deque[int]" = deque()
        self.sent = 0  # also the next probe's pid
        if ring.is_ring:
            self._appeared = lambda value: value > 0
        else:
            is_zero = ring.is_zero
            self._appeared = lambda value: not is_zero(value)

    def on_change(self, changes) -> None:
        now = perf_counter()
        seen = self.seen
        appeared = self._appeared
        for key, value in changes.items():
            if key[0] not in seen and appeared(value):
                seen[key[0]] = now

    def ride(self, due: Optional[float] = None) -> List[Update]:
        """The probe updates to append to the next chunk; stamps the new probe's due time."""
        pid = self.sent
        self.sent += 1
        updates = [Update(1, "Probe", (pid,))]
        live, seen = self.live, self.seen
        for _ in range(2):
            if live and live[0] in seen:
                updates.append(Update(-1, "Probe", (live.popleft(),)))
        live.append(pid)
        self.due[pid] = perf_counter() if due is None else due
        return updates

    def retire_all(self) -> List[Update]:
        updates = [Update(-1, "Probe", (pid,)) for pid in self.live]
        self.live.clear()
        return updates

    def take_latencies(self) -> Tuple[List[float], int]:
        """Latencies of the probes sent since the last call, and how many were never seen."""
        latencies = []
        unseen = 0
        for pid, due in self.due.items():
            seen = self.seen.get(pid)
            if seen is None:
                unseen += 1
            else:
                latencies.append(seen - due)
        live = set(self.live)
        self.due.clear()
        self.seen = {pid: stamp for pid, stamp in self.seen.items() if pid in live}
        return latencies, unseen


class Shadow:
    """A subscriber that rebuilds its view from the CDC payloads alone."""

    def __init__(self, ring):
        self.state: Dict[Tuple[Any, ...], Any] = {}
        self.deliveries = 0
        self.entries = 0
        if ring.is_ring:
            self.on_change = self._add_deltas
        else:
            self._is_zero = ring.is_zero
            self.on_change = self._install_values

    def _add_deltas(self, changes) -> None:
        self.deliveries += 1
        self.entries += len(changes)
        state = self.state
        for key, delta in changes.items():
            value = state.get(key, 0) + delta
            if value:
                state[key] = value
            else:
                del state[key]

    def _install_values(self, changes) -> None:
        # Over a proper semiring the payload is each group's post-update
        # value, the ring's zero marking a removed group.
        self.deliveries += 1
        self.entries += len(changes)
        state = self.state
        is_zero = self._is_zero
        for key, value in changes.items():
            if is_zero(value):
                state.pop(key, None)
            else:
                state[key] = value


class Target:
    """One session under test with its probes and one CDC shadow per view."""

    def __init__(self, key: str, session: Session, wrap_callback=None):
        self.key = key
        self.session = session
        self.probes = Probes(session.ring)
        self.shadows: Dict[str, Shadow] = {}
        wrap = wrap_callback or (lambda callback: callback)
        for name, view in session.views.items():
            if name == "probe_seen":
                view.on_change(wrap(self.probes.on_change))
            else:
                shadow = self.shadows[name] = Shadow(session.ring)
                view.on_change(wrap(shadow.on_change))

    def check(self, expected: Dict[str, Dict[Tuple[Any, ...], Any]], where: str) -> None:
        """Every view must equal the reference, and every shadow its view."""
        for name, shadow in self.shadows.items():
            actual = self.session[name].result_mapping()
            if actual != expected[name]:
                raise BenchmarkFailure(
                    f"{where}: view {self.key}.{name} differs from the reference "
                    f"({_difference(actual, expected[name])})"
                )
            if shadow.state != actual:
                raise BenchmarkFailure(
                    f"{where}: CDC deltas of {self.key}.{name} do not reconstruct the view "
                    f"({_difference(shadow.state, actual)})"
                )


def _difference(actual, expected) -> str:
    keys = [key for key in set(actual) | set(expected) if actual.get(key) != expected.get(key)]
    sample = sorted(keys, key=repr)[:3]
    detail = ", ".join(f"{key}: got {actual.get(key)!r}, want {expected.get(key)!r}" for key in sample)
    return f"{len(keys)} keys differ, e.g. {detail}"


class Cursor:
    """A position in a stream's endlessly repeated cycle, as ``Update`` objects."""

    def __init__(self, stream: Stream):
        self.stream = stream
        self.warm = to_updates(stream.warm, stream.repetitive)
        self.cycle = to_updates(stream.cycle, stream.repetitive)
        self.position = 0

    def take(self, count: int) -> List[Update]:
        cycle = self.cycle
        start = self.position % len(cycle)
        chunk = cycle[start : start + count]
        while len(chunk) < count:
            chunk = chunk + cycle[: count - len(chunk)]
        self.position += count
        return chunk

    def finish_step(self) -> List[Update]:
        """The rest of a half-sent step, so the live state is a whole window again."""
        size = len(self.cycle)
        offset = self.position % size
        rest = self.stream.next_step_end(offset) - offset
        return self.take(rest) if rest else []


def to_updates(rows, shared: bool) -> List[Update]:
    if not shared:
        return [Update(sign, relation, values) for sign, relation, values in rows]
    made: Dict[Any, Update] = {}
    updates = []
    for row in rows:
        update = made.get(row)
        if update is None:
            update = made[row] = Update(*row)
        updates.append(update)
    return updates


class Reference:
    """The independent expected results at a cursor's position."""

    def __init__(self, stream: Stream, expected: Callable[[LiveRows], Dict[str, Dict]]):
        self.live = LiveRows(stream)
        self.expected = expected

    def check(self, targets: Sequence[Target], position: int, where: str) -> None:
        self.live.advance_to(position)
        expected = self.expected(self.live)
        for target in targets:
            if target.probes.live:
                raise BenchmarkFailure(f"{where}: probes still live at a check")
            if target.session["probe_seen"].result_mapping():
                raise BenchmarkFailure(f"{where}: probe view of {target.key} is not empty")
            target.check(expected, where)


# -- slices -------------------------------------------------------------------------
#
# A run is a sequence of rounds; each round gives every phase one short
# *slice*.  Every metric therefore samples the whole length of the run, and a
# stretch of seconds in which the (shared) host runs slow cannot swallow one
# phase whole.  A slice is also the throughput window: one rate per slice.


def load_warmup(targets: Sequence[Target], cursor: Cursor, chunk: int = 2000) -> None:
    warm = cursor.warm
    for start in range(0, len(warm), chunk):
        for target in targets:
            target.session.apply_batch(warm[start : start + chunk])


def prime(tracer, targets: Sequence[Target], cursor: Cursor) -> None:
    """One traced step before the traced slices, so the tracer has met every executor."""
    tracer.begin("prime")
    step = cursor.take(1) + cursor.finish_step()
    for target in targets:
        target.session.apply_batch(step)
    tracer.end()


def settle(targets: Sequence[Target], cursor: Cursor) -> None:
    """Complete the current step and retire every probe (untimed), ready for a check."""
    rest = cursor.finish_step()
    for target in targets:
        batch = rest + target.probes.retire_all()
        if batch:
            target.session.apply_batch(batch)


def sync_batches(
    targets: Sequence[Target],
    cursor: Cursor,
    seconds: float,
    batch_size: int,
    read_views: Sequence[Any] = (),
    read_every: int = 5,
) -> Dict[str, Any]:
    """Closed loop, one caller: ``Session.apply_batch`` of ``batch_size`` updates plus a probe.

    With several targets every batch goes to each in turn (the same stream
    maintained by several sessions); a round's updates count once per target.
    """
    reads: List[float] = []
    busy = {target.key: 0.0 for target in targets}
    done = 0
    rounds = 0
    started = perf_counter()
    deadline = started + seconds
    while True:
        chunk = cursor.take(batch_size)
        for target in targets:
            batch = chunk + target.probes.ride()
            issued = perf_counter()
            target.session.apply_batch(batch)
            busy[target.key] += perf_counter() - issued
            done += batch_size
        rounds += 1
        if read_views and rounds % read_every == 0:
            reads.append(_timed_reads(read_views))
        now = perf_counter()
        if now >= deadline:
            break
    if read_views and not reads:
        # A slice shorter than ``read_every`` batches still reads once.
        reads.append(_timed_reads(read_views))
    return {
        "updates": done,
        "wall_s": now - started,
        "reads": reads,
        "busy_s": busy,
        "per_target": rounds * batch_size,
    }


def sync_tuples(targets: Sequence[Target], cursor: Cursor, seconds: float, stride: int = 50) -> Dict[str, Any]:
    """Closed loop, one caller: per-tuple ``Session.apply``; the clock is read every ``stride`` tuples."""
    done = 0
    started = perf_counter()
    deadline = started + seconds
    applies = [target.session.apply for target in targets]
    while True:
        for update in cursor.take(stride):
            for apply in applies:
                apply(update)
        done += stride * len(applies)
        now = perf_counter()
        if now >= deadline:
            break
    return {"updates": done, "wall_s": now - started}


def _timed_reads(views: Sequence[Any], passes: int = 4) -> float:
    """Seconds per ``view.result()``, over a few passes so the clock's grain does not show."""
    started = perf_counter()
    for _ in range(passes):
        for view in views:
            view.result()
    return (perf_counter() - started) / (passes * len(views))


def ingest_closed(
    target: Target,
    pipeline,
    cursor: Cursor,
    seconds: float,
    chunk_size: int,
    read_views: Sequence[Any] = (),
    read_every: int = 2,
) -> Dict[str, Any]:
    """Closed loop through the pipeline: submit chunks for ``seconds``, then ``flush()``.

    The slice's rate is its submitted updates over the wall time until they
    are all visible (``flush()`` returned); backpressure is what closes the
    loop between flushes.
    """
    reads: List[float] = []
    submitted = 0
    chunks = 0
    started = perf_counter()
    deadline = started + seconds
    while True:
        chunk = cursor.take(chunk_size)
        pipeline.submit_many(chunk + target.probes.ride())
        submitted += chunk_size
        chunks += 1
        if read_views and chunks % read_every == 0:
            reads.append(_timed_reads(read_views))
        if perf_counter() >= deadline:
            break
    pipeline.flush()
    wall = perf_counter() - started
    if read_views and not reads:
        reads.append(_timed_reads(read_views))
    return {"updates": submitted, "wall_s": wall, "reads": reads}


def ingest_open(
    target: Target,
    pipeline,
    cursor: Cursor,
    seconds: float,
    rate: float,
    tick_s: float,
) -> Dict[str, Any]:
    """Open loop: one chunk of ``rate * tick_s`` updates every ``tick_s``, whatever the pipeline does.

    A probe's due time is when its chunk was *scheduled*, so a stall's wait
    counts against every chunk it delayed.
    """
    chunk_size = max(1, round(rate * tick_s))
    ticks = max(1, int(seconds / tick_s))
    late: List[float] = []
    sleep = time.sleep
    started = perf_counter() + tick_s
    for tick in range(ticks):
        due = started + tick * tick_s
        chunk = cursor.take(chunk_size)
        wait = due - perf_counter()
        if wait > 0:
            sleep(wait)
        late.append(perf_counter() - due)
        pipeline.submit_many(chunk + target.probes.ride(due))
    depth = pipeline.queue_depth
    wall = perf_counter() - started
    pipeline.flush()
    return {
        "updates": ticks * chunk_size,
        "chunk_size": chunk_size,
        "late": late,
        "queue_depth_end": depth,
        "wall_s": wall,
    }


def await_probes(targets: Sequence[Target]) -> None:
    """Give unseen probes until the deadline after the last flush to show up."""
    deadline = perf_counter() + PROBE_DEADLINE_S
    while perf_counter() < deadline:
        if all(pid in target.probes.seen for target in targets for pid in target.probes.due):
            return
        time.sleep(0.01)


def snapshot_restore(targets: Sequence[Target]) -> Tuple[float, float]:
    """One ``Session.snapshot()`` and ``Session.restore()`` of every target: (snapshot s, restore s).

    The restored session's views must equal the live ones.
    """
    snapshot_s = restore_s = 0.0
    for target in targets:
        started = perf_counter()
        snapshot = target.session.snapshot()
        taken = perf_counter()
        restored = Session.restore(snapshot)
        revived = perf_counter()
        snapshot_s += taken - started
        restore_s += revived - taken
        try:
            for name in target.shadows:
                if restored[name].result_mapping() != target.session[name].result_mapping():
                    raise BenchmarkFailure(f"restored view {target.key}.{name} differs from the live one")
        finally:
            restored.close()
        del snapshot, restored
    return snapshot_s, restore_s


# -- estimators -----------------------------------------------------------------------
#
# On a shared host, contention only ever *adds* time, for seconds or minutes
# at a stretch.  The reported figure of a sliced metric is therefore that of
# its best slice (the rate the program reaches when the host lets it): over
# ten-run sets on this host it repeats two to three times better than the
# median of the same slices, which the record keeps with the quartiles.


def best_rate(rates: Sequence[float]) -> float:
    return max(rates)


def best_time(times: Sequence[float]) -> float:
    return min(times)
