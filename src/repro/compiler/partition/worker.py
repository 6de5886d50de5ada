"""The per-shard worker process loop of the partition tier.

One worker owns one shard index: for every map it holds a *mirror* of that
shard's dict, folds the pre-aggregated delta parts the coordinator ships, and
replies with exactly what crossed the shard boundary — the slice-index
journal (inserted/removed keys, in the wire form of
:func:`repro.compiler.indexes.journal_to_wire`) plus the new values of the
delta's keys.  Nothing else moves: table state lives in the worker between
folds, and the coordinator installs the reply into its authoritative shard
dict so facade reads (statement evaluation, snapshots, results) never block
on a worker round-trip.

The message protocol is deliberately narrow and serialization-friendly
(every payload is dicts/lists/tuples of plain values), so the same contract
could ride a socket instead of a :class:`multiprocessing.Pipe`:

``("load", name, contents)``
    Replace the mirror of map ``name`` with ``contents`` (no reply).  Sent
    when the coordinator's version counters say the mirror went stale —
    every facade write bumps them: recompute write-backs, a batch rollback
    (which puts the journalled prior values back through the facade, so only
    the shards the failed batch touched reload), snapshot restores and
    re-bootstraps (which replace the table, invalidating every shard).
``("fold", name, part, journal)``
    Fold the delta ``part`` into the mirror; reply
    ``(journal_wire, changed, error)`` where ``changed`` maps each delta key
    still present to its post-fold value (absent keys annihilated) and
    ``error`` carries a mid-fold arithmetic failure instead of raising —
    the journal always matches what the mirror actually contains.
``("drop", name)``
    Forget one mirror (no reply).
``("ping",)`` / ``("stop",)``
    Liveness probe (replies ``("pong",)``) and orderly shutdown.
"""

from __future__ import annotations

import pickle
from typing import Any, Dict, Tuple

from repro.algebra.semirings import BUILTIN_SEMIRINGS, Semiring
from repro.compiler.indexes import journal_to_wire

MapTable = Dict[Tuple[Any, ...], Any]


def resolve_ring_payload(payload) -> Semiring:
    """The worker-side half of ring transport: a name resolves to the builtin
    structure, anything else is the (fork-inherited or pickled) ring itself."""
    if isinstance(payload, str):
        return BUILTIN_SEMIRINGS[payload]
    return payload


def wire_error(error):
    """An exception in a form guaranteed to survive the reply pipe."""
    if error is None:
        return None
    try:
        pickle.dumps(error)
        return error
    except Exception:
        return RuntimeError(f"{type(error).__name__}: {error}")


def worker_main(conn, ring_payload) -> None:
    """The worker process entry point: serve fold requests until told to stop."""
    # Imported here, not at module top: the kernels module itself imports the
    # partition package (its fold dispatches through the shard backends).
    from repro.compiler.kernels import make_shard_fold
    from repro.compiler.partition.backends import run_fold_job

    fold = make_shard_fold(resolve_ring_payload(ring_payload))
    mirrors: Dict[str, MapTable] = {}
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            op = message[0]
            if op == "fold":
                _op, name, part, _journal = message
                mirror = mirrors.setdefault(name, {})
                added, removed, error = run_fold_job(fold, mirror, part, True)
                # Post-fold values of the delta's keys; a key the fold
                # annihilated (or never created) is simply absent.  Keys an
                # error left unprocessed report their unchanged value, which
                # installs as a no-op at the coordinator.
                changed = {key: mirror[key] for key in part if key in mirror}
                conn.send(
                    (journal_to_wire(added or (), removed or ()), changed, wire_error(error))
                )
            elif op == "load":
                mirrors[message[1]] = dict(message[2])
            elif op == "drop":
                mirrors.pop(message[1], None)
            elif op == "ping":
                conn.send(("pong",))
            elif op == "stop":
                break
    finally:
        try:
            conn.close()
        except Exception:
            pass
