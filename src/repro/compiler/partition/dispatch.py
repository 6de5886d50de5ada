"""Cost-adaptive dispatch policies for the partition tier.

PR 8's backends picked their execution mode with static thresholds: a fold
went parallel when it carried at least ``min_parallel_keys`` distinct keys,
a recompute fan-out when it covered ``min_parallel_groups`` groups.  Those
constants are wrong on half the hosts CI runs on — a free-threaded 32-core
box profits from threads at a few dozen keys, a 2-core container never does.

This module replaces the constants with a measured model.  A
:class:`DispatchPolicy` sits on every :class:`~repro.compiler.partition
.backends.ShardBackend`; for each batch it *chooses* an execution mode
(``inline`` / ``thread`` / ``process``), the backend times the fold, and the
policy *observes* ``(key count, wall seconds)``.  :class:`AdaptiveDispatch`
keeps one exponentially-decayed least-squares fit of ``cost ≈ a + b·keys``
per ``(statement group, mode)`` and picks the cheapest predicted mode,
with round-robin exploration while a mode is cold and periodic re-probing
so a drifting host is re-learned.

Correctness never depends on the choice: every mode runs the exact fold
paths PR 8 shipped (the coordinator owns partitioning, CDC and index
journals), so state and ``on_change`` payloads are byte-identical under any
policy.  The knob is ``REPRO_SHARD_DISPATCH=static|adaptive`` (default
static — the PR 8 thresholds — so dispatch behavior only changes when asked
for).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.compiler.partition.env import env_default

#: Environment knob naming the process-wide default dispatch policy.
DISPATCH_ENV = "REPRO_SHARD_DISPATCH"

DISPATCH_MODES = ("static", "adaptive")

#: Tie-break order among predicted-equal modes: prefer the cheaper machinery.
_MODE_RANK = {"inline": 0, "thread": 1, "process": 2}


def default_dispatch() -> str:
    """The process-wide default dispatch policy (the ``REPRO_SHARD_DISPATCH`` knob)."""
    value = env_default(DISPATCH_ENV)
    return value if value in DISPATCH_MODES else "static"


def resolve_dispatch(name: Optional[str] = None) -> str:
    """Normalize a ``dispatch=`` argument: ``None`` defers to the env."""
    if name is None:
        return default_dispatch()
    name = str(name).strip().lower()
    if name not in DISPATCH_MODES:
        raise ValueError(f"unknown dispatch policy {name!r}; expected one of {DISPATCH_MODES}")
    return name


class _EwmaModel:
    """An exponentially-decayed least-squares fit of ``cost = a + b·keys``.

    Five decayed sums suffice for the 2×2 normal equations; ``decay`` < 1
    forgets old samples so a host whose load changes re-learns within a few
    dozen observations.  With degenerate support (all observations at one
    key count) the fit falls back to the decayed mean cost.
    """

    __slots__ = ("decay", "s1", "sk", "skk", "sc", "skc")

    def __init__(self, decay: float = 0.8):
        self.decay = decay
        self.s1 = 0.0
        self.sk = 0.0
        self.skk = 0.0
        self.sc = 0.0
        self.skc = 0.0

    @property
    def samples(self) -> float:
        """The decayed observation count (fresh samples weigh 1.0)."""
        return self.s1

    def observe(self, keys: int, seconds: float) -> None:
        decay = self.decay
        self.s1 = self.s1 * decay + 1.0
        self.sk = self.sk * decay + keys
        self.skk = self.skk * decay + keys * keys
        self.sc = self.sc * decay + seconds
        self.skc = self.skc * decay + keys * seconds

    def predict(self, keys: int) -> float:
        if not self.s1:
            return 0.0
        determinant = self.s1 * self.skk - self.sk * self.sk
        if determinant <= 1e-12 * max(self.skk, 1.0):
            return self.sc / self.s1
        slope = (self.s1 * self.skc - self.sk * self.sc) / determinant
        intercept = (self.skk * self.sc - self.sk * self.skc) / determinant
        return max(0.0, intercept + slope * keys)


class DispatchPolicy:
    """The mode-selection protocol of one shard backend.

    ``choose`` picks among the modes the backend declared runnable for this
    batch; ``observe`` feeds the measured cost back; ``record`` tallies every
    decision (including the static and forced ones) so
    ``EngineStatistics``/``IngestStats`` can surface where batches actually
    ran.  ``adaptive`` is a class-level capability flag the backends branch
    on — a static policy's backend keeps the PR 8 threshold gates verbatim.
    """

    name = "?"
    adaptive = False

    def __init__(self) -> None:
        self.decisions: Dict[str, int] = {}

    def record(self, mode: str) -> None:
        self.decisions[mode] = self.decisions.get(mode, 0) + 1

    def choose(self, key: Optional[str], size: int, modes: Sequence[str]) -> str:
        raise NotImplementedError

    def observe(self, key: Optional[str], mode: str, size: int, seconds: float) -> None:
        """Feed one measured ``(size, wall seconds)`` sample back (no-op by default)."""

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able record of the policy and its decision tallies."""
        return {"policy": self.name, "decisions": dict(self.decisions)}


class StaticDispatch(DispatchPolicy):
    """The PR 8 behavior: thresholds decide, the policy only keeps tallies."""

    name = "static"

    def choose(self, key, size, modes):  # pragma: no cover - backends never ask
        return modes[0]


class AdaptiveDispatch(DispatchPolicy):
    """Pick the cheapest predicted mode per batch, measured per statement group.

    ``min_samples`` is the cold threshold: while any runnable mode has fewer
    (decayed) observations than this, cold modes are probed round-robin so
    every mode gets priced before the model is trusted.  Every
    ``explore_every`` decisions one round is spent re-probing modes in turn,
    so a mode that fell behind on a drifting host gets fresh samples and can
    win back.
    """

    name = "adaptive"
    adaptive = True

    def __init__(
        self,
        decay: float = 0.8,
        min_samples: float = 2.0,
        explore_every: int = 20,
    ) -> None:
        super().__init__()
        self.decay = decay
        self.min_samples = min_samples
        self.explore_every = explore_every
        self._models: Dict[Tuple[str, str], _EwmaModel] = {}
        self._rounds: Dict[str, int] = {}

    def _model(self, key: str, mode: str) -> _EwmaModel:
        model = self._models.get((key, mode))
        if model is None:
            model = self._models[(key, mode)] = _EwmaModel(self.decay)
        return model

    def choose(self, key: Optional[str], size: int, modes: Sequence[str]) -> str:
        if len(modes) == 1:
            return modes[0]
        key = key or "·"
        round_index = self._rounds.get(key, 0)
        self._rounds[key] = round_index + 1
        cold = [mode for mode in modes if self._model(key, mode).samples < self.min_samples]
        if cold:
            return cold[round_index % len(cold)]
        if self.explore_every and round_index % self.explore_every == 0:
            return modes[(round_index // self.explore_every) % len(modes)]
        return min(
            modes,
            key=lambda mode: (self._model(key, mode).predict(size), _MODE_RANK.get(mode, 9)),
        )

    def observe(self, key: Optional[str], mode: str, size: int, seconds: float) -> None:
        self._model(key or "·", mode).observe(size, seconds)

    def snapshot(self) -> Dict[str, object]:
        record = super().snapshot()
        record["models"] = {
            f"{key}/{mode}": round(model.predict(0), 9)
            for (key, mode), model in sorted(self._models.items())
            if model.samples
        }
        return record


def make_dispatch_policy(dispatch=None) -> DispatchPolicy:
    """Resolve a ``dispatch=`` argument into a ready policy instance.

    A :class:`DispatchPolicy` passes through (a session shares one policy —
    and its learned models — across runtime rebuilds, like the backend
    itself); a name or ``None`` resolves via :func:`resolve_dispatch`.
    """
    if isinstance(dispatch, DispatchPolicy):
        return dispatch
    return AdaptiveDispatch() if resolve_dispatch(dispatch) == "adaptive" else StaticDispatch()


__all__ = [
    "DISPATCH_ENV",
    "DISPATCH_MODES",
    "AdaptiveDispatch",
    "DispatchPolicy",
    "StaticDispatch",
    "default_dispatch",
    "make_dispatch_policy",
    "resolve_dispatch",
]
