"""Trajectory priority metrics and rank-reciprocal prioritized selection.

Quality metrics are pure functions of a trajectory's rewards; uncertainty
metrics summarize a per-pair uncertainty signal along the trajectory (low
uncertainty = reliable knowledge, prioritized by taking reciprocals).
Selection probabilities use ranking order rather than raw priority values:
rank 1 is the highest priority, p = 1/rank, and P = p^alpha / sum p^alpha over
the current candidate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .dataset import OfflineDataset, Trajectory

QUALITY_KINDS = (
    "return",
    "avg_reward",
    "uqm_reward",
    "uhm_reward",
    "min_reward",
    "max_reward",
)
UNCERTAINTY_KINDS = (
    "lower_mean_unc",
    "lower_lqm_unc",
    "lower_uqm_unc",
    "higher_mean_unc",
    "higher_lqm_unc",
    "higher_uqm_unc",
)
UNIFORM_KIND = "uniform"
ALL_KINDS = QUALITY_KINDS + UNCERTAINTY_KINDS + (UNIFORM_KIND,)

# Floor applied to uncertainty means before taking reciprocals, so a collapsed
# ensemble (all members agreeing exactly) still yields finite priorities.
UNCERTAINTY_FLOOR = 1e-6


class UncertaintySource(Protocol):
    """Per-pair ensemble uncertainty for index arrays (``EnsembleQ`` provides it)."""

    def uncertainty_values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        ...


def top_fraction_count(length: int, fraction: float) -> int:
    """Number of items in the top/bottom ``fraction`` of ``length``, at least 1."""
    return max(1, math.ceil(fraction * length))


def quality_priority(trajectory: Trajectory, kind: str) -> float:
    """Evaluate one of the reward-based trajectory quality metrics."""
    rewards = trajectory.rewards
    if kind == "return":
        return float(sum(rewards))
    if kind == "avg_reward":
        return float(sum(rewards) / len(rewards))
    if kind == "uqm_reward":
        k = top_fraction_count(len(rewards), 0.25)
        return float(sum(sorted(rewards)[-k:]) / k)
    if kind == "uhm_reward":
        k = top_fraction_count(len(rewards), 0.5)
        return float(sum(sorted(rewards)[-k:]) / k)
    if kind == "min_reward":
        return float(min(rewards))
    if kind == "max_reward":
        return float(max(rewards))
    raise ValueError(f"{kind!r} is not a quality metric kind")


def _check_uncertainty_values(values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if (values < 0).any():
        raise ValueError("uncertainty values must be non-negative")
    return values


def _mean(values: np.ndarray) -> float:
    # The sum and the division of ndarray.mean, without its wrapper's overhead.
    return float(np.add.reduce(values)) / len(values)


def _uncertainty_metric(values: np.ndarray, kind: str) -> float:
    if kind.endswith("_mean_unc"):
        m = _mean(values)
    elif kind.endswith("_lqm_unc"):
        k = top_fraction_count(len(values), 0.25)
        m = _mean(np.sort(values)[:k])
    elif kind.endswith("_uqm_unc"):
        k = top_fraction_count(len(values), 0.25)
        m = _mean(np.sort(values)[-k:])
    else:
        raise ValueError(f"{kind!r} is not an uncertainty metric kind")
    if kind.startswith("lower_"):
        return 1.0 / max(m, UNCERTAINTY_FLOOR)
    if kind.startswith("higher_"):
        return m
    raise ValueError(f"{kind!r} is not an uncertainty metric kind")


def uncertainty_priority_from_values(values: np.ndarray, kind: str) -> float:
    """Uncertainty metric from the trajectory's per-pair uncertainty values."""
    return _uncertainty_metric(_check_uncertainty_values(values), kind)


@dataclass(frozen=True, eq=False)
class TrajectoryPairs:
    """Every trajectory's (state, action) index arrays, as slices of two flat arrays."""

    states: np.ndarray
    actions: np.ndarray
    offsets: list[int]  # trajectory j owns flat positions offsets[j]:offsets[j + 1]

    @classmethod
    def of(cls, dataset: OfflineDataset) -> "TrajectoryPairs":
        offsets = [0]
        for traj in dataset.trajectories:
            offsets.append(offsets[-1] + traj.length)

        def column(name: str) -> np.ndarray:
            values = (getattr(tr, name) for traj in dataset.trajectories for tr in traj.transitions)
            return np.fromiter(values, dtype=np.intp, count=offsets[-1])

        return cls(column("state"), column("action"), offsets)

    def __getitem__(self, trajectory_id: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.offsets[trajectory_id], self.offsets[trajectory_id + 1]
        return self.states[lo:hi], self.actions[lo:hi]


# Pairs per uncertainty_values call when scoring a whole dataset: large enough
# that per-call overhead vanishes, small enough that the (K, n) temporaries
# of the gather do not add to the run's peak memory.
UNCERTAINTY_BLOCK = 1 << 14


def uncertainty_priorities(
    pairs: TrajectoryPairs, kind: str, source: UncertaintySource
) -> dict[int, float]:
    """Every trajectory's uncertainty priority, gathered in blocks of pairs."""
    n = len(pairs.states)
    values = np.empty(n)
    for lo in range(0, n, UNCERTAINTY_BLOCK):
        hi = lo + UNCERTAINTY_BLOCK
        values[lo:hi] = source.uncertainty_values(pairs.states[lo:hi], pairs.actions[lo:hi])
    values = _check_uncertainty_values(values)
    bounds = pairs.offsets
    return {
        j: _uncertainty_metric(values[bounds[j] : bounds[j + 1]], kind)
        for j in range(len(bounds) - 1)
    }


def trajectory_priority(trajectory: Trajectory, kind: str) -> float:
    """Dispatch a fixed metric; uncertainty metrics need an ensemble (see
    :func:`build_priority_table`)."""
    if kind == UNIFORM_KIND:
        return 1.0
    if kind in QUALITY_KINDS:
        return quality_priority(trajectory, kind)
    if kind in UNCERTAINTY_KINDS:
        raise ValueError(f"metric {kind!r} requires an ensemble's uncertainty values")
    raise ValueError(f"unknown metric kind {kind!r}")


@dataclass
class PriorityTable:
    """Per-trajectory priority values plus the rank-exponent alpha."""

    values: dict[int, float] = field(default_factory=dict)
    alpha: float = 1.0
    kind: str = UNIFORM_KIND

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r}")
        for j, value in self.values.items():
            if not math.isfinite(value):
                raise ValueError(f"priority for trajectory {j} is not finite: {value}")


def build_priority_table(
    dataset: OfflineDataset,
    kind: str,
    alpha: float = 1.0,
    ensemble: UncertaintySource | None = None,
    pairs: TrajectoryPairs | None = None,
) -> PriorityTable:
    """Priorities of every trajectory.

    Uncertainty kinds read ``ensemble`` at the dataset's pairs (``pairs``, when
    the caller already holds them).
    """
    if kind in UNCERTAINTY_KINDS:
        if ensemble is None:
            raise ValueError(f"metric {kind!r} requires an ensemble's uncertainty values")
        if pairs is None:
            pairs = TrajectoryPairs.of(dataset)
        values = uncertainty_priorities(pairs, kind, ensemble)
    else:
        values = {traj.id: trajectory_priority(traj, kind) for traj in dataset.trajectories}
    return PriorityTable(values=values, alpha=alpha, kind=kind)


def rank_order(table: PriorityTable, candidates: Sequence[int]) -> list[int]:
    """Candidates sorted best rank first: priority descending, ties by id."""
    if len(candidates) == 0:
        raise ValueError("candidate set is empty")
    values = table.values
    try:
        return sorted(candidates, key=lambda j: (-values[j], j))
    except KeyError as exc:
        raise ValueError(f"trajectory id {exc.args[0]} missing from priority table") from exc


_cum_rank_weights: dict[float, np.ndarray] = {}


def _rank_cumweights(n: int, alpha: float) -> np.ndarray:
    """Cumulative sums of rank^-alpha for ranks 1..n (cached per alpha)."""
    cached = _cum_rank_weights.get(alpha)
    if cached is None or len(cached) < n:
        size = max(n, 64)
        ranks = np.arange(1, size + 1, dtype=float)
        cached = np.cumsum(ranks**-alpha)
        _cum_rank_weights[alpha] = cached
    return cached[:n]


def rank_distribution(
    table: PriorityTable, candidates: Sequence[int]
) -> dict[int, float]:
    """Exact selection probabilities over the candidate set.

    The uniform kind bypasses ranking entirely (equal probabilities); all
    other kinds follow the rank-reciprocal rule, so the result is invariant
    under any monotone rescaling of the priority values.
    """
    order = rank_order(table, candidates)
    n = len(order)
    if table.kind == UNIFORM_KIND:
        return {j: 1.0 / n for j in order}
    weights = np.arange(1, n + 1, dtype=float) ** -table.alpha
    probs = weights / weights.sum()
    return {j: float(p) for j, p in zip(order, probs)}


def _draw_rank_index(n: int, alpha: float, rng: np.random.Generator) -> int:
    cum = _rank_cumweights(n, alpha)
    u = rng.random() * cum[-1]
    return int(np.searchsorted(cum, u, side="right"))


def prioritized_select(
    table: PriorityTable, candidates: Sequence[int], rng: np.random.Generator
) -> int:
    """Draw one candidate id according to :func:`rank_distribution`."""
    order = rank_order(table, candidates)
    if table.kind == UNIFORM_KIND:
        return order[int(rng.integers(len(order)))]
    return order[_draw_rank_index(len(order), table.alpha, rng)]


class PrioritizedSelector:
    """Replay-slot selector drawing ids by the rank-reciprocal distribution.

    Owned by a single replay machine.  Between refills of the machine's
    available pool, candidate priorities are fixed and the pool only shrinks
    by the ids this selector returns, so the sorted rank order is computed
    once per pool refill and popped from thereafter (the length check detects
    refills).  With an ``ensemble`` and an uncertainty table, a trajectory's
    priority is recomputed from the ensemble each time its backward pass
    completes (dynamic uncertainty metrics).
    """

    def __init__(
        self,
        table: PriorityTable,
        dataset: OfflineDataset,
        ensemble: UncertaintySource | None = None,
        pairs: TrajectoryPairs | None = None,
    ) -> None:
        self.table = table
        self._ensemble = ensemble if table.kind in UNCERTAINTY_KINDS else None
        if self._ensemble is not None and pairs is None:
            pairs = TrajectoryPairs.of(dataset)
        self._pairs = pairs
        self._order: list[int] = []

    def select(self, candidates: Sequence[int], rng: np.random.Generator) -> int:
        if len(self._order) != len(candidates):
            self._order = rank_order(self.table, candidates)
        if self.table.kind == UNIFORM_KIND:
            idx = int(rng.integers(len(self._order)))
        else:
            idx = _draw_rank_index(len(self._order), self.table.alpha, rng)
        return self._order.pop(idx)

    def notify_complete(self, trajectory_id: int) -> None:
        if self._ensemble is not None:
            if trajectory_id not in self.table.values:
                raise ValueError(f"unknown trajectory id {trajectory_id}")
            states, actions = self._pairs[trajectory_id]
            self.table.values[trajectory_id] = uncertainty_priority_from_values(
                self._ensemble.uncertainty_values(states, actions), self.table.kind
            )
