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
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .dataset import OfflineDataset
from .replay import check_alpha

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


def quality_priority(rewards: Sequence[float], kind: str) -> float:
    """Evaluate one of the reward-based quality metrics on a trajectory's
    rewards, in time order (built-in sums, added left to right)."""
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


# Pairs per uncertainty_values call when scoring many trajectories: large enough
# that per-call overhead vanishes, small enough that the (K, n) temporaries
# of the gather do not add to the run's peak memory.
UNCERTAINTY_BLOCK = 1 << 14


def uncertainty_priorities(
    dataset: OfflineDataset,
    kind: str,
    source: UncertaintySource,
    trajectory_ids: Sequence[int],
) -> dict[int, float]:
    """The given trajectories' uncertainty priorities, their pairs gathered in
    blocks of ``UNCERTAINTY_BLOCK``; the one path from uncertainty to priority."""
    offsets = dataset.offsets
    starts = np.array([offsets[j] for j in trajectory_ids], dtype=np.intp)
    lengths = np.array([offsets[j + 1] for j in trajectory_ids], dtype=np.intp) - starts
    bounds = np.concatenate(([0], np.cumsum(lengths)))
    pairs = np.arange(bounds[-1]) + np.repeat(starts - bounds[:-1], lengths)
    values = np.empty(len(pairs))
    for lo in range(0, len(pairs), UNCERTAINTY_BLOCK):
        hi = lo + UNCERTAINTY_BLOCK
        block = pairs[lo:hi]
        values[lo:hi] = source.uncertainty_values(dataset.states[block], dataset.actions[block])
    # fmin skips NaN, so this is any(values < 0) in one ufunc call
    if np.fmin.reduce(values) < 0:
        raise ValueError("uncertainty values must be non-negative")
    edges = bounds.tolist()
    return {
        j: _uncertainty_metric(values[lo:hi], kind)
        for j, lo, hi in zip(trajectory_ids, edges, edges[1:])
    }


@dataclass
class PriorityTable:
    """Per-trajectory priority values plus the rank-exponent alpha."""

    values: dict[int, float] = field(default_factory=dict)
    alpha: float = 1.0
    kind: str = UNIFORM_KIND

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
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
) -> PriorityTable:
    """Priorities of every trajectory; uncertainty kinds read ``ensemble`` at
    the dataset's (state, action) pairs, the uniform kind gives every
    trajectory 1.0."""
    if kind in UNCERTAINTY_KINDS:
        if ensemble is None:
            raise ValueError(f"metric {kind!r} requires an ensemble's uncertainty values")
        values = uncertainty_priorities(dataset, kind, ensemble, range(dataset.n_trajectories))
    elif kind == UNIFORM_KIND:
        values = dict.fromkeys(range(dataset.n_trajectories), 1.0)
    else:
        rewards, offsets = dataset.rewards, dataset.offsets
        values = {
            j: quality_priority(rewards[lo:hi].tolist(), kind)
            for j, (lo, hi) in enumerate(zip(offsets, offsets[1:]))
        }
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


class PrioritizedSelector:
    """Replay-slot selector drawing ids by the rank-reciprocal distribution.

    The only sampler of :func:`rank_distribution`.  Uniform trajectory choice
    is :class:`~trajreplay.replay.UniformSelector`'s job, so a uniform-kind
    table is rejected.  Owned by a single replay machine.  Between refills of
    the machine's available pool, candidate priorities are fixed and the pool
    only shrinks by the ids this selector returns, so the sorted rank order is
    computed once per pool refill and popped from thereafter (the length check
    detects refills).  With an ``ensemble`` and an uncertainty table, the
    trajectories a batch completes are re-scored from the ensemble in one
    :func:`uncertainty_priorities` call (dynamic uncertainty metrics).
    """

    def __init__(
        self,
        table: PriorityTable,
        dataset: OfflineDataset,
        ensemble: UncertaintySource | None = None,
    ) -> None:
        if table.kind == UNIFORM_KIND:
            raise ValueError("a uniform table draws through UniformSelector instead")
        self.table = table
        self._dataset = dataset
        self._ensemble = ensemble if table.kind in UNCERTAINTY_KINDS else None
        self._order: list[int] = []
        # cum[r - 1] = sum of rank^-alpha over ranks 1..r, for every pool size
        ranks = np.arange(1, dataset.n_trajectories + 1, dtype=float)
        self._cum_weights = np.cumsum(ranks**-table.alpha).tolist()

    def select(self, candidates: Sequence[int], rng: np.random.Generator) -> int:
        if len(self._order) != len(candidates):
            self._order = rank_order(self.table, candidates)
        n = len(self._order)
        cum = self._cum_weights
        return self._order.pop(bisect_right(cum, rng.random() * cum[n - 1], 0, n))

    def notify_complete(self, trajectory_ids: Sequence[int]) -> None:
        if self._ensemble is not None:
            for j in trajectory_ids:
                if j not in self.table.values:
                    raise ValueError(f"unknown trajectory id {j}")
            self.table.values.update(
                uncertainty_priorities(
                    self._dataset, self.table.kind, self._ensemble, trajectory_ids
                )
            )
