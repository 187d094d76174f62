"""Trajectory priority metrics and rank-reciprocal prioritized selection.

Quality metrics are pure functions of a trajectory's rewards; uncertainty
metrics summarize a per-pair uncertainty signal along the trajectory (low
uncertainty = reliable knowledge, prioritized by taking reciprocals), both
over trajectories grouped by length.
Selection probabilities use ranking order rather than raw priority values:
rank 1 is the highest priority, p = 1/rank, and P = p^alpha / sum p^alpha over
the current candidate set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import repeat
from operator import add
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
    rewards, in time order: the one-row case of :func:`_row_values`."""
    if kind not in QUALITY_KINDS:
        raise ValueError(f"{kind!r} is not a quality metric kind")
    return float(_row_values(np.asarray(rewards, dtype=float), kind))


def _row_values(rows: np.ndarray, kind: str) -> np.ndarray:
    """``kind``'s value of each row along the last axis of ``rows`` (an (m, L)
    block, or one 1-D slice), before an uncertainty kind's floor and reciprocal.

    Quality sums add left to right from int 0, as the built-in ``sum`` of the
    row's floats does; uncertainty sums are ``np.add.reduce`` along the last
    axis, which gives each row the bits of the 1-D sum of its slice.
    """
    length = rows.shape[-1]
    if kind in ("min_reward", "max_reward"):
        # first occurrence, as the built-in min and max keep it (0.0 before -0.0)
        pick = rows.argmin(-1) if kind == "min_reward" else rows.argmax(-1)
        return np.take_along_axis(rows, pick[..., None], -1)[..., 0]
    if kind in ("return", "avg_reward") or kind.endswith("_mean_unc"):
        part, count = rows, (1 if kind == "return" else length)
    else:  # the top (bottom for _lqm_unc) quarter, or half for uhm_reward
        count = top_fraction_count(length, 0.5 if kind == "uhm_reward" else 0.25)
        ordered = np.sort(rows, -1)
        part = ordered[..., :count] if kind.endswith("_lqm_unc") else ordered[..., -count:]
    if kind in QUALITY_KINDS:
        return (part.cumsum(-1)[..., -1] + 0.0) / count
    return np.add.reduce(part, -1) / count


# Runs of one length that share a gathered (m, L) block; fewer are reduced as
# plain slices, since for rows of tens of steps the gather costs more than
# three slices' reductions.
GROUP_MIN_RUNS = 4


def _summaries(
    values: np.ndarray, starts: np.ndarray, lengths: np.ndarray, kind: str
) -> np.ndarray:
    """``kind``'s value of each run ``values[starts[i]:starts[i] + lengths[i]]``.

    The ``GROUP_MIN_RUNS`` or more runs of a shared length are gathered into
    one C-contiguous (m, L) block and reduced along its last axis; every
    other run is reduced as its plain slice, so a small refresh does not pay
    for the gather.  Both give a run the same bits.
    """
    run_lengths = lengths.tolist()
    runs_of = np.bincount(lengths).tolist()
    summaries = np.empty(len(run_lengths))
    shared: dict[int, list[int]] = {}
    for i, (start, length) in enumerate(zip(starts.tolist(), run_lengths)):
        if runs_of[length] < GROUP_MIN_RUNS:
            summaries[i] = _row_values(values[start : start + length], kind)
        else:
            shared.setdefault(length, []).append(i)
    for length, rows in shared.items():
        rows = np.array(rows)
        summaries[rows] = _row_values(values[starts[rows, None] + np.arange(length)], kind)
    if kind.startswith("lower_"):
        np.maximum(summaries, UNCERTAINTY_FLOOR, out=summaries)
        np.divide(1.0, summaries, out=summaries)
    return summaries


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
    blocks of ``UNCERTAINTY_BLOCK``; the one path from uncertainty to priority.
    An empty id list gives an empty dict."""
    if kind not in UNCERTAINTY_KINDS:
        raise ValueError(f"{kind!r} is not an uncertainty metric kind")
    n = len(trajectory_ids)
    if n == 0:
        return {}
    at = dataset.offsets.__getitem__
    starts = np.fromiter(map(at, trajectory_ids), np.intp, n)
    lengths = np.fromiter(map(at, map(add, trajectory_ids, repeat(1))), np.intp, n) - starts
    bounds = np.cumsum(lengths) - lengths  # each trajectory's first place in the gather
    pairs = np.arange(bounds[-1] + lengths[-1]) + np.repeat(starts - bounds, lengths)
    values = np.empty(len(pairs))
    for lo in range(0, len(pairs), UNCERTAINTY_BLOCK):
        hi = lo + UNCERTAINTY_BLOCK
        block = pairs[lo:hi]
        values[lo:hi] = source.uncertainty_values(dataset.states[block], dataset.actions[block])
    # fmin skips NaN, so this is any(values < 0) in one ufunc call
    if np.fmin.reduce(values) < 0:
        raise ValueError("uncertainty values must be non-negative")
    return dict(zip(trajectory_ids, _summaries(values, bounds, lengths, kind).tolist()))


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
    elif kind in QUALITY_KINDS:
        offsets = np.asarray(dataset.offsets, dtype=np.intp)
        summaries = _summaries(dataset.rewards, offsets[:-1], np.diff(offsets), kind)
        values = dict(enumerate(summaries.tolist()))
    else:
        raise ValueError(f"unknown metric kind {kind!r}")
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
    table is rejected.  Owned by a single replay machine.

    Table values change only through :meth:`notify_complete`, so every table
    id is ranked once per table version: on first use and again after each
    refresh, with one ``np.lexsort`` (the order of :func:`rank_order`).  When
    the machine rebuilds its available pool (the length check detects it), the
    pool's order is that ranking filtered by membership, kept worst first.
    Until the next rebuild the pool only shrinks by the ids this selector
    returns, so a draw of rank k pops k places from the end.  With an
    ``ensemble`` and an uncertainty table, the trajectories a batch completes
    are re-scored from the ensemble in one :func:`uncertainty_priorities` call
    (dynamic uncertainty metrics).
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
        self._ranking: list[int] | None = None  # every table id, worst first
        self._pool: list[int] = []  # the available pool's ids, worst first
        # cum[r - 1] = sum of rank^-alpha over ranks 1..r, for every pool size
        ranks = np.arange(1, dataset.n_trajectories + 1, dtype=float)
        self._cum_weights = np.cumsum(ranks**-table.alpha).tolist()

    def select(self, candidates: Sequence[int], rng: np.random.Generator) -> int:
        n = len(candidates)
        if len(self._pool) != n:
            self._pool = self._rank_pool(candidates)
        cum = self._cum_weights
        # rank k (0 is the best) sits k places from the pool's end
        return self._pool.pop(~bisect_right(cum, rng.random() * cum[n - 1], 0, n))

    def _rank_pool(self, candidates: Sequence[int]) -> list[int]:
        if self._ranking is None:
            values = self.table.values
            ids = np.fromiter(values, np.intp, len(values))
            priorities = np.fromiter(values.values(), float, len(values))
            self._ranking = ids[np.lexsort((ids, -priorities))[::-1]].tolist()
        members = set(candidates)
        pool = [j for j in self._ranking if j in members]
        if len(pool) != len(candidates):
            rank_order(self.table, candidates)  # raises its missing-id error
        return pool

    def notify_complete(self, trajectory_ids: Sequence[int]) -> None:
        if self._ensemble is not None and len(trajectory_ids):
            for j in trajectory_ids:
                if j not in self.table.values:
                    raise ValueError(f"unknown trajectory id {j}")
            self.table.values.update(
                uncertainty_priorities(
                    self._dataset, self.table.kind, self._ensemble, trajectory_ids
                )
            )
            self._ranking = None
