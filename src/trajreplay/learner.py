"""Desk-scale tabular TD learner wiring replay, priorities, and targets together.

The learner keeps an ensemble of K tabular Q functions, their ensemble mean
and the mean as of the last target sync.  Greedy actions and values read the
mean table; per-pair uncertainty is the population standard deviation across
members.  ``train`` runs one fully seeded, single-threaded experiment and
records the learning curve of ``max_a Q_mean(s0, a)`` after every update;
``value_iteration_oracle`` provides the exact value it should converge to on
the empirical MDP.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import OfflineDataset
from .priority import (
    ALL_KINDS,
    UNIFORM_KIND,
    PrioritizedSelector,
    build_priority_table,
)
from .replay import (
    PerTransitionSampler,
    TrajectoryReplay,
    UniformSelector,
    UniformTransitionSampler,
    check_alpha,
    check_epsilon,
)
from .targets import STANDARD, TargetKind, batch_targets, compute_target

UNI_STATE = "uni_state"
PRIO_STATE = "prio_state"
UNI_TRAJ = "uni_traj"
PRIO_TRAJ = "prio_traj"
SAMPLERS = (UNI_STATE, PRIO_STATE, UNI_TRAJ, PRIO_TRAJ)

ENSEMBLE_FILE_KEYS = ("tables", "target_mean", "eta", "target_sync_period", "updates_applied")


class EnsembleQ:
    """K tabular Q functions over a discrete state/action grid.

    Member tables start i.i.d. uniform in [0, 0.1] so the ensemble spread is
    non-degenerate before any learning.  Two (S, A) tables are kept beside
    them: ``q_mean``, the ensemble mean of the members, rewritten entry by
    entry as updates touch them, and ``target_mean``, the mean as of the last
    sync, which every ``target_sync_period`` updates is made equal to
    ``q_mean``.  At a period of 1 the first update makes ``target_mean`` the
    ``q_mean`` table itself; at a longer period a sync copies the whole
    table.  Every entry of both sums its column's members in index order
    from +0.0 over K: ``tables[:, s, a].mean()`` bit for bit below 8
    members, possibly not in the last bits from 8 on.
    """

    def __init__(
        self,
        state_count: int,
        action_count: int,
        ensemble_size: int = 5,
        eta: float = 0.1,
        target_sync_period: int = 100,
        *,
        rng: np.random.Generator,
    ) -> None:
        if ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {ensemble_size}")
        tables = rng.uniform(0.0, 0.1, size=(ensemble_size, state_count, action_count))
        self._adopt(tables, eta, target_sync_period)

    @classmethod
    def from_tables(
        cls, tables: np.ndarray, eta: float = 0.1, target_sync_period: int = 100
    ) -> "EnsembleQ":
        """An ensemble holding a copy of the given (K, S, A) member values."""
        tables = np.array(tables, dtype=float, order="C")  # _adopt needs C order
        if tables.ndim != 3 or len(tables) < 1:
            raise ValueError(f"tables must have shape (K >= 1, S, A), got {tables.shape}")
        ens = cls.__new__(cls)
        ens._adopt(tables, eta, target_sync_period)
        return ens

    def _adopt(self, tables: np.ndarray, eta: float, target_sync_period: int) -> None:
        if not 0.0 < eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {eta}")
        if target_sync_period < 1:
            raise ValueError(f"target_sync_period must be >= 1, got {target_sync_period}")
        self.eta = eta
        self.target_sync_period = target_sync_period
        self.tables = tables
        # member m of pair (s, a) at m * S * A + s * A + a: views, as both
        # callers pass C-ordered tables (a reshape of any other would copy)
        self._members = tables.reshape(-1)
        self._by_pair = tables.reshape(len(tables), -1)  # (K, S * A)
        _, state_count, self._action_count = tables.shape
        self._pair_count = state_count * self._action_count
        self.q_mean = column_means(tables)
        self._mean_by_pair = self.q_mean.reshape(-1)  # a view: q_mean is never rebound
        # its own copy, so load can write a target that lags the members
        self.target_mean = self.q_mean.copy()
        self.updates_applied = 0

    def target_value(self, state: int, action: int) -> float:
        """Ensemble-mean target value as of the last sync (the Qbar read by targets)."""
        return self.target_mean.item(state, action)

    def greedy_action(self, state: int) -> int:
        """Argmax of the ensemble-mean row; ties resolve to the lowest action id."""
        return int(self.q_mean[state].argmax())

    def max_mean_q(self, state: int) -> float:
        # The row's max, NaN included; argmax then item costs a third of .max().
        row = self.q_mean[state]
        return row.item(row.argmax())

    def uncertainty_values(self, states: np.ndarray, actions: np.ndarray) -> np.ndarray:
        """Population standard deviation of member values at each (state, action).

        Its means are :func:`column_means`, member sums in index order from
        +0.0: ``tables[:, s, a].std()`` bit for bit below 8 members, possibly
        not in the last bits from 8 on, for a pair alone or in a batch alike.
        """
        # take() on flat pair indices gathers the same (K, n) block as
        # tables[:, states, actions], about twice as fast on large batches.
        flat = np.asarray(states) * self._action_count + np.asarray(actions)
        cols = self._by_pair.take(flat, axis=1)
        # cols.std(axis=0)'s steps, without the wrapper that costs a third of a short call
        cols -= column_means(cols)
        np.square(cols, out=cols)
        var = column_means(cols)
        return np.sqrt(var, out=var)

    def update(
        self, states: Sequence[int], actions: Sequence[int], targets: Sequence[float]
    ) -> list[float]:
        """Move every member toward the targets at the (state, action) pairs
        ``zip(states, actions)``; returns per-pair TD errors.

        TD errors are measured against the ensemble-mean Q as it stood before
        this call; duplicate (s, a) pairs within a batch are applied
        sequentially in batch order.  Ids wrap and raise as NumPy indexing
        does: -1 is the last state, and an id past the table raises
        ``IndexError``.  A batch works on flat pair indices s * A + a and is
        applied in rounds of distinct pairs, each one gather and one scatter
        on the (K, S * A) members: round r takes every pair's r-th
        occurrence, so a batch of distinct pairs is one round.  Each touched
        ``q_mean`` entry is rewritten from its column by :func:`column_means`.
        One pair is updated on Python floats read from the flat members, its
        mean the running total from +0.0 over K: the same in-order sum, a
        -0.0 column's +0.0 included.
        """
        q_mean = self.q_mean
        n = len(states)
        if len(actions) != n or len(targets) != n:
            raise ValueError(f"{n} states, {len(actions)} actions and {len(targets)} targets")
        if n == 1:
            s, a, target = states[0], actions[0], targets[0]
            td_error = target - q_mean.item(s, a)  # an id past the table raises here
            if s < 0 or a < 0:  # wrap as the read above did
                s, a = s % q_mean.shape[0], a % self._action_count
            eta = self.eta
            members = self._members
            total = 0.0
            for i in range(s * self._action_count + a, members.size, self._pair_count):
                v = members.item(i)
                v += eta * (target - v)
                members[i] = v
                total += v
            q_mean[s, a] = total / len(self.tables)
            self._count_update()
            return [td_error]
        states = np.asarray(states, dtype=np.intp)
        actions = np.asarray(actions, dtype=np.intp)
        try:
            flat = np.ravel_multi_index((states, actions), q_mean.shape)
        except ValueError:  # a negative id, or one past the table
            q_mean[states, actions]  # raises IndexError past the table
            flat = np.ravel_multi_index((states, actions), q_mean.shape, mode="wrap")
        goal = np.asarray(targets, dtype=float)
        td_errors = (goal - self._mean_by_pair.take(flat)).tolist()
        ranked = np.sort(flat)
        fresh = ranked[1:] != ranked[:-1]  # sorted item p + 1 starts a pair's run
        if fresh.all():
            self._move_pairs(flat, goal)
        else:
            # each item's rank among the earlier items of its pair, in sorted order
            order = flat.argsort(kind="stable")
            place = np.arange(1, n)
            rank = np.concatenate(([0], place - np.maximum.accumulate(place * fresh)))
            for r in range(rank.max() + 1):
                picked = order[rank == r]
                self._move_pairs(flat[picked], goal[picked])
        self._count_update()
        return td_errors

    def _move_pairs(self, flat: np.ndarray, goal: np.ndarray) -> None:
        """Move the members of the distinct flat pairs toward ``goal``."""
        members = self._by_pair
        cols = members.take(flat, axis=1)
        cols += self.eta * (goal - cols)
        members[:, flat] = cols
        self._mean_by_pair[flat] = column_means(cols)

    def _count_update(self) -> None:
        """Count an update and sync the target mean if one is due."""
        self.updates_applied += 1
        if self.target_sync_period == 1:
            # synced after every update: the target is the mean table itself
            self.target_mean = self.q_mean
        elif not self.updates_applied % self.target_sync_period:
            self.target_mean[:] = self.q_mean

    def save(self, path: str | Path) -> None:
        """Write the arrays of :data:`ENSEMBLE_FILE_KEYS` to an ``.npz`` file."""
        np.savez(path, **{key: getattr(self, key) for key in ENSEMBLE_FILE_KEYS})

    @classmethod
    def load(cls, path: str | Path) -> "EnsembleQ":
        """Read a file written by :meth:`save`."""
        with np.load(path) as data:
            missing = [key for key in ENSEMBLE_FILE_KEYS if key not in data]
            if missing:
                raise ValueError(f"{path} lacks the ensemble arrays {missing}")
            for key in ENSEMBLE_FILE_KEYS[2:]:  # the scalars
                value = data[key]
                if value.ndim:
                    raise ValueError(f"{key} must be a scalar, got shape {value.shape}")
                if key != "eta" and (value.dtype.kind not in "iu" or value < 0):  # a count
                    raise ValueError(f"{key} must be an integer >= 0, got {value.item()!r}")
            ens = cls.from_tables(
                data["tables"], float(data["eta"]), int(data["target_sync_period"])
            )
            target = data["target_mean"]
            if target.shape != ens.tables.shape[1:]:
                raise ValueError(f"target table shape {target.shape} does not fit "
                                 f"member tables of shape {ens.tables.shape}")
            ens.target_mean[:] = target
            ens.updates_applied = int(data["updates_applied"])
        return ens


def column_means(tables: np.ndarray) -> np.ndarray:
    """The mean of every column ``tables[:, ...]`` of a (K, ...) array, in the
    shape of ``tables[0]``: the column's sum over the members in index order
    from +0.0, divided by K.  Below 8 members that is ``.mean()`` bit for
    bit; from 8 on it may differ in the last bits, as NumPy sums a column
    pairwise.

    A reduce over axis 0 adds whole rows in that order.  A lone column would
    be a 1-D reduce, which is pairwise, so it takes the running sum from its
    first member instead, plus +0.0 for a -0.0 column: the same sum.
    """
    k = len(tables)
    columns = tables.reshape(k, -1)
    sums = (np.add.accumulate(columns)[-1] + 0.0 if columns.shape[1] == 1
            else np.add.reduce(columns, axis=0))
    sums /= k
    return sums.reshape(tables.shape[1:])


def _check_gamma(gamma: float) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must be in (0, 1], got {gamma}")


@dataclass
class TrainConfig:
    """One run's knobs: sampling scheme, metric, target rule, and scalars."""

    sampler: str = UNI_TRAJ
    metric: str = UNIFORM_KIND
    target: TargetKind = field(default_factory=TargetKind)
    gamma: float = 0.99
    alpha: float = 1.0
    epsilon: float = 0.01
    eta: float = 0.1
    ensemble_size: int = 5
    batch_size: int = 1
    total_steps: int = 1000
    target_sync_period: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sampler not in SAMPLERS:
            raise ValueError(f"unknown sampler {self.sampler!r}, expected one of {SAMPLERS}")
        if self.metric not in ALL_KINDS:
            raise ValueError(f"unknown metric kind {self.metric!r}")
        if self.sampler != PRIO_TRAJ:
            # Only prioritized trajectory sampling consumes a metric.
            self.metric = UNIFORM_KIND
        elif self.metric == UNIFORM_KIND:
            raise ValueError("prio_traj requires a non-uniform metric")
        if self.sampler in (UNI_STATE, PRIO_STATE) and self.target.kind != STANDARD:
            raise ValueError(
                f"target kind {self.target.kind!r} needs backward trajectory order; "
                "use uni_traj or prio_traj"
            )
        _check_gamma(self.gamma)
        check_alpha(self.alpha)
        check_epsilon(self.epsilon)
        if self.sampler in (UNI_STATE, UNI_TRAJ):  # reset, as for the metric
            self.alpha = TrainConfig.alpha
        if self.sampler != PRIO_STATE:  # only PER adds epsilon
            self.epsilon = TrainConfig.epsilon
        # EnsembleQ checks these too; here a bad sweep fails before any run
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        for name in ("ensemble_size", "batch_size", "total_steps", "target_sync_period"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    def with_seed(self, seed: int) -> "TrainConfig":
        return replace(self, seed=seed)


@dataclass
class TrainResult:
    """Learning curve (one point per update), final ensemble, and timing.

    ``wall_ms_per_1000`` is the wall time of the whole run per 1000 updates.
    Its clock starts before the ensemble, the samplers and the priority table
    are built, so set-up costs (a large uncertainty table, say) show in it.
    """

    curve: np.ndarray
    ensemble: EnsembleQ
    wall_ms_per_1000: float


def train(dataset: OfflineDataset, config: TrainConfig) -> TrainResult:
    """Run one seeded offline-TD experiment; deterministic given (dataset, config)."""
    started = time.perf_counter()
    rng = np.random.default_rng(config.seed)
    ensemble = EnsembleQ(
        dataset.state_count,
        dataset.action_count,
        config.ensemble_size,
        config.eta,
        config.target_sync_period,
        rng=rng,
    )
    s0 = dataset.start_state
    q_bar = ensemble.target_value
    policy = ensemble.greedy_action

    per_sampler = None
    if config.sampler == UNI_STATE:
        draw = partial(UniformTransitionSampler(dataset).sample, config.batch_size, rng)
    elif config.sampler == PRIO_STATE:
        per_sampler = PerTransitionSampler(dataset, config.alpha, config.epsilon)
        draw = partial(per_sampler.sample, config.batch_size, rng)
    else:
        if config.metric == UNIFORM_KIND:
            selector = UniformSelector()
        else:
            table = build_priority_table(dataset, config.metric, config.alpha, ensemble)
            selector = PrioritizedSelector(table, dataset, ensemble)
        draw = TrajectoryReplay(dataset, config.batch_size, selector, rng).next_batch

    curve = np.empty(config.total_steps)
    kind = config.target
    gamma = config.gamma
    state_column, action_column = dataset.states, dataset.actions
    if config.batch_size == 1:
        # Python scalars throughout: a one-element array costs more than the step
        target = None
        value = ensemble.max_mean_q(s0)
        for step in range(config.total_steps):
            batch = draw()
            i = batch.index[0]
            # the one slot's previous target is its trajectory's target(t+1)
            target = compute_target(i, dataset, kind, target, q_bar, policy, gamma)
            s = state_column.item(i)
            td_errors = ensemble.update((s,), (action_column.item(i),), (target,))
            if per_sampler is not None:
                per_sampler.update_priorities((i,), td_errors)
            # an update writes only its own (s, a) and a sync never writes
            # q_mean, so s0's row changes only when s is s0
            if s == s0:
                value = ensemble.max_mean_q(s0)
            curve[step] = value
    else:
        targets = None
        q_mean = ensemble.q_mean  # updated in place, never rebound
        for step in range(config.total_steps):
            batch = draw()
            index = batch.index
            # a replay slot's previous target is its trajectory's target(t+1)
            targets = batch_targets(index, targets, dataset, kind, q_mean, q_bar, gamma)
            td_errors = ensemble.update(state_column[index], action_column[index], targets)
            if per_sampler is not None:
                per_sampler.update_priorities(index, td_errors)
            curve[step] = ensemble.max_mean_q(s0)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return TrainResult(curve, ensemble, elapsed_ms * 1000.0 / config.total_steps)


def steps_to_threshold(
    curve: np.ndarray, oracle_value: float, rel_tol: float
) -> int | None:
    """First 1-based step whose value is within rel_tol of the oracle, else None."""
    band = abs(oracle_value) * rel_tol
    hits = np.flatnonzero(np.abs(curve - oracle_value) <= band)
    return int(hits[0]) + 1 if hits.size else None


def value_iteration_oracle(
    dataset: OfflineDataset, gamma: float | None = None, tol: float = 1e-10
) -> np.ndarray:
    """Optimal state values of the deterministic MDP induced by the dataset.

    Only (s, a) pairs present in the data enter the max; a terminal transition
    contributes its reward with no continuation.  The same (s, a) observed
    with two different outcomes is a conflict error.  At gamma = 1 a cycle
    in the data can leave the values without a finite limit; deterministic
    values that have one settle within |S| sweeps (the Bellman-Ford bound),
    so a sweep still moving after |S| + 1 of them raises instead of looping.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if gamma is None:
        gamma = dataset.discount
    _check_gamma(gamma)
    states, actions, rewards, next_states, terminal = (getattr(dataset, name) for name in (
        "states", "actions", "rewards", "next_states", "terminal"))
    outcome = rewards, next_states, terminal
    # each step's pair's first step; a later step with another outcome is a conflict
    _, first, pair = np.unique(states * dataset.action_count + actions,
                               return_index=True, return_inverse=True)
    conflict = np.logical_or.reduce([column != column[first[pair]] for column in outcome])
    if conflict.any():
        i = int(conflict.argmax())
        seen, other = (tuple(column.item(j) for column in outcome) for j in (first[pair[i]], i))
        tid, t = dataset.position(i)
        raise ValueError(
            f"non-deterministic data: (state={states.item(i)}, action={actions.item(i)}) has "
            f"outcomes {seen} and {other} (trajectory {tid}, step {t})"
        )
    # the pairs' first steps grouped by state, each group in data order
    steps = first[np.lexsort((first, states[first]))]
    groups, starts = np.unique(states[steps], return_index=True)
    r, s2, done = (column[steps] for column in outcome)
    place = np.arange(len(steps))
    values = np.zeros(dataset.state_count)
    for sweep in itertools.count(1):
        candidates = r + np.where(done, 0.0, gamma * values[s2])
        best = np.maximum.reduceat(candidates, starts)
        zero = best == 0  # max() keeps the first of a tied -0.0 and +0.0
        best[zero] = candidates[np.minimum.reduceat(
            np.where(candidates == 0, place, len(place)), starts)[zero]]
        new_values = values.copy()
        new_values[groups] = best
        delta = float(np.max(np.abs(new_values - values)))
        values = new_values
        if delta < tol:
            return values
        if gamma == 1.0 and sweep > dataset.state_count:
            raise ValueError(
                f"values still move after {sweep} sweeps at gamma = 1: "
                "a cycle in the data has no finite value; train with gamma < 1"
            )
