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
    table.  Every entry of both is the column mean ``tables[:, s, a].mean()``
    bit for bit.
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

        The members are summed in order, so from 8 members on a value may
        differ in the last bit from ``tables[:, s, a].std()``, which sums
        pairwise.  The priority table build and its refresh both read it
        through ``priority.uncertainty_priorities``, so they agree.
        """
        # take() on flat pair indices gathers the same (K, n) block as
        # tables[:, states, actions], about twice as fast on large batches.
        k = len(self.tables)
        flat = np.asarray(states) * self._action_count + np.asarray(actions)
        cols = self._by_pair.take(flat, axis=1)
        # cols.std(axis=0) by the same ufunc calls in the same order as NumPy's
        # own, bit for bit, without the wrapper that costs a third of a short call.
        mean = np.add.reduce(cols, axis=0, keepdims=True)
        mean /= k
        cols -= mean
        np.square(cols, out=cols)
        var = np.add.reduce(cols, axis=0)
        var /= k
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
        One pair with fewer than 8 members is updated on Python floats read
        from the flat members: NumPy adds fewer than 8 elements in order from
        +0.0, as the running total does, so the mean is the same, a -0.0
        column's +0.0 included.  From 8 members on NumPy sums pairwise, so
        that case keeps the column view.
        """
        tables = self.tables
        q_mean = self.q_mean
        n = len(states)
        if len(actions) != n or len(targets) != n:
            raise ValueError(f"{n} states, {len(actions)} actions and {len(targets)} targets")
        k = len(tables)
        if n == 1:
            s, a, target = states[0], actions[0], targets[0]
            td_error = target - q_mean.item(s, a)  # an id past the table raises here
            eta = self.eta
            if k < 8 and s >= 0 and a >= 0:  # a negative id wraps as in the view below
                members = self._members
                total = 0.0
                for i in range(s * self._action_count + a, members.size, self._pair_count):
                    v = members.item(i)
                    v += eta * (target - v)
                    members[i] = v
                    total += v
                q_mean[s, a] = total / k
            else:
                col = tables[:, s, a]
                col += eta * (target - col)
                q_mean[s, a] = col.sum() / k
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


# Columns per block when column means are built from a transposed copy, so the
# copy holds at most this many columns of K values however large the table is.
MEAN_BLOCK_PAIRS = 1 << 14


def column_means(tables: np.ndarray) -> np.ndarray:
    """The mean of every column ``tables[:, ...]`` of a (K, ...) array, bit
    for bit, in the shape of ``tables[0]``.

    A sum over axis 0 adds the members one row at a time from +0.0.  A
    column's own mean adds fewer than 8 elements the same way, so below 8
    members that is the mean, a -0.0 column's +0.0 included.  From 8 members
    on the column mean sums pairwise and the row order differs in the last
    bit; reducing the contiguous last axis of a (columns, K) copy, one block
    of columns at a time, sums each column the way the column mean does.
    Both divide the sum by K, as ``mean`` does.
    """
    k = len(tables)
    columns = tables.reshape(k, -1)
    if k < 8:
        means = np.add.reduce(columns, axis=0)
    else:
        means = np.empty(columns.shape[1])
        for lo in range(0, len(means), MEAN_BLOCK_PAIRS):
            block = columns[:, lo:lo + MEAN_BLOCK_PAIRS]
            means[lo:lo + MEAN_BLOCK_PAIRS] = np.add.reduce(np.ascontiguousarray(block.T), axis=1)
    means /= k
    return means.reshape(tables.shape[1:])


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
            target = compute_target(i, batch.head[0], dataset, kind, target, q_bar, policy, gamma)
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
            targets = batch_targets(index, batch.head, targets, dataset, kind, q_mean, q_bar, gamma)
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
    outcomes: dict[tuple[int, int], tuple[float, int, bool]] = {}
    by_state: dict[int, list[tuple[float, int, bool]]] = {}
    steps = zip(*(getattr(dataset, name).tolist()
                  for name in ("states", "actions", "rewards", "next_states", "terminal")))
    for i, (s, a, reward, next_state, terminal) in enumerate(steps):
        key = (s, a)
        outcome = (reward, next_state, terminal)
        seen = outcomes.get(key)
        if seen is None:
            outcomes[key] = outcome
            by_state.setdefault(s, []).append(outcome)
        elif seen != outcome:
            tid, t = dataset.position(i)
            raise ValueError(
                f"non-deterministic data: (state={s}, action={a}) has "
                f"outcomes {seen} and {outcome} (trajectory {tid}, step {t})"
            )
    values = np.zeros(dataset.state_count)
    for sweep in itertools.count(1):
        new_values = values.copy()
        for s, outs in by_state.items():
            new_values[s] = max(
                r + (0.0 if terminal else gamma * values[s2]) for r, s2, terminal in outs
            )
        delta = float(np.max(np.abs(new_values - values)))
        values = new_values
        if delta < tol:
            return values
        if gamma == 1.0 and sweep > dataset.state_count:
            raise ValueError(
                f"values still move after {sweep} sweeps at gamma = 1: "
                "a cycle in the data has no finite value; train with gamma < 1"
            )
