"""``train`` against a plain reference trainer, bit for bit.

The goldens pin what ``train`` did on fixed runs; this module says what it
should do.  :func:`reference_train` is one loop over batch items on Python
floats, put together from the tests' references for each part:

* ``reference_batches`` for the trajectory machine, with the selector's
  reference draw (``sorted`` by ``(-priority, id)`` at each pool rebuild,
  then ``pop(bisect_right(...))``) as the prioritized pick;
* ``ArrayTree`` for proportional prioritized transition sampling;
* ``compute_target``, the scalar target rule, fed each replay slot's
  previous target;
* ``reference_update``'s rule, and ``in_order_mean`` / ``in_order_std`` for
  every member mean and spread: a sum in index order from +0.0, divided by K.

Its order of events is the contract ``train`` keeps:

1. the members are drawn first, ``rng.uniform(0, 0.1, (K, S, A))``, then
   every draw is the sampler's;
2. a prioritized trajectory table is scored from the fresh members, and the
   replay fills its slots before the first step;
3. each step draws a batch; a batch that completes trajectories re-scores
   them (uncertainty kinds) from the members as they stand before this
   batch's update, and a re-scored priority takes effect at the next pool
   rebuild;
4. every target is taken before the update, from the target mean as of the
   last sync and a greedy action on the current mean;
5. TD errors are taken against the means before the update, the items are
   applied in batch order, and the target syncs after every
   ``target_sync_period``-th update;
6. PER writes ``(|TD error| + epsilon) ** alpha`` from those TD errors, one
   leaf at a time in batch order, after the update;
7. the curve records ``max_a Q_mean(s0, a)`` after the update.

The property compares the curve, the final tables and ``target_mean``, and
the priority table after each refresh, since a refresh read from the wrong
members changes a run only where it changes a later pool's ranking.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.learner import PRIO_STATE, PRIO_TRAJ, SAMPLERS, UNI_STATE, TrainConfig, train
from trajreplay.priority import QUALITY_KINDS, UNCERTAINTY_KINDS, PrioritizedSelector
from trajreplay.targets import STANDARD, TARGET_KINDS, TargetKind, compute_target

from test_golden_curves import GOLDENS, RUNS, TABLE_GOLDENS, dataset
from test_priority_properties import reference_quality, reference_uncertainty
from test_replay_properties import reference_batches, uniform_pick
from test_sumtree_properties import ArrayTree
from test_update_properties import in_order_mean, in_order_std


class RankPick:
    """The prioritized selector's reference draw over priorities ``values``,
    a list the trainer rewrites on refresh: the pool is ranked once per
    rebuild, so a refresh takes effect at the next one."""

    def __init__(self, values, alpha):
        self.values = values
        self.order = []  # the current pool's ids, best rank first
        n = len(values)
        self.cum = np.cumsum(np.arange(1, n + 1, dtype=float) ** -alpha).tolist()

    def __call__(self, pool, rng):
        if len(self.order) != len(pool):
            self.order = sorted(pool, key=lambda j: (-self.values[j], j))
        n = len(self.order)
        rank = bisect_right(self.cum, rng.random() * self.cum[n - 1], 0, n)
        return pool.index(self.order.pop(rank))


def reference_train(ds: OfflineDataset, config: TrainConfig):
    """The curve, final member tables and target mean of ``train(ds, config)``,
    and for ``prio_traj`` the trajectory priorities after each batch that
    completes trajectories."""
    rng = np.random.default_rng(config.seed)
    k, a_count = config.ensemble_size, ds.action_count
    members = rng.uniform(0.0, 0.1, (k, ds.state_count, a_count)).tolist()

    def column(s, a):
        return [table[s][a] for table in members]

    mean = [[in_order_mean(column(s, a)) for a in range(a_count)] for s in range(ds.state_count)]
    target = [row[:] for row in mean]
    offsets = ds.offsets
    states, actions = ds.states.tolist(), ds.actions.tolist()

    def uncertainty_priority(j):
        spreads = [in_order_std(column(states[i], actions[i]))
                   for i in range(offsets[j], offsets[j + 1])]
        return reference_uncertainty(np.array(spreads), config.metric)

    b, n = config.batch_size, ds.total_transitions
    if config.sampler == UNI_STATE:
        def draw():
            return ([int(rng.integers(n))] if b == 1 else rng.integers(0, n, size=b).tolist()), []
    elif config.sampler == PRIO_STATE:
        tree = ArrayTree(n)
        for leaf in range(n):
            tree.update(leaf, 1.0)

        def draw():
            total = tree.nodes[0]
            prefixes = [rng.random() * total] if b == 1 else (rng.random(b) * total).tolist()
            return [tree.find_prefix(p) for p in prefixes], []
    else:
        pick = uniform_pick
        if config.sampler == PRIO_TRAJ:
            if config.metric in QUALITY_KINDS:
                rewards = ds.rewards.tolist()
                values = [reference_quality(rewards[lo:hi], config.metric)
                          for lo, hi in zip(offsets, offsets[1:])]
            else:
                values = [uncertainty_priority(j) for j in range(ds.n_trajectories)]
            pick = RankPick(values, config.alpha)
        batches = reference_batches(np.diff(offsets).tolist(), b, rng, pick)

        def draw():
            index, _, completed = next(batches)
            return index, completed

    def policy(s):
        row = mean[s]
        return max(range(a_count), key=row.__getitem__)  # the lowest tied action

    def q_bar(s, a):
        return target[s][a]

    s0 = ds.start_state
    curve, later, updates, priorities = [], [None] * b, 0, []
    for _ in range(config.total_steps):
        index, completed = draw()
        if completed and config.sampler == PRIO_TRAJ:
            if config.metric in UNCERTAINTY_KINDS:
                for j in completed:
                    pick.values[j] = uncertainty_priority(j)
            priorities.append(pick.values[:])
        goals = [compute_target(i, ds, config.target, later[slot], q_bar, policy, config.gamma)
                 for slot, i in enumerate(index)]
        td_errors = [t - mean[states[i]][actions[i]] for i, t in zip(index, goals)]
        for i, t in zip(index, goals):
            s, a = states[i], actions[i]
            for table in members:
                v = table[s][a]
                table[s][a] = v + config.eta * (t - v)
            mean[s][a] = in_order_mean(column(s, a))
        updates += 1
        if updates % config.target_sync_period == 0:
            target = [row[:] for row in mean]
        if config.sampler == PRIO_STATE:
            for i, td in zip(index, td_errors):
                tree.update(i, (abs(td) + config.epsilon) ** config.alpha)
        curve.append(max(mean[s0]))
        later = goals
    return np.array(curve), np.array(members), np.array(target), priorities


def bits(values):
    """The raw IEEE bits, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


@pytest.mark.parametrize("run_id", sorted(RUNS))
def test_reference_trainer_gives_the_golden_digests(run_id):
    scenario, config = RUNS[run_id]
    curve, tables, target_mean, _ = reference_train(dataset(scenario), config)
    table_digest = hashlib.sha256(tables.tobytes())
    table_digest.update(target_mean.tobytes())
    assert hashlib.sha256(curve.tobytes()).hexdigest() == GOLDENS[run_id]
    assert table_digest.hexdigest() == TABLE_GOLDENS[run_id]


@st.composite
def small_datasets(draw):
    """1-6 trajectories of 1-6 steps over a few shared states, with terminal,
    timeout and unflagged tails mixed and signed-zero rewards."""
    state_count = draw(st.integers(1, 5))
    action_count = draw(st.integers(2, 3))
    state = st.integers(0, state_count - 1)
    reward = st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-5.0, 5.0)
    trajectories = []
    for _ in range(draw(st.integers(1, 6))):
        length = draw(st.integers(1, 6))
        tail = draw(st.sampled_from(["terminal", "timeout", "unflagged"]))
        s, steps = draw(state), []
        for t in range(length):
            next_state = draw(state)
            terminal = tail == "terminal" and t == length - 1
            steps.append(Transition(s, draw(st.integers(0, action_count - 1)), draw(reward),
                                    next_state, terminal))
            s = next_state
        trajectories.append(Trajectory(tuple(steps), timeout_truncated=tail == "timeout"))
    return OfflineDataset(trajectories, state_count, action_count)


@st.composite
def runs(draw, sampler):
    ds = draw(small_datasets())
    trajectory_sampler = sampler not in (UNI_STATE, PRIO_STATE)
    kind = draw(st.sampled_from(TARGET_KINDS)) if trajectory_sampler else STANDARD
    n = ds.n_trajectories
    batch_size = draw(st.sampled_from([1, 2, 3, n]))
    config = TrainConfig(
        sampler=sampler,
        metric=draw(st.sampled_from(QUALITY_KINDS + UNCERTAINTY_KINDS)),
        target=TargetKind(kind, draw(st.sampled_from([0.0, 0.5, 1.0]))),
        gamma=draw(st.sampled_from([0.9, 0.99, 1.0])),
        alpha=draw(st.sampled_from([0.6, 1.0])),
        eta=draw(st.sampled_from([0.5, 1.0])),
        ensemble_size=draw(st.sampled_from([1, 5, 16])),
        batch_size=min(batch_size, n) if trajectory_sampler else batch_size,
        total_steps=draw(st.integers(1, 60)),
        target_sync_period=draw(st.sampled_from([1, 3])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return ds, config


@pytest.mark.parametrize("sampler", SAMPLERS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_train_equals_the_reference_trainer(sampler, data):
    ds, config = data.draw(runs(sampler))
    refreshed = []
    notify_complete = PrioritizedSelector.notify_complete

    def recording(self, trajectory_ids):
        notify_complete(self, trajectory_ids)
        refreshed.append(self.table.values.tolist())

    with mock.patch.object(PrioritizedSelector, "notify_complete", recording):
        result = train(ds, config)
    curve, tables, target_mean, priorities = reference_train(ds, config)
    assert np.array_equal(bits(result.curve), bits(curve))
    assert np.array_equal(bits(result.ensemble.tables), bits(tables))
    assert np.array_equal(bits(result.ensemble.target_mean), bits(target_mean))
    assert np.array_equal(bits(refreshed), bits(priorities))
