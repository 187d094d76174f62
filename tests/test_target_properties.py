"""Property tests for the target rule.

``compute_target`` with ``TargetKind("weighted", β)`` is checked against
closed forms written out here.  β = 0 must be the recursive target
r + γ·target(t+1) bit for bit and never consult the value function or the
policy off the trajectory head; β = 1 must be r + γ·Q̄(s′, π(s′)) (just r at a
terminal step) on every item.

``batch_targets``, the rule's array form, must equal ``compute_target`` item
by item, bit for bit, and read Q̄ at exactly the items that bootstrap.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.replay import BatchItem
from trajreplay.targets import TargetKind, batch_targets, compute_target

ACTIONS = 3
values = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def passes(draw):
    """A one-trajectory dataset, its backward pass, a gamma, and Q / policy
    tables over its states.  The items carry a drawn trajectory id and index
    the dataset's columns."""
    length = draw(st.integers(1, 10))
    rewards = draw(st.lists(values, min_size=length, max_size=length))
    terminal = draw(st.booleans())
    actions = draw(st.lists(st.integers(0, ACTIONS - 1), min_size=length, max_size=length))
    transitions = tuple(
        Transition(t, actions[t], rewards[t], t + 1, terminal and t == length - 1)
        for t in range(length)
    )
    traj = Trajectory(transitions, timeout_truncated=not terminal)
    ds = OfflineDataset((traj,), state_count=length + 1, action_count=ACTIONS)
    tid = draw(st.integers(0, 50))
    items = [BatchItem(tid, t, t, t == length - 1) for t in range(length - 1, -1, -1)]
    gamma = draw(st.floats(0.0, 1.0))
    q = draw(st.lists(st.lists(values, min_size=ACTIONS, max_size=ACTIONS),
                      min_size=length + 1, max_size=length + 1))
    policy = draw(st.lists(st.integers(0, ACTIONS - 1), min_size=length + 1,
                           max_size=length + 1))
    return ds, items, gamma, q, policy


class Recorder:
    """Q and policy lookups that note whether the current item is a head."""

    def __init__(self, q, policy):
        self.q, self.policy_table = q, policy
        self.head = True
        self.off_head_calls = []

    def q_bar(self, s, a):
        if not self.head:
            self.off_head_calls.append(("q_bar", s, a))
        return self.q[s][a]

    def policy(self, s):
        if not self.head:
            self.off_head_calls.append(("policy", s))
        return self.policy_table[s]


def policy_bootstrap(ds, item, gamma, q, policy):
    """Closed form r + γ·Q̄(s′, π(s′)), or r at a terminal step."""
    tr = ds.trajectories[0].transitions[item.index]
    if tr.terminal:
        return tr.reward
    return tr.reward + gamma * q[tr.next_state][policy[tr.next_state]]


@settings(max_examples=300, deadline=None)
@given(passes())
def test_weighted_at_beta_zero_is_sarsa_bit_for_bit(case):
    ds, items, gamma, q, policy = case
    recorder = Recorder(q, policy)
    kind = TargetKind("weighted", 0.0)
    got = want = None
    for item in items:
        recorder.head = item.is_trajectory_head
        got = compute_target(item.index, ds, kind, got, recorder.q_bar, recorder.policy, gamma)
        if item.is_trajectory_head:
            want = policy_bootstrap(ds, item, gamma, q, policy)
        else:
            want = ds.trajectories[0].transitions[item.index].reward + gamma * want
        assert got.hex() == want.hex()
    assert recorder.off_head_calls == []


@settings(max_examples=300, deadline=None)
@given(passes())
def test_weighted_at_beta_one_is_standard_on_every_item(case):
    ds, items, gamma, q, policy = case
    q_bar = lambda s, a: q[s][a]
    pi = policy.__getitem__
    kind = TargetKind("weighted", 1.0)
    got = None
    for item in items:
        got = compute_target(item.index, ds, kind, got, q_bar, pi, gamma)
        assert got.hex() == policy_bootstrap(ds, item, gamma, q, policy).hex()


# -0.0 and ties are the cases an array rule gets wrong first
signed = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), values)
kinds = st.one_of(
    st.sampled_from([TargetKind("standard"), TargetKind("sarsa"),
                     TargetKind("weighted", 0.0), TargetKind("weighted", 1.0)]),
    st.floats(0.0, 1.0).map(lambda beta: TargetKind("weighted", beta)),
)


@st.composite
def batches(draw):
    """Terminal and timeout trajectories over shared states, Q tables over
    them, and a batch of B items at any flat positions with a ``later`` for
    each: heads, interior items, terminal heads and timeout heads mixed."""
    states = draw(st.integers(1, 6))
    trajectories = []
    for _ in range(draw(st.integers(1, 4))):
        length = draw(st.integers(1, 5))
        path = draw(st.lists(st.integers(0, states - 1), min_size=length + 1,
                             max_size=length + 1))
        terminal = draw(st.booleans())
        trajectories.append(Trajectory(tuple(
            Transition(path[t], draw(st.integers(0, ACTIONS - 1)), draw(signed), path[t + 1],
                       terminal and t == length - 1)
            for t in range(length)), timeout_truncated=not terminal))
    ds = OfflineDataset(trajectories, state_count=states, action_count=ACTIONS)
    n = len(ds.rewards)
    index = np.array(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12)))
    later = np.array(draw(st.lists(signed, min_size=len(index), max_size=len(index))))
    table = st.lists(st.lists(signed, min_size=ACTIONS, max_size=ACTIONS),
                     min_size=states, max_size=states)
    q_mean, target_mean = np.array(draw(table)), np.array(draw(table))
    return ds, index, later, q_mean, target_mean, draw(kinds), draw(st.floats(0.0, 1.0))


def item_at(ds, i):
    j, t = ds.position(i)
    return BatchItem(j, t, i, i == ds.offsets[j + 1] - 1)


@settings(max_examples=400, deadline=None)
@given(batches())
def test_batch_targets_is_compute_target_bit_for_bit(case):
    ds, index, later, q_mean, target_mean, kind, gamma = case
    items = [item_at(ds, i) for i in index.tolist()]
    reads, batch_reads = [], []

    def reader(log):
        def q_bar(s, a):
            log.append((s, a))
            return target_mean.item(s, a)
        return q_bar

    def greedy(s):
        return int(q_mean[s].argmax())

    want = []
    for it, carry in zip(items, later.tolist()):
        before = len(reads)
        want.append(compute_target(it.index, ds, kind, carry, reader(reads), greedy, gamma))
        # the reference reads Q̄ once per bootstrap, and only there
        head_terminal = it.is_trajectory_head and ds.terminal[it.index]
        if kind.bootstrap_weight == 0.0:
            assert len(reads) - before == (it.is_trajectory_head and not head_terminal)
        else:
            assert len(reads) - before == (not head_terminal)
    got = batch_targets(index, later, ds, kind, q_mean, reader(batch_reads), gamma)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
    assert batch_reads == reads


@settings(max_examples=200, deadline=None)
@given(batches())
def test_batch_targets_needs_later_only_off_the_head_rule(case):
    ds, index, _, q_mean, target_mean, kind, gamma = case
    head = np.array([item_at(ds, i).is_trajectory_head for i in index.tolist()])
    q_bar = target_mean.item
    if kind.bootstrap_weight == 1.0 or head.all():
        got = batch_targets(index, None, ds, kind, q_mean, q_bar, gamma)
        assert got.shape == index.shape
    else:
        i = int(index[head.argmin()])
        j, t = ds.position(i)
        with pytest.raises(ValueError, match=f"trajectory {j} at t={t + 1}.*backward order"):
            batch_targets(index, None, ds, kind, q_mean, q_bar, gamma)
