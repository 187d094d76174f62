"""Property tests for the β endpoints of the weighted target.

``compute_target`` with ``TargetKind("weighted", β)`` is checked against
closed forms written out here.  β = 0 must be the recursive target
r + γ·target(t+1) bit for bit and never consult the value function or the
policy off the trajectory head; β = 1 must be r + γ·Q̄(s′, π(s′)) (just r at a
terminal step) on every item.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.replay import BatchItem
from trajreplay.targets import TargetKind, compute_target

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
        got = compute_target(item, ds, kind, got, recorder.q_bar, recorder.policy, gamma)
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
        got = compute_target(item, ds, kind, got, q_bar, pi, gamma)
        assert got.hex() == policy_bootstrap(ds, item, gamma, q, policy).hex()
