from __future__ import annotations

import numpy as np
import pytest

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.replay import BatchItem
from trajreplay.targets import TargetKind, compute_target
from trajreplay.scenarios import make_random_chain

STANDARD = TargetKind("standard")
SARSA = TargetKind("sarsa")


def item_for(ds, t, j=0):
    """The item at time t of trajectory j, indexing the dataset's columns."""
    lo, hi = ds.offsets[j], ds.offsets[j + 1]
    return BatchItem(j, t, lo + t, t == hi - lo - 1)


def backward_items(ds, j=0):
    length = ds.offsets[j + 1] - ds.offsets[j]
    return [item_for(ds, t, j) for t in range(length - 1, -1, -1)]


def reward_dataset(rewards, terminal=True):
    """One trajectory over states 0, 1, ... with the given rewards."""
    last = len(rewards) - 1
    transitions = tuple(
        Transition(t, 0, float(r), t + 1, terminal and t == last)
        for t, r in enumerate(rewards)
    )
    traj = Trajectory(transitions, timeout_truncated=not terminal)
    return OfflineDataset((traj,), state_count=len(rewards) + 1, action_count=1)


def constant_q(value):
    return lambda s, a: value


def standard_target(ds, item, q_bar, policy, gamma):
    return compute_target(item.index, ds, STANDARD, None, q_bar, policy, gamma)


def sarsa_target(ds, item, later, q_bar, policy, gamma):
    return compute_target(item.index, ds, SARSA, later, q_bar, policy, gamma)


def weighted_target(ds, item, later, q_bar, policy, gamma, beta):
    return compute_target(item.index, ds, TargetKind("weighted", beta), later, q_bar, policy, gamma)


def backward_pass(ds, kind, q_bar, policy, gamma, j=0, later=None):
    """Trajectory j's targets in emission order, each step's value passed on
    as the next step's ``later``, the way one replay slot carries it."""
    values = []
    for item in backward_items(ds, j):
        later = compute_target(item.index, ds, kind, later, q_bar, policy, gamma)
        values.append(later)
    return values


def returns_to_go(rewards, gamma):
    out = [0.0] * len(rewards)
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


def test_target_kind_validation():
    with pytest.raises(ValueError, match="unknown target kind"):
        TargetKind("q_lambda")
    with pytest.raises(ValueError, match="beta"):
        TargetKind("weighted", beta=1.5)
    # beta is range-checked for every kind, then reset off the weighted one
    with pytest.raises(ValueError, match="beta"):
        TargetKind("standard", beta=2.0)
    assert TargetKind("sarsa", 0.9) == TargetKind("sarsa") and TargetKind("sarsa", 0.9).beta == 0.5
    assert TargetKind("weighted", 0.9).beta == 0.9


def test_bootstrap_weight_per_kind():
    assert STANDARD.bootstrap_weight == 1.0
    assert SARSA.bootstrap_weight == 0.0
    assert TargetKind("weighted", 0.3).bootstrap_weight == 0.3
    # beta is ignored outside the weighted kind
    assert TargetKind("sarsa", 0.9).bootstrap_weight == 0.0


def test_standard_target_terminal_skips_bootstrap():
    ds = reward_dataset([5.0])
    calls = []

    def q_bar(s, a):
        calls.append((s, a))
        return 99.0

    assert standard_target(ds, item_for(ds, 0), q_bar, lambda s: 0, 0.99) == 5.0
    assert calls == []


def test_standard_target_bootstraps_nonterminal():
    ds = reward_dataset([1.0, 0.0])
    target = standard_target(ds, item_for(ds, 0), constant_q(2.0), lambda s: 0, 0.99)
    assert target == pytest.approx(2.98)


def test_standard_target_gamma_zero_is_reward():
    ds = reward_dataset([1.0, -3.0], terminal=False)
    for t in range(2):
        assert standard_target(ds, item_for(ds, t), constant_q(7.0), lambda s: 0, 0.0) == ds.rewards[t]


def test_sarsa_backward_recursion_by_hand():
    ds = reward_dataset([0.0, 8.0])
    head = sarsa_target(ds, item_for(ds, 1), None, constant_q(99.0), lambda s: 0, 0.99)
    assert head == 8.0
    tail = sarsa_target(ds, item_for(ds, 0), head, constant_q(99.0), lambda s: 0, 0.99)
    assert tail == pytest.approx(7.92)


def test_sarsa_head_of_terminal_trajectory_is_reward():
    ds = reward_dataset([0.0, 0.0, 3.0])
    assert sarsa_target(ds, item_for(ds, 2), None, constant_q(50.0), lambda s: 0, 0.9) == 3.0


def test_sarsa_timeout_head_bootstraps_policy_value():
    ds = reward_dataset([1.0, 1.0], terminal=False)
    head = sarsa_target(ds, item_for(ds, 1), None, constant_q(4.0), lambda s: 0, 0.5)
    assert head == pytest.approx(1.0 + 0.5 * 4.0)


def test_sarsa_full_pass_reproduces_discounted_returns():
    rng = np.random.default_rng(0)
    for _ in range(30):
        rewards = list(rng.uniform(-2, 2, int(rng.integers(1, 12))))
        gamma = float(rng.uniform(0.5, 1.0))
        ds = reward_dataset(rewards)
        got = backward_pass(ds, SARSA, constant_q(1e9), lambda s: 0, gamma)
        expected = returns_to_go(rewards, gamma)[::-1]
        for value, want in zip(got, expected, strict=True):
            assert value == pytest.approx(want, abs=1e-9)


def test_sarsa_without_later_target_is_order_violation():
    ds = reward_dataset([0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="backward order"):
        sarsa_target(ds, item_for(ds, 0), None, constant_q(0.0), lambda s: 0, 0.99)


def test_weighted_beta_endpoints_match_standard_and_sarsa_exactly():
    rng = np.random.default_rng(1)
    for _ in range(50):
        rewards = list(rng.uniform(-2, 2, int(rng.integers(1, 10))))
        terminal = bool(rng.random() < 0.7)
        gamma = float(rng.uniform(0.5, 1.0))
        ds = reward_dataset(rewards, terminal=terminal)
        q_values = rng.uniform(-1, 1, (ds.total_transitions + 1, 1))
        q_bar = lambda s, a, q=q_values: float(q[s, a])
        policy = lambda s: 0

        w1 = w0 = recursive = None
        for item in backward_items(ds):
            tr = ds.trajectories[0].transitions[item.time_index]
            bootstrap = 0.0 if tr.terminal else q_bar(tr.next_state, 0)
            w1 = weighted_target(ds, item, w1, q_bar, policy, gamma, beta=1.0)
            assert w1 == tr.reward + gamma * bootstrap
            w0 = weighted_target(ds, item, w0, q_bar, policy, gamma, beta=0.0)
            recursive = tr.reward + gamma * (bootstrap if item.is_trajectory_head else recursive)
            assert w0 == recursive


def test_recursive_target_keeps_a_negative_zero():
    # w = 0 is r + gamma * later; the blend (1 - 0) * later + 0 * 0.0 gives +0.0
    ds = reward_dataset([-0.0, -0.0])
    for kind in (SARSA, TargetKind("weighted", 0.0)):
        values = backward_pass(ds, kind, constant_q(1.0), lambda s: 0, 0.9)
        assert [v.hex() for v in values] == [(-0.0).hex()] * 2


def test_weighted_blend_worked_example():
    ds = reward_dataset([0.0, 1.0, 0.0])
    value = weighted_target(ds, item_for(ds, 1), 2.0, constant_q(4.0), lambda s: 0, 0.99, beta=0.25)
    assert value == pytest.approx(1.0 + 0.99 * (0.75 * 2.0 + 0.25 * 4.0))
    assert value == pytest.approx(3.475)


def test_weighted_is_affine_in_beta():
    ds = reward_dataset([0.5, 0.0, 0.0])
    q_bar = constant_q(4.0)
    values = []
    betas = [0.0, 0.25, 0.5, 0.75, 1.0]
    for beta in betas:
        values.append(weighted_target(ds, item_for(ds, 1), 2.0, q_bar, lambda s: 0, 0.9, beta))
    diffs = np.diff(values)
    assert np.allclose(diffs, diffs[0])


def test_weighted_rejects_beta_outside_unit_interval():
    with pytest.raises(ValueError, match="beta"):
        TargetKind("weighted", beta=-0.1)


def test_new_pass_head_ignores_the_earlier_pass():
    # one slot's carry runs across passes; a head is the base case and never reads it
    ds = reward_dataset([1.0, 2.0], terminal=False)
    later = None
    for q in (10.0, 20.0):
        values = backward_pass(ds, SARSA, constant_q(q), lambda s: 0, 0.5, later=later)
        assert values == [2.0 + 0.5 * q, 1.0 + 0.5 * (2.0 + 0.5 * q)]
        later = values[-1]


@pytest.mark.parametrize("kind", [SARSA, TargetKind("weighted", 0.0), TargetKind("weighted", 0.25)])
def test_every_non_head_without_later_target_is_order_violation(kind):
    ds = reward_dataset([0.0, 1.0, 2.0, 3.0])
    for t in (2, 1, 0):
        with pytest.raises(ValueError, match="backward order"):
            compute_target(item_for(ds, t).index, ds, kind, None, constant_q(0.0), lambda s: 0, 0.9)
    # a head needs no later target, and ignores one it is given
    for later in (None, 123.0):
        assert compute_target(item_for(ds, 3).index, ds, kind, later, constant_q(0.0),
                              lambda s: 0, 0.9) == 3.0


def test_compute_target_dispatch():
    ds = reward_dataset([0.0, 8.0])
    gamma = 0.99
    s = backward_pass(ds, TargetKind("sarsa"), constant_q(0.0), lambda s: 0, gamma)[-1]
    assert s == pytest.approx(7.92)
    std = compute_target(item_for(ds, 0).index, ds, TargetKind("standard"), None, constant_q(8.0),
                         lambda s: 0, gamma)
    assert std == pytest.approx(7.92)


def test_sarsa_never_reads_q_bar_on_terminal_dataset():
    ds = make_random_chain(5, 1, 9, np.random.default_rng(2), terminal_prob=1.0)
    reads = []

    def q_bar(s, a):
        reads.append((s, a))
        return 0.0

    for j in range(ds.n_trajectories):
        backward_pass(ds, SARSA, q_bar, lambda s: 0, 0.99, j=j)
    assert reads == []
