"""Synthetic dataset builders: the three-trajectory motivating instances and
random deterministic chains for property tests.

Both motivating instances hold 3 trajectories sharing initial state 0 with
undiscounted returns (4, 8, 4); interior states are distinct per trajectory so
the induced MDP is deterministic.  The sparse variant pays each return on the
final transition only, the dense variant spreads it over interior steps.
"""

from __future__ import annotations

import numpy as np

from .dataset import OfflineDataset, Trajectory, Transition

FIGURE1_SPARSE = "figure1-sparse"
FIGURE1_DENSE = "figure1-dense"
RANDOM_CHAIN = "random-chain"
SCENARIOS = (FIGURE1_SPARSE, FIGURE1_DENSE, RANDOM_CHAIN)

# (length, action id) per trajectory; rewards below sum to 4, 8, 4.
_FIG1_SHAPES = ((4, 0), (6, 1), (5, 2))
_FIG1_REWARDS = {
    "sparse": (
        (0.0, 0.0, 0.0, 4.0),
        (0.0, 0.0, 0.0, 0.0, 0.0, 8.0),
        (0.0, 0.0, 0.0, 0.0, 4.0),
    ),
    "dense": (
        (0.0, 0.0, 2.0, 2.0),
        (0.0, 0.0, 2.0, 0.0, 2.0, 4.0),
        (0.0, 0.0, 2.0, 0.0, 2.0),
    ),
}


def make_figure1(variant: str) -> OfflineDataset:
    """Build the sparse or dense three-trajectory instance."""
    if variant not in _FIG1_REWARDS:
        raise ValueError(f"variant must be 'sparse' or 'dense', got {variant!r}")
    trajectories = []
    next_state = 1
    for (length, action), rewards in zip(_FIG1_SHAPES, _FIG1_REWARDS[variant]):
        states = [0] + list(range(next_state, next_state + length - 1))
        next_states = list(range(next_state, next_state + length))
        next_state += length
        transitions = tuple(
            Transition(states[t], action, rewards[t], next_states[t], t == length - 1)
            for t in range(length)
        )
        trajectories.append(Trajectory(transitions, False))
    return OfflineDataset(
        trajectories=tuple(trajectories),
        state_count=next_state,
        action_count=len(_FIG1_SHAPES),
        discount=0.99,
    )


def make_random_chain(
    n_trajectories: int,
    min_length: int,
    max_length: int,
    rng: np.random.Generator,
    action_count: int = 2,
    terminal_prob: float = 0.8,
    reward_low: float = -1.0,
    reward_high: float = 1.0,
    discount: float = 0.99,
) -> OfflineDataset:
    """Random chains with disjoint states, so the empirical MDP is deterministic.

    Each trajectory ends terminal with probability ``terminal_prob`` and is
    timeout-truncated otherwise.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    if not 1 <= min_length <= max_length:
        raise ValueError(f"need 1 <= min_length <= max_length, got {min_length}..{max_length}")
    if action_count < 1:
        raise ValueError("action_count must be >= 1")
    if not 0.0 <= terminal_prob <= 1.0:
        raise ValueError("terminal_prob must be in [0, 1]")
    trajectories = []
    state = 0
    for _ in range(n_trajectories):
        length = int(rng.integers(min_length, max_length + 1))
        terminal = bool(rng.random() < terminal_prob)
        actions = rng.integers(0, action_count, size=length)
        rewards = rng.uniform(reward_low, reward_high, size=length)
        transitions = tuple(
            Transition(
                state + t,
                int(actions[t]),
                float(rewards[t]),
                state + t + 1,
                terminal and t == length - 1,
            )
            for t in range(length)
        )
        trajectories.append(Trajectory(transitions, not terminal))
        state += length + 1
    return OfflineDataset(
        trajectories=tuple(trajectories),
        state_count=state,
        action_count=action_count,
        discount=discount,
    )
