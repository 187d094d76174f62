"""Critic targets: one rule, r + gamma * [(1 - w) * target(t+1) + w * Qbar(s', pi(s'))].

Backward emission order is what makes the recursive part work: when
transition t is processed, the target computed for t+1 in the same trajectory
is already sitting in the cache, so at w = 0 the update never evaluates the
value function at an action outside the trajectory (except at a timeout head,
where no in-trajectory next action exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .dataset import OfflineDataset
from .replay import BatchItem

STANDARD = "standard"
SARSA = "sarsa"
WEIGHTED = "weighted"
TARGET_KINDS = (STANDARD, SARSA, WEIGHTED)

QValueFn = Callable[[int, int], float]
PolicyFn = Callable[[int], int]


@dataclass(frozen=True, slots=True)
class TargetKind:
    """Which target rule a run uses; ``beta`` only matters for ``weighted``."""

    kind: str = STANDARD
    beta: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}, expected one of {TARGET_KINDS}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")

    @property
    def bootstrap_weight(self) -> float:
        """w in the target rule: 1 for standard, 0 for sarsa, beta for weighted."""
        if self.kind == STANDARD:
            return 1.0
        if self.kind == SARSA:
            return 0.0
        return self.beta


class TargetCache:
    """Each trajectory's most recent target, with the time index it was computed at.

    A backward pass reads the value stored at t+1 and then stores its own at t,
    so one value per trajectory is all the recursion needs.  A pass's head
    overwrites whatever an earlier pass left, so nothing is ever cleared.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[int, float]] = {}

    def get(self, trajectory_id: int, time_index: int) -> float:
        entry = self._entries.get(trajectory_id)
        if entry is None or entry[0] != time_index:
            raise ValueError(
                f"no cached target for trajectory {trajectory_id} at t={time_index}; "
                "transitions must be emitted in backward order"
            )
        return entry[1]

    def put(self, trajectory_id: int, time_index: int, value: float) -> None:
        self._entries[trajectory_id] = (time_index, value)


def compute_target(
    item: BatchItem,
    dataset: OfflineDataset,
    kind: TargetKind,
    cache: TargetCache,
    q_bar: QValueFn,
    policy: PolicyFn,
    gamma: float,
) -> float:
    """The target of one item under the run's kind (fixed for the whole run).

    The item's reward, next state and terminal flag are read from the
    dataset's columns at ``item.index``.  w = 1 is the cache-free bootstrap
    r + gamma * Qbar(s', pi(s')) (just r at a terminal step).  Otherwise a
    trajectory head, the base case of the backward recursion, takes that
    bootstrap and stores its value.
    """
    i = item.index
    reward = dataset.rewards.item(i)
    w = kind.bootstrap_weight
    if w == 1.0 or item.is_trajectory_head:
        if dataset.terminal.item(i):
            value = reward
        else:
            next_state = dataset.next_states.item(i)
            value = reward + gamma * q_bar(next_state, policy(next_state))
        if w == 1.0:
            return value
    else:
        cached = cache.get(item.trajectory_id, item.time_index + 1)
        if w == 0.0:
            # Not the blend: (1 - 0) * cached + 0 * 0.0 would turn a -0.0 into +0.0.
            value = reward + gamma * cached
        else:
            next_state = dataset.next_states.item(i)
            bootstrap = q_bar(next_state, policy(next_state))
            value = reward + gamma * ((1.0 - w) * cached + w * bootstrap)
    cache.put(item.trajectory_id, item.time_index, value)
    return value
