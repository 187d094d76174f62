"""Critic-target computation: standard bootstrap, cached recursive, weighted.

Backward emission order is what makes the recursive forms work: when
transition t is processed, the target computed for t+1 in the same trajectory
is already sitting in the per-trajectory cache, so the update never has to
evaluate the value function at an action outside the trajectory (except at a
timeout head, where no in-trajectory next action exists).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

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


class TargetCache:
    """Per-trajectory store of targets already computed this backward pass.

    An entry for (j, t) exists iff transition (j, t) has been processed since
    trajectory j last entered a slot; entries are dropped wholesale when the
    pass completes.
    """

    def __init__(self) -> None:
        self._entries: dict[int, dict[int, float]] = {}

    def get(self, trajectory_id: int, time_index: int) -> float:
        try:
            return self._entries[trajectory_id][time_index]
        except KeyError:
            raise ValueError(
                f"no cached target for trajectory {trajectory_id} at t={time_index}; "
                "transitions must be emitted in backward order"
            ) from None

    def put(self, trajectory_id: int, time_index: int, value: float) -> None:
        self._entries.setdefault(trajectory_id, {})[time_index] = value

    def clear_trajectory(self, trajectory_id: int) -> None:
        self._entries.pop(trajectory_id, None)

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())


def standard_target(
    item: BatchItem, q_bar: QValueFn, policy: PolicyFn, gamma: float
) -> float:
    """r + gamma * (1 - terminal) * Qbar(s', policy(s'))."""
    tr = item.transition
    if tr.terminal:
        return tr.reward
    return tr.reward + gamma * q_bar(tr.next_state, policy(tr.next_state))


def sarsa_target(
    item: BatchItem,
    cache: TargetCache,
    q_bar: QValueFn,
    policy: PolicyFn,
    gamma: float,
) -> float:
    """r + gamma * target(t+1), reusing the value cached by the previous step.

    The head is the base case of the backward recursion: a terminal head
    bootstraps nothing, and a truncated head has no recorded next action, so
    it takes the standard policy bootstrap there and only there.
    """
    if item.is_trajectory_head:
        value = standard_target(item, q_bar, policy, gamma)
    else:
        value = item.transition.reward + gamma * cache.get(
            item.trajectory_id, item.time_index + 1
        )
    cache.put(item.trajectory_id, item.time_index, value)
    return value


def weighted_target(
    item: BatchItem,
    cache: TargetCache,
    q_bar: QValueFn,
    policy: PolicyFn,
    gamma: float,
    beta: float,
) -> float:
    """Convex blend: r + gamma * [(1-beta) * cached(t+1) + beta * Qbar(s', pi(s'))].

    beta = 0 reproduces the recursive target exactly (no policy bootstrap is
    evaluated), beta = 1 reproduces the standard target exactly.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    if item.is_trajectory_head:
        value = standard_target(item, q_bar, policy, gamma)
    else:
        tr = item.transition
        cached = cache.get(item.trajectory_id, item.time_index + 1)
        bootstrap = q_bar(tr.next_state, policy(tr.next_state)) if beta > 0.0 else 0.0
        value = tr.reward + gamma * ((1.0 - beta) * cached + beta * bootstrap)
    cache.put(item.trajectory_id, item.time_index, value)
    return value


def compute_target(
    item: BatchItem,
    kind: TargetKind,
    cache: TargetCache,
    q_bar: QValueFn,
    policy: PolicyFn,
    gamma: float,
) -> float:
    """Dispatch on the run's target kind (fixed for the whole run)."""
    if kind.kind == STANDARD:
        return standard_target(item, q_bar, policy, gamma)
    if kind.kind == SARSA:
        return sarsa_target(item, cache, q_bar, policy, gamma)
    return weighted_target(item, cache, q_bar, policy, gamma, kind.beta)
