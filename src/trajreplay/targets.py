"""Critic targets: one rule, r + gamma * [(1 - w) * target(t+1) + w * Qbar(s', pi(s'))].

Backward emission order is what makes the recursive part work: a replay slot
that emits transition t emitted t+1 of the same trajectory in the batch
before, so target(t+1) is that slot's previous value; a non-head item without
one raises.  At w = 0 the update never evaluates the value function at an
action outside the trajectory (except at a timeout head, where no
in-trajectory next action exists).

The rule has two regimes.  :func:`compute_target` is the reference: one item
on Python scalars, which ``train`` uses at batch size 1.  :func:`batch_targets`
applies the same rule to a whole batch with array operations, bit for bit,
and ``train`` uses it for B > 1.  Both take items as a ``Batch``'s flat
``index``, read whether an item is its trajectory's head from
``dataset.head`` (only when w < 1), and read Qbar through one
``q_bar(s', a')`` call per bootstrapped item, so every policy bootstrap stays
one call that can be counted from outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import OfflineDataset

STANDARD = "standard"
SARSA = "sarsa"
WEIGHTED = "weighted"
TARGET_KINDS = (STANDARD, SARSA, WEIGHTED)

QValueFn = Callable[[int, int], float]
PolicyFn = Callable[[int], int]


@dataclass(frozen=True, slots=True)
class TargetKind:
    """Which target rule a run uses; ``beta`` is 0.5 for every kind but ``weighted``."""

    kind: str = STANDARD
    beta: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind {self.kind!r}, expected one of {TARGET_KINDS}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must be in [0, 1], got {self.beta}")
        if self.kind != WEIGHTED:
            object.__setattr__(self, "beta", 0.5)

    @property
    def bootstrap_weight(self) -> float:
        """w in the target rule: 1 for standard, 0 for sarsa, beta for weighted."""
        if self.kind == STANDARD:
            return 1.0
        if self.kind == SARSA:
            return 0.0
        return self.beta


def compute_target(
    index: int,
    dataset: OfflineDataset,
    kind: TargetKind,
    later: float | None,
    q_bar: QValueFn,
    policy: PolicyFn,
    gamma: float,
) -> float:
    """The target of one item under the run's kind (fixed for the whole run).

    The item is the transition at flat ``index``.  Its reward, next state,
    terminal flag and whether it is its trajectory's last step (its head)
    are read from the dataset's columns.  w = 1 is the bootstrap
    r + gamma * Qbar(s', pi(s')) (just r at a terminal step), and so is a
    trajectory head, the base case of the backward recursion.  Otherwise
    ``later`` is the target computed for the same trajectory's step t+1: in
    ``train``, the same replay slot's value from the previous batch.  It is
    read only there, and a non-head item without it raises ``ValueError``.
    """
    reward = dataset.rewards.item(index)
    w = kind.bootstrap_weight
    if w == 1.0 or dataset.head.item(index):
        if dataset.terminal.item(index):
            return reward
        next_state = dataset.next_states.item(index)
        return reward + gamma * q_bar(next_state, policy(next_state))
    if later is None:
        raise _order_error(dataset, index)
    if w == 0.0:
        # Not the blend: (1 - 0) * later + 0 * 0.0 would turn a -0.0 into +0.0.
        return reward + gamma * later
    next_state = dataset.next_states.item(index)
    bootstrap = q_bar(next_state, policy(next_state))
    return reward + gamma * ((1.0 - w) * later + w * bootstrap)


def batch_targets(
    index: np.ndarray,
    later: np.ndarray | None,
    dataset: OfflineDataset,
    kind: TargetKind,
    q_mean: np.ndarray,
    q_bar: QValueFn,
    gamma: float,
) -> np.ndarray:
    """:func:`compute_target` of every item of a batch, bit for bit.

    Item i is the transition at flat ``index[i]`` (an integer array), and
    ``later[i]`` is the target of the same trajectory's step t+1 (in
    ``train``, the same slot's previous value), or ``later`` is None when no
    item needs one.  A terminal flag is only ever set at a head, so a
    terminal item's target is its reward under every kind.  The policy is
    greedy on ``q_mean``: ``argmax(axis=1)`` takes the lowest tied action, as
    ``EnsembleQ.greedy_action`` does.  ``q_bar`` is called once per
    bootstrapped item, in batch order.
    """
    w = kind.bootstrap_weight
    reward = dataset.rewards[index]
    terminal = dataset.terminal[index]
    # heads bootstrap unless terminal, the interior only when w > 0
    bootstrap = ~terminal
    carried = None
    if w < 1.0:  # w = 1 takes the head rule at every item
        head = dataset.head[index]
        carried = (~head).nonzero()[0]
        if later is None and carried.size:
            raise _order_error(dataset, int(index[carried[0]]))
        if w == 0.0:
            bootstrap &= head
    at = bootstrap.nonzero()[0]
    boot = np.zeros(len(index))
    if at.size:
        next_states = dataset.next_states[index[at]]
        actions = q_mean[next_states].argmax(axis=1)
        boot[at] = list(map(q_bar, next_states.tolist(), actions.tolist()))
    if carried is not None and carried.size:
        carry = later[carried]
        # At w = 0 not the blend: (1 - 0) * later + 0 * 0.0 would turn a -0.0 into +0.0.
        boot[carried] = carry if w == 0.0 else (1.0 - w) * carry + w * boot[carried]
    targets = reward + gamma * boot
    # a terminal head's target is its reward, a -0.0 included
    np.copyto(targets, reward, where=terminal)
    return targets


def _order_error(dataset: OfflineDataset, index: int) -> ValueError:
    """The error for the item at flat ``index``, which needs a later target."""
    tid, t = dataset.position(index)
    return ValueError(f"no target for trajectory {tid} at t={t + 1}"
                      "; transitions must be emitted in backward order")
