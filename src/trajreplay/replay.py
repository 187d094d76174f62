"""Batch samplers over an offline dataset, each returning a :class:`Batch`.

Three families live here:

* :class:`TrajectoryReplay` -- the trajectory machine.  ``batch_size`` slots
  each hold one active trajectory and a cursor counting down from the last
  time index; every call emits one transition per slot in backward order.
  Exhausted slots are refilled from the available-id pool by a pluggable
  selector, and when the pool runs dry it is rebuilt from every id not
  currently active (one epoch = one full backward pass over each trajectory).
* :class:`UniformTransitionSampler` -- i.i.d. uniform transition draws with
  replacement, the baseline the trajectory machine is compared against.
* :class:`SumTree` / :class:`PerTransitionSampler` -- proportional prioritized
  transition sampling, priority |TD error| + epsilon raised to alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, Sequence

import numpy as np

from .dataset import OfflineDataset


@dataclass(slots=True)
class BatchItem:
    """One sampled transition: its flat ``index`` into the dataset's columns
    plus its position inside its trajectory."""

    trajectory_id: int
    time_index: int
    index: int
    is_trajectory_head: bool


@dataclass(slots=True, eq=False)
class Batch:
    """One draw: ``index[k]`` is item k's flat position, a one-element list of
    a Python int at B = 1 and an ``np.intp`` array otherwise.  Indexing or
    iterating builds :class:`BatchItem` views of Python ints and bools, read
    from ``dataset.position`` and ``dataset.head``."""

    index: list[int] | np.ndarray
    dataset: OfflineDataset = field(repr=False)

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, k: int) -> BatchItem:  # iteration stops at its IndexError
        i = int(self.index[k])
        return BatchItem(*self.dataset.position(i), i, self.dataset.head.item(i))


class TrajectorySelector(Protocol):
    """Policy that picks which trajectory fills a vacant replay slot."""

    def select(self, candidates: Sequence[int], rng: np.random.Generator) -> int:
        """Return one id from ``candidates`` (must not mutate the sequence)."""
        ...

    def notify_complete(self, trajectory_ids: Sequence[int]) -> None:
        """Hook fired once per batch that completes trajectories, with the ids
        whose time index 0 the batch emitted, in slot order."""
        ...


class UniformSelector:
    """Uniform choice among the available trajectory ids."""

    def select(self, candidates: Sequence[int], rng: np.random.Generator) -> int:
        return candidates[int(rng.integers(len(candidates)))]

    def notify_complete(self, trajectory_ids: Sequence[int]) -> None:
        pass


class TrajectoryReplay:
    """Backward per-trajectory sampling with selector-driven refill.

    One instance per training run; not thread-safe.  ``next_batch`` always
    returns exactly ``batch_size`` items: the slots vacated in the previous
    call are refilled, in slot order, at the start of the call, and a slot
    goes vacant at the end of the call in which its trajectory emits time
    index 0; that call then passes every such id, in slot order, to one
    ``notify_complete`` call of the selector.

    Each slot keeps the flat positions of its trajectory's first step and of
    the step it emits next.  At B = 1 they are Python ints, since a
    one-element array costs more than the step; above, they are ``np.intp``
    arrays and a call is a few array operations.
    """

    def __init__(
        self,
        dataset: OfflineDataset,
        batch_size: int,
        selector: TrajectorySelector,
        rng: np.random.Generator,
    ) -> None:
        n = dataset.n_trajectories
        if not 1 <= batch_size <= n:
            raise ValueError(
                f"batch_size must be in [1, {n}] so no trajectory is active twice, "
                f"got {batch_size}"
            )
        self._dataset = dataset
        self._selector = selector
        self._rng = rng
        self._epoch = 1
        self._slot_ids = [-1] * batch_size  # -1 while vacant
        positions = [0] * batch_size if batch_size == 1 else np.zeros(batch_size, np.intp)
        self._first, self._next = positions, positions.copy()
        if batch_size > 1:  # each trajectory's first and last flat position
            self._starts, self._ends = dataset.offsets[:-1], dataset.offsets[1:] - 1
        self._vacant = list(range(batch_size))
        self._available: list[int] = list(range(n))
        self._avail_pos = {j: j for j in self._available}
        self._fill_vacant_slots()

    @property
    def epoch(self) -> int:
        """Count of available-pool refills, starting at 1 for the first pass."""
        return self._epoch

    @property
    def available(self) -> tuple[int, ...]:
        return tuple(self._available)

    @property
    def slots(self) -> tuple[tuple[int, int], ...]:
        """Active (trajectory_id, cursor) pairs; cursor is the next index emitted."""
        cursors = (np.asarray(self._next) - np.asarray(self._first)).tolist()
        return tuple((tid, cur) for tid, cur in zip(self._slot_ids, cursors) if tid != -1)

    def _fill_vacant_slots(self) -> None:
        offsets = self._dataset.offsets
        picked = []
        for i in self._vacant:
            if not self._available:  # a new epoch: every id not active
                active = set(self._slot_ids)
                self._available = [j for j in range(len(offsets) - 1) if j not in active]
                self._avail_pos = {j: pos for pos, j in enumerate(self._available)}
                self._epoch += 1
            tid = self._selector.select(self._available, self._rng)
            # swap-remove: the pool's last id takes the chosen one's place
            pos = self._avail_pos.pop(tid)
            last = self._available.pop()
            if last != tid:
                self._available[pos] = last
                self._avail_pos[last] = pos
            self._slot_ids[i] = tid
            picked.append(tid)
        if len(self._first) == 1:
            tid = picked[0]
            self._first[0] = offsets.item(tid)
            self._next[0] = offsets.item(tid + 1) - 1
        else:  # one write per position array, after every selector call
            slots, picked = np.array(self._vacant), np.array(picked)
            self._first[slots] = self._starts[picked]
            self._next[slots] = self._ends[picked]
        self._vacant = []

    def next_batch(self) -> Batch:
        """Emit one transition per slot at its cursor, then step cursors back."""
        if self._vacant:
            self._fill_vacant_slots()
        first, upcoming = self._first, self._next
        if len(upcoming) == 1:
            i = upcoming[0]
            index = [i]
            done = [0] if i == first[0] else None
            upcoming[0] = i - 1
        else:
            index = upcoming.copy()
            done = (index == first).nonzero()[0].tolist()
            upcoming -= 1
        if done:
            ids = self._slot_ids
            completed = [ids[i] for i in done]
            for i in done:
                ids[i] = -1
            self._vacant = done
            self._selector.notify_complete(completed)
        return Batch(index, self._dataset)


class UniformTransitionSampler:
    """I.i.d. uniform draws (with replacement) over every stored transition."""

    def __init__(self, dataset: OfflineDataset) -> None:
        self._dataset = dataset

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        n = self._dataset.total_transitions
        if batch_size == 1:  # the size-1 array draw's value, without the array
            return Batch([int(rng.integers(n))], self._dataset)
        return Batch(rng.integers(0, n, size=batch_size, dtype=np.intp), self._dataset)


class SumTree:
    """Complete binary tree whose internal nodes hold the sum of their children.

    Leaves store finite, non-negative sampling weights.  The ``2 * capacity -
    1`` nodes live in a Python list of floats in heap order: node ``i`` has
    children ``2i + 1`` and ``2i + 2``, and leaf ``j`` is node ``capacity - 1
    + j``.  Python floats are IEEE doubles, so every sum equals the one a
    float64 array gives.  The descent lays the leaves' mass intervals out left
    subtree first: in leaf order for a power-of-two capacity, rotated
    otherwise (capacity 3 visits leaves 1, 2, 0), so draws stay proportional.
    :meth:`find_prefixes` and :meth:`update_many` take a whole batch in one
    loop.
    """

    def __init__(self, capacity: int, value: float = 0.0) -> None:
        """A tree with every leaf at ``value``, summed bottom-up in O(n).

        For a whole-number ``value`` (0.0 and 1.0 are) every sum is exact, so
        the tree equals one that writes the leaves one at a time.
        """
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        _check_weight(value)
        self.capacity = capacity
        nodes = [0.0] * (capacity - 1) + [float(value)] * capacity
        for i in range(capacity - 2, -1, -1):
            nodes[i] = nodes[2 * i + 1] + nodes[2 * i + 2]
        self._nodes = nodes

    @property
    def total(self) -> float:
        return self._nodes[0]

    def leaf_value(self, leaf: int) -> float:
        return self._nodes[self.capacity - 1 + leaf]

    def update_many(self, leaves: Sequence[int], values: Sequence[float]) -> None:
        """Write ``values`` to ``leaves`` in batch order, one leaf at a time: a
        repeated leaf's change is taken against its earlier write.

        Every pair is checked before any is written, so a bad one writes none.
        """
        capacity = self.capacity
        for leaf, value in zip(leaves, values, strict=True):
            if not (0 <= leaf < capacity and 0.0 <= value < math.inf):  # _check_weight's test
                if not 0 <= leaf < capacity:
                    raise ValueError(f"leaf must be in [0, {capacity}), got {leaf}")
                _check_weight(value)
        nodes = self._nodes
        first_leaf = capacity - 1
        for leaf, value in zip(leaves, values):
            idx = first_leaf + leaf
            value = float(value)
            change = value - nodes[idx]
            nodes[idx] = value
            while idx:
                idx = (idx - 1) >> 1
                nodes[idx] += change

    def find_prefixes(self, prefixes: Sequence[float]) -> list[int]:
        """The leaf whose mass interval contains each prefix, in order."""
        nodes = self._nodes
        first_leaf = self.capacity - 1
        leaves = []
        for prefix in prefixes:
            idx = 0
            while idx < first_leaf:
                left = 2 * idx + 1
                mass = nodes[left]
                # The right guard only matters on exact float boundaries.
                if prefix < mass or nodes[left + 1] == 0.0:
                    idx = left
                else:
                    prefix -= mass
                    idx = left + 1
            leaves.append(idx - first_leaf)
        return leaves


def _check_weight(value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValueError(f"leaf priorities must be finite and non-negative, got {value}")


def check_alpha(alpha: float) -> None:
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


def check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")


class PerTransitionSampler:
    """Prioritized transition sampling, P(j) = p_j^alpha / sum_k p_k^alpha.

    Every transition starts at priority 1.0 (max-priority convention) so each
    is visited before TD errors differentiate them; the learner writes new
    priorities back by a batch's flat ``index``, which is each item's leaf.
    """

    def __init__(
        self, dataset: OfflineDataset, alpha: float = 1.0, epsilon: float = 0.01
    ) -> None:
        check_alpha(alpha)
        check_epsilon(epsilon)
        self.alpha = alpha
        self.epsilon = epsilon
        self._dataset = dataset
        self.tree = SumTree(dataset.total_transitions, 1.0)

    def sample(self, batch_size: int, rng: np.random.Generator) -> Batch:
        if batch_size == 1:  # the size-1 array draw's value, without the array
            return Batch(self.tree.find_prefixes([rng.random() * self.tree.total]), self._dataset)
        leaves = self.tree.find_prefixes((rng.random(batch_size) * self.tree.total).tolist())
        return Batch(np.array(leaves, dtype=np.intp), self._dataset)

    def update_priorities(self, indices: Sequence[int], td_errors: Sequence[float]) -> None:
        """Write the priorities of the transitions at these flat indices."""
        if len(indices) != len(td_errors):
            raise ValueError("indices and td_errors must have equal lengths")
        if isinstance(indices, np.ndarray):  # the tree descends and writes on Python ints
            indices = indices.tolist()
        epsilon, alpha = self.epsilon, self.alpha  # epsilon was checked in __init__
        self.tree.update_many(indices, [(abs(td) + epsilon) ** alpha for td in td_errors])
