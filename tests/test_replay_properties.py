"""Property tests of the trajectory machine's emission order.

Over random trajectory lengths, batch sizes and seeds, ``TrajectoryReplay``
must emit every trajectory in whole backward passes that start at its head,
and each epoch (one available pool, from rebuild until it runs dry) must
start exactly one pass of every trajectory in its pool, the pool being every
trajectory not active when it was rebuilt.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.replay import TrajectoryReplay, UniformSelector


def dataset_of(lengths):
    trajectories = []
    state = 0
    for length in lengths:
        transitions = tuple(
            Transition(state + t, 0, 0.0, state + t + 1, t == length - 1) for t in range(length)
        )
        trajectories.append(Trajectory(transitions))
        state += length + 1
    return OfflineDataset(tuple(trajectories), state_count=state, action_count=1)


class PoolRecorder(UniformSelector):
    """Uniform selector that records each pool and the ids drawn from it."""

    def __init__(self):
        self.replay = None
        self.pools = []  # (pool, ids active when it was built, ids drawn)
        self.completed = []

    def select(self, candidates, rng):
        if not self.pools or len(self.pools[-1][2]) == len(self.pools[-1][0]):
            active = {tid for tid, _ in self.replay.slots} if self.replay else set()
            self.pools.append((set(candidates), active, []))
        pool, _, drawn = self.pools[-1]
        assert set(candidates) == pool - set(drawn)
        tid = super().select(candidates, rng)
        drawn.append(tid)
        return tid

    def notify_complete(self, trajectory_ids):
        self.completed.extend(trajectory_ids)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=12),
    st.data(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 80),
)
def test_every_trajectory_once_per_epoch_in_backward_order(lengths, data, seed, steps):
    batch_size = data.draw(st.integers(1, len(lengths)))
    ds = dataset_of(lengths)
    selector = PoolRecorder()
    replay = TrajectoryReplay(ds, batch_size, selector, np.random.default_rng(seed))
    selector.replay = replay
    emitted = {j: [] for j in range(len(lengths))}
    for _ in range(steps):
        batch = replay.next_batch()
        assert len(batch) == batch_size
        assert len({it.trajectory_id for it in batch}) == batch_size
        for it in batch:
            emitted[it.trajectory_id].append(it.time_index)
            assert it.index == ds.offsets[it.trajectory_id] + it.time_index
            assert it.is_trajectory_head == (it.time_index == lengths[it.trajectory_id] - 1)

    all_ids = set(range(len(lengths)))
    assert selector.pools[0][0] == all_ids
    for pool, active, drawn in selector.pools:
        assert pool == all_ids - active
        assert len(drawn) == len(set(drawn))
    for pool, _, drawn in selector.pools[:-1]:
        assert sorted(drawn) == sorted(pool)  # a finished epoch drew its whole pool
    assert replay.epoch == len(selector.pools)

    starts = {j: 0 for j in all_ids}
    for _, _, drawn in selector.pools:
        for j in drawn:
            starts[j] += 1
    for j, indices in emitted.items():
        whole_pass = list(range(lengths[j] - 1, -1, -1))
        passes = [indices[k:k + lengths[j]] for k in range(0, len(indices), lengths[j])]
        for p in passes:
            assert p == whole_pass[:len(p)]
        assert starts[j] == len(passes)
        assert selector.completed.count(j) == sum(len(p) == lengths[j] for p in passes)


class BatchRecorder(UniformSelector):
    """Uniform selector that records the id list of every completion call."""

    def __init__(self):
        self.calls = []

    def notify_complete(self, trajectory_ids):
        self.calls.append(list(trajectory_ids))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=12),
    st.data(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 80),
)
def test_one_completion_call_per_batch_in_slot_order(lengths, data, seed, steps):
    """A batch that emits some t = 0 makes one call with exactly those ids in
    slot order; a batch that emits none makes no call."""
    batch_size = data.draw(st.integers(1, len(lengths)))
    selector = BatchRecorder()
    replay = TrajectoryReplay(dataset_of(lengths), batch_size, selector, np.random.default_rng(seed))
    for _ in range(steps):
        slot_order = [tid for tid, _ in replay.slots]
        batch = replay.next_batch()
        finished = [it.trajectory_id for it in batch if it.time_index == 0]
        assert selector.calls == ([finished] if finished else [])
        if len(slot_order) == batch_size:
            assert [it.trajectory_id for it in batch] == slot_order
        selector.calls.clear()
