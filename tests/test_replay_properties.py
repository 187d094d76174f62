"""Property tests of the samplers' batches and the trajectory machine's order.

Over random trajectory lengths, batch sizes and seeds, ``TrajectoryReplay``
must emit every trajectory in whole backward passes that start at its head,
and each epoch (one available pool, from rebuild until it runs dry) must
start exactly one pass of every trajectory in its pool, the pool being every
trajectory not active when it was rebuilt.  Every sampler's ``Batch`` must
hold B flat positions and head flags (Python lists at B = 1, arrays above)
whose views agree with the dataset, and draw them from the generator as a
plain twin of the sampler would.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.replay import (
    PerTransitionSampler,
    TrajectoryReplay,
    UniformSelector,
    UniformTransitionSampler,
)


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


def uniform_pick(pool, rng):
    """The pool position ``UniformSelector`` picks."""
    return int(rng.integers(len(pool)))


def reference_batches(lengths, batch_size, rng, pick=uniform_pick):
    """The trajectory machine written plainly: per call, refill the vacant
    slots in slot order (the pool position ``pick(pool, rng)`` names,
    swap-removed from the pool; an empty pool is rebuilt from every inactive
    id), then emit each slot's cursor.  Yields (index, head, completed ids)
    per call."""
    offsets = np.concatenate([[0], np.cumsum(lengths)]).tolist()
    pool = list(range(len(lengths)))
    slots = [None] * batch_size  # [trajectory id, cursor] or None while vacant
    while True:
        for k in range(batch_size):
            if slots[k] is None:
                if not pool:
                    active = {slot[0] for slot in slots if slot is not None}
                    pool = [j for j in range(len(lengths)) if j not in active]
                pos = pick(pool, rng)
                tid = pool[pos]
                pool[pos] = pool[-1]
                pool.pop()
                slots[k] = [tid, lengths[tid] - 1]
        index, head, completed = [], [], []
        for k, (tid, t) in enumerate(slots):
            index.append(offsets[tid] + t)
            head.append(t == lengths[tid] - 1)
            if t:
                slots[k][1] = t - 1
            else:
                completed.append(tid)
                slots[k] = None
        yield index, head, completed


def twin_draws(sampler, ds, lengths, batch_size, seed):
    """(draw, twin): ``draw()`` is one batch of the sampler under test on
    ``default_rng(seed)`` and the replay's completion calls during it;
    ``twin()`` is the index, heads and completion calls a twin generator
    says the same call gives (None where the twin does not model them)."""
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    if sampler == "uniform":
        uniform = UniformTransitionSampler(ds)
        n = ds.total_transitions

        def twin_draw():
            if batch_size == 1:
                return [int(twin.integers(n))], None, None
            return twin.integers(0, n, size=batch_size).tolist(), None, None

        return (lambda: (uniform.sample(batch_size, rng), None)), twin_draw
    if sampler == "per":
        per = PerTransitionSampler(ds, alpha=0.7)

        def draw():
            batch = per.sample(batch_size, rng)
            # new priorities, so later draws descend a tree that is not flat
            per.update_priorities(batch.index, rng.normal(size=batch_size).tolist())
            return batch, None

        def twin_draw():  # called before draw(), on the tree it will descend
            total = per.tree.total
            prefixes = ([twin.random() * total] if batch_size == 1
                        else (twin.random(batch_size) * total).tolist())
            twin.normal(size=batch_size)  # the priorities draw() writes
            return per.tree.find_prefixes(prefixes), None, None

        return draw, twin_draw
    selector = BatchRecorder()
    replay = TrajectoryReplay(ds, batch_size, selector, rng)
    reference = reference_batches(lengths, batch_size, twin)

    def draw():
        selector.calls.clear()
        return replay.next_batch(), selector.calls

    def twin_draw():
        index, head, completed = next(reference)
        return index, head, [completed] if completed else []

    return draw, twin_draw


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(1, 8), min_size=1, max_size=12),
    st.sampled_from(["uniform", "per", "replay"]),
    st.data(),
    st.integers(0, 2**32 - 1),
    st.integers(1, 30),
)
def test_batches_are_index_and_head_columns_drawn_as_a_twin_draws(
    lengths, sampler, data, seed, steps
):
    """For B in 1..8: ``len(batch) == B`` and the batch is not a tuple.  At
    B = 1 its index is a list of a Python int; from B = 2 on it is an
    ``np.intp`` array.  Either way view k holds Python ints and bools, with
    ``index == offsets[tid] + t`` and
    ``is_trajectory_head == (t == length - 1) == ds.head[index[k]]``.  A twin
    generator gives the same draws: the scalar uniform draw at B = 1 and the
    array draw above it, PER's prefixes through the same tree, and the
    replay's selector calls in slot order."""
    ds = dataset_of(lengths)
    batch_size = data.draw(st.integers(1, 8 if sampler != "replay" else min(8, len(lengths))))
    draw, twin_draw = twin_draws(sampler, ds, lengths, batch_size, seed)
    for _ in range(steps):
        index, head, calls = twin_draw()
        batch, got_calls = draw()
        if batch_size == 1:
            assert type(batch.index) is list and type(batch.index[0]) is int
        else:
            assert type(batch.index) is np.ndarray and batch.index.dtype == np.intp
        assert np.asarray(batch.index).tolist() == index
        assert head is None or ds.head[batch.index].tolist() == head
        assert got_calls == calls
        assert all(type(j) is int for call in got_calls or () for j in call)
        assert len(batch) == batch_size and not isinstance(batch, tuple)
        views = list(batch)
        assert len(views) == batch_size
        for k, it in enumerate(views):
            tid, t = it.trajectory_id, it.time_index
            assert [type(tid), type(t), type(it.index)] == [int, int, int]
            assert type(it.is_trajectory_head) is bool
            assert 0 <= t < lengths[tid]
            assert it.index == batch.index[k] == ds.offsets[tid] + t
            assert it.is_trajectory_head == (t == lengths[tid] - 1) == ds.head[batch.index[k]]
