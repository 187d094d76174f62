from __future__ import annotations

import math
from collections import Counter, defaultdict

import numpy as np
import pytest

from trajreplay.learner import TrainConfig
from trajreplay.replay import (
    PerTransitionSampler,
    SumTree,
    TrajectoryReplay,
    UniformSelector,
    UniformTransitionSampler,
)
from trajreplay.scenarios import make_random_chain


def chain_dataset(lengths, seed=0, terminal_prob=1.0):
    rng = np.random.default_rng(seed)
    n = len(lengths)
    ds = make_random_chain(n, min(lengths), max(lengths), rng, terminal_prob=terminal_prob)
    # redraw until the requested length profile appears, keeps helpers trivial
    while [t.length for t in ds.trajectories] != list(lengths):
        ds = make_random_chain(n, min(lengths), max(lengths), rng, terminal_prob=terminal_prob)
    return ds


def within_3_sigma(count, n, p):
    return abs(count - n * p) <= 3 * np.sqrt(n * p * (1 - p))


class CompletionRecorder(UniformSelector):
    """Uniform selector that notes every completed backward pass."""

    def __init__(self):
        self.completed = []

    def take_completed(self):
        completed, self.completed = self.completed, []
        return completed

    def notify_complete(self, trajectory_ids):
        self.completed.extend(trajectory_ids)


def test_init_all_trajectories_active_when_batch_equals_n():
    ds = chain_dataset([3, 3, 3])
    replay = TrajectoryReplay(ds, 3, UniformSelector(), np.random.default_rng(0))
    assert replay.available == ()
    assert len(replay.slots) == 3
    assert sorted(tid for tid, _ in replay.slots) == [0, 1, 2]
    for tid, cursor in replay.slots:
        assert cursor == ds.trajectories[tid].length - 1


def test_init_partial_fill_keeps_remaining_available():
    ds = chain_dataset([2, 2, 2, 2, 2])
    replay = TrajectoryReplay(ds, 2, UniformSelector(), np.random.default_rng(1))
    assert len(replay.available) == 3
    slot_ids = [tid for tid, _ in replay.slots]
    assert len(set(slot_ids)) == 2
    assert set(slot_ids).isdisjoint(replay.available)


def test_init_rejects_batch_larger_than_n():
    ds = chain_dataset([2, 2])
    with pytest.raises(ValueError, match="batch_size"):
        TrajectoryReplay(ds, 3, UniformSelector(), np.random.default_rng(0))


def test_single_trajectory_backward_order_and_epoch():
    ds = chain_dataset([3])
    replay = TrajectoryReplay(ds, 1, UniformSelector(), np.random.default_rng(0))
    emitted = [replay.next_batch()[0].time_index for _ in range(4)]
    assert emitted == [2, 1, 0, 2]
    assert replay.epoch == 2


def test_two_trajectories_emit_each_index_once_over_epoch():
    ds = chain_dataset([2, 2])
    replay = TrajectoryReplay(ds, 2, UniformSelector(), np.random.default_rng(0))
    seen = defaultdict(list)
    for _ in range(2):
        for item in replay.next_batch():
            seen[item.trajectory_id].append(item.time_index)
    assert seen[0] == [1, 0]
    assert seen[1] == [1, 0]


def test_completion_signaled_when_cursor_exhausts():
    ds = chain_dataset([2, 3])
    selector = CompletionRecorder()
    replay = TrajectoryReplay(ds, 2, selector, np.random.default_rng(0))
    replay.next_batch()
    assert selector.take_completed() == []
    replay.next_batch()
    assert selector.take_completed() == [0]


def first_pass_emissions(replay, selector, dataset, max_batches=10_000):
    """Drive the machine until every trajectory finished one backward pass;
    returns per-trajectory emission lists for that first pass.  ``selector``
    is the machine's :class:`CompletionRecorder`."""
    per_traj = defaultdict(list)
    done = set()
    n = dataset.n_trajectories
    batches = 0
    while len(done) < n:
        for item in replay.next_batch():
            if item.trajectory_id not in done:
                per_traj[item.trajectory_id].append(item.time_index)
        done.update(
            tid for tid in selector.take_completed()
            if len(per_traj[tid]) == dataset.trajectories[tid].length
        )
        batches += 1
        assert batches < max_batches, "machine failed to finish first passes"
    return per_traj


def test_exactly_once_per_epoch_randomized():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        ds = make_random_chain(n, 1, 8, np.random.default_rng(int(rng.integers(1 << 30))))
        batch = int(rng.integers(1, n + 1))
        selector = CompletionRecorder()
        replay = TrajectoryReplay(ds, batch, selector, rng)
        passes = first_pass_emissions(replay, selector, ds)
        emitted = Counter(
            (tid, t) for tid, indices in passes.items() for t in indices
        )
        expected = Counter(ds.position(i) for i in range(ds.total_transitions))
        assert emitted == expected
        for tid, indices in passes.items():
            length = ds.trajectories[tid].length
            assert indices == list(range(length - 1, -1, -1))


def test_no_slot_ever_holds_duplicate_ids():
    ds = make_random_chain(7, 1, 6, np.random.default_rng(5))
    replay = TrajectoryReplay(ds, 4, UniformSelector(), np.random.default_rng(6))
    for _ in range(200):
        replay.next_batch()
        slot_ids = [tid for tid, _ in replay.slots]
        assert len(slot_ids) == len(set(slot_ids))
        assert set(slot_ids).isdisjoint(replay.available)


def test_head_flag_marks_last_time_index():
    ds = chain_dataset([4])
    replay = TrajectoryReplay(ds, 1, UniformSelector(), np.random.default_rng(0))
    flags = [(it.time_index, it.is_trajectory_head) for it in
             (replay.next_batch()[0] for _ in range(4))]
    assert flags == [(3, True), (2, False), (1, False), (0, False)]


def test_uniform_sample_single_transition_dataset():
    ds = chain_dataset([1])
    rng = np.random.default_rng(0)
    for item in UniformTransitionSampler(ds).sample(5, rng):
        assert (item.trajectory_id, item.time_index) == (0, 0)


def test_uniform_sample_empty_batch():
    ds = chain_dataset([3])
    assert len(UniformTransitionSampler(ds).sample(0, np.random.default_rng(0))) == 0


def test_uniform_sample_frequencies_binomial():
    ds = chain_dataset([5, 5])  # exactly 10 transitions, p = 0.1 each
    sampler = UniformTransitionSampler(ds)
    rng = np.random.default_rng(9)
    draws = 100_000
    counts = Counter()
    for _ in range(draws // 1000):
        for item in sampler.sample(1000, rng):
            counts[(item.trajectory_id, item.time_index)] += 1
    assert len(counts) == 10
    for key in counts:
        assert within_3_sigma(counts[key], draws, 0.1), key


def test_per_priority_floor():
    """A written priority is |TD error| + epsilon (alpha 1), so a zero error
    keeps the floor; epsilon must be positive."""
    sampler = PerTransitionSampler(chain_dataset([2]), alpha=1.0, epsilon=0.01)
    sampler.update_priorities([0, 1], [0.0, -2.5])
    assert sampler.tree.leaf_value(0) == 0.01
    assert sampler.tree.leaf_value(1) == pytest.approx(2.51)
    with pytest.raises(ValueError, match="epsilon"):
        PerTransitionSampler(chain_dataset([2]), epsilon=0.0)


def test_per_sampler_rejects_negative_alpha():
    ds = chain_dataset([2])
    with pytest.raises(ValueError, match="alpha"):
        PerTransitionSampler(ds, alpha=-0.1)


@pytest.mark.parametrize("alpha, epsilon, message", [
    (math.nan, 0.01, "alpha must be finite and >= 0, got nan"),
    (math.inf, 0.01, "alpha must be finite and >= 0, got inf"),
    (1.0, math.nan, "epsilon must be finite and positive, got nan"),
    (1.0, math.inf, "epsilon must be finite and positive, got inf"),
])
def test_per_sampler_rejects_a_non_finite_alpha_or_epsilon(alpha, epsilon, message):
    with pytest.raises(ValueError, match=message):
        PerTransitionSampler(chain_dataset([2]), alpha=alpha, epsilon=epsilon)
    if alpha == 1.0:
        with pytest.raises(ValueError, match=message):
            TrainConfig(sampler="prio_state", epsilon=epsilon)


def test_per_equal_priorities_sample_uniformly():
    ds = chain_dataset([2, 2])
    sampler = PerTransitionSampler(ds, alpha=1.0)
    rng = np.random.default_rng(10)
    draws = 100_000
    counts = Counter()
    items = sampler.sample(draws, rng)
    for item in items:
        counts[(item.trajectory_id, item.time_index)] += 1
    for key in counts:
        assert within_3_sigma(counts[key], draws, 0.25), key


def test_per_two_priorities_sample_proportionally():
    ds = chain_dataset([2])
    sampler = PerTransitionSampler(ds, alpha=1.0, epsilon=0.01)
    # write |td| of 0.99 and 2.99 so stored priorities become 1 and 3
    sampler.update_priorities([0, 1], [0.99, 2.99])
    expected = {0: 0.25, 1: 0.75}
    rng = np.random.default_rng(11)
    draws = 100_000
    counts = Counter()
    for item in sampler.sample(draws, rng):
        counts[item.index] += 1
    for leaf, p in expected.items():
        assert within_3_sigma(counts[leaf], draws, p), leaf


def test_per_write_back_via_returned_leaves_changes_distribution():
    ds = chain_dataset([3])
    sampler = PerTransitionSampler(ds, alpha=1.0, epsilon=0.01)
    rng = np.random.default_rng(12)
    leaves = [item.index for item in sampler.sample(3, rng)]
    sampler.update_priorities(leaves, [0.0, 0.0, 0.0])
    # every sampled leaf now carries the epsilon floor
    for leaf in leaves:
        assert sampler.tree.leaf_value(int(leaf)) == pytest.approx(0.01)


def test_sum_tree_root_tracks_leaf_sum():
    rng = np.random.default_rng(13)
    tree = SumTree(37)
    values = np.zeros(37)
    for _ in range(2000):
        leaf = int(rng.integers(37))
        value = float(rng.uniform(0, 10))
        tree.update_many((leaf,), (value,))
        values[leaf] = value
        assert tree.total == pytest.approx(values.sum(), rel=1e-9)


def test_sum_tree_rejects_negative():
    tree = SumTree(4)
    with pytest.raises(ValueError, match="non-negative"):
        tree.update_many((0,), (-1.0,))


def ones_tree(capacity):
    tree = SumTree(capacity)
    for leaf in range(capacity):
        tree.update_many((leaf,), (1.0,))
    return tree


def test_sum_tree_rejects_a_leaf_outside_its_range():
    tree = ones_tree(4)
    for leaf in (-1, 4):
        with pytest.raises(ValueError, match="leaf"):
            tree.update_many((leaf,), (5.0,))
    # -1 once wrote internal node 2 and made the root 7.0
    assert tree.total == 4.0
    assert [tree.leaf_value(leaf) for leaf in range(4)] == [1.0] * 4


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1e-300])
def test_sum_tree_rejects_a_weight_that_is_not_finite_or_is_negative(value):
    tree = ones_tree(4)
    with pytest.raises(ValueError, match="finite and non-negative"):
        tree.update_many((2,), (value,))
    assert tree.total == 4.0 and tree.leaf_value(2) == 1.0
    with pytest.raises(ValueError, match="finite and non-negative"):
        SumTree(4, value)


def test_sum_tree_batch_with_a_bad_pair_writes_nothing():
    tree = ones_tree(4)
    with pytest.raises(ValueError, match="finite and non-negative"):
        tree.update_many([0, 1, 2], [3.0, 2.0, math.nan])
    with pytest.raises(ValueError, match="leaf"):
        tree.update_many([0, 1, 4], [3.0, 2.0, 1.0])
    assert tree.total == 4.0
    assert [tree.leaf_value(leaf) for leaf in range(4)] == [1.0] * 4


def test_per_write_back_rejects_a_nan_td_error():
    sampler = PerTransitionSampler(chain_dataset([3]), alpha=1.0, epsilon=0.01)
    with pytest.raises(ValueError, match="finite and non-negative"):
        sampler.update_priorities([0, 1], [0.5, math.nan])
    # a NaN total would send every later draw down the right edge
    assert sampler.tree.total == 3.0


def test_per_write_back_of_an_index_array_keeps_the_tree_on_python_ints(monkeypatch):
    """``train`` writes back a batch's index array; the tree gets the same
    leaves as Python ints, as a list would give them, and ends bit for bit
    the same."""
    leaf_types = set()
    update_many = SumTree.update_many

    def recording(self, leaves, values):
        leaf_types.update(map(type, leaves))
        return update_many(self, leaves, values)

    monkeypatch.setattr(SumTree, "update_many", recording)
    ds = chain_dataset([3, 5, 2, 4])
    by_array = PerTransitionSampler(ds, alpha=0.7)
    by_list = PerTransitionSampler(ds, alpha=0.7)
    rng = np.random.default_rng(15)
    for _ in range(20):
        index = rng.integers(0, ds.total_transitions, size=6, dtype=np.intp)
        td_errors = rng.normal(size=6).tolist()
        by_array.update_priorities(index, td_errors)
        by_list.update_priorities(index.tolist(), td_errors)
    assert leaf_types == {int}
    nodes = np.array(by_array.tree._nodes)
    assert np.array_equal(nodes.view(np.int64), np.array(by_list.tree._nodes).view(np.int64))
    assert {type(value) for value in by_array.tree._nodes} == {float}


def test_sum_tree_matches_naive_categorical():
    rng = np.random.default_rng(14)
    n = 33
    priorities = rng.uniform(0.0, 5.0, n)
    priorities[rng.integers(n)] = 0.0  # include a zero-mass leaf
    tree = SumTree(n)
    for leaf, p in enumerate(priorities):
        tree.update_many((leaf,), (float(p),))
    probs = priorities / priorities.sum()
    draws = 100_000
    tree_counts = Counter(tree.find_prefixes((u,))[0] for u in rng.random(draws) * tree.total)
    naive_counts = Counter(
        int(k) for k in rng.choice(n, size=draws, p=probs)
    )
    for leaf in range(n):
        p = probs[leaf]
        assert within_3_sigma(tree_counts[leaf], draws, p), ("tree", leaf)
        assert within_3_sigma(naive_counts[leaf], draws, p), ("naive", leaf)
        # two-sample: difference of binomials
        diff = tree_counts[leaf] - naive_counts[leaf]
        assert abs(diff) <= 3 * np.sqrt(2 * draws * p * (1 - p)) + 1e-9, leaf
