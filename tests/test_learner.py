from __future__ import annotations

import re

import numpy as np
import pytest

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.learner import (
    EnsembleQ,
    TrainConfig,
    steps_to_threshold,
    train,
    value_iteration_oracle,
)
from trajreplay.scenarios import make_figure1, make_random_chain
from trajreplay.targets import TargetKind

from test_update_properties import in_order_mean, in_order_std


def test_update_full_step_hits_target_exactly():
    ens = EnsembleQ(2, 2, ensemble_size=1, eta=1.0, rng=np.random.default_rng(0))
    ens.update([0], [0], [3.5])
    assert ens.q_mean[0, 0] == 3.5


def test_update_is_noop_at_fixed_point():
    tables = np.random.default_rng(1).uniform(0.0, 0.1, size=(3, 2, 2))
    # per-member fixed point requires all members equal; force that
    tables[:, 0, 0] = 0.7
    ens = EnsembleQ.from_tables(tables, eta=0.5)
    tds = ens.update([0], [0], [0.7])
    assert np.allclose(ens.tables[:, 0, 0], 0.7)
    assert tds[0] == pytest.approx(0.0)


def test_repeated_updates_converge_geometrically():
    eta = 0.3
    ens = EnsembleQ(2, 2, ensemble_size=1, eta=eta, rng=np.random.default_rng(2))
    q0 = ens.q_mean[0, 0]
    target = 5.0
    for m in range(1, 8):
        ens.update([0], [0], [target])
        expected = target + (q0 - target) * (1 - eta) ** m
        assert ens.q_mean[0, 0] == pytest.approx(expected, rel=1e-12)


def test_update_rejects_misaligned_lengths():
    ens = EnsembleQ(2, 2, rng=np.random.default_rng(3))
    with pytest.raises(ValueError):
        ens.update([0], [0], [1.0, 2.0])


def test_td_errors_use_pre_update_mean():
    ens = EnsembleQ(2, 2, ensemble_size=2, eta=1.0, rng=np.random.default_rng(4))
    before = ens.q_mean[0, 0]
    tds = ens.update([0], [0], [2.0])
    assert tds[0] == pytest.approx(2.0 - before)


def test_greedy_action_argmax_and_tie_break():
    ens = EnsembleQ.from_tables([[[0.0, 1.0]]])
    assert ens.greedy_action(0) == 1
    ens = EnsembleQ.from_tables([[[0.4, 0.4]]])
    assert ens.greedy_action(0) == 0


def test_greedy_action_follows_ensemble_mean_not_member_zero():
    ens = EnsembleQ.from_tables([
        [[1.0, 0.0]],   # member 0 prefers action 0
        [[0.0, 2.0]],   # mean prefers action 1
    ])
    assert ens.greedy_action(0) == 1


def uncertainty_at(ens, state, action):
    return float(ens.uncertainty_values(np.array([state]), np.array([action]))[0])


def test_uncertainty_values():
    ens = EnsembleQ(1, 1, ensemble_size=3, rng=np.random.default_rng(7))
    ens.tables[:, 0, 0] = [2.0, 2.0, 2.0]
    assert uncertainty_at(ens, 0, 0) == 0.0
    ens2 = EnsembleQ(1, 1, ensemble_size=2, rng=np.random.default_rng(8))
    ens2.tables[:, 0, 0] = [0.0, 2.0]
    assert uncertainty_at(ens2, 0, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("k", [1, 2, 5, 8, 16, 32, 33])
def test_uncertainty_values_match_member_std_per_pair(k):
    """A pair's value has the bits of the in-order standard deviation of its
    members, whether it is gathered alone or among 500 pairs, below and from
    8 members on."""
    ens = EnsembleQ(40, 3, ensemble_size=k, rng=np.random.default_rng(16))
    ens.tables *= np.random.default_rng(k).uniform(-50.0, 50.0, size=ens.tables.shape)
    rng = np.random.default_rng(k + 1)
    states, actions = rng.integers(0, 40, 500), rng.integers(0, 3, 500)
    batched = ens.uncertainty_values(states, actions)
    alone = [uncertainty_at(ens, s, a) for s, a in zip(states, actions)]
    want = [in_order_std(ens.tables[:, s, a].tolist()) for s, a in zip(states, actions)]
    assert batched.tolist() == alone == want
    if k < 8:
        assert want == [ens.tables[:, s, a].std() for s, a in zip(states, actions)]


def test_uncertainty_translation_invariant():
    rng = np.random.default_rng(9)
    ens = EnsembleQ(1, 1, ensemble_size=5, rng=rng)
    base = uncertainty_at(ens, 0, 0)
    ens.tables[:, 0, 0] += 13.7
    assert uncertainty_at(ens, 0, 0) == pytest.approx(base)


def test_ensemble_mean_update_is_linear_in_members():
    rng = np.random.default_rng(10)
    ens = EnsembleQ(2, 2, ensemble_size=4, eta=0.25, rng=rng)
    mean_before = ens.tables.mean(axis=0).copy()
    solo = EnsembleQ.from_tables(mean_before[None], eta=0.25)
    target = 4.0
    ens.update([1], [1], [target])
    solo.update([1], [1], [target])
    assert np.allclose(ens.tables.mean(axis=0), solo.tables[0])


def target_values(ens):
    return [[ens.target_value(s, a) for a in range(ens.tables.shape[2])]
            for s in range(ens.tables.shape[1])]


def member_means(ens):
    return [[in_order_mean(ens.tables[:, s, a].tolist()) for a in range(ens.tables.shape[2])]
            for s in range(ens.tables.shape[1])]


def test_target_sync_full_copy_every_period():
    ens = EnsembleQ(2, 2, ensemble_size=1, eta=1.0, target_sync_period=2,
                    rng=np.random.default_rng(11))
    frozen = target_values(ens)
    assert frozen == member_means(ens)
    ens.update([0], [0], [9.0])
    assert target_values(ens) == frozen  # period not reached
    ens.update([0], [1], [7.0])
    assert target_values(ens) == member_means(ens)
    assert target_values(ens) != frozen


def test_ensemble_save_load_round_trip(tmp_path):
    ens = EnsembleQ(3, 2, ensemble_size=2, target_sync_period=2,
                    rng=np.random.default_rng(12))
    ens.update([1], [0], [4.0])  # target mean now lags q_mean
    path = tmp_path / "ens.npz"
    ens.save(path)
    assert sorted(np.load(path).files) == [
        "eta", "tables", "target_mean", "target_sync_period", "updates_applied"]
    loaded = EnsembleQ.load(path)
    assert np.array_equal(loaded.tables, ens.tables)
    assert np.array_equal(loaded.q_mean, ens.q_mean)
    assert np.array_equal(loaded.target_mean, ens.target_mean)
    assert target_values(loaded) != member_means(loaded)
    assert (loaded.eta, loaded.target_sync_period, loaded.updates_applied) == (0.1, 2, 1)
    assert uncertainty_at(loaded, 1, 1) == pytest.approx(uncertainty_at(ens, 1, 1))
    # the next update completes the period and syncs the loaded copy too
    loaded.update([0], [1], [2.0])
    assert target_values(loaded) == member_means(loaded)


def test_first_sync_after_load_copies_the_whole_table(tmp_path):
    ens = EnsembleQ(3, 2, ensemble_size=2, target_sync_period=1,
                    rng=np.random.default_rng(20))
    stale = ens.target_mean.copy()
    ens.update([0], [1], [4.0])
    path = tmp_path / "lagging.npz"
    np.savez(path, tables=ens.tables, target_mean=stale, eta=ens.eta,
             target_sync_period=1, updates_applied=1)
    loaded = EnsembleQ.load(path)
    assert target_values(loaded)[0][1] != member_means(loaded)[0][1]
    # the update writes (2, 0) only, yet the sync also brings (0, 1) up to date
    loaded.update([2], [0], [1.0])
    assert target_values(loaded) == member_means(loaded)
    loaded.update([1, 2], [1, 1], [3.0, 2.0])
    assert np.array_equal(loaded.target_mean, loaded.q_mean)


def test_ensemble_load_rejects_a_file_without_target_mean(tmp_path):
    """A file that stores the target member tables instead of their mean is
    not an ensemble file; the error names the missing array."""
    path = tmp_path / "old.npz"
    np.savez(path, tables=np.zeros((2, 4, 3)), target_tables=np.zeros((2, 4, 3)), eta=0.5,
             target_sync_period=3, updates_applied=7)
    with pytest.raises(ValueError, match=r"lacks the ensemble arrays \['target_mean'\]"):
        EnsembleQ.load(path)


@pytest.mark.parametrize(("key", "value"), [
    ("target_sync_period", 2.5), ("target_sync_period", True), ("target_sync_period", "3"),
    ("updates_applied", -3), ("updates_applied", 4.0),
])
def test_ensemble_load_rejects_a_count_that_is_not_a_non_negative_integer(tmp_path, key, value):
    """A period of 2.5 read as 2, or a negative update count, would move the
    next syncs off the saved run's updates."""
    path = tmp_path / "bad.npz"
    arrays = dict(tables=np.zeros((2, 4, 3)), target_mean=np.zeros((4, 3)), eta=0.5,
                  target_sync_period=2, updates_applied=0)
    arrays[key] = value
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=re.escape(f"{key} must be an integer >= 0, got {value!r}")):
        EnsembleQ.load(path)


@pytest.mark.parametrize("key", ["eta", "target_sync_period", "updates_applied"])
def test_ensemble_load_rejects_a_scalar_entry_that_is_not_a_scalar(tmp_path, key):
    path = tmp_path / "bad.npz"
    arrays = dict(tables=np.zeros((2, 4, 3)), target_mean=np.zeros((4, 3)), eta=0.5,
                  target_sync_period=1, updates_applied=0)
    arrays[key] = np.array([arrays[key]] * 2)
    np.savez(path, **arrays)
    with pytest.raises(ValueError, match=rf"{key} must be a scalar, got shape \(2,\)"):
        EnsembleQ.load(path)


def test_target_mean_is_the_mean_table_at_sync_period_one():
    ens = EnsembleQ(3, 2, ensemble_size=2, target_sync_period=1,
                    rng=np.random.default_rng(21))
    ens.update([0], [1], [4.0])
    assert ens.target_mean is ens.q_mean
    ens = EnsembleQ(3, 2, ensemble_size=2, target_sync_period=2,
                    rng=np.random.default_rng(21))
    ens.update([0], [1], [4.0])
    ens.update([1], [1], [4.0])
    assert ens.target_mean is not ens.q_mean
    assert np.array_equal(ens.target_mean, ens.q_mean)


@pytest.mark.parametrize("key, shape", [
    ("target_mean", (3,)), ("target_mean", ()), ("target_mean", (2, 4, 3)),
])
def test_ensemble_load_rejects_a_target_table_of_another_shape(tmp_path, key, shape):
    path = tmp_path / "bad.npz"
    np.savez(path, tables=np.zeros((2, 4, 3)), eta=0.5, target_sync_period=1,
             updates_applied=0, **{key: np.ones(shape)})
    with pytest.raises(ValueError) as excinfo:
        EnsembleQ.load(path)
    assert str(shape) in str(excinfo.value) and "(2, 4, 3)" in str(excinfo.value)


def test_from_tables_copies_and_validates():
    tables = np.zeros((2, 1, 2))
    ens = EnsembleQ.from_tables(tables, eta=0.5, target_sync_period=4)
    tables[:] = 1.0
    assert ens.max_mean_q(0) == 0.0 and ens.target_value(0, 1) == 0.0
    with pytest.raises(ValueError, match="shape"):
        EnsembleQ.from_tables(np.zeros((1, 2)))
    with pytest.raises(ValueError, match="shape"):
        EnsembleQ.from_tables(np.zeros((0, 1, 2)))
    with pytest.raises(ValueError, match="eta"):
        EnsembleQ.from_tables(np.zeros((1, 1, 2)), eta=0.0)
    with pytest.raises(ValueError, match="target_sync_period"):
        EnsembleQ.from_tables(np.zeros((1, 1, 2)), target_sync_period=0)


@pytest.mark.parametrize("layout", ["fortran", "transposed view", "fortran file"])
def test_updates_write_through_to_tables_of_any_layout(tmp_path, layout):
    """A one-pair update writes the members through a flat view of the
    tables, which only C order gives; on a copy, q_mean would move alone."""
    values = np.random.default_rng(23).uniform(size=(3, 2, 4))  # (K, A, S)
    tables = values.transpose(0, 2, 1)  # (K, S, A), neither C nor Fortran order
    if layout == "transposed view":
        ens = EnsembleQ.from_tables(tables, eta=1.0, target_sync_period=1)
    elif layout == "fortran":
        ens = EnsembleQ.from_tables(np.asfortranarray(tables), eta=1.0, target_sync_period=1)
    else:
        path = tmp_path / "fortran.npz"
        np.savez(path, tables=np.asfortranarray(tables), target_mean=tables.mean(axis=0),
                 eta=1.0, target_sync_period=1, updates_applied=0)
        ens = EnsembleQ.load(path)
    want = tables.copy()
    ens.update([1], [0], [5.0])
    want[:, 1, 0] = 5.0
    assert np.array_equal(ens.tables, want)
    ens.update([2, 3, 2], [1, 0, 1], [6.0, 7.0, 8.0])
    want[:, 2, 1], want[:, 3, 0] = 8.0, 7.0
    assert np.array_equal(ens.tables, want)
    assert np.array_equal(ens.q_mean, want.mean(axis=0))


@pytest.mark.parametrize("k", [3, 8])
def test_a_negative_id_updates_the_pair_it_wraps_to(k):
    """The flat member index of a one-pair update would send a negative id
    to another pair; it wraps as NumPy indexing does instead."""
    values = np.random.default_rng(24).uniform(size=(k, 4, 3))
    wrapped = EnsembleQ.from_tables(values, eta=0.5)
    plain = EnsembleQ.from_tables(values, eta=0.5)
    for (s, a), (s_plain, a_plain) in [((-1, 0), (3, 0)), ((1, -1), (1, 2)), ((-4, -3), (0, 0))]:
        assert wrapped.update([s], [a], [2.0]) == plain.update([s_plain], [a_plain], [2.0])
    assert np.array_equal(wrapped.tables, plain.tables)
    assert np.array_equal(wrapped.q_mean, plain.q_mean)


@pytest.mark.parametrize("k", [3, 8])
def test_a_batch_with_negative_ids_updates_the_pairs_they_wrap_to(k):
    """On S = 3, (-1, 0) is (2, 0) and (1, -1) is (1, 1): the batch holds two
    pairs twice each and applies them in batch order, as one-pair updates of
    the wrapped ids do, with TD errors from the means before the batch."""
    values = np.random.default_rng(25).uniform(size=(k, 3, 2))
    batched = EnsembleQ.from_tables(values, eta=0.5)
    serial = EnsembleQ.from_tables(values, eta=0.5)
    states, actions, targets = [-1, 2, 1, -2], [0, 0, -1, 1], [1.0, 2.0, -1.0, 3.0]
    wrapped = [(2, 0), (2, 0), (1, 1), (1, 1)]
    want_td = [t - serial.q_mean[s, a] for (s, a), t in zip(wrapped, targets)]
    assert batched.update(states, actions, targets) == want_td
    for (s, a), t in zip(wrapped, targets):
        serial.update([s], [a], [t])
    assert np.array_equal(batched.tables, serial.tables)
    assert np.array_equal(batched.q_mean, serial.q_mean)


@pytest.mark.parametrize("k", [3, 8])
@pytest.mark.parametrize(("states", "actions"), [
    ([0, 1], [0, 2]),  # a flat index would send (1, 2) to the pair (2, 0)
    ([3, 0], [0, 0]),
    ([0, -4], [1, 0]),
    ([0, 1], [0, -3]),
])
def test_a_batch_with_an_id_past_the_table_raises_and_writes_nothing(k, states, actions):
    values = np.random.default_rng(26).uniform(size=(k, 3, 2))
    ens = EnsembleQ.from_tables(values, eta=0.5, target_sync_period=1)
    with pytest.raises(IndexError):
        ens.update(states, actions, [1.0, 2.0])
    assert np.array_equal(ens.tables, values)
    assert ens.updates_applied == 0


def test_sixteen_members_read_one_column_mean_everywhere():
    # For K >= 8 NumPy's pairwise column mean differs from the in-order sum in
    # the last bit; every read must give the in-order mean exactly.
    ens = EnsembleQ(6, 5, ensemble_size=16, eta=0.3, target_sync_period=1,
                    rng=np.random.default_rng(18))
    rng = np.random.default_rng(19)
    for batch in ([(0, 1)], [(1, 2), (3, 4), (5, 0)], [(2, 2), (4, 1), (2, 2)]):
        states, actions = [s for s, _ in batch], [a for _, a in batch]
        targets = rng.uniform(-1.0, 1.0, len(batch)).tolist()
        before = [in_order_mean(ens.tables[:, s, a].tolist()) for s, a in batch]
        tds = ens.update(states, actions, targets)
        assert tds == [t - m for t, m in zip(targets, before)]
        means = np.array(member_means(ens))
        assert target_values(ens) == means.tolist()  # synced after every update
        for s in range(6):
            assert ens.greedy_action(s) == int(means[s].argmax())
            assert ens.max_mean_q(s) == means[s].max()
            for a in range(5):
                assert ens.q_mean[s, a] == means[s, a]
    # the property is not vacuous: a column's own pairwise mean differs somewhere
    assert not np.array_equal(ens.tables.transpose(1, 2, 0).copy().mean(axis=2), means)


def test_config_normalizes_metric_for_uniform_samplers():
    config = TrainConfig(sampler="uni_traj", metric="return")
    assert config.metric == "uniform"
    with pytest.raises(ValueError, match="non-uniform metric"):
        TrainConfig(sampler="prio_traj", metric="uniform")


@pytest.mark.parametrize("field, value, message", [
    ("eta", 0.0, r"eta must be in \(0, 1\], got 0.0"),
    ("eta", 1.5, r"eta must be in \(0, 1\], got 1.5"),
    ("ensemble_size", 0, "ensemble_size must be >= 1, got 0"),
    ("target_sync_period", 0, "target_sync_period must be >= 1, got 0"),
])
def test_config_rejects_what_the_ensemble_rejects(field, value, message):
    with pytest.raises(ValueError, match=message):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("alpha", np.nan, "alpha must be finite and >= 0, got nan"),
    ("alpha", np.inf, "alpha must be finite and >= 0, got inf"),
    ("epsilon", np.nan, "epsilon must be finite and positive, got nan"),
    ("epsilon", np.inf, "epsilon must be finite and positive, got inf"),
])
def test_config_rejects_a_priority_exponent_or_floor_that_is_not_finite(field, value, message):
    for sampler, metric in [("uni_state", "uniform"), ("prio_state", "uniform"),
                            ("uni_traj", "uniform"), ("prio_traj", "return")]:
        with pytest.raises(ValueError, match=message):
            TrainConfig(sampler=sampler, metric=metric, **{field: value})


def test_config_rejects_recursive_targets_with_transition_samplers():
    with pytest.raises(ValueError, match="backward trajectory order"):
        TrainConfig(sampler="uni_state", target=TargetKind("sarsa"))
    with pytest.raises(ValueError, match="backward trajectory order"):
        TrainConfig(sampler="prio_state", target=TargetKind("weighted", 0.5))
    TrainConfig(sampler="prio_traj", metric="return", target=TargetKind("weighted", 0.5))


def test_oracle_single_transition():
    ds = OfflineDataset(
        (Trajectory((Transition(0, 0, 2.5, 1, True),)),), state_count=2, action_count=1
    )
    values = value_iteration_oracle(ds, gamma=0.99)
    assert values[0] == pytest.approx(2.5)
    assert values[1] == 0.0


def test_oracle_six_step_sparse_chain():
    transitions = tuple(
        Transition(t, 0, 8.0 if t == 5 else 0.0, t + 1, t == 5) for t in range(6)
    )
    ds = OfflineDataset((Trajectory(transitions),), state_count=7, action_count=1)
    values = value_iteration_oracle(ds, gamma=0.99)
    assert values[0] == pytest.approx(8 * 0.99**5, abs=1e-9)


def test_oracle_is_bellman_fixed_point():
    rng = np.random.default_rng(13)
    for _ in range(10):
        ds = make_random_chain(int(rng.integers(1, 8)), 1, 9,
                               np.random.default_rng(int(rng.integers(1 << 30))))
        gamma = ds.discount
        values = value_iteration_oracle(ds, tol=1e-12)
        best = {}
        for s, r, s2, done in zip(ds.states.tolist(), ds.rewards.tolist(),
                                  ds.next_states.tolist(), ds.terminal.tolist()):
            backup = r + (0.0 if done else gamma * values[s2])
            best[s] = max(best.get(s, -np.inf), backup)
        for s, v in best.items():
            assert values[s] == pytest.approx(v, abs=1e-9)


def test_oracle_rejects_conflicting_transitions():
    t0 = Trajectory((Transition(0, 0, 1.0, 1, True),))
    t1 = Trajectory((Transition(0, 0, 2.0, 1, True),))
    ds = OfflineDataset((t0, t1), state_count=2, action_count=1)
    with pytest.raises(ValueError, match="non-deterministic"):
        value_iteration_oracle(ds)


def two_state_cycle(reward):
    """One timeout trajectory 0 -> 1 -> 0 under action 0, ``reward`` per step."""
    transitions = (Transition(0, 0, reward, 1, False), Transition(1, 0, reward, 0, False))
    return OfflineDataset(
        (Trajectory(transitions, timeout_truncated=True),), state_count=2, action_count=1
    )


def test_oracle_rejects_cycle_without_finite_value_at_gamma_one():
    ds = two_state_cycle(1.0)
    assert value_iteration_oracle(ds, gamma=0.99) == pytest.approx([100.0, 100.0])
    with pytest.raises(ValueError, match="gamma = 1"):
        value_iteration_oracle(ds, gamma=1.0)
    assert value_iteration_oracle(two_state_cycle(0.0), gamma=1.0).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("gamma", [1.5, 0.0, -0.5])
def test_oracle_rejects_a_discount_outside_the_unit_interval(gamma):
    ds = make_figure1("sparse")
    with pytest.raises(ValueError, match=r"gamma must be in \(0, 1\]"):
        value_iteration_oracle(ds, gamma)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
def test_oracle_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        value_iteration_oracle(make_figure1("sparse"), 1.0, tol=tol)


def test_oracle_figure1_values():
    sparse = value_iteration_oracle(make_figure1("sparse"))
    assert sparse[0] == pytest.approx(8 * 0.99**5, abs=1e-9)
    dense = value_iteration_oracle(make_figure1("dense"))
    # best path in the dense instance holds the same undiscounted return 8
    assert dense[0] == pytest.approx(2 * 0.99**2 + 2 * 0.99**4 + 4 * 0.99**5, abs=1e-9)


def test_train_same_seed_bit_identical():
    ds = make_figure1("sparse")
    config = TrainConfig(sampler="prio_traj", metric="return", total_steps=200,
                         ensemble_size=2, seed=7)
    a = train(ds, config)
    b = train(ds, config)
    assert np.array_equal(a.curve, b.curve)
    assert np.array_equal(a.ensemble.tables, b.ensemble.tables)


def test_train_single_transition_full_step():
    ds = OfflineDataset(
        (Trajectory((Transition(0, 0, 4.0, 1, True),)),), state_count=2, action_count=1
    )
    config = TrainConfig(sampler="uni_traj", eta=1.0, ensemble_size=1,
                         total_steps=3, seed=0)
    result = train(ds, config)
    assert result.curve[0] == pytest.approx(4.0)


def test_train_batch_size_larger_than_n_rejected():
    ds = make_figure1("sparse")
    with pytest.raises(ValueError, match=r"batch_size must be in \[1, 3\] so no trajectory is active twice, got 4"):
        train(ds, TrainConfig(sampler="uni_traj", batch_size=4))


def test_train_sarsa_never_bootstraps_outside_dataset_actions():
    ds = make_random_chain(4, 2, 6, np.random.default_rng(14), terminal_prob=1.0)
    seen_pairs = set(zip(ds.states.tolist(), ds.actions.tolist()))
    config = TrainConfig(sampler="uni_traj", target=TargetKind("sarsa"),
                         total_steps=300, ensemble_size=2, seed=1)
    result = train(ds, config)

    # re-run the target computation path with an instrumented value function
    from trajreplay.replay import TrajectoryReplay, UniformSelector
    from trajreplay.targets import compute_target

    class CompletionRecorder(UniformSelector):
        def __init__(self):
            self.completed = []

        def notify_complete(self, trajectory_ids):
            self.completed.extend(trajectory_ids)

    reads = []
    rng = np.random.default_rng(1)
    selector = CompletionRecorder()
    replay = TrajectoryReplay(ds, 1, selector, rng)
    later = None  # the one slot's previous target: its trajectory's target(t+1)
    sarsa = TargetKind("sarsa")

    def q_bar(s, a):
        reads.append((s, a))
        return 0.0

    for _ in range(300):
        (item,) = replay.next_batch()
        later = compute_target(item.index, ds, sarsa, later, q_bar, lambda s: 0, 0.99)
    assert [pair for pair in reads if pair not in seen_pairs] == []
    # 300 single-slot steps cover many whole passes, each signalled once
    assert len(selector.completed) >= 300 // max(t.length for t in ds.trajectories)
    assert reads == []  # terminal-ended data never consults the bootstrap at all


@pytest.mark.parametrize("sampler, metric", [("uni_traj", "uniform"), ("prio_traj", "return")])
@pytest.mark.parametrize("kind", [TargetKind("sarsa"), TargetKind("weighted", 0.5)])
def test_train_carries_each_slots_target_to_its_next_step(monkeypatch, sampler, metric, kind):
    import trajreplay.learner as learner

    # uneven lengths, so the B = 8 slots finish and refill at different steps
    ds = make_random_chain(20, 1, 9, np.random.default_rng(31), terminal_prob=0.5)
    real = learner.batch_targets
    calls = []

    def recorder(index, later, *args):
        values = real(index, later, *args)
        carried = [None] * len(index) if later is None else later.tolist()
        for i, is_head, carry, value in zip(index.tolist(), ds.head[index].tolist(), carried,
                                            values.tolist(), strict=True):
            calls.append((*ds.position(i), is_head, carry, value))
        return values

    monkeypatch.setattr(learner, "batch_targets", recorder)
    config = TrainConfig(sampler=sampler, metric=metric, target=kind, batch_size=8,
                         total_steps=80, ensemble_size=2, target_sync_period=1, seed=4)
    train(ds, config)
    assert len(calls) == 8 * 80
    latest = {}  # (j, t) -> its target in the pass that emitted it last
    heads = 0
    for j, t, head, later, value in calls:
        if head:
            heads += 1
        else:
            # the current pass emitted (j, t + 1) before (j, t)
            assert later is not None and later.hex() == latest[(j, t + 1)].hex(), (j, t)
        latest[(j, t)] = value
    assert heads > 2 * ds.n_trajectories  # several epochs of refills


@pytest.mark.parametrize("sampler, metric, kind", [
    ("uni_state", "uniform", TargetKind("standard")),
    ("prio_state", "uniform", TargetKind("standard")),
    *((sampler, metric, kind)
      for sampler, metric in (("uni_traj", "uniform"), ("prio_traj", "return"))
      for kind in (TargetKind("standard"), TargetKind("sarsa"),
                   TargetKind("weighted", 0.5), TargetKind("weighted", 0.0))),
])
def test_batched_train_reads_qbar_once_per_bootstrap(monkeypatch, sampler, metric, kind):
    """The support constraint, counted: standard and weighted with beta > 0
    bootstrap at every item but a terminal head; sarsa and weighted with
    beta = 0 only at timeout heads."""
    import trajreplay.learner as learner

    ds = make_random_chain(20, 1, 9, np.random.default_rng(31), terminal_prob=0.5)
    lengths = [t.length for t in ds.trajectories]
    ends_terminal = [t.transitions[-1].terminal for t in ds.trajectories]
    everywhere = kind.bootstrap_weight > 0.0
    expected, reads = [0], [0]

    def count(items):
        for it in items:
            head = it.time_index == lengths[it.trajectory_id] - 1
            terminal_head = head and ends_terminal[it.trajectory_id]
            expected[0] += not terminal_head if everywhere else head and not terminal_head
        return items

    for cls, name in ((learner.TrajectoryReplay, "next_batch"),
                      (learner.UniformTransitionSampler, "sample"),
                      (learner.PerTransitionSampler, "sample")):
        real = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda *a, real=real: count(real(*a)))
    target_value = EnsembleQ.target_value

    def counted(self, s, a):
        reads[0] += 1
        return target_value(self, s, a)

    monkeypatch.setattr(EnsembleQ, "target_value", counted)
    config = TrainConfig(sampler=sampler, metric=metric, target=kind, batch_size=4,
                         total_steps=60, ensemble_size=3, seed=5)
    train(ds, config)
    assert reads[0] == expected[0] > 0


@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize(("sampler", "metric"), [
    ("uni_state", "uniform"), ("prio_state", "uniform"),
    ("uni_traj", "uniform"), ("prio_traj", "lower_mean_unc"),
])
def test_train_draws_through_the_class_methods(monkeypatch, sampler, metric, batch_size):
    """Tracing wraps ``next_batch`` and ``sample`` on the class, so every
    step's draw must go through them, at B = 1 and above."""
    import trajreplay.learner as learner

    ds = make_random_chain(6, 1, 5, np.random.default_rng(32))
    calls = [0]
    for cls, name in ((learner.TrajectoryReplay, "next_batch"),
                      (learner.UniformTransitionSampler, "sample"),
                      (learner.PerTransitionSampler, "sample")):
        real = getattr(cls, name)

        def counted(*args, real=real):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(cls, name, counted)
    config = TrainConfig(sampler=sampler, metric=metric, batch_size=batch_size,
                         total_steps=25, ensemble_size=2, seed=6)
    train(ds, config)
    assert calls[0] == 25


def test_train_records_the_start_state(monkeypatch):
    ds = make_random_chain(3, 2, 4, np.random.default_rng(20))
    config = TrainConfig(sampler="uni_traj", total_steps=30, seed=3)
    default = train(ds, config)
    assert default.curve[-1] == default.ensemble.max_mean_q(ds.start_state)
    other = ds.trajectories[1].transitions[0].state
    monkeypatch.setattr(OfflineDataset, "start_state", property(lambda self: other))
    moved = train(ds, config)
    assert np.array_equal(moved.ensemble.tables, default.ensemble.tables)  # same run
    assert moved.curve[-1] == moved.ensemble.max_mean_q(other)
    assert moved.curve[-1] != default.curve[-1]


def test_train_uncertainty_metric_runs_and_refreshes():
    ds = make_random_chain(5, 2, 5, np.random.default_rng(15), terminal_prob=1.0)
    config = TrainConfig(sampler="prio_traj", metric="lower_uqm_unc",
                         total_steps=120, ensemble_size=3, batch_size=2, seed=2)
    result = train(ds, config)
    assert result.curve.shape == (120,)
    assert np.isfinite(result.curve).all()


def test_steps_to_threshold():
    curve = np.array([0.0, 5.0, 7.4, 7.6, 7.2])
    assert steps_to_threshold(curve, 7.6, 0.05) == 3
    assert steps_to_threshold(curve, 7.6, 0.001) == 4
    assert steps_to_threshold(np.zeros(4), 7.6, 0.05) is None


def test_train_wall_clock_reported():
    ds = make_figure1("sparse")
    result = train(ds, TrainConfig(sampler="uni_traj", total_steps=50, seed=0))
    assert result.wall_ms_per_1000 > 0
