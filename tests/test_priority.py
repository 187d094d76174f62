from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

from trajreplay import priority
from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.priority import (
    QUALITY_KINDS,
    UNCERTAINTY_FLOOR,
    PrioritizedSelector,
    PriorityTable,
    build_priority_table,
    rank_distribution,
    rank_order,
)
from trajreplay.replay import UniformSelector
from trajreplay.scenarios import make_random_chain


def reward_trajectory(rewards):
    transitions = tuple(
        Transition(t, 0, float(r), t + 1, t == len(rewards) - 1)
        for t, r in enumerate(rewards)
    )
    return Trajectory(transitions)


class PairValues:
    """Uncertainty source with fixed per-pair values, standing in for EnsembleQ."""

    def __init__(self, values):
        self.table = {(t, 0): v for t, v in enumerate(values)}

    def uncertainty_values(self, states, actions):
        return np.array([self.table[(int(s), int(a))] for s, a in zip(states, actions)])


def one_trajectory_dataset(traj):
    return OfflineDataset((traj,), state_count=traj.length + 1, action_count=1)


def quality_value(traj, kind):
    """The trajectory's quality priority as build_priority_table computes it."""
    return build_priority_table(one_trajectory_dataset(traj), kind).values[0]


def uncertainty_priority(traj, kind, source):
    """The trajectory's priority as build_priority_table computes it from ``source``."""
    table = build_priority_table(one_trajectory_dataset(traj), kind, ensemble=source)
    return table.values[0]


def within_3_sigma(count, n, p):
    return abs(count - n * p) <= 3 * np.sqrt(n * p * (1 - p))


def fresh_draws(table, candidates, rng, draws):
    """Ids drawn one at a time, each by a new selector over the whole pool."""
    ds = make_random_chain(len(table.values), 1, 2, np.random.default_rng(0))
    return Counter(PrioritizedSelector(table, ds).select(candidates, rng) for _ in range(draws))


def test_quality_metrics_worked_example():
    traj = reward_trajectory([1.0, 2.0, 3.0, 4.0])
    assert quality_value(traj, "return") == pytest.approx(10.0)
    assert quality_value(traj, "avg_reward") == pytest.approx(2.5)
    assert quality_value(traj, "uqm_reward") == pytest.approx(4.0)
    assert quality_value(traj, "uhm_reward") == pytest.approx(3.5)
    assert quality_value(traj, "min_reward") == pytest.approx(1.0)
    assert quality_value(traj, "max_reward") == pytest.approx(4.0)


def test_quality_metrics_constant_rewards():
    traj = reward_trajectory([2.0, 2.0, 2.0])
    assert quality_value(traj, "return") == pytest.approx(6.0)
    for kind in ("avg_reward", "uqm_reward", "uhm_reward", "min_reward", "max_reward"):
        assert quality_value(traj, kind) == pytest.approx(2.0)


def test_quality_metrics_length_one():
    traj = reward_trajectory([3.5])
    assert quality_value(traj, "return") == pytest.approx(3.5)
    for kind in QUALITY_KINDS:
        assert quality_value(traj, kind) == pytest.approx(3.5)


def test_uncertainty_metrics_worked_example():
    traj = reward_trajectory([0.0] * 4)
    u = PairValues([0.1, 0.2, 0.3, 0.4])
    assert uncertainty_priority(traj, "lower_mean_unc", u) == pytest.approx(4.0)
    assert uncertainty_priority(traj, "lower_lqm_unc", u) == pytest.approx(10.0)
    assert uncertainty_priority(traj, "lower_uqm_unc", u) == pytest.approx(2.5)
    assert uncertainty_priority(traj, "higher_mean_unc", u) == pytest.approx(0.25)
    assert uncertainty_priority(traj, "higher_lqm_unc", u) == pytest.approx(0.1)
    assert uncertainty_priority(traj, "higher_uqm_unc", u) == pytest.approx(0.4)


def test_uncertainty_metrics_constant():
    traj = reward_trajectory([0.0] * 3)
    u = PairValues([0.5, 0.5, 0.5])
    for kind in ("lower_mean_unc", "lower_lqm_unc", "lower_uqm_unc"):
        assert uncertainty_priority(traj, kind, u) == pytest.approx(2.0)


def test_uncertainty_zero_clamped_to_floor():
    traj = reward_trajectory([0.0] * 3)
    u = PairValues([0.0, 0.0, 0.0])
    assert uncertainty_priority(traj, "lower_mean_unc", u) == pytest.approx(1.0 / UNCERTAINTY_FLOOR)


def test_lower_times_higher_is_one_when_unclamped():
    rng = np.random.default_rng(0)
    traj = reward_trajectory([0.0] * 7)
    for _ in range(20):
        u = PairValues(list(rng.uniform(0.05, 2.0, 7)))
        for suffix in ("mean_unc", "lqm_unc", "uqm_unc"):
            lower = uncertainty_priority(traj, f"lower_{suffix}", u)
            higher = uncertainty_priority(traj, f"higher_{suffix}", u)
            assert lower * higher == pytest.approx(1.0, rel=1e-12)


def test_quality_order_chain_min_avg_uhm_uqm_max():
    rng = np.random.default_rng(1)
    for _ in range(200):
        traj = reward_trajectory(list(rng.uniform(-5, 5, int(rng.integers(1, 20)))))
        values = {k: quality_value(traj, k) for k in QUALITY_KINDS}
        assert (
            values["min_reward"]
            <= values["avg_reward"]
            <= values["uhm_reward"]
            <= values["uqm_reward"]
            <= values["max_reward"]
        )


def test_rank_distribution_worked_example():
    table = PriorityTable(np.array([3.0, 1.0, 2.0]), alpha=1.0, kind="return")
    assert rank_order(table, [0, 1, 2]) == [0, 2, 1]
    dist = rank_distribution(table, [0, 1, 2])
    assert dist[0] == pytest.approx(6 / 11)
    assert dist[1] == pytest.approx(2 / 11)
    assert dist[2] == pytest.approx(3 / 11)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5])
def test_priority_table_rejects_an_alpha_that_is_not_finite_and_non_negative(alpha):
    with pytest.raises(ValueError, match="alpha must be finite and >= 0"):
        PriorityTable(np.array([1.0]), alpha=alpha, kind="return")


def test_rank_distribution_alpha_zero_is_uniform():
    table = PriorityTable(np.array([9.0, 1.0, 4.0]), alpha=0.0, kind="return")
    dist = rank_distribution(table, [0, 1, 2])
    for p in dist.values():
        assert p == pytest.approx(1 / 3)


def test_rank_distribution_single_candidate():
    table = PriorityTable(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]), alpha=1.0, kind="return")
    assert rank_distribution(table, [5]) == {5: 1.0}


def test_rank_distribution_empty_candidates_rejected():
    table = PriorityTable(np.array([1.0]), alpha=1.0, kind="return")
    with pytest.raises(ValueError, match="empty"):
        rank_distribution(table, [])


def test_rank_distribution_ties_break_by_ascending_id():
    table = PriorityTable(np.array([4.0, 8.0, 4.0]), alpha=1.0, kind="return")
    assert rank_order(table, [0, 1, 2]) == [1, 0, 2]


def test_rank_invariance_under_monotone_rescaling():
    rng = np.random.default_rng(2)
    for _ in range(50):
        values = rng.uniform(0.1, 10, 6)
        table = PriorityTable(values.copy(), alpha=float(rng.uniform(0, 3)), kind="return")
        scale = float(rng.uniform(0.01, 100))
        scaled = PriorityTable(values * scale, alpha=table.alpha, kind="return")
        candidates = [0, 1, 2, 3, 4, 5]
        base = rank_distribution(table, candidates)
        assert rank_distribution(scaled, candidates) == pytest.approx(base)


def test_rank_distribution_sums_to_one_for_alpha_grid():
    rng = np.random.default_rng(3)
    for alpha in (0.0, 0.3, 1.0, 2.7):
        values = rng.uniform(0, 5, 9)
        dist = rank_distribution(PriorityTable(values, alpha=alpha, kind="return"), range(9))
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(p >= 0 for p in dist.values())


def test_selector_frequencies_match_distribution():
    table = PriorityTable(np.array([2.0, 1.0]), alpha=1.0, kind="return")
    rng = np.random.default_rng(4)
    draws = 100_000
    counts = fresh_draws(table, [0, 1], rng, draws)
    assert within_3_sigma(counts[0], draws, 2 / 3)
    assert within_3_sigma(counts[1], draws, 1 / 3)


def test_uniform_kind_draws_through_uniform_selector():
    ds = make_random_chain(3, 1, 4, np.random.default_rng(5))
    table = build_priority_table(ds, "uniform")
    assert table.values.tolist() == [1.0, 1.0, 1.0]
    assert rank_distribution(table, [0, 1, 2]) == {0: 1 / 3, 1: 1 / 3, 2: 1 / 3}
    rng = np.random.default_rng(5)
    draws = 60_000
    counts = Counter(UniformSelector().select([0, 1, 2], rng) for _ in range(draws))
    for j in range(3):
        assert within_3_sigma(counts[j], draws, 1 / 3), j


def test_prioritized_selector_rejects_uniform_table():
    ds = make_random_chain(3, 1, 4, np.random.default_rng(5))
    with pytest.raises(ValueError, match="UniformSelector"):
        PrioritizedSelector(build_priority_table(ds, "uniform"), ds)


def test_shrinking_candidates_renormalize():
    rng = np.random.default_rng(6)
    table = PriorityTable(rng.uniform(0, 5, 6), alpha=1.0, kind="return")
    selector = PrioritizedSelector(table, make_random_chain(6, 1, 2, rng))
    candidates = list(range(6))
    while candidates:
        dist = rank_distribution(table, candidates)
        assert set(dist) == set(candidates)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)
        candidates.remove(selector.select(candidates, rng))


def test_refresh_is_noop_when_u_unchanged():
    traj = reward_trajectory([0.0] * 4)
    u = PairValues([0.1, 0.2, 0.3, 0.4])
    ds = one_trajectory_dataset(traj)
    table = build_priority_table(ds, "lower_mean_unc", ensemble=u)
    before = table.values[0]
    PrioritizedSelector(table, ds, u).notify_complete([0])
    assert table.values[0] == before


def test_refresh_halved_uncertainty_doubles_lower_mean():
    traj = reward_trajectory([0.0] * 4)
    ds = one_trajectory_dataset(traj)
    table = build_priority_table(ds, "lower_mean_unc", ensemble=PairValues([0.1, 0.2, 0.3, 0.4]))
    before = table.values[0]
    PrioritizedSelector(table, ds, PairValues([0.05, 0.1, 0.15, 0.2])).notify_complete([0])
    assert table.values[0] == pytest.approx(2 * before)


def test_refresh_noop_for_quality_tables():
    traj = reward_trajectory([1.0, 5.0])
    table = PriorityTable(np.array([6.0]), alpha=1.0, kind="return")
    PrioritizedSelector(table, one_trajectory_dataset(traj), PairValues([9.9, 9.9])).notify_complete([0])
    assert table.values[0] == 6.0


def test_refresh_unknown_id_rejected():
    traj = reward_trajectory([1.0])
    table = PriorityTable(np.array([1.0]), alpha=1.0, kind="lower_mean_unc")
    selector = PrioritizedSelector(table, one_trajectory_dataset(traj), PairValues([0.5]))
    with pytest.raises(ValueError, match="unknown trajectory id 3"):
        selector.notify_complete([3])


@pytest.mark.parametrize("position", [0, 1, 2])
def test_refresh_unknown_id_anywhere_leaves_table_unchanged(position):
    ds = make_random_chain(3, 2, 4, np.random.default_rng(4), action_count=1)
    table = PriorityTable(np.array([1.0, 2.0, 3.0]), alpha=1.0, kind="lower_mean_unc")
    selector = PrioritizedSelector(table, ds, PairValues([0.5] * ds.state_count))
    ids = [0, 1, 2]
    ids.insert(position, 7)
    with pytest.raises(ValueError, match="unknown trajectory id 7"):
        selector.notify_complete(ids)
    assert table.values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("bad", [-1, 3])
def test_scoring_an_unknown_id_names_it_before_any_gather(bad):
    """A direct call names the first id outside [0, n) and reads no value."""

    class NoValues:
        def uncertainty_values(self, states, actions):
            raise AssertionError("gathered before the id check")

    ds = make_random_chain(3, 2, 4, np.random.default_rng(4), action_count=1)
    with pytest.raises(ValueError, match=f"^unknown trajectory id {bad}$"):
        priority.uncertainty_priorities(ds, "lower_mean_unc", NoValues(), [0, bad, 1, 5])


def test_scoring_no_trajectories_gives_an_empty_array():
    ds = one_trajectory_dataset(reward_trajectory([0.0] * 3))
    u = PairValues([0.1, 0.2, 0.3])
    for kind in priority.UNCERTAINTY_KINDS:
        assert priority.uncertainty_priorities(ds, kind, u, []).shape == (0,)


def test_an_empty_completion_list_leaves_the_table_as_it_is():
    ds = one_trajectory_dataset(reward_trajectory([0.0] * 3))
    table = PriorityTable(np.array([2.0]), alpha=1.0, kind="lower_mean_unc")
    selector = PrioritizedSelector(table, ds, PairValues([0.1, 0.2, 0.3]))
    selector.notify_complete([])
    assert table.values.tolist() == [2.0]
    assert selector.select([0], np.random.default_rng(0)) == 0


def test_uncertainty_kind_requires_ensemble():
    traj = reward_trajectory([1.0])
    with pytest.raises(ValueError, match="requires an ensemble"):
        build_priority_table(one_trajectory_dataset(traj), "lower_mean_unc")


def test_negative_uncertainty_values_rejected():
    traj = reward_trajectory([0.0] * 3)
    with pytest.raises(ValueError, match="non-negative"):
        uncertainty_priority(traj, "lower_mean_unc", PairValues([0.1, -0.2, 0.3]))
    table = PriorityTable(np.array([1.0]), alpha=1.0, kind="higher_uqm_unc")
    selector = PrioritizedSelector(table, one_trajectory_dataset(traj), PairValues([0.1, -0.2, 0.3]))
    with pytest.raises(ValueError, match="non-negative"):
        selector.notify_complete([0])
    assert table.values.tolist() == [1.0]


@pytest.mark.parametrize("block", [7, 1 << 14])
def test_table_build_matches_per_trajectory_refresh(block, monkeypatch):
    """The blocked table build and refreshes of one trajectory, of every
    trajectory at once and of random sub-batches agree bit for bit."""
    monkeypatch.setattr(priority, "UNCERTAINTY_BLOCK", block)
    ds = make_random_chain(30, 1, 40, np.random.default_rng(12), action_count=3)
    tables = np.random.default_rng(13).uniform(0.0, 1.0, size=(5, ds.state_count, 3))
    rng = np.random.default_rng(14)

    class Members:
        def uncertainty_values(self, states, actions):
            return tables[:, states, actions].std(axis=0)

    def refreshed(kind, batches):
        table = PriorityTable(np.zeros(ds.n_trajectories), alpha=1.0, kind=kind)
        selector = PrioritizedSelector(table, ds, Members())
        for ids in batches:
            selector.notify_complete(ids)
        return table.values

    for kind in ("lower_mean_unc", "lower_lqm_unc", "higher_uqm_unc"):
        bulk = build_priority_table(ds, kind, ensemble=Members()).values
        ids = rng.permutation(ds.n_trajectories).tolist()
        cuts = sorted(rng.choice(np.arange(1, len(ids)), size=5, replace=False).tolist())
        sub_batches = [ids[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(ids)])]
        assert refreshed(kind, [ids]).tobytes() == bulk.tobytes()
        assert refreshed(kind, sub_batches).tobytes() == bulk.tobytes()
        assert refreshed(kind, [[j] for j in range(ds.n_trajectories)]).tobytes() == bulk.tobytes()
        for j, traj in enumerate(ds.trajectories):
            states = np.array([tr.state for tr in traj.transitions])
            actions = np.array([tr.action for tr in traj.transitions])
            values = tables[:, states, actions].std(axis=0)
            if kind.endswith("_mean_unc"):
                assert bulk[j] == 1.0 / max(float(values.mean()), UNCERTAINTY_FLOOR)


def test_build_priority_table_covers_every_trajectory():
    ds = make_random_chain(8, 1, 6, np.random.default_rng(7))
    table = build_priority_table(ds, "uqm_reward", alpha=1.3)
    assert table.values.shape == (8,)
    assert all(math.isfinite(v) for v in table.values)


def test_selector_agrees_with_reference_distribution():
    ds = make_random_chain(4, 1, 5, np.random.default_rng(8))
    table = build_priority_table(ds, "return")
    dist = rank_distribution(table, [0, 1, 2, 3])
    rng = np.random.default_rng(9)
    draws = 100_000
    counts = Counter()
    for _ in range(draws):
        selector = PrioritizedSelector(table, ds)
        counts[selector.select([0, 1, 2, 3], rng)] += 1
    for j, p in dist.items():
        assert within_3_sigma(counts[j], draws, p), j


def test_selector_pop_keeps_order_consistent_as_pool_shrinks():
    ds = make_random_chain(6, 1, 5, np.random.default_rng(10))
    table = build_priority_table(ds, "avg_reward")
    selector = PrioritizedSelector(table, ds)
    rng = np.random.default_rng(11)
    candidates = list(range(6))
    picked = []
    while candidates:
        j = selector.select(candidates, rng)
        assert j in candidates
        candidates.remove(j)
        picked.append(j)
    assert sorted(picked) == list(range(6))
