"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The motivating-instance sweep (criteria 1-2) runs once as a shared
fixture and is timed against its runtime budget.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

import numpy as np
import pytest

from trajreplay.cli import main as cli_main
from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.learner import (
    TrainConfig,
    steps_to_threshold,
    train,
    value_iteration_oracle,
)
from trajreplay.priority import (
    ALL_KINDS,
    QUALITY_KINDS,
    UNCERTAINTY_KINDS,
    UNIFORM_KIND,
    PrioritizedSelector,
    PriorityTable,
    build_priority_table,
    rank_distribution,
)
from trajreplay.replay import (
    PerTransitionSampler,
    SumTree,
    TrajectoryReplay,
    UniformSelector,
)
from trajreplay.scenarios import make_figure1, make_random_chain
from trajreplay.targets import TargetKind, compute_target

STANDARD = TargetKind("standard")
SARSA = TargetKind("sarsa")
WEIGHTED_ONE = TargetKind("weighted", 1.0)
WEIGHTED_ZERO = TargetKind("weighted", 0.0)

SWEEP_SEEDS = 50
SWEEP_STEPS = 1_500  # well under the 20,000-update budget
SWEEP_RUNTIME_BUDGET_S = 60.0


def within_3_sigma(count: int, n: int, p: float) -> bool:
    return abs(count - n * p) <= 3 * math.sqrt(n * p * (1 - p))


def backward_items(dataset, j):
    """Trajectory j's items in backward order, indexing the dataset's columns."""
    from trajreplay.replay import BatchItem

    lo, hi = dataset.offsets[j], dataset.offsets[j + 1]
    return [BatchItem(j, i - lo, i, i == hi - 1) for i in range(hi - 1, lo - 1, -1)]


@pytest.fixture(scope="module")
def fig1_sweep():
    """4 schemes x 50 seeds on the sparse motivating instance, timed."""
    dataset = make_figure1("sparse")
    oracle_s0 = float(value_iteration_oracle(dataset)[0])
    base = dict(
        gamma=0.99,
        eta=1.0,
        ensemble_size=1,
        batch_size=1,
        total_steps=SWEEP_STEPS,
        target_sync_period=1,
    )
    schemes = {
        "uni_state": TrainConfig(sampler="uni_state", **base),
        "prio_state": TrainConfig(sampler="prio_state", **base),
        "uni_traj": TrainConfig(sampler="uni_traj", **base),
        "prio_traj": TrainConfig(sampler="prio_traj", metric="return", **base),
    }
    started = time.perf_counter()
    curves = {
        name: [train(dataset, config.with_seed(seed)).curve for seed in range(SWEEP_SEEDS)]
        for name, config in schemes.items()
    }
    elapsed = time.perf_counter() - started
    return {"oracle_s0": oracle_s0, "curves": curves, "elapsed_s": elapsed}


def test_criterion_1_fig1_oracle_convergence(fig1_sweep):
    oracle = fig1_sweep["oracle_s0"]
    assert oracle == pytest.approx(8 * 0.99**5, abs=1e-9)
    assert oracle == pytest.approx(7.608, abs=5e-4)
    assert SWEEP_STEPS <= 20_000
    for scheme in ("uni_traj", "prio_traj"):
        for seed, curve in enumerate(fig1_sweep["curves"][scheme]):
            final = curve[-1]
            assert abs(final - oracle) <= 0.02 * oracle, (scheme, seed, final)
    assert fig1_sweep["elapsed_s"] < SWEEP_RUNTIME_BUDGET_S
    print(
        f"\n[acceptance] criterion 1 (fig1 oracle convergence): PASS — "
        f"oracle={oracle:.4f}, all 2x50 trajectory-scheme runs within 2%, "
        f"4x50 sweep took {fig1_sweep['elapsed_s']:.1f}s < {SWEEP_RUNTIME_BUDGET_S:.0f}s"
    )


def test_criterion_2_fig1_scheme_ordering(fig1_sweep):
    oracle = fig1_sweep["oracle_s0"]
    medians = {}
    for scheme, curves in fig1_sweep["curves"].items():
        steps = [
            steps_to_threshold(curve, oracle, 0.05) or np.inf for curve in curves
        ]
        medians[scheme] = float(np.median(steps))
    assert medians["prio_traj"] <= medians["uni_traj"], medians
    assert medians["uni_traj"] < medians["uni_state"], medians
    print(
        f"\n[acceptance] criterion 2 (fig1 ordering): PASS — median steps-to-5%: "
        f"prio_traj={medians['prio_traj']:.0f} <= uni_traj={medians['uni_traj']:.0f} "
        f"< uni_state={medians['uni_state']:.0f} (prio_state={medians['prio_state']:.0f})"
    )


class CompletionRecorder(UniformSelector):
    """Uniform selector that notes every completed backward pass."""

    def __init__(self):
        self.completed: list[int] = []

    def notify_complete(self, trajectory_ids):
        self.completed.extend(trajectory_ids)


def collect_first_passes(dataset, batch_size, rng):
    selector = CompletionRecorder()
    replay = TrajectoryReplay(dataset, batch_size, selector, rng)
    per_traj = defaultdict(list)
    done: set[int] = set()
    guard = 0
    while len(done) < dataset.n_trajectories:
        for item in replay.next_batch():
            if item.trajectory_id not in done:
                per_traj[item.trajectory_id].append(item.time_index)
        completed, selector.completed = selector.completed, []
        for tid in completed:
            if len(per_traj[tid]) == dataset.trajectories[tid].length:
                done.add(tid)
        guard += 1
        assert guard < 100_000, "first passes failed to complete"
    return per_traj


def test_criterion_3_exactly_once_per_epoch():
    rng = np.random.default_rng(2024)
    violations = 0
    for case in range(100):
        n = int(rng.integers(1, 21))
        dataset = make_random_chain(
            n, 1, 15, np.random.default_rng(int(rng.integers(1 << 31))),
            terminal_prob=0.7,
        )
        batch_size = int(rng.integers(1, n + 1))
        passes = collect_first_passes(dataset, batch_size, rng)
        emitted = Counter((tid, t) for tid, idx in passes.items() for t in idx)
        expected = Counter(dataset.position(i) for i in range(dataset.total_transitions))
        if emitted != expected:
            violations += 1
            continue
        for tid, indices in passes.items():
            length = dataset.trajectories[tid].length
            if indices != list(range(length - 1, -1, -1)):
                violations += 1
                break
    assert violations == 0
    print(
        "\n[acceptance] criterion 3 (exactly-once-per-epoch): PASS — "
        "100 random datasets, multiset equality and strict backward order, 0 violations"
    )


def test_criterion_4_weighted_target_endpoints():
    rng = np.random.default_rng(7)
    transitions_checked = 0
    for case in range(50):
        dataset = make_random_chain(
            int(rng.integers(1, 8)), 1, 10,
            np.random.default_rng(int(rng.integers(1 << 31))),
            action_count=3, terminal_prob=0.6,
        )
        q_table = rng.uniform(-2, 2, (dataset.state_count, dataset.action_count))
        greedy = rng.integers(0, dataset.action_count, dataset.state_count)
        q_bar = lambda s, a, q=q_table: float(q[s, a])
        policy = lambda s, g=greedy: int(g[s])
        gamma = float(rng.uniform(0.5, 1.0))
        def target(item, kind, later):
            return compute_target(item.index, dataset, kind, later, q_bar, policy, gamma)

        for j in range(dataset.n_trajectories):
            # each kind's target for t+1, carried down the backward pass
            later = {kind: None for kind in (WEIGHTED_ONE, WEIGHTED_ZERO, SARSA)}
            for item in backward_items(dataset, j):
                w1 = later[WEIGHTED_ONE] = target(item, WEIGHTED_ONE, later[WEIGHTED_ONE])
                assert w1 == target(item, STANDARD, None)
                w0 = later[WEIGHTED_ZERO] = target(item, WEIGHTED_ZERO, later[WEIGHTED_ZERO])
                later[SARSA] = target(item, SARSA, later[SARSA])
                assert w0 == later[SARSA]
                transitions_checked += 1
    print(
        f"\n[acceptance] criterion 4 (weighted-target endpoints): PASS — "
        f"beta=1 == standard and beta=0 == recursive, exact on {transitions_checked} transitions"
    )


def test_criterion_5_sarsa_support_constraint():
    rng = np.random.default_rng(11)
    total_reads = 0
    transitions_checked = 0
    for case in range(30):
        dataset = make_random_chain(
            int(rng.integers(1, 8)), 1, 12,
            np.random.default_rng(int(rng.integers(1 << 31))),
            terminal_prob=1.0,
        )
        reads = []

        def q_bar(s, a):
            reads.append((s, a))
            return 1e9  # would wreck the targets if ever consulted

        gamma = dataset.discount
        for j, traj in enumerate(dataset.trajectories):
            got = {}
            later = None
            for item in backward_items(dataset, j):
                later = got[item.time_index] = compute_target(
                    item.index, dataset, SARSA, later, q_bar, lambda s: 0, gamma
                )
            acc = 0.0
            for t in range(traj.length - 1, -1, -1):
                acc = traj.transitions[t].reward + gamma * acc
                assert abs(got[t] - acc) <= 1e-9, (case, j, t)
                transitions_checked += 1
        total_reads += len(reads)
    assert total_reads == 0
    print(
        f"\n[acceptance] criterion 5 (sarsa support constraint): PASS — "
        f"0 value-function reads on terminal-ended data; {transitions_checked} targets "
        f"equal returns-to-go within 1e-9"
    )


class PairValues:
    """Uncertainty source with fixed per-pair values, standing in for EnsembleQ."""

    def __init__(self, table):
        self.table = table

    def uncertainty_values(self, states, actions):
        return np.array([self.table[(int(s), int(a))] for s, a in zip(states, actions)])


def _uncertainty_map(dataset, rng):
    return PairValues({
        (s, a): float(rng.uniform(0.01, 2.0))
        for s, a in zip(dataset.states.tolist(), dataset.actions.tolist())
    })


def test_criterion_6_rank_reciprocal_distribution():
    rng = np.random.default_rng(5)
    draws = 100_000
    for kind in ALL_KINDS:
        dataset = make_random_chain(
            5, 2, 9, np.random.default_rng(int(rng.integers(1 << 31))), terminal_prob=0.8
        )
        u = _uncertainty_map(dataset, rng) if kind in UNCERTAINTY_KINDS else None
        table = build_priority_table(dataset, kind, alpha=1.0, ensemble=u)
        candidates = list(range(5))
        dist = rank_distribution(table, candidates)
        assert abs(sum(dist.values()) - 1.0) <= 1e-12
        if kind == UNIFORM_KIND:
            draw = UniformSelector().select
        else:
            # A fresh selector per draw, so every draw sees the whole pool.
            draw = lambda c, g: PrioritizedSelector(table, dataset).select(c, g)
        counts = Counter(draw(candidates, rng) for _ in range(draws))
        for j, p in dist.items():
            assert within_3_sigma(counts[j], draws, p), (kind, j, counts[j], p)
        scaled = PriorityTable(table.values * 7.3, alpha=table.alpha, kind=table.kind)
        assert rank_distribution(scaled, candidates) == dist
    print(
        f"\n[acceptance] criterion 6 (rank-reciprocal distribution): PASS — "
        f"{len(ALL_KINDS)} metric kinds x {draws} draws within 3 sigma; "
        f"sums within 1e-12; x7.3 rescaling leaves every distribution unchanged"
    )


def brute_quality(rewards, kind):
    descending = sorted(rewards, reverse=True)
    if kind == "return":
        return sum(rewards)
    if kind == "avg_reward":
        return sum(rewards) / len(rewards)
    if kind == "uqm_reward":
        k = max(1, math.ceil(0.25 * len(rewards)))
        return sum(descending[:k]) / k
    if kind == "uhm_reward":
        k = max(1, math.ceil(0.5 * len(rewards)))
        return sum(descending[:k]) / k
    if kind == "min_reward":
        return min(rewards)
    if kind == "max_reward":
        return max(rewards)
    raise AssertionError(kind)


def brute_uncertainty(uvals, kind):
    ascending = sorted(uvals)
    k = max(1, math.ceil(0.25 * len(uvals)))
    if kind.endswith("_mean_unc"):
        m = sum(uvals) / len(uvals)
    elif kind.endswith("_lqm_unc"):
        m = sum(ascending[:k]) / k
    else:
        m = sum(ascending[-k:]) / k
    return 1.0 / max(m, 1e-6) if kind.startswith("lower_") else m


def test_criterion_7_metric_correctness():
    rng = np.random.default_rng(99)
    checked = 0
    for case in range(1000):
        length = int(rng.integers(1, 26))
        rewards = rng.uniform(-5.0, 5.0, length)
        transitions = tuple(
            Transition(t, 0, float(rewards[t]), t + 1, t == length - 1)
            for t in range(length)
        )
        traj = Trajectory(transitions)
        dataset = OfflineDataset((traj,), state_count=length + 1, action_count=1)
        values = {}
        for kind in QUALITY_KINDS:
            values[kind] = build_priority_table(dataset, kind).values[0]
            assert values[kind] == pytest.approx(
                brute_quality(list(rewards), kind), rel=1e-12, abs=1e-12
            ), (case, kind)
        assert (
            values["min_reward"]
            <= values["avg_reward"]
            <= values["uhm_reward"]
            <= values["uqm_reward"]
            <= values["max_reward"]
        ), case
        uvals = [float(v) for v in rng.uniform(0.01, 3.0, length)]
        u = PairValues({(t, 0): uvals[t] for t in range(length)})
        got = {
            kind: build_priority_table(dataset, kind, ensemble=u).values[0]
            for kind in UNCERTAINTY_KINDS
        }
        for kind in UNCERTAINTY_KINDS:
            assert got[kind] == pytest.approx(
                brute_uncertainty(uvals, kind), rel=1e-12, abs=1e-12
            ), (case, kind)
        for suffix in ("mean_unc", "lqm_unc", "uqm_unc"):
            lower = got[f"lower_{suffix}"]
            higher = got[f"higher_{suffix}"]
            assert lower * higher == pytest.approx(1.0, rel=1e-9)
        checked += 1
    print(
        f"\n[acceptance] criterion 7 (metric correctness): PASS — "
        f"{checked} random trajectories: order chain holds, all 12 metrics match "
        f"brute force to 1e-12, reciprocal identity holds"
    )


def test_criterion_8_per_consistency():
    rng = np.random.default_rng(17)
    draws = 100_000

    # sum-tree vs a naive categorical sampler over the same probabilities
    n = 24
    priorities = rng.uniform(0.0, 4.0, n)
    priorities[3] = 0.0
    tree = SumTree(n)
    for leaf, p in enumerate(priorities):
        tree.update_many((leaf,), (float(p),))
    probs = priorities / priorities.sum()
    tree_counts = Counter(tree.find_prefixes((u,))[0] for u in rng.random(draws) * tree.total)
    naive_counts = Counter(int(j) for j in rng.choice(n, size=draws, p=probs))
    for leaf in range(n):
        p = float(probs[leaf])
        assert within_3_sigma(tree_counts[leaf], draws, p), ("tree", leaf)
        assert within_3_sigma(naive_counts[leaf], draws, p), ("naive", leaf)
        assert abs(tree_counts[leaf] - naive_counts[leaf]) <= (
            3 * math.sqrt(2 * draws * p * (1 - p)) + 1e-9
        ), leaf

    # equal priorities reproduce uniform sampling
    dataset = make_random_chain(2, 2, 2, np.random.default_rng(1), terminal_prob=1.0)
    sampler = PerTransitionSampler(dataset, alpha=1.0, epsilon=0.01)
    counts = Counter(item.index for item in sampler.sample(draws, rng))
    for leaf in range(4):
        assert within_3_sigma(counts[leaf], draws, 0.25), leaf

    # write-back shifts frequencies toward larger |TD error|
    before = counts[3] / draws
    sampler.update_priorities([0, 1, 2, 3], [0.0, 0.0, 0.0, 9.99])
    expected_high = 10.0 / (10.0 + 3 * 0.01)
    counts_after = Counter(item.index for item in sampler.sample(draws, rng))
    after = counts_after[3] / draws
    assert after > before
    assert within_3_sigma(counts_after[3], draws, expected_high)
    print(
        f"\n[acceptance] criterion 8 (PER consistency): PASS — sum tree matches naive "
        f"categorical within 3 sigma over {draws} draws; equal priorities are uniform; "
        f"write-back moved the high-|TD| frequency {before:.3f} -> {after:.3f}"
    )


def test_criterion_9_csv_determinism(tmp_path):
    dataset_path = tmp_path / "fig1.jsonl"
    assert cli_main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)]) == 0
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text(
        "sampler = uni_traj, prio_traj\n"
        "metric = return\n"
        "eta = 1.0\n"
        "ensemble_size = 2\n"
        "target_sync_period = 1\n"
        "total_steps = 120\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli_main([
            "train", "--dataset", str(dataset_path), "--config", str(config_path),
            "--out", str(out), "--seeds", "0,1",
        ]) == 0
    csvs = sorted(p.name for p in out_a.glob("*.csv"))
    assert len(csvs) == 4
    for name in csvs:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    print(
        f"\n[acceptance] criterion 9 (determinism): PASS — rerun produced "
        f"byte-identical CSVs for all {len(csvs)} (variant, seed) runs"
    )


def test_criterion_10_sampling_overhead():
    dataset = make_random_chain(
        1000, 10, 10, np.random.default_rng(100), action_count=4, terminal_prob=1.0
    )
    base = dict(batch_size=32, total_steps=1000, ensemble_size=5, gamma=0.99)
    schemes = {
        "uniform": ("uni_state", "uniform"),
        "tr": ("uni_traj", "uniform"),
        "ptr": ("prio_traj", "lower_mean_unc"),
    }
    # Interleave repeats so CPU-frequency/cache drift hits every scheme alike,
    # and time each run on the process's CPU clock, which other processes on
    # the machine do not advance.
    best: dict[str, float] = {name: np.inf for name in schemes}
    for rep in range(5):
        for name, (sampler, metric) in schemes.items():
            config = TrainConfig(sampler=sampler, metric=metric, seed=rep, **base)
            start = time.process_time()
            train(dataset, config)
            ms_per_1000 = (time.process_time() - start) * 1e6 / base["total_steps"]
            best[name] = min(best[name], ms_per_1000)

    uniform_ms, tr_ms, ptr_ms = best["uniform"], best["tr"], best["ptr"]
    tr_ratio = tr_ms / uniform_ms
    ptr_ratio = ptr_ms / uniform_ms
    assert tr_ratio <= 1.25, (tr_ms, uniform_ms)
    assert ptr_ratio <= 1.5, (ptr_ms, uniform_ms)
    print(
        f"\n[acceptance] criterion 10 (overhead): PASS — per 1000 updates on 1000 "
        f"trajectories: uniform={uniform_ms:.0f}ms, TR={tr_ms:.0f}ms ({tr_ratio:.2f}x <= 1.25x), "
        f"PTR(uncertainty)={ptr_ms:.0f}ms ({ptr_ratio:.2f}x <= 1.5x)"
    )
