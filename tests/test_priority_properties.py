"""Property tests for the priority metrics and the prioritized selector.

The metrics are evaluated over trajectories grouped by length; each value
must equal, bit for bit, a per-trajectory reference written out here: the
built-in ``sum``/``sorted``/``min``/``max`` for the quality kinds and
``np.add.reduce`` of each slice for the uncertainty kinds.

``PrioritizedSelector`` ranks the whole table once per table version and
pops from the end of a worst-first pool; its picks must equal the reference
draw, ``rank_order`` at each pool rebuild plus ``pop(bisect_right(...))``.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import OfflineDataset
from trajreplay.learner import EnsembleQ
from trajreplay.priority import (
    GROUP_MIN_RUNS,
    QUALITY_KINDS,
    UNCERTAINTY_FLOOR,
    UNCERTAINTY_KINDS,
    PrioritizedSelector,
    PriorityTable,
    build_priority_table,
    quality_priority,
    rank_order,
    top_fraction_count,
    uncertainty_priorities,
)

ACTIONS = 2
# ties, signed zeros and plain values; the signed-zero palettes make rows whose
# sum, minimum or maximum is a zero of either sign
REWARD_PALETTES = (
    (0.0, -0.0, 1.0, -1.0, 0.5, 0.1, 1e-300, 3.0),
    (0.0, -0.0),
    (0.0, -0.0, 2.0),
    (-0.0, 0.0, -2.0),
)


def chain_dataset(lengths: list[int], rewards: np.ndarray, actions: np.ndarray) -> OfflineDataset:
    """One state per step, so a pair's flat index is its state id."""
    total = len(rewards)
    ends = np.cumsum(lengths)
    terminal = np.zeros(total, dtype=bool)
    terminal[ends - 1] = True
    states = np.arange(total, dtype=np.intp)
    return OfflineDataset._from_columns(
        states, actions.astype(np.intp), rewards, states + 1, terminal,
        np.zeros(len(lengths), dtype=bool), tuple([0, *ends.tolist()]),
        total + 1, ACTIONS, 0.99,
    )


@st.composite
def grouped_inputs(draw):
    """Trajectory lengths in 1..300 (pairwise sums recurse above 128) with
    some lengths shared by at least ``GROUP_MIN_RUNS`` runs, others alone,
    and rewards and member values with ties, signed zeros and NaNs."""
    short = st.integers(1, 12)  # short rows make all-zero and all-tied rows likely
    distinct = draw(st.lists(short | st.integers(1, 300), min_size=1, max_size=5, unique=True))
    shared = draw(st.sampled_from(distinct))
    lengths = [shared] * draw(st.integers(0, GROUP_MIN_RUNS + 2))
    lengths += draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=8))
    lengths = draw(st.permutations(lengths))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    total = sum(lengths)
    palette = draw(st.sampled_from(REWARD_PALETTES))
    from_palette = rng.random(total) < draw(st.sampled_from([1.0, 0.9, 0.5]) | st.floats(0.0, 1.0))
    rewards = np.where(from_palette, rng.choice(palette, total), rng.uniform(-5.0, 5.0, total))
    k = draw(st.sampled_from([5, 8, 16]))
    tables = rng.uniform(0.0, 1.0, size=(k, total + 1, ACTIONS))
    # equal members give zero uncertainty; a NaN member gives a NaN one
    tables[:, rng.random(total + 1) < draw(st.floats(0.0, 0.3))] = 0.25
    tables[0, rng.random(total + 1) < draw(st.floats(0.0, 0.05))] = math.nan
    ds = chain_dataset(lengths, rewards, rng.integers(0, ACTIONS, total))
    ids = draw(st.permutations(range(len(lengths))))
    ids = ids[: draw(st.integers(1, len(ids)))]
    return ds, EnsembleQ.from_tables(tables), ids


def reference_quality(rewards: list[float], kind: str) -> float:
    if kind == "return":
        return float(sum(rewards))
    if kind == "avg_reward":
        return float(sum(rewards) / len(rewards))
    if kind in ("uqm_reward", "uhm_reward"):
        k = top_fraction_count(len(rewards), 0.25 if kind == "uqm_reward" else 0.5)
        return float(sum(sorted(rewards)[-k:]) / k)
    return float(min(rewards) if kind == "min_reward" else max(rewards))


def reference_uncertainty(values: np.ndarray, kind: str) -> float:
    if kind.endswith("_mean_unc"):
        part = values
    else:
        k = top_fraction_count(len(values), 0.25)
        part = np.sort(values)[:k] if kind.endswith("_lqm_unc") else np.sort(values)[-k:]
    mean = float(np.add.reduce(part)) / len(part)
    return 1.0 / max(mean, UNCERTAINTY_FLOOR) if kind.startswith("lower_") else mean


def bits(values) -> list[int]:
    return np.array(values, dtype=float).view(np.int64).tolist()


@settings(max_examples=150, deadline=None)
@given(grouped_inputs())
def test_grouped_metrics_match_each_trajectory_bit_for_bit(case):
    ds, ensemble, ids = case
    offsets = ds.offsets
    n = ds.n_trajectories
    for kind in QUALITY_KINDS:
        want = [reference_quality(ds.rewards[offsets[j]:offsets[j + 1]].tolist(), kind)
                for j in range(n)]
        table = build_priority_table(ds, kind).values
        assert bits([table[j] for j in range(n)]) == bits(want), kind
        one = ids[0]
        rewards = ds.rewards[offsets[one]:offsets[one + 1]].tolist()
        assert bits([quality_priority(rewards, kind)]) == bits([want[one]]), kind
    for kind in UNCERTAINTY_KINDS:
        for some in (list(range(n)), ids):
            # one gather of the ids' pairs, in id order, as the scorer makes it
            # (from 8 members a one-pair gather sums them in another order)
            pairs = np.concatenate([np.arange(offsets[j], offsets[j + 1]) for j in some])
            values = ensemble.uncertainty_values(ds.states[pairs], ds.actions[pairs])
            edges = np.cumsum([0] + [offsets[j + 1] - offsets[j] for j in some]).tolist()
            want = [reference_uncertainty(values[lo:hi], kind) for lo, hi in zip(edges, edges[1:])]
            got = uncertainty_priorities(ds, kind, ensemble, some)
            assert list(got) == some
            assert bits(list(got.values())) == bits(want), kind
            if some is not ids and all(map(math.isfinite, want)):  # tables are finite
                assert build_priority_table(ds, kind, ensemble=ensemble).values == got


class PairValues:
    """Per-pair uncertainty read by state id; the test rewrites it between refreshes."""

    def __init__(self, values):
        self.values = np.array(values, dtype=float)

    def uncertainty_values(self, states, actions):
        return self.values[states]


PRIORITY_PALETTE = (0.0, -0.0, 1.0, 2.0, 0.5)


@st.composite
def selection_runs(draw):
    n = draw(st.integers(2, 12))
    lengths = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    ds = chain_dataset(lengths, np.zeros(sum(lengths)), np.zeros(sum(lengths), dtype=int))
    priority = st.sampled_from(PRIORITY_PALETTE) | st.floats(0.0, 3.0)
    table = {j: draw(priority) for j in range(n)}
    alpha = draw(st.sampled_from([0.0, 0.7, 1.0, 2.5]))
    # each event: draw a pick, or refresh some ids from new per-pair values
    events = draw(st.lists(
        st.one_of(
            st.just(None),
            st.tuples(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True),
                      st.lists(st.sampled_from(PRIORITY_PALETTE), min_size=sum(lengths),
                               max_size=sum(lengths))),
        ),
        min_size=1, max_size=60,
    ))
    # the pool rebuilt after each exhaustion: every id but some "active" ones, shuffled
    rebuilds = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=20))
    rebuilds = [r[: draw(st.integers(1, n))] for r in rebuilds]
    return ds, table, alpha, events, rebuilds, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(selection_runs())
def test_selector_picks_equal_the_reference_draw(run):
    ds, values, alpha, events, rebuilds, seed = run
    table = PriorityTable(dict(values), alpha=alpha, kind="higher_mean_unc")
    source = PairValues(np.zeros(ds.total_transitions))
    selector = PrioritizedSelector(table, ds, source)
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    cum = np.cumsum(np.arange(1, ds.n_trajectories + 1, dtype=float) ** -alpha).tolist()
    pools = iter(rebuilds * (len(events) + 1))
    candidates, order = [], []
    for event in events:
        if event is not None:
            ids, pair_values = event
            source.values = np.array(pair_values)
            selector.notify_complete(ids)
            continue
        if not candidates:
            candidates = list(next(pools))
        if len(order) != len(candidates):
            order = rank_order(table, candidates)
        n = len(order)
        want = order.pop(bisect_right(cum, theirs.random() * cum[n - 1], 0, n))
        assert selector.select(candidates, ours) == want
        candidates.remove(want)


@pytest.mark.parametrize("candidates", [[0, 7, 1], [7], [3, 0, 9]])
def test_selector_reports_a_missing_id_as_rank_order_does(candidates):
    ds = chain_dataset([1, 1, 1, 1], np.zeros(4), np.zeros(4, dtype=int))
    table = PriorityTable({0: 1.0, 1: 2.0, 2: 0.5, 3: 0.0}, alpha=1.0, kind="return")
    with pytest.raises(ValueError) as reference:
        rank_order(table, candidates)
    with pytest.raises(ValueError) as ours:
        PrioritizedSelector(table, ds).select(candidates, np.random.default_rng(0))
    missing = next(j for j in candidates if j not in table.values)
    assert str(ours.value) == str(reference.value)
    assert str(ours.value) == f"trajectory id {missing} missing from priority table"
