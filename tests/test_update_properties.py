"""Property tests for ``EnsembleQ.update``: the batched path equals the item
loop, a one-pair update equals it to the sign of zero, and the target sync
equals a full copy of ``q_mean`` at every sync.  Every mean is checked
against :func:`in_order_mean`, the members summed in index order from +0.0
on Python floats, at every K."""

from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from trajreplay import learner
from trajreplay.learner import EnsembleQ


def columns(pairs):
    """The (state, action) pairs as the update's two index columns."""
    return [s for s, _ in pairs], [a for _, a in pairs]


def ensemble(k, state_count, action_count, eta, sync, seed):
    return EnsembleQ(state_count, action_count, ensemble_size=k, eta=eta,
                     target_sync_period=sync, rng=np.random.default_rng(seed))


def in_order_mean(values):
    """The values summed in index order from +0.0, divided by their count."""
    total = 0.0
    for v in values:
        total += v
    return total / len(values)


def in_order_std(values):
    """The population standard deviation from two :func:`in_order_mean` means."""
    mean = in_order_mean(values)
    return math.sqrt(in_order_mean([(v - mean) * (v - mean) for v in values]))


def reference_update(tables, eta, pairs, targets):
    """TD errors from the pre-batch means, then the items applied one by one."""
    tables = tables.copy()
    td_errors = [t - in_order_mean(tables[:, s, a].tolist()) for (s, a), t in zip(pairs, targets)]
    for (s, a), t in zip(pairs, targets):
        col = tables[:, s, a]
        col += eta * (t - col)
    return tables, td_errors


def column_means(tables):
    """Each (s, a) entry as the in-order mean of its own member column."""
    return np.array([[in_order_mean(tables[:, s, a].tolist()) for a in range(tables.shape[2])]
                     for s in range(tables.shape[1])])


@pytest.mark.parametrize("k", [*range(1, 10), 16, 32, 33])
def test_column_means_is_each_columns_own_mean(k):
    """Every column's in-order mean, a -0.0 column's +0.0 included, for a
    whole table and for each column alone, which NumPy would sum pairwise."""
    rng = np.random.default_rng(k)
    tables = rng.standard_normal((k, 5, 3)) * np.exp(rng.standard_normal((k, 5, 3)) * 8)
    tables[:, 0, 0] = -0.0
    tables[:, 1] = rng.choice([-0.0, 0.0], size=(k, 3))
    want = column_means(tables)
    assert not np.signbit(want[0, 0])
    assert np.array_equal(bits(learner.column_means(tables)), bits(want))
    alone = [[learner.column_means(tables[:, s:s + 1, a]).item() for a in range(3)]
             for s in range(5)]
    assert np.array_equal(bits(alone), bits(want))
    if k >= 8:  # not vacuous: a column's own pairwise mean differs somewhere
        assert not np.array_equal(want, tables.transpose(1, 2, 0).copy().mean(axis=2))


@st.composite
def batches(draw):
    k = draw(st.integers(1, 32))
    state_count = draw(st.integers(1, 6))
    action_count = draw(st.integers(1, 4))
    size = draw(st.integers(1, 40))
    pair = st.tuples(st.integers(0, state_count - 1), st.integers(0, action_count - 1))
    pairs = draw(st.lists(pair, min_size=size, max_size=size))
    # copy items over others: a pair may occur 3 or more times, and the
    # repeats of several pairs interleave
    index = st.integers(0, size - 1)
    for i, j in draw(st.lists(st.tuples(index, index), max_size=size)):
        pairs[j] = pairs[i]
    targets = draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))
    eta = draw(st.floats(0.01, 1.0))
    sync = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, state_count, action_count, pairs, targets, eta, sync, seed


@settings(max_examples=300, deadline=None)
@given(batches())
# two pairs repeated in turn, one of them four times: four rounds
@example((3, 4, 2, [(1, 0), (2, 1), (1, 0), (0, 0), (2, 1), (1, 0), (1, 0)],
          [0.5, -1.0, 2.0, 3.0, 4.0, -5.0, 6.0], 0.3, 1, 7))
def test_update_matches_item_by_item_reference(batch):
    k, state_count, action_count, pairs, targets, eta, sync, seed = batch
    ens = ensemble(k, state_count, action_count, eta, sync, seed)
    start_means = column_means(ens.tables)
    want_tables, want_td = reference_update(ens.tables, eta, pairs, targets)
    got_td = ens.update(*columns(pairs), targets)
    assert np.array_equal(ens.tables, want_tables)
    assert type(got_td) is list and all(type(td) is float for td in got_td)
    assert np.array_equal(np.array(got_td), np.array(want_td))
    want_means = column_means(want_tables)
    assert np.array_equal(ens.q_mean, want_means)
    # one update: only a period of 1 has synced the target mean
    assert np.array_equal(ens.target_mean, want_means if sync == 1 else start_means)


def bits(values):
    """The raw IEEE bits, so that -0.0 and +0.0 differ."""
    return np.asarray(values, dtype=float).view(np.int64)


# signed zeros as often as any other value, and the smallest subnormals,
# whose step eta * (target - value) can round to a signed zero
signed_floats = st.sampled_from([-0.0, 0.0, -5e-324, 5e-324]) | st.floats(-10.0, 10.0)


@st.composite
def one_pair_runs(draw):
    """Members on both sides of K = 8, some columns all -0.0 or +0.0, and a
    run of one-pair updates whose targets include signed zeros."""
    k = draw(st.integers(1, 16))
    state_count = draw(st.integers(1, 3))
    action_count = draw(st.integers(1, 3))
    size = k * state_count * action_count
    tables = np.array(draw(st.lists(signed_floats, min_size=size, max_size=size)))
    tables = tables.reshape(k, state_count, action_count)
    pair = st.tuples(st.integers(0, state_count - 1), st.integers(0, action_count - 1))
    for s, a in draw(st.lists(pair, max_size=3)):
        tables[:, s, a] = draw(st.sampled_from([-0.0, 0.0]))
    run = draw(st.lists(st.tuples(pair, signed_floats), min_size=1, max_size=6))
    eta = draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0))
    return tables, run, eta


@settings(max_examples=400, deadline=None)
@given(one_pair_runs())
def test_one_pair_update_matches_the_reference_bit_for_bit(case):
    tables, run, eta = case
    ens = EnsembleQ.from_tables(tables, eta=eta, target_sync_period=1)
    want = tables
    for (s, a), target in run:
        want, want_td = reference_update(want, eta, [(s, a)], [target])
        got_td = ens.update([s], [a], [target])
        assert type(got_td) is list and type(got_td[0]) is float
        assert np.array_equal(bits(got_td), bits(want_td))
        assert np.array_equal(bits(ens.tables), bits(want))
        assert np.array_equal(bits(ens.q_mean), bits(column_means(want)))


@settings(max_examples=100, deadline=None)
@given(k=st.integers(1, 32), eta=st.floats(0.01, 1.0), t1=st.floats(-10.0, 10.0),
       t2=st.floats(-10.0, 10.0), seed=st.integers(0, 2**32 - 1))
def test_repeated_pair_equals_two_single_updates(k, eta, t1, t2, seed):
    batched = ensemble(k, 3, 2, eta, 100, seed)
    serial = ensemble(k, 3, 2, eta, 100, seed)
    want, _ = reference_update(batched.tables, eta, [(1, 0), (2, 1), (1, 0)], [t1, 0.5, t2])
    batched.update([1, 2, 1], [0, 1, 0], [t1, 0.5, t2])
    serial.update([1], [0], [t1])
    serial.update([2], [1], [0.5])
    serial.update([1], [0], [t2])
    assert np.array_equal(batched.tables, want)
    assert np.array_equal(bits(batched.q_mean), bits(column_means(want)))
    assert np.array_equal(batched.tables, serial.tables)
    assert np.array_equal(bits(batched.q_mean), bits(serial.q_mean))


@pytest.mark.parametrize("targets", [[1.0], [1.0, 2.0, 3.0]])
def test_batched_update_rejects_misaligned_targets(targets):
    ens = ensemble(3, 4, 2, 0.5, 1, 0)
    before = ens.tables.copy()
    with pytest.raises(ValueError):
        ens.update([0, 1], [0, 1], targets)
    assert np.array_equal(ens.tables, before)
    assert np.array_equal(ens.q_mean, column_means(before))
    assert ens.updates_applied == 0


@st.composite
def update_runs(draw):
    """An ensemble, a sequence of batches of 1-8 pairs (some with a pair
    repeated), and the position, if any, of a save and reload whose stored
    target lags the members."""
    k = draw(st.integers(1, 10))
    state_count = draw(st.integers(1, 5))
    action_count = draw(st.integers(1, 3))
    pair = st.tuples(st.integers(0, state_count - 1), st.integers(0, action_count - 1))
    run = []
    for _ in range(draw(st.integers(1, 12))):
        size = draw(st.integers(1, 8))
        pairs = draw(st.lists(pair, min_size=size, max_size=size))
        if size > 1 and draw(st.booleans()):
            i, j = draw(st.lists(st.integers(0, size - 1), min_size=2, max_size=2, unique=True))
            pairs[j] = pairs[i]
        targets = draw(st.lists(st.floats(-10.0, 10.0), min_size=size, max_size=size))
        run.append((pairs, targets))
    reload_at = draw(st.none() | st.integers(1, len(run)))
    eta = draw(st.floats(0.01, 1.0))
    sync = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return k, state_count, action_count, run, reload_at, eta, sync, seed


@settings(max_examples=300, deadline=None)
@given(update_runs())
def test_target_mean_equals_a_full_copy_at_every_sync(case):
    k, state_count, action_count, run, reload_at, eta, sync, seed = case
    ens = ensemble(k, state_count, action_count, eta, sync, seed)
    stale = ens.q_mean.copy()
    want = stale.copy()
    for step, (pairs, targets) in enumerate(run, start=1):
        ens.update(*columns(pairs), targets)
        if ens.updates_applied % sync == 0:
            want = ens.q_mean.copy()
        assert np.array_equal(ens.target_mean, want)
        if step == reload_at:
            # a file whose target is the members' mean before any update
            file = io.BytesIO()
            np.savez(file, tables=ens.tables, target_mean=stale, eta=eta,
                     target_sync_period=sync, updates_applied=ens.updates_applied)
            file.seek(0)
            ens = EnsembleQ.load(file)
            want = stale.copy()
            assert np.array_equal(ens.target_mean, want)
