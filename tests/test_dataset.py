from __future__ import annotations

import json

import numpy as np
import pytest

from trajreplay.dataset import (
    OfflineDataset,
    Trajectory,
    Transition,
    flatten_trajectories,
    load_dataset,
    save_dataset,
    split_flat_transitions,
)
from trajreplay.scenarios import make_figure1, make_random_chain


def chain_steps(n, rewards=None, terminal_at=(), timeout_at=(), start=0):
    """Build a flat (transition, timeout) log forming chains broken at the flags."""
    rewards = rewards or [0.0] * n
    steps = []
    state = start
    for i in range(n):
        terminal = i in terminal_at
        steps.append((Transition(state, 0, rewards[i], state + 1, terminal), i in timeout_at))
        state += 1
        if terminal or i in timeout_at:
            state += 1  # episode boundary: next chain starts fresh
    return steps


def test_transition_rejects_negative_ids():
    with pytest.raises(ValueError, match="state"):
        Transition(-1, 0, 0.0, 1, False)
    with pytest.raises(ValueError, match="action"):
        Transition(0, -2, 0.0, 1, False)
    with pytest.raises(ValueError, match="^id larger than .*: next_state"):
        Transition(0, 0, 0.0, 2**70, False)


def test_transition_rejects_nonfinite_reward():
    with pytest.raises(ValueError, match="finite"):
        Transition(0, 0, float("nan"), 1, False)


def test_trajectory_chain_invariant():
    good = Trajectory((Transition(0, 0, 1.0, 1, False), Transition(1, 0, 1.0, 2, True)))
    assert good.length == 2
    with pytest.raises(ValueError, match="chain break at step 1"):
        Trajectory((Transition(0, 0, 1.0, 1, False), Transition(5, 0, 1.0, 6, True)))


def test_trajectory_terminal_only_on_final_step():
    with pytest.raises(ValueError, match="non-final step 0"):
        Trajectory((Transition(0, 0, 1.0, 1, True), Transition(1, 0, 1.0, 2, True)))


def test_trajectory_timeout_terminal_exclusive():
    with pytest.raises(ValueError, match="timeout_truncated"):
        Trajectory((Transition(0, 0, 1.0, 1, True),), timeout_truncated=True)


def test_dataset_validates_ids_and_counts():
    traj = Trajectory((Transition(0, 0, 1.0, 1, True),))
    with pytest.raises(ValueError, match="state id"):
        OfflineDataset((traj,), state_count=1, action_count=1)


def test_split_single_trajectory_when_terminal_last():
    steps = chain_steps(4, terminal_at=(3,))
    trajs = split_flat_transitions(steps)
    assert len(trajs) == 1
    assert trajs[0].length == 4
    assert not trajs[0].timeout_truncated


def test_split_terminal_then_timeout():
    # terminal at step 1, timeout at step 3 -> lengths 2 and 2, second truncated
    steps = chain_steps(4, terminal_at=(1,), timeout_at=(3,))
    trajs = split_flat_transitions(steps)
    assert [t.length for t in trajs] == [2, 2]
    assert not trajs[0].timeout_truncated
    assert trajs[1].timeout_truncated


def test_split_matches_linear_scan_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 30))
        terminal_at = set(int(i) for i in np.flatnonzero(rng.random(n) < 0.2))
        timeout_at = set(
            int(i) for i in np.flatnonzero(rng.random(n) < 0.1) if i not in terminal_at
        )
        steps = chain_steps(n, terminal_at=terminal_at, timeout_at=timeout_at)
        trajs = split_flat_transitions(steps)
        # oracle: linear scan group sizes
        expected_lengths = []
        count = 0
        for i in range(n):
            count += 1
            if i in terminal_at or i in timeout_at:
                expected_lengths.append(count)
                count = 0
        if count:
            expected_lengths.append(count)
        assert [t.length for t in trajs] == expected_lengths
        assert sum(t.length for t in trajs) == n


def test_split_chain_break_reports_offending_index():
    steps = chain_steps(3, terminal_at=(2,))
    bad = list(steps)
    tr = bad[2][0]
    bad[2] = (Transition(99, tr.action, tr.reward, 100, tr.terminal), False)
    with pytest.raises(ValueError, match="chain break at step index 2"):
        split_flat_transitions(bad)


def test_split_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        split_flat_transitions([])


def test_split_then_flatten_is_identity_on_steps():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        terminal_at = set(int(i) for i in np.flatnonzero(rng.random(n) < 0.25))
        steps = chain_steps(n, rewards=list(rng.uniform(-1, 1, n)), terminal_at=terminal_at)
        rebuilt = flatten_trajectories(split_flat_transitions(steps))
        assert [tr for tr, _ in rebuilt] == [tr for tr, _ in steps]


def assert_columns_match_transitions(ds):
    assert ds.states.dtype == np.intp and ds.actions.dtype == np.intp
    assert ds.offsets.dtype == np.intp and not ds.offsets.flags.writeable
    assert ds.offsets[0] == 0 and len(ds.offsets) == ds.n_trajectories + 1
    assert ds.total_transitions == len(ds.states) == len(ds.actions)
    for j, traj in enumerate(ds.trajectories):
        lo, hi = ds.offsets[j], ds.offsets[j + 1]
        assert hi - lo == traj.length
        assert ds.states[lo:hi].tolist() == [tr.state for tr in traj.transitions]
        assert ds.actions[lo:hi].tolist() == [tr.action for tr in traj.transitions]
    assert ds.start_state == ds.trajectories[0].transitions[0].state


def test_columns_match_transitions_of_generated_datasets():
    assert_columns_match_transitions(make_figure1("sparse"))
    for seed in range(5):
        ds = make_random_chain(12, 1, 9, np.random.default_rng(seed), action_count=3)
        assert_columns_match_transitions(ds)


def test_columns_match_transitions_of_loaded_datasets(tmp_path):
    ds = make_random_chain(9, 1, 7, np.random.default_rng(3), action_count=4, terminal_prob=0.5)
    path = tmp_path / "chain.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert_columns_match_transitions(loaded)
    assert np.array_equal(loaded.states, ds.states)
    assert np.array_equal(loaded.actions, ds.actions)
    assert np.array_equal(loaded.offsets, ds.offsets)
    flat = tmp_path / "flat.jsonl"
    flat.write_text("".join(
        json.dumps({"state": tr.state, "action": tr.action, "reward": tr.reward,
                    "next_state": tr.next_state, "terminal": tr.terminal,
                    "timeout": timeout}) + "\n"
        for tr, timeout in flatten_trajectories(ds.trajectories)
    ))
    assert_columns_match_transitions(load_dataset(flat))


def test_start_state_is_first_state_of_trajectory_zero():
    transitions = (Transition(4, 1, 0.0, 2, False), Transition(2, 0, 1.0, 0, True))
    ds = OfflineDataset((Trajectory(transitions),), state_count=5, action_count=2)
    assert ds.start_state == 4
    assert type(ds.start_state) is int


def test_columns_do_not_take_part_in_equality_or_repr():
    a = make_random_chain(3, 1, 4, np.random.default_rng(1))
    b = make_random_chain(3, 1, 4, np.random.default_rng(1))
    assert a == b and hash(a) == hash(b)
    assert "states=" not in repr(a)


def test_load_trajectory_jsonl_single_record(tmp_path):
    path = tmp_path / "one.jsonl"
    record = {
        "states": [0, 1, 2],
        "actions": [0, 1, 0],
        "rewards": [0.0, 0.5, 1.0],
        "next_states": [1, 2, 3],
        "terminal": True,
        "timeout": False,
    }
    path.write_text(json.dumps(record) + "\n")
    ds = load_dataset(path)
    assert ds.n_trajectories == 1
    assert ds.trajectories[0].length == 3
    assert not ds.trajectories[0].timeout_truncated
    assert ds.state_count == 4 and ds.action_count == 2


def test_load_takes_header_state_count_and_infers_missing_action_count(tmp_path):
    path = tmp_path / "header.jsonl"
    record = {
        "states": [0, 1],
        "actions": [2, 0],
        "rewards": [0.0, 1.0],
        "next_states": [1, 2],
        "terminal": True,
        "timeout": False,
    }
    path.write_text(json.dumps({"state_count": 10}) + "\n" + json.dumps(record) + "\n")
    ds = load_dataset(path)
    assert ds.state_count == 10 and ds.action_count == 3
    assert ds.discount == 0.99


@pytest.mark.parametrize("key", ["state_count", "action_count", "discount"])
@pytest.mark.parametrize("flat", [False, True], ids=["trajectories", "flat"])
def test_a_first_record_with_a_header_key_stays_a_record(tmp_path, key, flat):
    """Step logs may carry a discount on every step: the first record is
    kept, and its key is not read as the header."""
    records = [{"states": [s, s + 1], "actions": [0, 1], "rewards": [0.0, 1.0],
                "next_states": [s + 1, s + 2], "terminal": True, "timeout": False}
               for s in (0, 5)]
    if flat:
        records = [{"state": s, "action": 0, "reward": 0.0, "next_state": s + 1,
                    "terminal": s in (1, 6), "timeout": False} for s in (0, 1, 5, 6)]
    path = tmp_path / "keyed.jsonl"
    path.write_text("".join(json.dumps(dict(r, **{key: 1})) + "\n" for r in records))
    ds = load_dataset(path)
    assert ds.n_trajectories == 2 and ds.states.size == 4
    assert ds.state_count == 8 and ds.discount == 0.99


@pytest.mark.parametrize(("field", "value", "message"), [
    ("state_count", 3.7, "'state_count' must be a non-negative integer, got 3.7"),
    ("state_count", True, "'state_count' must be a non-negative integer, got True"),
    ("action_count", "3", "'action_count' must be a non-negative integer, got '3'"),
    ("action_count", -1, "'action_count' must be a non-negative integer, got -1"),
    ("discount", True, "'discount' must be a number, got True"),
    ("discount", "0.9", "'discount' must be a number, got '0.9'"),
])
def test_load_rejects_a_header_value_of_the_wrong_type(tmp_path, field, value, message):
    """A clean file fails on its header; the same header with a bad reward
    fails on the reward, since record faults report first."""
    record = {"states": [0, 1], "actions": [0, 1], "rewards": [0.0, 1.0],
              "next_states": [1, 2], "terminal": True, "timeout": False}
    header = dict({"state_count": 3, "action_count": 2, "discount": 0.9}, **{field: value})
    path = tmp_path / "header.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=message):
        load_dataset(path)
    bad_reward = dict(record, rewards=[0.0, "x"])
    path.write_text(json.dumps(header) + "\n" + json.dumps(bad_reward) + "\n")
    with pytest.raises(ValueError, match="could not convert string to float"):
        load_dataset(path)


def test_load_flat_transitions_splits_on_terminals(tmp_path):
    path = tmp_path / "flat.jsonl"
    lines = []
    state = 0
    for i in range(10):
        terminal = i in (4, 9)
        lines.append(
            json.dumps(
                {
                    "state": state,
                    "action": 0,
                    "reward": 0.0,
                    "next_state": state + 1,
                    "terminal": terminal,
                    "timeout": False,
                }
            )
        )
        state += 2 if terminal else 1
    path.write_text("\n".join(lines) + "\n")
    ds = load_dataset(path)
    assert [t.length for t in ds.trajectories] == [5, 5]


def test_load_flat_unflagged_tail_is_timeout_truncated(tmp_path):
    path = tmp_path / "tail.jsonl"
    lines = [
        json.dumps(
            {"state": i, "action": 0, "reward": 0.0, "next_state": i + 1,
             "terminal": False, "timeout": False}
        )
        for i in range(3)
    ]
    path.write_text("\n".join(lines) + "\n")
    ds = load_dataset(path)
    assert ds.n_trajectories == 1
    assert ds.trajectories[0].timeout_truncated


def test_load_reports_malformed_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"states": [0], "actions": [0], "rewards": [0.0], '
                    '"next_states": [1], "terminal": true, "timeout": false}\n'
                    "{not json}\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(path)


def test_load_rejects_chain_break_with_trajectory_and_step(tmp_path):
    path = tmp_path / "broken.jsonl"
    record = {
        "states": [0, 7],
        "actions": [0, 0],
        "rewards": [0.0, 0.0],
        "next_states": [1, 8],
        "terminal": True,
        "timeout": False,
    }
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"chain break at step 1"):
        load_dataset(path)


def test_load_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(ValueError, match="no data records"):
        load_dataset(path)


def test_save_load_round_trip_field_for_field(tmp_path):
    from trajreplay.scenarios import make_random_chain

    rng = np.random.default_rng(3)
    ds = make_random_chain(6, 1, 8, rng, action_count=3, terminal_prob=0.5, discount=0.97)
    path = tmp_path / "roundtrip.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert loaded == ds


def test_load_rejects_ids_too_large_for_the_columns(tmp_path):
    path = tmp_path / "huge.jsonl"
    record = {"states": [0, 1], "actions": [0, 0], "rewards": [0.0, 1.0],
              "next_states": [1, 2**70], "terminal": True, "timeout": False}
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=r"line 1: id larger than"):
        load_dataset(path)


def test_load_reports_a_non_finite_reward_before_a_later_unconvertible_one(tmp_path):
    path = tmp_path / "rewards.jsonl"
    records = [
        {"states": [0, 1], "actions": [0, 0], "rewards": ["nan", 0.0], "next_states": [1, 2],
         "terminal": False, "timeout": True},
        {"states": [0, 1], "actions": [0, 0], "rewards": [None, 0.0], "next_states": [1, 2],
         "terminal": False, "timeout": True},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    with pytest.raises(ValueError, match=r"^line 1: reward must be finite, got nan$"):
        load_dataset(path)
