"""Property tests of the flat-log and file round trips and of the columns.

``flatten_trajectories`` and ``split_flat_transitions`` must invert each
other: trajectories that each end terminal or timeout-truncated survive
flatten-then-split unchanged, and any chain-consistent step log survives
split-then-flatten, except that an unflagged tail comes back flagged as a
timeout.  A dataset's columns must equal the fields of its transitions,
``save_dataset`` then ``load_dataset`` must give the dataset back, and the
loader's split of a flat file must be ``split_flat_transitions``.
"""

from __future__ import annotations

import json
from itertools import accumulate

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import (
    OfflineDataset,
    Trajectory,
    Transition,
    flatten_trajectories,
    load_dataset,
    save_dataset,
    split_flat_transitions,
)

# the strategies below draw states from 0..20 and actions from 0..3
STATE_COUNT, ACTION_COUNT = 21, 4

rewards = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def trajectory_lists(draw):
    trajectories = []
    state = draw(st.integers(0, 5))
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 6))
        terminal = draw(st.booleans())
        transitions = []
        for t in range(length):
            # a trajectory may revisit states; only next_state -> state must chain
            nxt = draw(st.integers(0, 20))
            transitions.append(Transition(state, draw(st.integers(0, 3)), draw(rewards), nxt,
                                          terminal and t == length - 1))
            state = nxt
        trajectories.append(Trajectory(tuple(transitions), timeout_truncated=not terminal))
        state = draw(st.integers(0, 20))
    return trajectories


@st.composite
def step_logs(draw):
    steps = []
    state = draw(st.integers(0, 5))
    for _ in range(draw(st.integers(1, 30))):
        flag = draw(st.sampled_from(["none", "none", "terminal", "timeout"]))
        nxt = draw(st.integers(0, 20))
        steps.append((Transition(state, draw(st.integers(0, 3)), draw(rewards), nxt,
                                 flag == "terminal"), flag == "timeout"))
        # a flagged step ends the segment, so the next may start anywhere
        state = draw(st.integers(0, 20)) if flag != "none" else nxt
    return steps


@settings(max_examples=300, deadline=None)
@given(trajectory_lists())
def test_flatten_then_split_returns_the_trajectories(trajectories):
    assert split_flat_transitions(flatten_trajectories(trajectories)) == trajectories


@settings(max_examples=300, deadline=None)
@given(step_logs())
def test_split_then_flatten_returns_the_steps(steps):
    rebuilt = flatten_trajectories(split_flat_transitions(steps))
    assert [tr for tr, _ in rebuilt] == [tr for tr, _ in steps]
    last_tr, last_timeout = steps[-1]
    tail_timeout = last_timeout or not last_tr.terminal
    assert [timeout for _, timeout in rebuilt] == [t for _, t in steps[:-1]] + [tail_timeout]


def assert_columns_are_the_transitions(ds):
    steps = [tr for traj in ds.trajectories for tr in traj.transitions]
    assert [c.dtype for c in (ds.states, ds.actions, ds.next_states)] == [np.intp] * 3
    assert ds.rewards.dtype == np.float64
    assert ds.terminal.dtype == ds.timeout.dtype == bool
    assert ds.states.tolist() == [tr.state for tr in steps]
    assert ds.actions.tolist() == [tr.action for tr in steps]
    assert [r.hex() for r in ds.rewards.tolist()] == [tr.reward.hex() for tr in steps]
    assert ds.next_states.tolist() == [tr.next_state for tr in steps]
    assert ds.terminal.tolist() == [tr.terminal for tr in steps]
    assert ds.timeout.tolist() == [traj.timeout_truncated for traj in ds.trajectories]
    lengths = [traj.length for traj in ds.trajectories]
    assert ds.offsets == tuple(accumulate(lengths, initial=0))
    for i in range(len(steps)):
        j, t = ds.position(i)
        assert ds.trajectories[j].transitions[t] is steps[i]


@settings(max_examples=200, deadline=None)
@given(trajectory_lists(), st.sampled_from([0.9, 0.99, 1.0]))
def test_save_load_reproduces_fields_and_columns(tmp_path_factory, trajectories, discount):
    ds = OfflineDataset(trajectories, STATE_COUNT, ACTION_COUNT, discount)
    assert_columns_are_the_transitions(ds)
    path = tmp_path_factory.mktemp("round") / "data.jsonl"
    save_dataset(ds, path)
    loaded = load_dataset(path)
    assert_columns_are_the_transitions(loaded)
    assert loaded == ds
    assert loaded.trajectories == ds.trajectories
    assert (loaded.state_count, loaded.action_count, loaded.discount) == (
        STATE_COUNT, ACTION_COUNT, discount)


@settings(max_examples=200, deadline=None)
@given(step_logs())
def test_flat_file_splits_like_split_flat_transitions(tmp_path_factory, steps):
    path = tmp_path_factory.mktemp("flat") / "steps.jsonl"
    lines = [json.dumps({"state_count": STATE_COUNT, "action_count": ACTION_COUNT})]
    lines += [json.dumps({"state": tr.state, "action": tr.action, "reward": tr.reward,
                          "next_state": tr.next_state, "terminal": tr.terminal,
                          "timeout": timeout}) for tr, timeout in steps]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded = load_dataset(path)
    want = OfflineDataset(split_flat_transitions(steps), STATE_COUNT, ACTION_COUNT)
    assert loaded == want
    assert loaded.trajectories == want.trajectories
    assert_columns_are_the_transitions(loaded)
