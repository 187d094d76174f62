"""Property tests of the flat-log and file round trips and of the columns.

``flatten_trajectories`` and ``split_flat_transitions`` must invert each
other: trajectories that each end terminal or timeout-truncated survive
flatten-then-split unchanged, and any chain-consistent step log survives
split-then-flatten, except that an unflagged tail comes back flagged as a
timeout.  A dataset's columns must equal the fields of its transitions,
``save_dataset`` then ``load_dataset`` must give the dataset back, and the
loader's split of a flat file must be ``split_flat_transitions``.  Whatever
whitespace, stray text or non-object lines surround the records, a file must
load as if each non-blank line were read by ``json.loads(line.strip())``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pickle
from itertools import accumulate

import numpy as np
import pytest
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
    assert ds.offsets.tolist() == list(accumulate(lengths, initial=0))
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
    flat_file(path, steps)
    loaded = load_dataset(path)
    want = OfflineDataset(split_flat_transitions(steps), STATE_COUNT, ACTION_COUNT)
    assert loaded == want
    assert loaded.trajectories == want.trajectories
    assert_columns_are_the_transitions(loaded)


def flat_file(path, steps):
    """Write ``steps`` as a flat-transitions file with a header line."""
    lines = [json.dumps({"state_count": STATE_COUNT, "action_count": ACTION_COUNT})]
    lines += [json.dumps(step_record(tr, timeout)) for tr, timeout in steps]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def assert_offsets_are_a_read_only_intp_array(ds):
    assert type(ds.offsets) is np.ndarray and ds.offsets.dtype == np.intp
    assert ds.offsets.shape == (ds.n_trajectories + 1,)
    assert not ds.offsets.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ds.offsets[0] = 1


def assert_heads_are_the_last_steps(ds):
    assert ds.head.dtype == bool and ds.head.shape == (ds.total_transitions,)
    assert np.flatnonzero(ds.head).tolist() == [end - 1 for end in ds.offsets[1:]]
    assert not ds.head.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ds.head[0] = not ds.head[0]
    # a terminal flag is only ever set at a head
    assert not (ds.terminal & ~ds.head).any()


@settings(max_examples=200, deadline=None)
@given(trajectory_lists(), step_logs())
def test_head_marks_each_trajectorys_last_step_on_every_path(tmp_path_factory, trajectories,
                                                             steps):
    """Objects, a trajectory file, a flat file with flags mid-file and an
    unflagged tail, and a pickle round trip of each give the same head rule,
    and read-only ``np.intp`` offsets equal to those of the same objects."""
    tr, _ = steps[-1]
    steps = [*steps[:-1], (dataclasses.replace(tr, terminal=False), False)]  # unflagged tail
    folder = tmp_path_factory.mktemp("head")
    objects = OfflineDataset(trajectories, STATE_COUNT, ACTION_COUNT)
    save_dataset(objects, folder / "trajectories.jsonl")
    flat_file(folder / "steps.jsonl", steps)
    built = [objects, load_dataset(folder / "trajectories.jsonl"),
             load_dataset(folder / "steps.jsonl")]
    split = OfflineDataset(split_flat_transitions(steps), STATE_COUNT, ACTION_COUNT)
    for ds, want in zip(built + [pickle.loads(pickle.dumps(ds)) for ds in built],
                        [objects, objects, split] * 2):
        assert_heads_are_the_last_steps(ds)
        assert_offsets_are_a_read_only_intp_array(ds)
        assert np.array_equal(ds.offsets, want.offsets)
    assert built[2].timeout[-1]  # the tail is kept, as a timeout


# str.isspace characters, ASCII and not: NEL, NBSP, em space, line separator,
# ideographic space; none of them ends a line when a file is read as text
SPACES = st.text(st.sampled_from(" \t\x0b\x0c\x1c\x85\xa0\u2003\u2028\u3000"),
                 min_size=1, max_size=3)
NOISE_LINES = ["[1, 2]", "3", '"state"', "null", "NaN", "-Infinity", "{", '{"state": }']
TRAILERS = ["x", " 1", "}", ",", " {}", "\u3000]"]


def step_record(tr, timeout):
    return {"state": tr.state, "action": tr.action, "reward": tr.reward,
            "next_state": tr.next_state, "terminal": tr.terminal, "timeout": timeout}


def trajectory_record(traj):
    steps = traj.transitions
    return {"states": [tr.state for tr in steps], "actions": [tr.action for tr in steps],
            "rewards": [tr.reward for tr in steps],
            "next_states": [tr.next_state for tr in steps],
            "terminal": steps[-1].terminal, "timeout": traj.timeout_truncated}


@st.composite
def messy_files(draw):
    """The text of a valid file in either format, its lines mostly padded
    with whitespace and blank lines, now and then given a BOM, a non-finite
    reward, text after the record or a line that is not a JSON object."""
    trajectories = draw(trajectory_lists())
    if draw(st.booleans()):
        records = [step_record(tr, t) for tr, t in flatten_trajectories(trajectories)]
    else:
        records = [trajectory_record(traj) for traj in trajectories]
    if draw(st.booleans()):
        records.insert(0, {"state_count": STATE_COUNT, "action_count": ACTION_COUNT})
    rare = st.integers(0, 19).map(lambda k: k == 19)
    lines = []
    for record in records:
        while draw(st.integers(0, 3)) == 3:
            blank = st.one_of(st.just(""), SPACES)
            lines.append(draw(st.sampled_from(NOISE_LINES) if draw(rare) else blank))
        key = "reward" if "reward" in record else "rewards"
        if key in record and draw(rare):
            value = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
            record[key] = value if key == "reward" else [value] + record[key][1:]
        text = json.dumps(record)
        if draw(st.booleans()):
            text = draw(SPACES) + text
        if draw(st.booleans()):
            text += draw(st.sampled_from(TRAILERS) if draw(rare) else SPACES)
        lines.append(text)
    if draw(rare):
        lines[0] = "\ufeff" + lines[0]
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def load_or_message(path):
    try:
        return load_dataset(path)
    except ValueError as exc:
        return str(exc)


def stripped_line_load(path):
    """The load of ``path`` when each non-blank line is read by
    ``json.loads(line.strip())``: that read's first fault, else the load of
    the file rewritten with each record as ``json.dumps`` writes it."""
    lines = []
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    return f"line {line_no}: malformed JSON record ({exc.msg})"
                if not isinstance(record, dict):
                    return f"line {line_no}: record must be a JSON object"
                line = json.dumps(record)
            lines.append(line)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return load_or_message(path)


@settings(max_examples=300, deadline=None)
@given(messy_files())
def test_a_file_loads_as_json_loads_reads_each_stripped_line(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("messy") / "data.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    got = load_or_message(path)
    assert got == stripped_line_load(path)
