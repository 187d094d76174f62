"""Property tests of the flat-log round trip.

``flatten_trajectories`` and ``split_flat_transitions`` must invert each
other: trajectories that each end terminal or timeout-truncated survive
flatten-then-split unchanged, and any chain-consistent step log survives
split-then-flatten, except that an unflagged tail comes back flagged as a
timeout.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import (
    Trajectory,
    Transition,
    flatten_trajectories,
    split_flat_transitions,
)

rewards = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def trajectory_lists(draw):
    trajectories = []
    state = draw(st.integers(0, 5))
    for j in range(draw(st.integers(1, 8))):
        length = draw(st.integers(1, 6))
        terminal = draw(st.booleans())
        transitions = []
        for t in range(length):
            # a trajectory may revisit states; only next_state -> state must chain
            nxt = draw(st.integers(0, 20))
            transitions.append(Transition(state, draw(st.integers(0, 3)), draw(rewards), nxt,
                                          terminal and t == length - 1))
            state = nxt
        trajectories.append(Trajectory(j, tuple(transitions), timeout_truncated=not terminal))
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
