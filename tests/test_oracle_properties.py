"""Property tests of ``value_iteration_oracle`` against a loop over Python floats.

``reference_oracle`` is the oracle written as one loop over the steps and
one ``max`` per state and sweep.  On random small deterministic datasets with
shared states, signed-zero and subnormal rewards, cycles and now and then a
conflicting step, the oracle must give the same value bits (a -0.0 included)
or raise the same message.
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.learner import value_iteration_oracle

# a -0.0 candidate needs r = -0.0 and gamma * V[s'] = -0.0, as from V[s'] = -5e-324
REWARDS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.5])


def reference_oracle(dataset, gamma, tol=1e-10):
    """The oracle's values at a valid gamma and tol, as one loop per sweep."""
    outcomes: dict[tuple[int, int], tuple[float, int, bool]] = {}
    by_state: dict[int, list[tuple[float, int, bool]]] = {}
    steps = zip(*(getattr(dataset, name).tolist()
                  for name in ("states", "actions", "rewards", "next_states", "terminal")))
    for i, (s, a, reward, next_state, terminal) in enumerate(steps):
        key = (s, a)
        outcome = (reward, next_state, terminal)
        seen = outcomes.get(key)
        if seen is None:
            outcomes[key] = outcome
            by_state.setdefault(s, []).append(outcome)
        elif seen != outcome:
            tid, t = dataset.position(i)
            raise ValueError(
                f"non-deterministic data: (state={s}, action={a}) has "
                f"outcomes {seen} and {outcome} (trajectory {tid}, step {t})"
            )
    values = np.zeros(dataset.state_count)
    for sweep in itertools.count(1):
        new_values = values.copy()
        for s, outs in by_state.items():
            new_values[s] = max(
                r + (0.0 if terminal else gamma * values[s2]) for r, s2, terminal in outs
            )
        delta = float(np.max(np.abs(new_values - values)))
        values = new_values
        if delta < tol:
            return values
        if gamma == 1.0 and sweep > dataset.state_count:
            raise ValueError(
                f"values still move after {sweep} sweeps at gamma = 1: "
                "a cycle in the data has no finite value; train with gamma < 1"
            )


def outcome_of(oracle, dataset, gamma):
    """The bytes of the values, or the message of the error."""
    try:
        return oracle(dataset, gamma).tobytes()
    except ValueError as exc:
        return str(exc)


@st.composite
def mdp_datasets(draw):
    """Trajectories that walk one drawn outcome table over a few states, each
    step now and then given another outcome; a terminal outcome ends its
    trajectory, and a trajectory that does not end so is timeout-truncated.
    Half of them also hold a state whose value can be a tied -0.0 and +0.0."""
    state_count, action_count = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    states = st.integers(0, state_count - 1)
    table = {(s, a): (draw(REWARDS), draw(states), draw(st.booleans()))
             for s in range(state_count) for a in range(action_count)}
    trajectories = []
    for _ in range(draw(st.integers(1, 4))):
        s, steps = draw(states), []
        for _ in range(draw(st.integers(1, 6))):
            a = draw(st.integers(0, action_count - 1))
            reward, next_state, terminal = table[s, a]
            if draw(st.integers(0, 9)) == 0:  # a conflicting step
                reward, next_state, terminal = draw(REWARDS), draw(states), draw(st.booleans())
            steps.append(Transition(s, a, reward, next_state, terminal))
            if terminal:
                break
            s = next_state
        trajectories.append(Trajectory(tuple(steps), not steps[-1].terminal))
    if draw(st.booleans()):  # on three more states, a -0.0 and a +0.0 candidate in turn
        x, y, z = range(state_count, state_count + 3)
        to_negative = (Transition(x, 0, -0.0, y, False), Transition(y, 0, -5e-324, z, True))
        zeros = [Trajectory(to_negative), Trajectory((Transition(x, 1, 0.0, z, True),))]
        for traj in draw(st.permutations(zeros)):
            trajectories.insert(draw(st.integers(0, len(trajectories))), traj)
        state_count, action_count = state_count + 3, max(action_count, 2)
    return OfflineDataset(trajectories, state_count, action_count)


@settings(max_examples=400, deadline=None)
@given(mdp_datasets(), st.sampled_from([0.5, 0.9, 1.0]))
def test_oracle_matches_the_loop_bit_for_bit(dataset, gamma):
    assert outcome_of(value_iteration_oracle, dataset, gamma) == outcome_of(
        reference_oracle, dataset, gamma)


def test_a_zero_value_keeps_the_sign_of_its_states_first_zero_candidate():
    """From the second sweep, state 0 has a -0.0 candidate, -0.0 + 0.5 * -5e-324,
    and a +0.0 one, in either order; ``max`` keeps the first, and so must the
    oracle.  State 3 is still moving then, so the values do not settle first."""
    to_negative = (Transition(0, 0, -0.0, 1, False), Transition(1, 0, -5e-324, 2, True))
    to_zero = (Transition(0, 1, 0.0, 2, True),)
    moving = (Transition(3, 0, 0.0, 4, False), Transition(4, 0, 1.0, 2, True))
    for order, sign in ((to_negative, to_zero), -1.0), ((to_zero, to_negative), 1.0):
        dataset = OfflineDataset([Trajectory(steps) for steps in (*order, moving)], 5, 2)
        values = value_iteration_oracle(dataset, 0.5)
        assert values[0] == 0.0 and np.copysign(1.0, values[0]) == sign
        assert values.tobytes() == reference_oracle(dataset, 0.5).tobytes()
