"""The B = 1 step of ``train``: it evaluates every policy bootstrap the target
rule calls for, and its reused curve value equals a read after every update."""

from __future__ import annotations

import numpy as np
import pytest

from trajreplay.dataset import OfflineDataset, Trajectory, Transition
from trajreplay.learner import EnsembleQ, TrainConfig, train
from trajreplay.replay import PerTransitionSampler, TrajectoryReplay, UniformTransitionSampler
from trajreplay.scenarios import make_figure1, make_random_chain
from trajreplay.targets import TargetKind

RUNS = [
    ("uni_state", "uniform", TargetKind("standard")),
    ("prio_state", "uniform", TargetKind("standard")),
    *[(sampler, metric, kind)
      for sampler, metric in (("uni_traj", "uniform"), ("prio_traj", "return"),
                              ("prio_traj", "lower_mean_unc"))
      for kind in (TargetKind("standard"), TargetKind("sarsa"),
                   TargetKind("weighted", 0.5), TargetKind("weighted", 0.0))],
]
RUN_IDS = [f"{sampler}-{metric}-{kind.kind}-{kind.beta}" for sampler, metric, kind in RUNS]


def timeout_chain() -> OfflineDataset:
    ds = make_random_chain(6, 1, 5, np.random.default_rng(8), terminal_prob=0.5)
    assert ds.timeout.any() and not ds.timeout.all()
    return ds


def record_draws(monkeypatch) -> list:
    """Every item the run's sampler hands to ``train``."""
    drawn = []

    def recorded(method):
        def draw(*args, **kwargs):
            items = method(*args, **kwargs)
            drawn.extend(items)
            return items
        return draw

    for cls, name in ((TrajectoryReplay, "next_batch"), (UniformTransitionSampler, "sample"),
                      (PerTransitionSampler, "sample")):
        monkeypatch.setattr(cls, name, recorded(getattr(cls, name)))
    return drawn


def expected_bootstraps(ds: OfflineDataset, items, kind: TargetKind) -> int:
    """``standard`` and ``weighted`` with beta > 0 bootstrap at every item but
    a terminal trajectory's last step; the rest only at timeout heads."""
    lengths = np.diff(ds.offsets).tolist()
    ends_terminal = (~ds.timeout).tolist()
    everywhere = kind.kind == "standard" or (kind.kind == "weighted" and kind.beta > 0.0)
    count = 0
    for it in items:
        head = it.time_index == lengths[it.trajectory_id] - 1
        terminal_end = head and ends_terminal[it.trajectory_id]
        count += (not terminal_end) if everywhere else (head and not terminal_end)
    return count


@pytest.mark.parametrize("make", [lambda: make_figure1("sparse"), timeout_chain],
                         ids=["figure1", "timeout-chain"])
@pytest.mark.parametrize("sampler, metric, kind", RUNS, ids=RUN_IDS)
def test_single_item_step_evaluates_every_policy_bootstrap(monkeypatch, make, sampler, metric, kind):
    ds = make()
    drawn = record_draws(monkeypatch)
    calls = [0]
    real = EnsembleQ.target_value

    def counted(self, state, action):
        calls[0] += 1
        return real(self, state, action)

    monkeypatch.setattr(EnsembleQ, "target_value", counted)
    config = TrainConfig(sampler=sampler, metric=metric, target=kind, batch_size=1,
                         total_steps=120, ensemble_size=3, target_sync_period=1, seed=5)
    train(ds, config)
    assert len(drawn) == 120
    assert calls[0] == expected_bootstraps(ds, drawn, kind)


def loop_through_start_state() -> OfflineDataset:
    """Start state 0 is also an interior state: of a loop back to it, and of a
    second trajectory that enters it at t = 1."""
    loop = Trajectory((Transition(0, 0, 0.0, 1, False), Transition(1, 1, 0.5, 0, False),
                       Transition(0, 1, 0.0, 2, False), Transition(2, 0, 1.0, 3, True)))
    enter = Trajectory((Transition(4, 1, 0.2, 0, False), Transition(0, 2, -0.3, 5, False)),
                       timeout_truncated=True)
    return OfflineDataset(trajectories=(loop, enter), state_count=6, action_count=3,
                          discount=0.9)


@pytest.mark.parametrize("sampler, metric, kind", RUNS, ids=RUN_IDS)
def test_reused_curve_value_equals_a_read_after_every_update(monkeypatch, sampler, metric, kind):
    ds = loop_through_start_state()
    s0 = ds.start_state
    drawn = record_draws(monkeypatch)
    after_each = []
    real = EnsembleQ.update

    def read_after(self, states, actions, targets):
        td_errors = real(self, states, actions, targets)
        after_each.append(self.max_mean_q(s0))
        return td_errors

    monkeypatch.setattr(EnsembleQ, "update", read_after)
    config = TrainConfig(sampler=sampler, metric=metric, target=kind, batch_size=1, eta=0.5,
                         total_steps=200, ensemble_size=5, target_sync_period=10, seed=2)
    curve = train(ds, config).curve
    at_s0 = [it.time_index for it in drawn if ds.states[it.index] == s0]
    # the run updated s0 as a start and as an interior state, and other states
    assert 0 in at_s0 and max(at_s0) > 0 and len(at_s0) < len(drawn) == 200
    assert curve.tobytes() == np.array(after_each).tobytes()

