"""Structural guards: nothing between the file and ``train`` builds per-step objects.

``Transition`` and ``Trajectory`` are the object view of a dataset, and
``BatchItem`` the object view of a sampled batch.  Loading a file, training
on it with any sampler at any batch size, building a priority table and
solving the oracle must read the columns and the batches' arrays only; the
guard fails the test on any ``Transition``, ``Trajectory`` or ``BatchItem``
built, and on any read of ``dataset.trajectories``.  A file with a fault is
parsed once too, and builds objects only for the one record that words it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import numpy as np
import pytest

from trajreplay.cli import main
from trajreplay.dataset import (
    OfflineDataset,
    Trajectory,
    Transition,
    flatten_trajectories,
    load_dataset,
    save_dataset,
    split_flat_transitions,
)
from trajreplay.learner import EnsembleQ, TrainConfig, train, value_iteration_oracle
from trajreplay.priority import build_priority_table
from trajreplay.replay import BatchItem, UniformTransitionSampler
from trajreplay.scenarios import make_random_chain
from trajreplay.targets import TargetKind


@pytest.fixture
def files(tmp_path):
    """One dataset written in both formats."""
    ds = make_random_chain(12, 1, 6, np.random.default_rng(4), action_count=3,
                           terminal_prob=0.6)
    traj_path, flat_path = tmp_path / "traj.jsonl", tmp_path / "flat.jsonl"
    save_dataset(ds, traj_path)
    header = {"state_count": ds.state_count, "action_count": ds.action_count}
    flat_path.write_text("".join(
        json.dumps(record) + "\n" for record in [header] + [
            {"state": tr.state, "action": tr.action, "reward": tr.reward,
             "next_state": tr.next_state, "terminal": tr.terminal, "timeout": timeout}
            for tr, timeout in flatten_trajectories(ds.trajectories)
        ]
    ))
    return ds, traj_path, flat_path


@pytest.fixture
def no_objects(monkeypatch):
    """A context in which building a Transition, Trajectory or BatchItem, or
    reading ``dataset.trajectories``, fails the test."""

    def refuse(self, *args):
        raise AssertionError(f"built a {type(self).__name__} on a columnar path")

    def unread(self):
        raise AssertionError("read dataset.trajectories on a columnar path")

    @contextlib.contextmanager
    def guard():
        with monkeypatch.context() as m:
            m.setattr(Transition, "__post_init__", refuse)
            m.setattr(Trajectory, "__post_init__", refuse)
            m.setattr(BatchItem, "__init__", refuse)
            m.setattr(OfflineDataset, "trajectories", property(unread))
            yield

    return guard


def test_guard_catches_the_object_view(files, no_objects):
    _, traj_path, _ = files
    loaded = load_dataset(traj_path)
    with no_objects(), pytest.raises(AssertionError, match="dataset.trajectories"):
        loaded.trajectories
    with no_objects(), pytest.raises(AssertionError, match="Transition"):
        Transition(0, 0, 0.0, 1, True)


def test_guard_catches_the_batch_view(files, no_objects):
    """A sampled batch is two arrays; indexing or iterating it builds the
    ``BatchItem`` view, which the guard refuses."""
    ds, _, _ = files
    with no_objects():
        batch = UniformTransitionSampler(ds).sample(4, np.random.default_rng(0))
        assert len(batch) == 4
    for view in (lambda: batch[0], lambda: list(batch), lambda: BatchItem(0, 0, 0, True)):
        with no_objects(), pytest.raises(AssertionError, match="BatchItem"):
            view()
    assert [it.index for it in batch] == batch.index.tolist()


def test_loading_builds_no_transition(files, no_objects, tmp_path):
    """Clean files load from the columns alone, including a flat log whose
    last step has neither flag and a file without a header."""
    ds, traj_path, flat_path = files
    records = [json.loads(line) for line in flat_path.read_text().splitlines()]
    records[-1].update(terminal=False, timeout=False)
    untagged_path, headless_path = tmp_path / "untagged.jsonl", tmp_path / "headless.jsonl"
    untagged_path.write_text("".join(json.dumps(record) + "\n" for record in records))
    headless_path.write_text(traj_path.read_text().split("\n", 1)[1])
    *head, (tail, _) = flatten_trajectories(ds.trajectories)
    untagged = OfflineDataset(
        split_flat_transitions([*head, (dataclasses.replace(tail, terminal=False), False)]),
        ds.state_count, ds.action_count,
    )
    headless = OfflineDataset(
        ds.trajectories, 1 + int(max(ds.states.max(), ds.next_states.max())),
        1 + int(ds.actions.max()),
    )
    with no_objects():
        loaded = [load_dataset(traj_path), load_dataset(flat_path),
                  load_dataset(untagged_path), load_dataset(headless_path)]
    assert loaded == [ds, ds, untagged, headless]
    assert untagged.timeout[-1] and not untagged.terminal[-1]


def test_rewards_that_float_converts_load_on_the_columnar_pass(files, no_objects, tmp_path):
    """A numeric-string reward and an int above the int64 range convert as
    ``float()`` converts them, with no object built."""
    ds, traj_path, _ = files
    header, *records = map(json.loads, traj_path.read_text().splitlines())
    records[0]["rewards"][0], records[-1]["rewards"][-1] = "1.5", 2**70
    path = tmp_path / "rewards.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [header, *records]))
    with no_objects():
        loaded = load_dataset(path)
    rewards = ds.rewards.copy()
    rewards[0], rewards[-1] = 1.5, float(2**70)
    assert np.array_equal(loaded.rewards, rewards)
    assert np.array_equal(loaded.states, ds.states)


def faulty_last_line(files, tmp_path, flat):
    """The fixture's file, in either format, with a fault on its last line:
    a bad reward at a trajectory record's last step, a negative next state
    in a flat step.  Returns the path, its non-empty line count and the
    number of steps of the faulty record."""
    _, traj_path, flat_path = files
    lines = (flat_path if flat else traj_path).read_text().splitlines()
    last = json.loads(lines[-1])
    if flat:
        last["next_state"] = -1
    else:
        last["rewards"][-1] = "x"
    lines[-1] = json.dumps(last)
    path = tmp_path / "faulty.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path, len(lines), 1 if flat else len(last["states"])


@pytest.mark.parametrize("flat", [False, True])
def test_a_faulty_file_is_parsed_once(files, tmp_path, monkeypatch, flat):
    """One decode per line; ``json.loads`` decodes through the same method."""
    path, line_count, _ = faulty_last_line(files, tmp_path, flat)
    calls = []
    raw_decode = json.JSONDecoder.raw_decode
    monkeypatch.setattr(json.JSONDecoder, "raw_decode",
                        lambda self, *a, **k: calls.append(1) or raw_decode(self, *a, **k))
    with pytest.raises(ValueError, match=f"^line {line_count}: "):
        load_dataset(path)
    assert len(calls) == line_count


@pytest.mark.parametrize("flat", [False, True])
def test_a_faulty_file_builds_its_faulty_record_only(files, tmp_path, monkeypatch, flat):
    """Under a counting form of the guard, the fault is worded by the last
    record's own objects: its steps before the fault, plus the step that
    fails, and no other record's."""
    path, _, steps = faulty_last_line(files, tmp_path, flat)
    built = []

    def count(init):
        def counted(self, *args):
            built.append(type(self).__name__)
            return init(self, *args)
        return counted

    for cls in (Transition, Trajectory):
        monkeypatch.setattr(cls, "__post_init__", count(cls.__post_init__))
    with pytest.raises(ValueError, match=r"could not convert|non-negative integer"):
        load_dataset(path)
    # a bad reward fails float() before its step's Transition is built
    assert built == ["Transition"] * (1 if flat else steps - 1)


TRAIN_VARIANTS = [
    ("uni_state", "uniform", "standard"),
    ("prio_state", "uniform", "standard"),
    ("uni_traj", "uniform", "sarsa"),
    ("prio_traj", "return", "weighted"),
    ("prio_traj", "lower_mean_unc", "sarsa"),
]


@pytest.mark.parametrize("batch_size", [1, 4])
@pytest.mark.parametrize(("sampler", "metric", "kind"), TRAIN_VARIANTS)
def test_train_reads_columns_only(files, no_objects, sampler, metric, kind, batch_size):
    ds, traj_path, _ = files
    loaded = load_dataset(traj_path)
    config = TrainConfig(sampler=sampler, metric=metric, target=TargetKind(kind, 0.5),
                         ensemble_size=3, batch_size=batch_size, total_steps=60, seed=1)
    with no_objects():
        curve = train(loaded, config).curve
    assert np.array_equal(curve, train(ds, config).curve)


def test_priority_table_and_oracle_read_columns_only(files, no_objects):
    ds, traj_path, _ = files
    loaded = load_dataset(traj_path)
    ensemble = EnsembleQ(ds.state_count, ds.action_count, 3, rng=np.random.default_rng(2))
    with no_objects():
        tables = [build_priority_table(loaded, kind, 0.7, ensemble)
                  for kind in ("return", "uqm_reward", "uniform", "lower_mean_unc")]
        oracle = value_iteration_oracle(loaded, 0.9)
    want = [build_priority_table(ds, kind, 0.7, ensemble)
            for kind in ("return", "uqm_reward", "uniform", "lower_mean_unc")]
    assert [(t.values.tobytes(), t.alpha, t.kind) for t in tables] == [
        (t.values.tobytes(), t.alpha, t.kind) for t in want]
    assert np.array_equal(oracle, value_iteration_oracle(ds, 0.9))


def test_analyze_reads_columns_only(files, no_objects, tmp_path):
    _, traj_path, _ = files
    out = tmp_path / "table.csv"
    with no_objects():
        assert main(["analyze", "--dataset", str(traj_path), "--metrics",
                     "return,min_reward", "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 13
