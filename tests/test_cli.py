from __future__ import annotations

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest

from trajreplay.cli import (
    expand_variants, main, parse_config_file, variant_label, write_curve_csv,
)
from trajreplay.dataset import flatten_trajectories, load_dataset
from trajreplay.learner import TrainConfig
from trajreplay.scenarios import make_figure1
from trajreplay.targets import TargetKind


def write_config(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_generate_figure1_sparse_returns_and_sparsity(tmp_path):
    out = tmp_path / "sparse.jsonl"
    assert main(["generate", "--scenario", "figure1-sparse", "--out", str(out)]) == 0
    ds = load_dataset(out)
    returns = [sum(tr.reward for tr in t.transitions) for t in ds.trajectories]
    assert returns == [4.0, 8.0, 4.0]
    for traj in ds.trajectories:
        interior = [tr.reward for tr in traj.transitions[:-1]]
        assert all(r == 0.0 for r in interior)
        assert traj.transitions[-1].terminal
    assert len({t.transitions[0].state for t in ds.trajectories}) == 1


def test_generate_figure1_dense_returns_with_interior_rewards(tmp_path):
    out = tmp_path / "dense.jsonl"
    assert main(["generate", "--scenario", "figure1-dense", "--out", str(out)]) == 0
    ds = load_dataset(out)
    returns = [sum(tr.reward for tr in t.transitions) for t in ds.trajectories]
    assert returns == [4.0, 8.0, 4.0]
    for traj in ds.trajectories:
        assert any(tr.reward != 0.0 for tr in traj.transitions[:-1])


def test_generate_random_chain_minimal(tmp_path):
    out = tmp_path / "tiny.jsonl"
    assert main([
        "generate", "--scenario", "random-chain", "--out", str(out),
        "--n-traj", "1", "--min-len", "1", "--max-len", "1",
    ]) == 0
    ds = load_dataset(out)
    assert ds.n_trajectories == 1
    assert ds.trajectories[0].length == 1


def test_parse_config_lists_and_comments(tmp_path):
    config = write_config(tmp_path / "c.cfg", """
# sweep config
sampler = uni_traj, prio_traj
metric = return
total_steps = 50
""")
    raw = parse_config_file(config)
    assert raw["sampler"] == ["uni_traj", "prio_traj"]
    assert raw["total_steps"] == ["50"]


def test_expand_variants_cross_product_and_dedupe():
    raw = {"sampler": ["uni_traj", "prio_traj"], "metric": ["return", "avg_reward"],
           "total_steps": ["10"]}
    variants = expand_variants(raw)
    labels = [variant_label(v) for v in variants]
    # uni_traj collapses both metrics into one variant
    assert labels == ["uni_traj", "prio_traj-return", "prio_traj-avg_reward"]


def test_expand_variants_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        expand_variants({"learning_rate": ["0.1"]})


def test_expand_variants_beta_sweep_only_forks_weighted_targets():
    raw = {"sampler": ["uni_traj"], "target": ["standard", "weighted"],
           "beta": ["0.25", "0.75"], "total_steps": ["10"]}
    labels = [variant_label(v) for v in expand_variants(raw)]
    assert labels == [
        "uni_traj",
        "uni_traj-weighted-beta0.25",
        "uni_traj-weighted-beta0.75",
    ]


def test_every_config_field_is_a_sweep_key_and_every_scalar_labels_its_variants():
    """The grammar is TrainConfig's fields: each but target and seed is set
    from a sweep, and each scalar that differs within a sweep names it."""
    default = TrainConfig(sampler="prio_traj", metric="return")
    others = {"sampler": "uni_traj", "metric": "avg_reward"}
    for field in dataclasses.fields(TrainConfig):
        if field.name in ("target", "seed"):
            continue
        # only prio_state reads epsilon; every other sampler resets it
        base, prefix = (({"sampler": ["prio_state"]}, "prio_state") if field.name == "epsilon"
                        else ({"sampler": ["prio_traj"], "metric": ["return"]}, "prio_traj-return"))
        value = getattr(default, field.name)
        if field.name in others:
            other = others[field.name]
        else:
            other = value * 2 if type(value) is int else value / 2
        variants = expand_variants(dict(base, **{field.name: [str(value), str(other)]}))
        assert [getattr(v, field.name) for v in variants] == [value, other], field.name
        if field.name not in others:
            assert [variant_label(v, variants) for v in variants] == [
                f"{prefix}-{field.name}{value}", f"{prefix}-{field.name}{other}"]
    # a value the ensemble would reject fails the sweep, not its run
    base = {"sampler": ["prio_traj"], "metric": ["return"]}
    for name in ("eta", "ensemble_size", "target_sync_period"):
        with pytest.raises(ValueError, match=f"{name} must be"):
            expand_variants(dict(base, **{name: ["1", "0"]}))


def test_alpha_and_epsilon_fork_only_the_samplers_that_read_them():
    raw = {"sampler": ["uni_state", "uni_traj", "prio_traj", "prio_state"],
           "metric": ["return"], "alpha": ["0.5", "2"], "epsilon": ["0.01", "0.1"]}
    variants = expand_variants(raw)
    assert [variant_label(v, variants) for v in variants] == [
        "uni_state-alpha1.0-epsilon0.01",
        "uni_traj-alpha1.0-epsilon0.01",
        "prio_traj-return-alpha0.5-epsilon0.01",
        "prio_traj-return-alpha2.0-epsilon0.01",
        "prio_state-alpha0.5-epsilon0.01",
        "prio_state-alpha0.5-epsilon0.1",
        "prio_state-alpha2.0-epsilon0.01",
        "prio_state-alpha2.0-epsilon0.1",
    ]


@pytest.mark.parametrize("record", [
    '{"states": [0], "actions": [0], "rewards": [1%s], "next_states": [1], '
    '"terminal": true, "timeout": false}' % ("0" * 400),
    '{"state_count": 2, "action_count": 1, "discount": 1%s}\n'
    '{"states": [0], "actions": [0], "rewards": [1.0], "next_states": [1], '
    '"terminal": true, "timeout": false}' % ("0" * 400),
], ids=["reward", "discount"])
def test_analyze_reports_a_number_too_large_for_a_float(tmp_path, capsys, record):
    dataset_path = tmp_path / "huge.jsonl"
    dataset_path.write_text(record + "\n", encoding="utf-8")
    assert main(["analyze", "--dataset", str(dataset_path), "--metrics", "return"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_expand_variants_checks_beta_off_a_weighted_target():
    """beta is range-checked before a non-weighted kind resets it."""
    with pytest.raises(ValueError, match=r"beta must be in \[0, 1\], got 2.0"):
        expand_variants({"target": ["standard"], "beta": ["0.5", "2"]})
    assert expand_variants({"target": ["sarsa"], "sampler": ["uni_traj"], "beta": ["0.1"]}) == [
        TrainConfig(target=TargetKind("sarsa"))]


def test_a_bad_sweep_fails_before_any_run(tmp_path, capsys, monkeypatch):
    import trajreplay.cli as cli

    def no_training(*args, **kwargs):
        raise AssertionError("trained a sweep that has a bad variant")

    monkeypatch.setattr(cli, "train", no_training)
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg", "sampler = uni_traj\neta = 0.5, 0\n")
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(dataset_path), "--config", str(config),
                 "--out", str(out)]) == 1
    assert "error: eta must be in (0, 1], got 0.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("save", [False, True])
def test_sweep_holds_an_earlier_runs_ensemble_only_to_save_it(tmp_path, monkeypatch, save):
    import trajreplay.cli as cli

    inner, ensembles, alive = cli.train, [], []

    def tracking_train(dataset, config):
        gc.collect()
        alive.append(sum(ref() is not None for ref in ensembles))
        result = inner(dataset, config)
        ensembles.append(weakref.ref(result.ensemble))
        return result

    monkeypatch.setattr(cli, "train", tracking_train)
    variants = expand_variants({"sampler": ["uni_traj", "prio_traj"], "metric": ["return"],
                                "total_steps": ["20"]})
    spec = cli.ExperimentSpec(tmp_path / "fig1.jsonl", variants, [0, 1], tmp_path / "out",
                              save_ensembles=save)
    cli.run_experiment(spec, make_figure1("sparse"))
    assert alive == ([0, 1, 2, 3] if save else [0, 0, 0, 0])
    assert len(list((tmp_path / "out").glob("*.npz"))) == (4 if save else 0)


def test_curve_csv_bytes_match_a_row_by_row_writer(tmp_path):
    """Repeated values, both zeros in either order and a NaN each keep their
    own text, although equal floats (0.0 and -0.0) share one dict key."""
    curve = np.array([-0.0, 1e-10, 8 * 0.99**5, 1e17, 0.0, -0.0, 8 * 0.99**5, np.nan, 0.0,
                      np.nan, -0.0, 1e-10])
    path = tmp_path / "curve.csv"
    write_curve_csv(path, curve)
    rows = "".join(f"{step},{format(value, '.9g')}\n" for step, value in enumerate(curve, 1))
    assert path.read_bytes() == ("step,max_q_s0\n" + rows).encode()
    assert path.read_bytes() == (b"step,max_q_s0\n1,-0\n2,1e-10\n3,7.6079204\n4,1e+17\n"
                                 b"5,0\n6,-0\n7,7.6079204\n8,nan\n9,0\n10,nan\n11,-0\n12,1e-10\n")


def test_variant_label_includes_target_and_beta():
    config = TrainConfig(sampler="prio_traj", metric="return",
                         target=__import__("trajreplay.targets", fromlist=["TargetKind"]).TargetKind("weighted", 0.25))
    assert variant_label(config) == "prio_traj-return-weighted-beta0.25"


def test_train_writes_expected_files_and_is_deterministic(tmp_path):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg", """
sampler = uni_traj
total_steps = 40
ensemble_size = 1
eta = 1.0
target_sync_period = 1
""")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["train", "--dataset", str(dataset_path), "--config", str(config),
                     "--out", str(out), "--seeds", "0,1"])
        assert code == 0
    csvs = sorted(p.name for p in out_a.glob("*.csv"))
    assert csvs == ["uni_traj__seed0.csv", "uni_traj__seed1.csv"]
    assert (out_a / "summary.json").exists()
    for name in csvs:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    header = (out_a / csvs[0]).read_text().splitlines()[0]
    assert header == "step,max_q_s0"

    summary = json.loads((out_a / "summary.json").read_text())
    assert summary["oracle_s0"] == pytest.approx(8 * 0.99**5)
    assert "uni_traj" in summary["variants"]
    stats = summary["variants"]["uni_traj"]
    assert len(stats["steps_to_eps"]) == 2
    assert stats["mean_wall_ms_per_1000"] > 0


def test_train_failure_names_variant_and_seed(tmp_path, capsys):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg", "sampler = uni_traj\nbatch_size = 9\ntotal_steps = 5\n")
    code = main(["train", "--dataset", str(dataset_path), "--config", str(config),
                 "--out", str(tmp_path / "out"), "--seeds", "3"])
    assert code == 1
    err = capsys.readouterr().err
    assert "(uni_traj, 3)" in err


def test_a_failed_sweep_run_is_reported_as_an_error_and_writes_nothing(tmp_path, capsys):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    capsys.readouterr()
    config = write_config(tmp_path / "c.cfg", "sampler = uni_traj\nbatch_size = 5\ntotal_steps = 5\n")
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(dataset_path), "--config", str(config),
                 "--out", str(out), "--seeds", "0"]) == 1
    assert capsys.readouterr().err.startswith(
        "error: run failed for (variant, seed) = (uni_traj, 0): batch_size must be in [1, 3]"
    )
    assert not out.exists()


@pytest.mark.parametrize("case", ["train-out-is-a-file", "train-dataset-is-a-directory",
                                  "analyze-out-is-a-directory"])
def test_an_os_error_is_reported_not_raised(tmp_path, capsys, case):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    capsys.readouterr()
    config = write_config(tmp_path / "c.cfg", "sampler = uni_traj\ntotal_steps = 5\n")
    train = ["train", "--config", str(config), "--seeds", "0"]
    argv = {
        "train-out-is-a-file": train + ["--dataset", str(dataset_path), "--out", str(config)],
        "train-dataset-is-a-directory": train + ["--dataset", str(tmp_path), "--out",
                                                 str(tmp_path / "out")],
        "analyze-out-is-a-directory": ["analyze", "--dataset", str(dataset_path),
                                       "--out", str(tmp_path)],
    }[case]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("seeds_flag, config_seeds", [("1,1", ""), (None, "seed = 3, 1, 3, 1\n")])
def test_train_rejects_repeated_seeds(tmp_path, capsys, seeds_flag, config_seeds):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg", "sampler = uni_traj\ntotal_steps = 5\n" + config_seeds)
    out = tmp_path / "out"
    argv = ["train", "--dataset", str(dataset_path), "--config", str(config), "--out", str(out)]
    if seeds_flag is not None:
        argv += ["--seeds", seeds_flag]
    assert main(argv) == 1
    repeated = "[1]" if seeds_flag else "[1, 3]"
    assert f"error: seeds {repeated} are repeated" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(("text", "flags", "message"), [
    ("seed = 1\nsampler = uni_traj\nseed = 2\n", [], "c.cfg:3: 'seed' is already given on line 1"),
    ("total_steps = 1e3\n", [], "'total_steps': cannot read '1e3' as int"),
    ("target = weighted\nbeta = half\n", [], "'beta': cannot read 'half' as float"),
    ("seed = 0, one\n", [], "'seed': cannot read 'one' as int"),
    ("sampler = uni_traj\n", ["--seeds", "0,abc"], "'--seeds': cannot read 'abc' as int"),
    ("sampler = uni_traj\nseed = 4\n", ["--seeds", ""], "'--seeds': cannot read '' as int"),
], ids=["key-twice", "int", "float", "seed", "seeds-flag", "empty-seeds-flag"])
def test_a_bad_sweep_line_names_its_key(tmp_path, capsys, text, flags, message):
    """A key given twice names both lines, so no run of the first is dropped
    silently, and a value that does not convert names its key or flag."""
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg", text)
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(dataset_path), "--config", str(config),
                 "--out", str(out), *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(("flags", "config_seeds", "message"), [
    (["--seeds", "0,-1"], "", "seed -1 is negative"),
    ([], "seed = 2, -3\n", "seed -3 is negative"),
    (["--eps-rel", "nan"], "", "eps_rel must be finite and positive, got nan"),
    (["--eps-rel=-0.05"], "", "eps_rel must be finite and positive, got -0.05"),
    (["--eps-rel", "inf"], "", "eps_rel must be finite and positive, got inf"),
], ids=["seeds-flag", "seed-key", "eps-nan", "eps-negative", "eps-inf"])
def test_sweep_seeds_and_eps_rel_are_checked_before_any_run(tmp_path, capsys, monkeypatch,
                                                            flags, config_seeds, message):
    import trajreplay.cli as cli

    def no_training(*args, **kwargs):
        raise AssertionError("trained a sweep with a bad seed or eps_rel")

    monkeypatch.setattr(cli, "train", no_training)
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg", "sampler = uni_traj\n" + config_seeds)
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(dataset_path), "--config", str(config),
                 "--out", str(out), *flags]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_over_scalars_keeps_every_run_and_its_own_oracle(tmp_path):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg", """
sampler = uni_traj
gamma = 0.9, 0.99
ensemble_size = 1, 5
eta = 1.0
target_sync_period = 1
total_steps = 60
""")
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(dataset_path), "--config", str(config),
                 "--out", str(out), "--seeds", "0"]) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == [
        "uni_traj-gamma0.9-ensemble_size1__seed0.csv",
        "uni_traj-gamma0.9-ensemble_size5__seed0.csv",
        "uni_traj-gamma0.99-ensemble_size1__seed0.csv",
        "uni_traj-gamma0.99-ensemble_size5__seed0.csv",
    ]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["oracle_s0"] is None
    variants = summary["variants"]
    assert len(variants) == 4
    for label, entry in variants.items():
        gamma = 0.9 if "gamma0.9-" in label else 0.99
        assert entry["oracle_s0"] == pytest.approx(8 * gamma**5, abs=1e-9)
    assert variants["uni_traj-gamma0.9-ensemble_size1"]["oracle_s0"] == pytest.approx(4.72392)
    assert variants["uni_traj-gamma0.9-ensemble_size5"]["config"] == {
        "sampler": "uni_traj", "metric": "uniform",
        "target": {"kind": "standard", "beta": 0.5},
        "gamma": 0.9, "alpha": 1.0, "epsilon": 0.01, "eta": 1.0, "ensemble_size": 5,
        "batch_size": 1, "total_steps": 60, "target_sync_period": 1,
    }
    # each echoed config rebuilds its run's TrainConfig, which names its label
    configs = [TrainConfig(**dict(entry["config"], target=TargetKind(**entry["config"]["target"])))
               for entry in variants.values()]
    assert [variant_label(c, configs) for c in configs] == list(variants)
    # eta = 1 propagates the return in one backward pass, so each run reaches
    # its own oracle; against the 0.99 oracle the 0.9 runs would never get there
    for entry in variants.values():
        assert entry["median_steps_to_eps"] is not None


def test_variant_label_names_only_fields_that_differ():
    variants = expand_variants({"sampler": ["uni_traj", "prio_traj"], "metric": ["return"],
                                "target": ["standard", "weighted"], "beta": ["0.5"],
                                "eta": ["1.0"]})
    assert [variant_label(v, variants) for v in variants] == [
        "uni_traj", "uni_traj-weighted-beta0.5",
        "prio_traj-return", "prio_traj-return-weighted-beta0.5",
    ]
    swept = expand_variants({"sampler": ["uni_traj"], "batch_size": ["1", "2"]})
    assert [variant_label(v, swept) for v in swept] == [
        "uni_traj-batch_size1", "uni_traj-batch_size2"]


def test_duplicate_labels_rejected_before_training(tmp_path, monkeypatch):
    import trajreplay.cli as cli

    def no_training(*args, **kwargs):
        raise AssertionError("trained despite duplicate labels")

    monkeypatch.setattr(cli, "train", no_training)
    config = TrainConfig(sampler="uni_traj", total_steps=5)
    spec = cli.ExperimentSpec(tmp_path / "missing.jsonl", [config, config], [0], tmp_path / "out")
    with pytest.raises(ValueError, match="share the labels"):
        cli.run_experiment(spec, make_figure1("sparse"))
    assert not (tmp_path / "out").exists()


def test_oracle_reads_the_start_state(tmp_path, monkeypatch):
    import trajreplay.cli as cli
    from trajreplay.dataset import OfflineDataset
    from trajreplay.learner import value_iteration_oracle
    from trajreplay.scenarios import make_random_chain

    ds = make_random_chain(3, 2, 4, np.random.default_rng(21), terminal_prob=1.0)
    oracle = value_iteration_oracle(ds, 0.99)
    other = ds.trajectories[2].transitions[0].state
    assert oracle[other] != oracle[ds.start_state]
    monkeypatch.setattr(OfflineDataset, "start_state", property(lambda self: other))
    spec = cli.ExperimentSpec(tmp_path / "chain.jsonl", [TrainConfig(total_steps=20)], [0],
                              tmp_path / "out")
    cli.run_experiment(spec, ds)
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["oracle_s0"] == float(oracle[other])


def test_train_exits_with_error_when_gamma_one_oracle_has_no_value(tmp_path, capsys):
    from trajreplay.dataset import OfflineDataset, Trajectory, Transition, save_dataset

    transitions = (Transition(0, 0, 1.0, 1, False), Transition(1, 0, 1.0, 0, False))
    ds = OfflineDataset(
        (Trajectory(transitions, timeout_truncated=True),), state_count=2, action_count=1
    )
    save_dataset(ds, tmp_path / "cycle.jsonl")
    config = write_config(tmp_path / "c.cfg", "gamma = 1.0\ntotal_steps = 5\n")
    code = main(["train", "--dataset", str(tmp_path / "cycle.jsonl"), "--config", str(config),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out" / "summary.json").exists()


def test_analyze_return_metric_ranks_figure1(tmp_path):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    out = tmp_path / "metrics.csv"
    assert main(["analyze", "--dataset", str(dataset_path),
                 "--metrics", "return", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,length,return,return_rank"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert [r[2] for r in rows] == ["4", "8", "4"]
    # return 8 ranks first; the tie at 4 breaks by ascending id
    assert [r[3] for r in rows] == ["2", "1", "3"]


def test_analyze_empty_metric_list_gives_id_length_only(tmp_path, capsys):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    capsys.readouterr()
    assert main(["analyze", "--dataset", str(dataset_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "id,length"
    assert out.splitlines()[1] == "0,4"


def test_analyze_unknown_metric_errors(tmp_path, capsys):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    assert main(["analyze", "--dataset", str(dataset_path), "--metrics", "sharpe"]) == 1
    assert "unknown metric" in capsys.readouterr().err


def test_analyze_uncertainty_unavailable_without_ensemble(tmp_path, capsys):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    assert main(["analyze", "--dataset", str(dataset_path),
                 "--metrics", "lower_mean_unc"]) == 0
    captured = capsys.readouterr()
    assert "unavailable" in captured.out
    assert "unavailable" in captured.err


def test_analyze_flat_input_matches_trajectory_input(tmp_path):
    dataset_path = tmp_path / "traj.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    ds = load_dataset(dataset_path)
    flat_path = tmp_path / "flat.jsonl"
    with flat_path.open("w") as fh:
        for tr, timeout in flatten_trajectories(ds.trajectories):
            fh.write(json.dumps({
                "state": tr.state, "action": tr.action, "reward": tr.reward,
                "next_state": tr.next_state, "terminal": tr.terminal,
                "timeout": timeout,
            }) + "\n")
    out_traj, out_flat = tmp_path / "t.csv", tmp_path / "f.csv"
    main(["analyze", "--dataset", str(dataset_path), "--metrics",
          "return,uqm_reward,min_reward", "--out", str(out_traj)])
    main(["analyze", "--dataset", str(flat_path),
          "--metrics", "return,uqm_reward,min_reward", "--out", str(out_flat)])
    assert out_traj.read_bytes() == out_flat.read_bytes()


def test_analyze_ranks_agree_with_rank_order_for_every_quality_metric(tmp_path):
    from trajreplay.priority import QUALITY_KINDS, build_priority_table, rank_order
    from trajreplay.scenarios import make_random_chain
    from trajreplay.dataset import save_dataset

    ds = make_random_chain(7, 1, 9, np.random.default_rng(21), action_count=3)
    dataset_path = tmp_path / "rand.jsonl"
    save_dataset(ds, dataset_path)
    out = tmp_path / "ranks.csv"
    assert main(["analyze", "--dataset", str(dataset_path),
                 "--metrics", ",".join(QUALITY_KINDS), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    for metric in QUALITY_KINDS:
        col = header.index(f"{metric}_rank")
        table = build_priority_table(ds, metric)
        order = rank_order(table, list(range(7)))
        expected = {tid: rank for rank, tid in enumerate(order, start=1)}
        got = {int(row[0]): int(row[col]) for row in rows}
        assert got == expected, metric


def test_train_four_sampler_cross_product(tmp_path):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg", """
sampler = uni_state, prio_state, uni_traj, prio_traj
metric = return
eta = 1.0
ensemble_size = 1
target_sync_period = 1
total_steps = 25
""")
    out = tmp_path / "out"
    assert main(["train", "--dataset", str(dataset_path), "--config", str(config),
                 "--out", str(out), "--seeds", "0"]) == 0
    labels = sorted(p.name for p in out.glob("*.csv"))
    assert labels == [
        "prio_state__seed0.csv",
        "prio_traj-return__seed0.csv",
        "uni_state__seed0.csv",
        "uni_traj__seed0.csv",
    ]


def test_analyze_with_saved_ensemble_for_uncertainty(tmp_path):
    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    config = write_config(tmp_path / "c.cfg",
                          "sampler = uni_traj\ntotal_steps = 10\nensemble_size = 3\n")
    run_dir = tmp_path / "run"
    main(["train", "--dataset", str(dataset_path), "--config", str(config),
          "--out", str(run_dir), "--seeds", "0", "--save-ensembles"])
    ensembles = list(run_dir.glob("*.npz"))
    assert len(ensembles) == 1
    out = tmp_path / "unc.csv"
    assert main(["analyze", "--dataset", str(dataset_path),
                 "--metrics", "lower_mean_unc", "--ensemble", str(ensembles[0]),
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "id,length,lower_mean_unc,lower_mean_unc_rank"
    values = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(np.isfinite(values))


@pytest.mark.parametrize("shape", [(136, 2), (16, 2), (5, 3)])
def test_analyze_rejects_an_ensemble_of_another_shape(tmp_path, capsys, shape):
    from trajreplay.learner import EnsembleQ

    dataset_path = tmp_path / "ds.jsonl"
    main(["generate", "--scenario", "figure1-sparse", "--out", str(dataset_path)])
    ensemble_path = tmp_path / "other.npz"
    EnsembleQ(*shape, 5, rng=np.random.default_rng(0)).save(ensemble_path)
    capsys.readouterr()
    assert main(["analyze", "--dataset", str(dataset_path), "--metrics", "lower_mean_unc",
                 "--ensemble", str(ensemble_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: ensemble tables are (S, A) = {shape}, "
                            "but the dataset needs (16, 3)\n")


# SHA-256 of `analyze`'s CSV bytes for all 13 metric kinds: the priority
# values and ranks it writes are a contract, whatever form the table takes.
ANALYZE_DIGESTS = {
    "figure1-sparse": "7304358f3edc2476b268dbd2a6043cb174400d2f60d79d2c29629f89a78e729c",
    "chain-40": "20157b28da67b3dd00b7a90fcb439bd264efcb52a3d5de556b14f6274d9789e2",
}


def analyze_inputs(name, tmp_path):
    """A dataset and a K = 5 ensemble for it whose members agree exactly at
    every third state, so the uncertainty kinds have floored ties."""
    from trajreplay.dataset import save_dataset
    from trajreplay.learner import EnsembleQ
    from trajreplay.scenarios import make_random_chain

    if name == "figure1-sparse":
        ds = make_figure1("sparse")
    else:
        ds = make_random_chain(40, 1, 12, np.random.default_rng(23), action_count=3,
                               terminal_prob=0.5)
    tables = np.random.default_rng(24).uniform(0.0, 1.0, (5, ds.state_count, ds.action_count))
    tables[:, ::3] = 0.5
    dataset_path, ensemble_path = tmp_path / "ds.jsonl", tmp_path / "ens.npz"
    save_dataset(ds, dataset_path)
    EnsembleQ.from_tables(tables).save(ensemble_path)
    return dataset_path, ensemble_path


@pytest.mark.parametrize("name", sorted(ANALYZE_DIGESTS))
def test_analyze_writes_the_pinned_bytes_for_every_metric_kind(tmp_path, name):
    import hashlib

    from trajreplay.priority import ALL_KINDS

    assert len(ALL_KINDS) == 13
    dataset_path, ensemble_path = analyze_inputs(name, tmp_path)
    out = tmp_path / "all.csv"
    assert main(["analyze", "--dataset", str(dataset_path), "--metrics", ",".join(ALL_KINDS),
                 "--ensemble", str(ensemble_path), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ANALYZE_DIGESTS[name]
