"""Command-line surface: dataset generation, experiment sweeps, metric analysis.

Subcommands:

* ``generate`` -- write a synthetic dataset (motivating instances or random
  chains) as trajectory JSONL.
* ``train``    -- run a config-file-driven sweep of (variant, seed) pairs,
  emitting one learning-curve CSV per run plus a summary JSON.
* ``analyze``  -- tabulate per-trajectory metric values and ranks as CSV.

Config files are flat ``key = value`` lines ('#' comments); any value may be a
comma-separated list, and the cross-product of all list-valued keys defines
the variants.  Learning-curve CSVs are deterministic: fixed column order, 9
significant digits, LF line endings.  Wall-clock timing is reported in the
summary JSON only, keeping the CSVs byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Sequence, get_type_hints

import numpy as np

from .dataset import OfflineDataset, load_dataset, save_dataset
from .learner import (
    PRIO_TRAJ,
    EnsembleQ,
    TrainConfig,
    steps_to_threshold,
    train,
    value_iteration_oracle,
)
from .priority import (
    ALL_KINDS,
    UNCERTAINTY_KINDS,
    build_priority_table,
    rank_order,
)
from .scenarios import (
    FIGURE1_DENSE,
    FIGURE1_SPARSE,
    SCENARIOS,
    make_figure1,
    make_random_chain,
)
from .targets import STANDARD, WEIGHTED, TargetKind


def _fmt(value: float) -> str:
    return format(value, ".9g")


def parse_config_file(path: str | Path) -> dict[str, list[str]]:
    """Read flat key = value lines, one per key; comma-separated values become lists."""
    values: dict[str, list[str]] = {}
    key_lines: dict[str, int] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw.strip()!r}")
        entries = [v.strip() for v in value.split(",") if v.strip()]
        if not entries:
            raise ValueError(f"{path}:{line_no}: no value given for {key!r}")
        if key in key_lines:
            raise ValueError(f"{path}:{line_no}: {key!r} is already given on line {key_lines[key]}")
        key_lines[key] = line_no
        values[key] = entries
    return values


def _read(key: str, kind: type, value: str):
    """A config key's or flag's value as its type; one that does not convert names it."""
    try:
        return kind(value)
    except ValueError:
        raise ValueError(f"{key!r}: cannot read {value!r} as {kind.__name__}") from None


def _field_types(cls) -> dict[str, type]:
    return {f.name: get_type_hints(cls)[f.name] for f in fields(cls)}


# A sweep key names a TrainConfig field and is read as that field's type,
# except that ``target`` and ``beta`` set the fields of its TargetKind and
# ``seed`` lists the seeds every variant runs with.
_CONFIG_TYPES = _field_types(TrainConfig)
_TARGET_TYPES = _field_types(TargetKind)
_TARGET_KEYS = {"target": "kind", "beta": "beta"}
# the fields a label names by value when they differ within a sweep
_SCALARS = [name for name, t in _CONFIG_TYPES.items() if t in (int, float) and name != "seed"]


def expand_variants(raw: dict[str, list[str]]) -> list[TrainConfig]:
    """Cross-product of all list-valued keys into normalized TrainConfigs.

    TrainConfig and TargetKind reset the values a run ignores (the metric of
    a non-prioritized sampler, the beta of a non-weighted target), so
    duplicates created by the product are dropped.  A value either rejects
    fails the whole sweep here, before any run.
    """
    for key in raw:
        if key not in _CONFIG_TYPES and key not in _TARGET_KEYS:
            raise ValueError(f"unknown config key {key!r}")
    keys = [key for key in raw if key != "seed"]
    configs: list[TrainConfig] = []
    for values in itertools.product(*(raw[key] for key in keys)):
        combo = dict(zip(keys, values))
        target = {name: _read(key, _TARGET_TYPES[name], combo.pop(key))
                  for key, name in _TARGET_KEYS.items() if key in combo}
        config = TrainConfig(target=TargetKind(**target),
                             **{key: _read(key, _CONFIG_TYPES[key], value)
                                for key, value in combo.items()})
        # every config keeps the default seed, so equality is the variant's identity
        if config not in configs:
            configs.append(config)
    return configs


def variant_label(config: TrainConfig, variants: Sequence[TrainConfig] = ()) -> str:
    """Name a variant by sampler, metric, target and beta, then by every scalar
    field whose value differs between ``variants`` (the sweep it belongs to),
    e.g. ``uni_traj-gamma0.9-ensemble_size5``."""
    parts = [config.sampler]
    if config.sampler == PRIO_TRAJ:
        parts.append(config.metric)
    if config.target.kind != STANDARD:
        parts.append(config.target.kind)
        if config.target.kind == WEIGHTED:
            parts.append(f"beta{config.target.beta:g}")
    for name in _SCALARS:
        if len({getattr(v, name) for v in variants}) > 1:
            parts.append(f"{name}{getattr(config, name)}")
    return "-".join(parts)


@dataclass
class ExperimentSpec:
    """A full sweep: dataset, config variants, seeds, and output directory."""

    dataset_path: Path
    variants: list[TrainConfig]
    seeds: list[int]
    out_dir: Path
    eps_rel: float = 0.05
    save_ensembles: bool = False

    def __post_init__(self) -> None:
        if not self.seeds:
            raise ValueError("seed list is empty")
        if not self.variants:
            raise ValueError("no variants configured")
        repeated = sorted({seed for seed in self.seeds if self.seeds.count(seed) > 1})
        if repeated:
            raise ValueError(f"seeds {repeated} are repeated; each seed runs once")
        if min(self.seeds) < 0:
            raise ValueError(f"seed {min(self.seeds)} is negative; a seed must be >= 0")
        if not 0.0 < self.eps_rel < np.inf:
            raise ValueError(f"eps_rel must be finite and positive, got {self.eps_rel}")


def run_experiment(spec: ExperimentSpec, dataset: OfflineDataset) -> Path:
    """Execute every (variant, seed) run on ``dataset`` and write CSVs plus summary.json.

    Every run trains before the output directory is made or any file is
    written, so a failed run leaves nothing behind.  Each variant's
    steps-to-eps is measured against the oracle at its own discount.  Returns
    the output directory.
    """
    labels = [variant_label(config, spec.variants) for config in spec.variants]
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise ValueError(f"sweep variants share the labels {repeated}; each run needs its own")
    s0 = dataset.start_state
    oracles = {
        gamma: float(value_iteration_oracle(dataset, gamma)[s0])
        for gamma in sorted({config.gamma for config in spec.variants})
    }

    # a run keeps its curve and wall time, and its ensemble only to save it
    def run_one(config: TrainConfig, label: str, seed: int) -> tuple:
        try:
            result = train(dataset, config.with_seed(seed))
        except Exception as exc:
            raise ValueError(
                f"run failed for (variant, seed) = ({label}, {seed}): {exc}"
            ) from exc
        ensemble = result.ensemble if spec.save_ensembles else None
        return result.curve, result.wall_ms_per_1000, ensemble

    runs = {
        (label, seed): run_one(config, label, seed)
        for config, label in zip(spec.variants, labels)
        for seed in spec.seeds
    }
    spec.out_dir.mkdir(parents=True, exist_ok=True)

    summary: dict = {
        "dataset": str(spec.dataset_path),
        # one value when every variant trains at the same discount
        "oracle_s0": next(iter(oracles.values())) if len(oracles) == 1 else None,
        "eps_rel": spec.eps_rel,
        "seeds": spec.seeds,
        "variants": {},
    }
    for config, label in zip(spec.variants, labels):
        oracle_s0 = oracles[config.gamma]
        steps_to = []
        finals = []
        wall = []
        for seed in spec.seeds:
            curve, wall_ms, ensemble = runs[(label, seed)]
            write_curve_csv(spec.out_dir / f"{label}__seed{seed}.csv", curve)
            if ensemble is not None:
                ensemble.save(spec.out_dir / f"{label}__seed{seed}.npz")
            steps_to.append(steps_to_threshold(curve, oracle_s0, spec.eps_rel))
            finals.append(float(curve[-1]))
            wall.append(wall_ms)
        censored = [np.inf if s is None else s for s in steps_to]
        median = float(np.median(censored))
        summary["variants"][label] = {
            # the run's seeds are the top-level "seeds", not the config's own
            "config": {k: v for k, v in asdict(config).items() if k != "seed"},
            "oracle_s0": oracle_s0,
            "steps_to_eps": steps_to,
            "median_steps_to_eps": None if not np.isfinite(median) else median,
            "final_max_q_s0": finals,
            "median_final_max_q_s0": float(np.median(finals)),
            "mean_wall_ms_per_1000": float(np.mean(wall)),
        }
    with (spec.out_dir / "summary.json").open("w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return spec.out_dir


def _resolve_seeds(args, raw_config: dict[str, list[str]]) -> list[int]:
    """The seeds of ``--seeds``, else of the config's ``seed`` key, else seed 0."""
    if args.seeds is not None:
        return [_read("--seeds", int, s) for s in args.seeds.split(",")]
    return [_read("seed", int, s) for s in raw_config.get("seed", ["0"])]


def write_curve_csv(path: Path, curve: np.ndarray) -> None:
    # the rows formatted by _fmt, each distinct value once, written in one call; a
    # value is keyed by its bits, so -0.0 keeps its own text apart from 0.0
    keys, inverse = np.unique(curve.view(np.int64), return_inverse=True)
    texts = np.array(list(map(_fmt, keys.view(np.float64).tolist())), dtype=object)
    rows = "".join(f"{step},{text}\n" for step, text in enumerate(texts[inverse].tolist(), 1))
    path.write_text("step,max_q_s0\n" + rows, encoding="utf-8", newline="\n")


def cmd_generate(args) -> int:
    if args.scenario == FIGURE1_SPARSE:
        dataset = make_figure1("sparse")
    elif args.scenario == FIGURE1_DENSE:
        dataset = make_figure1("dense")
    else:
        rng = np.random.default_rng(args.seed)
        dataset = make_random_chain(
            n_trajectories=args.n_traj,
            min_length=args.min_len,
            max_length=args.max_len,
            rng=rng,
            action_count=args.actions,
            terminal_prob=args.terminal_prob,
        )
    save_dataset(dataset, args.out)
    print(f"wrote {dataset.n_trajectories} trajectories "
          f"({dataset.total_transitions} transitions) to {args.out}")
    return 0


def cmd_train(args) -> int:
    dataset = load_dataset(args.dataset)
    raw = parse_config_file(args.config)
    spec = ExperimentSpec(
        dataset_path=Path(args.dataset),
        variants=expand_variants(raw),
        seeds=_resolve_seeds(args, raw),
        out_dir=Path(args.out),
        eps_rel=args.eps_rel,
        save_ensembles=args.save_ensembles,
    )
    run_experiment(spec, dataset)
    print(
        f"wrote {len(spec.variants) * len(spec.seeds)} runs "
        f"({len(spec.variants)} variants x {len(spec.seeds)} seeds) to {spec.out_dir}"
    )
    return 0


def cmd_analyze(args) -> int:
    dataset = load_dataset(args.dataset)
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()] if args.metrics else []
    for metric in metrics:
        if metric not in ALL_KINDS:
            raise ValueError(f"unknown metric name {metric!r}")
    ensemble = EnsembleQ.load(args.ensemble) if args.ensemble else None
    shape = (dataset.state_count, dataset.action_count)
    if ensemble is not None and ensemble.tables.shape[1:] != shape:
        raise ValueError(f"ensemble tables are (S, A) = {ensemble.tables.shape[1:]}, "
                         f"but the dataset needs {shape}")
    n = dataset.n_trajectories
    header = ["id", "length"]
    columns: list[list[str]] = []
    for metric in metrics:
        header += [metric, f"{metric}_rank"]
        if metric in UNCERTAINTY_KINDS and ensemble is None:
            print(f"metric {metric!r} unavailable without --ensemble", file=sys.stderr)
            columns.append(["unavailable"] * n)
            columns.append(["unavailable"] * n)
            continue
        table = build_priority_table(dataset, metric, ensemble=ensemble)
        ranks = np.empty(n, dtype=np.intp)
        ranks[rank_order(table, range(n))] = np.arange(1, n + 1)
        columns.append(list(map(_fmt, table.values.tolist())))
        columns.append(list(map(str, ranks.tolist())))

    lines = [",".join(header)]
    offsets = dataset.offsets
    for j in range(n):
        row = [str(j), str(offsets[j + 1] - offsets[j])] + [col[j] for col in columns]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trajreplay",
        description="Trajectory replay experiments: generate datasets, run sweeps, analyze metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--scenario", required=True, choices=SCENARIOS)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n-traj", type=int, default=10, dest="n_traj")
    gen.add_argument("--min-len", type=int, default=1, dest="min_len")
    gen.add_argument("--max-len", type=int, default=10, dest="max_len")
    gen.add_argument("--actions", type=int, default=2)
    gen.add_argument("--terminal-prob", type=float, default=0.8, dest="terminal_prob")
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=cmd_generate)

    tr = sub.add_parser("train", help="run a sweep from a config file")
    tr.add_argument("--dataset", required=True)
    tr.add_argument("--config", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--seeds", default=None, help="comma-separated seed list")
    tr.add_argument("--eps-rel", type=float, default=0.05, dest="eps_rel",
                    help="relative band around the oracle for steps-to-eps")
    tr.add_argument("--save-ensembles", action="store_true", dest="save_ensembles")
    tr.set_defaults(func=cmd_train)

    an = sub.add_parser("analyze", help="per-trajectory metric table as CSV")
    an.add_argument("--dataset", required=True)
    an.add_argument("--metrics", default="", help="comma-separated metric names")
    an.add_argument("--ensemble", default=None, help="saved ensemble .npz for uncertainty metrics")
    an.add_argument("--out", default=None)
    an.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
