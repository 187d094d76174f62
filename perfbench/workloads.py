"""The benchmark's inputs and workloads.

Every input is written by the benchmark itself, from ``--seed``, into the
run's work directory; the program only reads the files.  A workload's *round*
is its fixed list of operations, and one round is the timed section that
``wall_s`` reports.  Rounds repeat the same operations, so their outputs must
agree exactly.  Each operation's time is scaled to the reference machine
speed by the workload's ``speed`` probe (see ``speed.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import trajreplay.cli as cli
import trajreplay.dataset as dataset_mod
import trajreplay.learner as learner
from trajreplay.learner import TrainConfig
from trajreplay.targets import TargetKind

from checks import check_curve, steps_to_band
from speed import NoProbe

GAMMA = 0.99
TRAJ_SAMPLERS = ("uni_traj", "prio_traj")


@dataclass
class Instance:
    """The benchmark's own record of an input: flat arrays, trajectory-major."""

    lengths: np.ndarray
    terminal: np.ndarray
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    state_count: int
    action_count: int

    def write(self, path: Path) -> None:
        """Trajectory JSONL with a metadata line, the format ``load_dataset`` reads."""
        ends = np.cumsum(self.lengths)
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            meta = {"state_count": self.state_count, "action_count": self.action_count,
                    "discount": GAMMA}
            fh.write(json.dumps(meta) + "\n")
            for j, end in enumerate(ends):
                lo = end - self.lengths[j]
                record = {
                    "states": self.states[lo:end].tolist(),
                    "actions": self.actions[lo:end].tolist(),
                    "rewards": self.rewards[lo:end].tolist(),
                    "next_states": self.next_states[lo:end].tolist(),
                    "terminal": bool(self.terminal[j]),
                    "timeout": not self.terminal[j],
                }
                fh.write(json.dumps(record) + "\n")

    def mismatch(self, ds) -> str | None:
        """Compare a loaded dataset with this record; None when they agree."""
        lengths = [traj.length for traj in ds.trajectories]
        if lengths != self.lengths.tolist():
            return "loaded trajectory lengths differ from the written file"
        ends = [traj.transitions[-1].terminal for traj in ds.trajectories]
        timeouts = [traj.timeout_truncated for traj in ds.trajectories]
        if ends != self.terminal.tolist() or timeouts != (~self.terminal).tolist():
            return "loaded terminal/timeout flags differ from the written file"
        steps = [(tr.state, tr.action, tr.reward, tr.next_state)
                 for traj in ds.trajectories for tr in traj.transitions]
        written = list(zip(self.states.tolist(), self.actions.tolist(),
                           self.rewards.tolist(), self.next_states.tolist()))
        if steps != written:
            return "loaded transitions differ from the written file"
        return None


def figure1_sparse() -> Instance:
    """Three terminal trajectories from shared state 0, returns 4, 8 and 4 paid at the end."""
    states, next_states, rewards, actions, lengths = [], [], [], [], []
    fresh = 1
    for action, (length, payoff) in enumerate(((4, 4.0), (6, 8.0), (5, 4.0))):
        chain = list(range(fresh, fresh + length))
        states += [0] + chain[:-1]
        next_states += chain
        rewards += [0.0] * (length - 1) + [payoff]
        actions += [action] * length
        lengths.append(length)
        fresh += length
    return Instance(np.array(lengths), np.ones(3, dtype=bool), np.array(states),
                    np.array(actions), np.array(rewards), np.array(next_states), fresh, 3)


def random_chains(rng: np.random.Generator, n: int, min_len: int, max_len: int,
                  action_count: int, terminal_prob: float) -> Instance:
    """Chains on disjoint states, so the data's MDP is deterministic.

    Rewards are drawn from [0, 1): every value along a chain then exceeds the
    initial Q-values of the actions the data never takes (at most 0.1), so
    ``max_a Qbar(s0, a)`` converges to the data oracle.
    """
    lengths = rng.integers(min_len, max_len + 1, size=n)
    terminal = rng.random(n) < terminal_prob
    total = int(lengths.sum())
    # trajectory j owns states [first_j, first_j + length_j]; the last is its end state
    first = np.repeat(np.cumsum(lengths + 1) - (lengths + 1), lengths)
    within = np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    states = first + within
    return Instance(lengths, terminal, states, rng.integers(0, action_count, size=total),
                    rng.random(total), states + 1, int((lengths + 1).sum()), action_count)


def op_key(config: TrainConfig) -> tuple:
    """An operation is one (variant, seed) training run; within a workload the
    sampler, target kind and seed tell its runs apart."""
    return (config.sampler, config.target.kind, config.seed)


@dataclass
class Round:
    """Timings and per-operation outcomes of one round."""

    wall_s: float
    train_s: float
    transitions: int
    setup_s: float = 0.0
    speed: float = 1.0  # reference-speed factor over the whole round
    steps: dict[tuple, int] = field(default_factory=dict)
    failed: dict[tuple, list[str]] = field(default_factory=dict)


class Workload:
    """Writes its input at construction; ``setup`` loads it, ``run_round`` times one round."""

    name = ""

    def __init__(self, work: Path, seed: int) -> None:
        self.work = work
        self.seed = seed
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        self.data_path = work / "dataset.jsonl"
        self.instance = self.make_instance(np.random.default_rng(seed))
        self.instance.write(self.data_path)
        self.ops = self.make_ops()
        self.dataset = None
        self.speed = NoProbe()

    def make_instance(self, rng: np.random.Generator) -> Instance:
        raise NotImplementedError

    def make_ops(self) -> list[TrainConfig]:
        raise NotImplementedError

    def oracle(self, gamma: float) -> float:
        """Discounted return of trajectory 0: the value of s0 on disjoint chains."""
        inst = self.instance
        return float(np.sum(gamma ** np.arange(inst.lengths[0]) * inst.rewards[: inst.lengths[0]]))

    def setup(self) -> None:
        self.dataset = dataset_mod.load_dataset(self.data_path)

    def transitions_per_round(self) -> int:
        return sum(cfg.total_steps * cfg.batch_size for cfg in self.ops)

    def steps_per_round(self) -> int:
        return sum(cfg.total_steps for cfg in self.ops)

    def judge(self, cfg: TrainConfig, curve: np.ndarray, rnd: Round) -> None:
        oracle = self.oracle(cfg.gamma)
        # eta = 1 with a trajectory sampler propagates returns exactly in one pass
        must = cfg.sampler in TRAJ_SAMPLERS and cfg.eta == 1.0
        errors = check_curve(curve, cfg.total_steps, oracle, must)
        if errors:
            rnd.failed[op_key(cfg)] = errors
        if curve.shape == (cfg.total_steps,):
            hit = steps_to_band(curve, oracle)
            rnd.steps[op_key(cfg)] = cfg.total_steps + 1 if hit is None else hit

    def run_round(self) -> Round:
        """Time each operation on the loaded dataset, at the reference speed."""
        curves: list[np.ndarray | None] = []
        errors: list[str | None] = []
        wall = 0.0
        for cfg in self.ops:
            mark = self.speed.mark()
            t0 = time.perf_counter()
            try:
                curves.append(learner.train(self.dataset, cfg).curve)
                errors.append(None)
            except Exception:  # noqa: BLE001 - an operation that raises has failed
                curves.append(None)
                errors.append(traceback.format_exc(limit=3))
            wall += (time.perf_counter() - t0) * self.speed.factor(mark)
        rnd = Round(wall, wall, self.transitions_per_round())
        for cfg, curve, err in zip(self.ops, curves, errors):
            if err is not None:
                rnd.failed[op_key(cfg)] = [err]
            else:
                self.judge(cfg, curve, rnd)
        return rnd


class ChainBootstrap(Workload):
    name = "chain-bootstrap"
    seeds_per_sampler = 2

    def make_instance(self, rng):
        return random_chains(rng, 1000, 10, 10, 4, 1.0)

    def make_ops(self):
        return [
            TrainConfig(sampler=sampler, eta=1.0, ensemble_size=5, batch_size=32,
                        target_sync_period=1, total_steps=1000, gamma=GAMMA,
                        seed=self.seed * 100 + i)
            for sampler in ("uni_state", "prio_state", "uni_traj")
            for i in range(self.seeds_per_sampler)
        ]


class ChainPrioScale(Workload):
    name = "chain-prio-scale"

    def make_instance(self, rng):
        return random_chains(rng, 10_000, 1, 50, 4, 0.8)

    def make_ops(self):
        return [
            TrainConfig(sampler="prio_traj", metric=metric, target=TargetKind(kind, 0.5),
                        ensemble_size=5, batch_size=256, total_steps=500, gamma=GAMMA,
                        seed=self.seed * 100)
            for metric, kind in (("lower_mean_unc", "sarsa"), ("return", "weighted"))
        ]


FIG1_SWEEPS = {
    # the state samplers can only use the standard target
    "state": "sampler = uni_state, prio_state\ntarget = standard\n",
    "traj": "sampler = uni_traj, prio_traj\nmetric = return\n"
            "target = standard, sarsa, weighted\nbeta = 0.5\n",
}
FIG1_COMMON = "eta = 1.0\nensemble_size = 1\nbatch_size = 1\ntarget_sync_period = 1\ntotal_steps = 1500\n"
# Fixed, like the instance itself: the median step count sits where its
# distribution jumps from 11 to 15, so a seed-dependent list would flip it.
FIG1_SEEDS = tuple(range(10))


class Fig1Sweep(Workload):
    """The ``train`` subcommand, in-process, over two sweep files."""

    name = "fig1-sweep"

    def __init__(self, work: Path, seed: int) -> None:
        super().__init__(work, seed)
        self.configs = {}
        for sweep, body in FIG1_SWEEPS.items():
            path = self.work / f"{sweep}.cfg"
            path.write_text(body + FIG1_COMMON, encoding="utf-8")
            self.configs[sweep] = path

    def make_instance(self, rng):
        return figure1_sparse()

    def make_ops(self):
        base = dict(eta=1.0, ensemble_size=1, batch_size=1, target_sync_period=1,
                    total_steps=1500, gamma=GAMMA)
        variants = [("uni_state", "uniform", "standard"), ("prio_state", "uniform", "standard")]
        variants += [(s, "return" if s == "prio_traj" else "uniform", k)
                     for s in TRAJ_SAMPLERS for k in ("standard", "sarsa", "weighted")]
        return [TrainConfig(sampler=s, metric=m, target=TargetKind(k, 0.5), seed=seed, **base)
                for s, m, k in variants for seed in FIG1_SEEDS]

    def oracle(self, gamma: float) -> float:
        return 8.0 * gamma**5  # trajectory 1 pays 8 after 6 steps

    def _sweep_of(self, cfg: TrainConfig) -> str:
        return "traj" if cfg.sampler in TRAJ_SAMPLERS else "state"

    def run_round(self) -> Round:
        for sweep in self.configs:
            shutil.rmtree(self.work / sweep, ignore_errors=True)
        clock = [0.0]
        inner = cli.train

        def timed_train(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                clock[0] += time.perf_counter() - t0

        seeds = ",".join(map(str, FIG1_SEEDS))
        codes, wall, train_s, err = {}, 0.0, 0.0, io.StringIO()
        cli.train = timed_train
        try:
            for sweep, cfg in self.configs.items():
                mark, clock[0] = self.speed.mark(), 0.0
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    codes[sweep] = cli.main(["train", "--dataset", str(self.data_path),
                                             "--config", str(cfg), "--out", str(self.work / sweep),
                                             "--seeds", seeds])
                elapsed, factor = time.perf_counter() - t0, self.speed.factor(mark)
                wall += elapsed * factor
                train_s += clock[0] * factor
        finally:
            cli.train = inner
        rnd = Round(wall, train_s, self.transitions_per_round())
        for sweep in self.configs:
            ops = [cfg for cfg in self.ops if self._sweep_of(cfg) == sweep]
            problem = None if codes[sweep] == 0 else f"train exited {codes[sweep]}: {err.getvalue()[-300:]}"
            if problem is None:
                try:
                    problem = self._check_sweep(self.work / sweep, ops)
                except (OSError, ValueError, KeyError) as exc:
                    problem = f"sweep output unreadable: {exc!r}"
            curves = {} if problem else self._read_curves(self.work / sweep)
            for cfg in ops:
                key = op_key(cfg)
                if problem:
                    rnd.failed[key] = [problem]
                elif key not in curves:
                    rnd.failed[key] = ["no curve CSV for this (variant, seed)"]
                else:
                    self.judge(cfg, curves[key], rnd)
        return rnd

    def _check_sweep(self, out: Path, ops: list[TrainConfig]) -> str | None:
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        oracle = self.oracle(GAMMA)
        if abs(summary["oracle_s0"] - oracle) > 1e-9:
            return f"summary oracle_s0 {summary['oracle_s0']} != 8*gamma^5 = {oracle}"
        variants = len(ops) // len(FIG1_SEEDS)
        if len(summary["variants"]) != variants:
            return f"summary has {len(summary['variants'])} variants, expected {variants}"
        csvs = list(out.glob("*.csv"))
        if len(csvs) != len(ops):
            return f"sweep wrote {len(csvs)} CSVs, expected one per (variant, seed): {len(ops)}"
        return None

    @staticmethod
    def _read_curves(out: Path) -> dict[tuple, np.ndarray]:
        """Key each ``<label>__seed<n>.csv`` by (sampler, target kind, seed)."""
        curves = {}
        for path in out.glob("*.csv"):
            label, _, seed = path.stem.rpartition("__seed")
            sampler = label.split("-")[0]
            kind = next((k for k in ("sarsa", "weighted") if f"-{k}" in label), "standard")
            lines = path.read_text(encoding="utf-8").splitlines()
            values = [float(line.split(",")[1]) for line in lines[1:]]
            steps_ok = [int(line.split(",")[0]) for line in lines[1:]] == list(range(1, len(values) + 1))
            curve = np.array(values) if lines[0] == "step,max_q_s0" and steps_ok else np.array([])
            curves[(sampler, kind, int(seed))] = curve
        return curves


WORKLOADS = {w.name: w for w in (Fig1Sweep, ChainBootstrap, ChainPrioScale)}
