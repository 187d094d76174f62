"""trajreplay benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload fig1-sweep --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, timed under the speed probe
(``speed.py``).  ``--trace 1`` runs untraced rounds for half the time, then
one traced set-up and one traced round, and prints the per-layer metrics; it
installs no speed probe, so its timings are plain wall times.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from checks import TracedChecks
from spans import Probe, Tracer, resolve
from speed import BUFFER_BYTES, SpeedProbe

ROOT = Path(__file__).resolve().parent.parent

# Per-layer spans: name -> locations where the callers look the names up.
SPANS = {
    "dataset.load": ["trajreplay.dataset:load_dataset", "trajreplay.cli:load_dataset"],
    "replay.build": ["trajreplay.replay:TrajectoryReplay.__init__",
                     "trajreplay.replay:UniformTransitionSampler.__init__",
                     "trajreplay.replay:PerTransitionSampler.__init__"],
    "replay.sample": ["trajreplay.replay:TrajectoryReplay.next_batch",
                      "trajreplay.replay:UniformTransitionSampler.sample",
                      "trajreplay.replay:PerTransitionSampler.sample"],
    "replay.priority_write": ["trajreplay.replay:PerTransitionSampler.update_priorities"],
    "priority.table_build": ["trajreplay.learner:build_priority_table"],
    "priority.select": ["trajreplay.priority:PrioritizedSelector.select"],
    "priority.refresh": ["trajreplay.priority:PrioritizedSelector.notify_complete"],
    "targets.compute": ["trajreplay.learner:compute_target"],
    "targets.cache_clear": ["trajreplay.targets:TargetCache.clear_trajectory"],
    "learner.update": ["trajreplay.learner:EnsembleQ.update"],
    "learner.record": ["trajreplay.learner:EnsembleQ.max_mean_q"],
    "learner.train": ["trajreplay.learner:train", "trajreplay.cli:train"],
    "cli.csv_write": ["trajreplay.cli:write_curve_csv"],
    "cli.main": ["trajreplay.cli:main"],
    "cli.run_experiment": ["trajreplay.cli:run_experiment"],
}
COUNTERS = {"targets.bootstraps": "trajreplay.learner:EnsembleQ.target_value"}

# metric -> (spans, what the self time is divided by, scale, unit)
PER_LAYER = {
    "dataset.load_s": (["dataset.load"], "call", 1.0, "s"),
    "replay.build_s": (["replay.build"], "round", 1.0, "s"),
    "replay.sample_us_per_transition": (["replay.sample"], "transition", 1e6, "us"),
    "replay.priority_write_us_per_transition": (["replay.priority_write"], "transition", 1e6, "us"),
    "priority.table_build_s": (["priority.table_build"], "round", 1.0, "s"),
    "priority.select_us_per_call": (["priority.select"], "call", 1e6, "us"),
    "priority.refresh_us_per_call": (["priority.refresh"], "call", 1e6, "us"),
    "targets.compute_us_per_transition": (["targets.compute"], "transition", 1e6, "us"),
    "targets.cache_clear_us_per_call": (["targets.cache_clear"], "call", 1e6, "us"),
    "learner.update_us_per_transition": (["learner.update"], "transition", 1e6, "us"),
    "learner.record_us_per_step": (["learner.record"], "step", 1e6, "us"),
    "learner.loop_self_us_per_step": (["learner.train"], "step", 1e6, "us"),
    "cli.csv_write_ms_per_run": (["cli.csv_write"], "call", 1e3, "ms"),
    "cli.self_s": (["cli.main", "cli.run_experiment"], "round", 1.0, "s"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def timed_setup(workload) -> list[float]:
    """Load the input at least once and until 0.25 s have passed (at most 1000 times)."""
    times: list[float] = []
    while not times or (sum(times) < 0.25 and len(times) < 1000):
        workload.dataset = None
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_rounds(workload, seconds: float) -> list:
    """Whole rounds until ``seconds`` have passed (at least one).

    The input is loaded again, outside the timed section, before every round,
    so set-up is sampled across the run like the operations are; a round's
    ``setup_s`` is the mean of its loads, scaled like its operations.
    """
    rounds = []
    started = time.perf_counter()
    while not rounds or time.perf_counter() - started < seconds:
        mark = workload.speed.mark()
        setup_s = statistics.fmean(timed_setup(workload)) * workload.speed.factor(mark)
        rnd = workload.run_round()
        rnd.setup_s = setup_s
        rnd.speed = workload.speed.factor(mark)
        rounds.append(rnd)
    return rounds


def per_layer(tracer, workload, traced_wall: float, untraced_wall: float):
    """Per-layer metrics from the traced part, and the names whose probes are all gone."""
    totals = tracer.totals()
    per = {"round": 1, "transition": workload.transitions_per_round(),
           "step": workload.steps_per_round()}
    metrics, absent = {}, []
    for name, (spans, base, scale, unit) in PER_LAYER.items():
        calls = sum(totals.get(s, (0, 0.0, 0.0))[0] for s in spans)
        own = sum(totals.get(s, (0, 0.0, 0.0))[2] for s in spans)
        denom = calls if base == "call" else per[base]
        if all(resolve(loc) is None for s in spans for loc in SPANS[s]):
            absent += [name, name + ".calls"]
        metrics[name] = (own / denom * scale if denom else 0.0, unit)
        metrics[name + ".calls"] = (calls, "count")
    boots = tracer.count("targets.bootstraps")
    metrics["targets.bootstraps_per_transition"] = (boots / per["transition"], "count")
    if resolve(COUNTERS["targets.bootstraps"]) is None:
        absent.append("targets.bootstraps_per_transition")
    metrics["trace_overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics, absent


def traced_part(workload, seed: int):
    """One traced set-up and one traced round, with the traced-only checks."""
    tracer = Tracer()
    inst = workload.instance
    checks = TracedChecks(inst.lengths, inst.terminal, tracer)
    probes = {loc: Probe(span=span) for span, locs in SPANS.items() for loc in locs}
    for counter, loc in COUNTERS.items():
        probes[loc] = Probe(counter=counter)
    hooks = {
        "trajreplay.learner:train": ("begin_train", "end_train"),
        "trajreplay.cli:train": ("begin_train", "end_train"),
        "trajreplay.replay:TrajectoryReplay.__init__": ("new_replay", None),
        "trajreplay.replay:TrajectoryReplay.next_batch": (None, "on_replay_batch"),
        "trajreplay.replay:UniformTransitionSampler.sample": (None, "on_transition_batch"),
        "trajreplay.replay:PerTransitionSampler.sample": (None, "on_transition_batch"),
        "trajreplay.priority:PrioritizedSelector.select": (None, "on_select"),
        "trajreplay.replay:UniformSelector.select": (None, "on_select"),
    }
    for loc, (before, after) in hooks.items():
        probe = probes.setdefault(loc, Probe())
        probe.before = getattr(checks, before) if before else None
        probe.after = getattr(checks, after) if after else None
    tracer.install(probes)
    try:
        workload.dataset = None
        workload.setup()
        rnd = workload.run_round()
    finally:
        tracer.uninstall()
    for key, errors in checks.failures.items():
        rnd.failed.setdefault(key, []).extend(errors)
    tracer.dump(ROOT / ".perfbench" / f"spans-{workload.name}-seed{seed}.npz")
    return tracer, rnd


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "trajreplay" / "__init__.py").is_file():
        print(f"error: no trajreplay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT / ".perfbench" / args.workload, args.seed)

    if args.trace:
        rounds = run_rounds(workload, args.seconds / 2)
    else:
        with SpeedProbe() as workload.speed:
            rounds = run_rounds(workload, args.seconds)
    # the probe's buffer stays resident all run; it is not the program's memory
    peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
                   - (0 if args.trace else BUFFER_BYTES)) / 2**20
    problems: list[str] = []
    mismatch = workload.instance.mismatch(workload.dataset)
    if mismatch:
        problems.append(mismatch)
    if any(r.steps != rounds[0].steps for r in rounds):
        problems.append("repeated rounds of the same operations gave different curves")
    wall_s = statistics.median(r.wall_s for r in rounds)

    if args.trace:
        tracer, traced = traced_part(workload, args.seed)
        rounds.append(traced)
        metrics, absent = per_layer(tracer, workload, traced.wall_s, wall_s)
        for loc in tracer.absent:
            print(f"absent: {loc}")
    else:
        steps = list(rounds[0].steps.values())
        metrics = {
            "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
            "wall_s": (wall_s, "s"),
            "us_per_transition": (statistics.median(
                r.train_s / r.transitions * 1e6 for r in rounds), "us"),
            "steps_to_eps_p50": (float(statistics.median(steps)) if steps else 0.0, "steps"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        absent = []

    attempted = len(workload.ops) * len(rounds)
    failed = sum(len(r.failed) for r in rounds)
    for r in rounds:
        for key, errors in r.failed.items():
            print(f"failed {key}: {errors[0].strip()}", file=sys.stderr)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{workload.name} seed={args.seed} rounds={len(rounds)} "
          f"round_walls_s={[round(r.wall_s, 3) for r in rounds]} "
          f"speed_factors={[round(r.speed, 3) for r in rounds]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}{'  (absent)' if name in absent else ''}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
