"""Correctness checks made apart from the program.

The closed-form oracle and the curve checks run on every operation; the
replay-order and bootstrap-count checks need the traced run, because they
observe calls between the program's own layers.  An operation is one
``(variant, seed)`` training run, identified by ``(sampler, target kind, seed)``.
"""

from __future__ import annotations

import functools

import numpy as np

BAND = 0.05
BOOTSTRAP_COUNTER = "targets.bootstraps"


def steps_to_band(curve: np.ndarray, oracle: float, rel: float = BAND) -> int | None:
    """First 1-based step whose value lies within ``rel`` of ``oracle``."""
    hits = np.flatnonzero(np.abs(curve - oracle) <= abs(oracle) * rel)
    return int(hits[0]) + 1 if hits.size else None


def check_curve(curve: np.ndarray, total_steps: int, oracle: float, must_converge: bool) -> list[str]:
    """One finite value per step; runs that must converge end inside the band."""
    errors = []
    if curve.shape != (total_steps,):
        errors.append(f"curve has shape {curve.shape}, expected ({total_steps},)")
    elif not np.all(np.isfinite(curve)):
        errors.append("curve holds a non-finite value")
    elif must_converge and abs(curve[-1] - oracle) > abs(oracle) * BAND:
        errors.append(f"final value {curve[-1]:.6g} outside the band around {oracle:.6g}")
    return errors


def _guarded(hook):
    """A check that raises (say, on a changed return type) fails the run it observed."""

    @functools.wraps(hook)
    def run(self, *args):
        try:
            hook(self, *args)
        except Exception as exc:  # noqa: BLE001 - reported as a failed check
            self._fail(f"{hook.__name__} raised {exc!r}")

    return run


class TracedChecks:
    """Backward exactly-once emission and policy-bootstrap counts, per train call.

    Hooks receive the probed call's ``(args, kwargs[, result])``.  ``lengths``
    and ``terminal`` come from the benchmark's own record of the input, so the
    expected bootstrap count does not depend on the program's loader:

    * ``standard`` and ``weighted`` with beta > 0 bootstrap at every
      non-terminal item;
    * ``sarsa`` (and ``weighted`` with beta = 0) only at timeout heads.
    """

    def __init__(self, lengths: np.ndarray, terminal: np.ndarray, tracer) -> None:
        self.lengths = [int(x) for x in lengths]
        self.terminal = [bool(x) for x in terminal]
        self.tracer = tracer
        self.failures: dict[tuple, list[str]] = {}
        self._errors: list[str] = []
        self._key: tuple | None = None

    def _fail(self, message: str) -> None:
        if len(self._errors) < 3:
            self._errors.append(message)

    @_guarded
    def begin_train(self, args, kwargs) -> None:
        config = args[1] if len(args) > 1 else kwargs["config"]
        self._key = (config.sampler, config.target.kind, config.seed)
        kind, beta = config.target.kind, config.target.beta
        self._everywhere = kind == "standard" or (kind == "weighted" and beta > 0.0)
        self._batch = config.batch_size
        self._expected = 0
        self._counted_from = self.tracer.count(BOOTSTRAP_COUNTER)
        self._errors = []

    @_guarded
    def end_train(self, args, kwargs, result) -> None:
        got = self.tracer.count(BOOTSTRAP_COUNTER) - self._counted_from
        if got != self._expected:
            self._fail(f"{got} policy bootstraps, expected {self._expected}")
        if self._errors:
            self.failures[self._key] = self._errors

    def _count(self, items) -> None:
        lengths, terminal = self.lengths, self.terminal
        for it in items:
            tid = it.trajectory_id
            head = it.time_index == lengths[tid] - 1
            if self._everywhere:
                self._expected += not (head and terminal[tid])
            else:
                self._expected += head and not terminal[tid]

    @_guarded
    def on_transition_batch(self, args, kwargs, result) -> None:
        # PerTransitionSampler.sample returns (items, leaves).
        self._count(result[0] if isinstance(result, tuple) else result)

    @_guarded
    def new_replay(self, args, kwargs) -> None:
        self._pool: set[int] | None = None
        self._picked: set[int] = set()
        self._prev_len: int | None = None
        self._pending: set[int] = set()
        self._cursor: dict[int, int] = {}

    @_guarded
    def on_select(self, args, kwargs, tid) -> None:
        candidates = args[1]
        n = len(candidates)
        # The pool only shrinks by the id just taken, so any other length
        # means it was rebuilt: a new epoch starts.
        if self._prev_len is None or n != self._prev_len - 1:
            if self._pool is not None and self._picked != self._pool:
                self._fail("an epoch ended before every trajectory in its pool was emitted")
            active = self._pending | self._cursor.keys()
            pool = set(candidates)
            if len(pool) != n or pool != set(range(len(self.lengths))) - active:
                self._fail("a rebuilt pool is not every trajectory that is not active")
            self._pool, self._picked = pool, set()
        if tid in self._picked or tid not in self._pool:
            self._fail(f"trajectory {tid} selected twice in one epoch")
        self._picked.add(tid)
        self._pending.add(tid)
        self._prev_len = n

    @_guarded
    def on_replay_batch(self, args, kwargs, items) -> None:
        if len(items) != self._batch:
            self._fail(f"next_batch returned {len(items)} items, expected {self._batch}")
        self._count(items)
        pending, cursor, lengths = self._pending, self._cursor, self.lengths
        for it in items:
            tid, t = it.trajectory_id, it.time_index
            if tid in pending:
                pending.discard(tid)
                if t != lengths[tid] - 1:
                    self._fail(f"trajectory {tid} pass starts at t={t}, not its last step")
            elif cursor.get(tid) != t:
                self._fail(f"trajectory {tid} emitted t={t}, expected t={cursor.get(tid)}")
            if t <= 0:
                cursor.pop(tid, None)
            else:
                cursor[tid] = t - 1
