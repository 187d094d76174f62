"""Trajectory-structured offline data: core types, splitting, and JSONL file I/O.

Two on-disk formats are supported, both JSON Lines (UTF-8, LF):

* ``trajectory-jsonl`` -- one trajectory object per line with parallel arrays
  ``states``, ``actions``, ``rewards``, ``next_states`` plus ``terminal`` and
  ``timeout`` booleans.
* ``flat-transitions`` -- one transition object per line with ``state``,
  ``action``, ``reward``, ``next_state``, ``terminal``, ``timeout``; episode
  boundaries are recovered by :func:`split_flat_transitions`.

Either file may start with an optional metadata line carrying ``state_count``,
``action_count`` and ``discount``; ``save_dataset`` always writes it so that a
save/load round trip reproduces the dataset field for field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

TRAJECTORY_JSONL = "trajectory-jsonl"
FLAT_TRANSITIONS = "flat-transitions"
FORMATS = (TRAJECTORY_JSONL, FLAT_TRANSITIONS)

DEFAULT_DISCOUNT = 0.99


@dataclass(frozen=True, slots=True)
class Transition:
    """One environment step: (state, action, reward, next_state, terminal).

    ``terminal`` is true only when the episode ended by environment
    termination, never for timeout truncation.
    """

    state: int
    action: int
    reward: float
    next_state: int
    terminal: bool

    def __post_init__(self) -> None:
        for name in ("state", "action", "next_state"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
        if not math.isfinite(self.reward):
            raise ValueError(f"reward must be finite, got {self.reward!r}")


@dataclass(frozen=True, slots=True)
class Trajectory:
    """An ordered, chain-consistent sequence of transitions.

    ``timeout_truncated`` marks trajectories cut short by a time limit (or a
    truncated log tail) rather than by environment termination; it is mutually
    exclusive with a terminal final transition.
    """

    id: int
    transitions: tuple[Transition, ...]
    timeout_truncated: bool = False

    def __post_init__(self) -> None:
        if len(self.transitions) < 1:
            raise ValueError(f"trajectory {self.id}: must contain at least one transition")
        for t in range(len(self.transitions) - 1):
            cur, nxt = self.transitions[t], self.transitions[t + 1]
            if cur.terminal:
                raise ValueError(
                    f"trajectory {self.id}: terminal flag at non-final step {t}"
                )
            if cur.next_state != nxt.state:
                raise ValueError(
                    f"trajectory {self.id}: chain break at step {t + 1} "
                    f"(next_state {cur.next_state} != state {nxt.state})"
                )
        if self.timeout_truncated and self.transitions[-1].terminal:
            raise ValueError(
                f"trajectory {self.id}: timeout_truncated conflicts with terminal final step"
            )

    @property
    def length(self) -> int:
        return len(self.transitions)

    @property
    def rewards(self) -> tuple[float, ...]:
        return tuple(tr.reward for tr in self.transitions)


@dataclass(frozen=True, slots=True)
class OfflineDataset:
    """Immutable store of all trajectories plus the MDP bookkeeping counts.

    Beside the trajectories it holds their (state, action) pairs as two flat
    columns, trajectory-major: trajectory j owns the positions
    ``offsets[j]:offsets[j + 1]`` of ``states`` and ``actions``.
    """

    trajectories: tuple[Trajectory, ...]
    state_count: int
    action_count: int
    discount: float = DEFAULT_DISCOUNT
    states: np.ndarray = field(init=False, compare=False, repr=False)
    actions: np.ndarray = field(init=False, compare=False, repr=False)
    offsets: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.trajectories) < 1:
            raise ValueError("dataset must contain at least one trajectory")
        if not 0.0 < self.discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {self.discount}")
        states: list[int] = []
        actions: list[int] = []
        for j, traj in enumerate(self.trajectories):
            if traj.id != j:
                raise ValueError(f"trajectory ids must be 0..N-1 in order, got {traj.id} at {j}")
            for t, tr in enumerate(traj.transitions):
                if tr.state >= self.state_count or tr.next_state >= self.state_count:
                    raise ValueError(
                        f"trajectory {j} step {t}: state id outside state_count {self.state_count}"
                    )
                if tr.action >= self.action_count:
                    raise ValueError(
                        f"trajectory {j} step {t}: action id outside action_count {self.action_count}"
                    )
                states.append(tr.state)
                actions.append(tr.action)
        object.__setattr__(self, "states", np.array(states, dtype=np.intp))
        object.__setattr__(self, "actions", np.array(actions, dtype=np.intp))
        lengths = (traj.length for traj in self.trajectories)
        object.__setattr__(self, "offsets", tuple(accumulate(lengths, initial=0)))

    @property
    def n_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def total_transitions(self) -> int:
        return self.offsets[-1]

    @property
    def start_state(self) -> int:
        """s0, the state whose greedy value the learning curve records: the
        first state of trajectory 0."""
        return int(self.states[0])

    def iter_transitions(self) -> Iterator[tuple[int, int, Transition]]:
        """Yield (trajectory_id, time_index, transition) over the whole store."""
        for traj in self.trajectories:
            for t, tr in enumerate(traj.transitions):
                yield traj.id, t, tr


def split_flat_transitions(
    steps: Sequence[tuple[Transition, bool]],
) -> list[Trajectory]:
    """Group a flat (transition, timeout) log into trajectories.

    A new trajectory begins after any step flagged terminal or timeout.  A
    trailing segment with neither flag becomes a timeout-truncated trajectory
    rather than being dropped.  A chain break inside a segment is an error
    naming the offending global step index.
    """
    if len(steps) == 0:
        raise ValueError("empty step sequence")
    trajectories: list[Trajectory] = []
    segment: list[Transition] = []
    segment_timeout = False
    for i, (tr, timeout) in enumerate(steps):
        if segment and segment[-1].next_state != tr.state:
            raise ValueError(
                f"chain break at step index {i} "
                f"(next_state {segment[-1].next_state} != state {tr.state})"
            )
        segment.append(tr)
        if tr.terminal or timeout:
            segment_timeout = timeout and not tr.terminal
            trajectories.append(
                Trajectory(len(trajectories), tuple(segment), segment_timeout)
            )
            segment = []
            segment_timeout = False
    if segment:
        # Truncated tail: keep it, marked as a timeout trajectory.
        trajectories.append(Trajectory(len(trajectories), tuple(segment), True))
    return trajectories


def flatten_trajectories(
    trajectories: Iterable[Trajectory],
) -> list[tuple[Transition, bool]]:
    """Inverse of :func:`split_flat_transitions` on the step sequence."""
    steps: list[tuple[Transition, bool]] = []
    for traj in trajectories:
        last = traj.length - 1
        for t, tr in enumerate(traj.transitions):
            steps.append((tr, traj.timeout_truncated and t == last))
    return steps


def _require(record: dict, key: str, line_no: int):
    if key not in record:
        raise ValueError(f"line {line_no}: missing field {key!r}")
    return record[key]


def _as_bool(value, key: str, line_no: int) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"line {line_no}: field {key!r} must be a boolean")
    return value


def _iter_records(path: Path) -> Iterator[tuple[int, dict]]:
    with path.open("r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: malformed JSON record ({exc.msg})") from exc
            if not isinstance(record, dict):
                raise ValueError(f"line {line_no}: record must be a JSON object")
            yield line_no, record


def _split_header(
    records: list[tuple[int, dict]],
) -> tuple[dict, list[tuple[int, dict]]]:
    if records and "state_count" in records[0][1]:
        return records[0][1], records[1:]
    return {}, records


def _trajectory_from_record(record: dict, line_no: int, traj_id: int) -> Trajectory:
    states = _require(record, "states", line_no)
    actions = _require(record, "actions", line_no)
    rewards = _require(record, "rewards", line_no)
    next_states = _require(record, "next_states", line_no)
    arrays = (states, actions, rewards, next_states)
    if not all(isinstance(a, list) for a in arrays):
        raise ValueError(f"line {line_no}: states/actions/rewards/next_states must be arrays")
    if len({len(a) for a in arrays}) != 1:
        raise ValueError(f"line {line_no}: parallel arrays have mismatched lengths")
    if len(states) == 0:
        raise ValueError(f"line {line_no}: trajectory must have at least one step")
    terminal = _as_bool(_require(record, "terminal", line_no), "terminal", line_no)
    timeout = _as_bool(_require(record, "timeout", line_no), "timeout", line_no)
    if terminal and timeout:
        raise ValueError(f"line {line_no}: terminal and timeout are mutually exclusive")
    last = len(states) - 1
    try:
        transitions = tuple(
            Transition(states[t], actions[t], float(rewards[t]), next_states[t], terminal and t == last)
            for t in range(len(states))
        )
        return Trajectory(traj_id, transitions, timeout)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"line {line_no}: {exc}") from exc


def _transition_from_record(record: dict, line_no: int) -> tuple[Transition, bool]:
    terminal = _as_bool(_require(record, "terminal", line_no), "terminal", line_no)
    timeout = _as_bool(_require(record, "timeout", line_no), "timeout", line_no)
    try:
        tr = Transition(
            _require(record, "state", line_no),
            _require(record, "action", line_no),
            float(_require(record, "reward", line_no)),
            _require(record, "next_state", line_no),
            terminal,
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"line {line_no}: {exc}") from exc
    return tr, timeout


def _detect_format(records: list[tuple[int, dict]]) -> str:
    if not records:
        raise ValueError("file contains no data records")
    first = records[0][1]
    if "states" in first:
        return TRAJECTORY_JSONL
    if "state" in first:
        return FLAT_TRANSITIONS
    raise ValueError(f"line {records[0][0]}: cannot detect record format")


def load_dataset(path: str | Path, format: str | None = None) -> OfflineDataset:
    """Load an :class:`OfflineDataset` from a JSONL file.

    ``format`` is one of ``trajectory-jsonl`` / ``flat-transitions``; when
    omitted it is detected from the first data record.  Counts and discount
    come from the optional metadata header, otherwise counts are inferred from
    the data and the discount defaults to 0.99.
    """
    path = Path(path)
    records = list(_iter_records(path))
    header, data = _split_header(records)
    if not data:
        raise ValueError(f"{path}: file contains no data records")
    if format is None:
        format = _detect_format(data)
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")

    if format == TRAJECTORY_JSONL:
        trajectories = tuple(
            _trajectory_from_record(record, line_no, traj_id)
            for traj_id, (line_no, record) in enumerate(data)
        )
    else:
        steps = [_transition_from_record(record, line_no) for line_no, record in data]
        trajectories = tuple(split_flat_transitions(steps))

    if "state_count" in header:
        state_count = int(header["state_count"])
    else:
        state_count = 1 + max(
            max(tr.state, tr.next_state) for traj in trajectories for tr in traj.transitions
        )
    if "action_count" in header:
        action_count = int(header["action_count"])
    else:
        action_count = 1 + max(tr.action for traj in trajectories for tr in traj.transitions)
    return OfflineDataset(
        trajectories=trajectories,
        state_count=state_count,
        action_count=action_count,
        discount=float(header.get("discount", DEFAULT_DISCOUNT)),
    )


def save_dataset(dataset: OfflineDataset, path: str | Path) -> None:
    """Write a dataset in trajectory-jsonl form, metadata header first."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        header = {
            "state_count": dataset.state_count,
            "action_count": dataset.action_count,
            "discount": dataset.discount,
        }
        fh.write(json.dumps(header) + "\n")
        for traj in dataset.trajectories:
            record = {
                "states": [tr.state for tr in traj.transitions],
                "actions": [tr.action for tr in traj.transitions],
                "rewards": [tr.reward for tr in traj.transitions],
                "next_states": [tr.next_state for tr in traj.transitions],
                "terminal": traj.transitions[-1].terminal,
                "timeout": traj.timeout_truncated,
            }
            fh.write(json.dumps(record) + "\n")
