"""Trajectory-structured offline data: a columnar store, its object view, and JSONL I/O.

:class:`OfflineDataset` keeps flat per-step columns sliced by trajectory
offsets, the layout of D4RL-style ``observations``/``actions``/``rewards``
arrays.  :class:`Transition` and :class:`Trajectory` are the object view of
it, for tests and analysis; the loader and the training path never build them.

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
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
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


# The per-step and per-trajectory columns, in constructor order.
_COLUMNS = ("states", "actions", "rewards", "next_states", "terminal", "timeout")


class OfflineDataset:
    """Immutable columnar store of every trajectory plus the MDP bookkeeping counts.

    The per-step columns are trajectory-major: trajectory j owns the
    positions ``offsets[j]:offsets[j + 1]`` of each.

    * ``states``, ``actions``, ``next_states``: ``np.intp`` ids.
    * ``rewards``: float64.
    * ``terminal``: bool; true only at the last step of a trajectory that
      ended by environment termination.

    ``timeout`` is the per-trajectory bool column of timeout truncation, and
    ``offsets`` a tuple of ints.  The columns are read-only.

    Build one from :class:`Trajectory` objects or with :func:`load_dataset`.
    :attr:`trajectories` is the object view.  A loaded dataset builds it from
    the columns on first read, so nothing between the file and ``train``
    makes a per-step object.
    """

    __slots__ = (*_COLUMNS, "offsets", "state_count", "action_count", "discount",
                 "_trajectories")

    def __init__(
        self,
        trajectories: Sequence[Trajectory],
        state_count: int,
        action_count: int,
        discount: float = DEFAULT_DISCOUNT,
    ) -> None:
        trajectories = tuple(trajectories)
        if len(trajectories) < 1:
            raise ValueError("dataset must contain at least one trajectory")
        steps = [tr for traj in trajectories for tr in traj.transitions]
        self._adopt(
            np.array([tr.state for tr in steps], dtype=np.intp),
            np.array([tr.action for tr in steps], dtype=np.intp),
            np.array([tr.reward for tr in steps], dtype=np.float64),
            np.array([tr.next_state for tr in steps], dtype=np.intp),
            np.array([tr.terminal for tr in steps], dtype=bool),
            np.array([traj.timeout_truncated for traj in trajectories], dtype=bool),
            tuple(accumulate((traj.length for traj in trajectories), initial=0)),
            state_count,
            action_count,
            discount,
            ids=[traj.id for traj in trajectories],
        )
        object.__setattr__(self, "_trajectories", trajectories)

    @classmethod
    def _from_columns(
        cls,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        terminal: np.ndarray,
        timeout: np.ndarray,
        offsets: tuple[int, ...],
        state_count: int,
        action_count: int,
        discount: float,
    ) -> "OfflineDataset":
        """A dataset over columns whose values and chains are already checked."""
        ds = cls.__new__(cls)
        ds._adopt(states, actions, rewards, next_states, terminal, timeout, offsets,
                  state_count, action_count, discount)
        object.__setattr__(ds, "_trajectories", None)
        return ds

    def _adopt(self, states, actions, rewards, next_states, terminal, timeout, offsets,
               state_count, action_count, discount, ids=None) -> None:
        """Take the columns and counts, then check the discount, the trajectory
        ids (in order, interleaved with the id bounds) and the id bounds."""
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {discount}")
        columns = (states, actions, rewards, next_states, terminal, timeout)
        for name, column in zip(_COLUMNS, columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "state_count", state_count)
        object.__setattr__(self, "action_count", action_count)
        object.__setattr__(self, "discount", discount)
        bad_id = None
        if ids is not None:
            bad_id = next((j for j, tid in enumerate(ids) if tid != j), None)
        max_ = np.maximum.reduce
        in_bounds = (max_(states) < state_count and max_(next_states) < state_count
                     and max_(actions) < action_count)
        bad_step = None
        if not in_bounds:
            outside = (states >= state_count) | (next_states >= state_count)
            outside |= actions >= action_count
            bad_step = int(outside.argmax())
        if bad_id is not None and (bad_step is None or bad_id <= self.position(bad_step)[0]):
            raise ValueError(f"trajectory ids must be 0..N-1 in order, got {ids[bad_id]} at {bad_id}")
        if bad_step is not None:
            j, t = self.position(bad_step)
            if states[bad_step] >= state_count or next_states[bad_step] >= state_count:
                raise ValueError(
                    f"trajectory {j} step {t}: state id outside state_count {state_count}"
                )
            raise ValueError(
                f"trajectory {j} step {t}: action id outside action_count {action_count}"
            )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"OfflineDataset is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"OfflineDataset is immutable; cannot delete {name!r}")

    def __reduce__(self):
        columns = tuple(getattr(self, name) for name in _COLUMNS)
        counts = (self.offsets, self.state_count, self.action_count, self.discount)
        return type(self)._from_columns, columns + counts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OfflineDataset):
            return NotImplemented
        return (
            (self.offsets, self.state_count, self.action_count, self.discount)
            == (other.offsets, other.state_count, other.action_count, other.discount)
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _COLUMNS)
        )

    def __hash__(self) -> int:
        return hash((self.offsets, self.state_count, self.action_count, self.discount))

    def __repr__(self) -> str:
        return (
            f"OfflineDataset(n_trajectories={self.n_trajectories}, "
            f"total_transitions={self.total_transitions}, state_count={self.state_count}, "
            f"action_count={self.action_count}, discount={self.discount})"
        )

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """The object view: one :class:`Trajectory` per trajectory, in id order.

        A loaded dataset builds it from the columns on first read and keeps it.
        """
        if self._trajectories is None:
            rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS[:-1]))
            steps = [Transition(*row) for row in rows]
            bounds = zip(self.offsets, self.offsets[1:], self.timeout.tolist())
            object.__setattr__(self, "_trajectories", tuple(
                Trajectory(j, tuple(steps[lo:hi]), timeout)
                for j, (lo, hi, timeout) in enumerate(bounds)
            ))
        return self._trajectories

    @property
    def n_trajectories(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_transitions(self) -> int:
        return self.offsets[-1]

    @property
    def start_state(self) -> int:
        """s0, the state whose greedy value the learning curve records: the
        first state of trajectory 0."""
        return self.states.item(0)

    def position(self, index: int) -> tuple[int, int]:
        """The (trajectory id, time index) of flat position ``index``."""
        j = bisect_right(self.offsets, index) - 1
        return j, index - self.offsets[j]

    def iter_transitions(self) -> Iterator[tuple[int, int, Transition]]:
        """Yield (trajectory_id, time_index, transition) over the object view."""
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


def _record_arrays(record: dict, line_no: int) -> tuple[list, list, list, list, bool, bool]:
    """A trajectory record's four parallel arrays and two flags, checked for
    shape but not for values."""
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
    return states, actions, rewards, next_states, terminal, timeout


def _trajectory_from_record(record: dict, line_no: int, traj_id: int) -> Trajectory:
    """The record as objects; the loader calls it only to word a fault."""
    states, actions, rewards, next_states, terminal, timeout = _record_arrays(record, line_no)
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
    """The record as objects; the loader calls it only to word a fault."""
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


def _detect_format(line_no: int, record: dict) -> str:
    if "states" in record:
        return TRAJECTORY_JSONL
    if "state" in record:
        return FLAT_TRANSITIONS
    raise ValueError(f"line {line_no}: cannot detect record format")


_INTP_MAX = np.iinfo(np.intp).max


def _id_column(values: list) -> tuple[np.ndarray | None, int]:
    """The ids as an intp column and -1, or None and the index of the first
    value that is not a non-negative int (a bool is not one)."""
    if set(map(type, values)) <= {int} and (not values or min(values) >= 0):
        try:
            return np.array(values, dtype=np.intp), -1
        except OverflowError:
            pass
    bad = next(i for i, v in enumerate(values)
               if type(v) is not int or not 0 <= v <= _INTP_MAX)
    return None, bad


def _reward_column(values: list) -> tuple[np.ndarray | None, int]:
    """The rewards as a float64 column and -1, or None and the index of the
    first value that ``float`` rejects or that is not finite."""
    try:
        column = np.array(values)
    except (TypeError, ValueError, OverflowError):
        column = None
    if column is not None and column.ndim == 1 and column.dtype.kind in "biuf":
        column = column.astype(np.float64, copy=False)
        finite = np.isfinite(column)
        if np.logical_and.reduce(finite):
            return column, -1
        return None, int(finite.argmin())
    # strings, nulls, nested arrays: convert one at a time, as float() does
    converted = []
    for i, value in enumerate(values):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            return None, i
        if not math.isfinite(number):
            return None, i
        converted.append(number)
    return np.array(converted, dtype=np.float64), -1


def _value_columns(states: list, actions: list, rewards: list, next_states: list):
    """The four value lists as columns and -1, or None and the first step
    whose values a :class:`Transition` rejects."""
    results = (_id_column(states), _id_column(actions), _reward_column(rewards),
               _id_column(next_states))
    bad = min((i for _, i in results if i >= 0), default=-1)
    if bad >= 0:
        return None, bad
    return tuple(column for column, _ in results), -1


class _Records:
    """A file's data records streamed onto flat lists of their parsed values.

    One entry of ``line_nos`` per record taken: a trajectory for
    ``trajectory-jsonl`` (``ends``, ``terminal`` and ``timeout`` per record
    too), a step for ``flat-transitions`` (flags per step).
    """

    def __init__(self, flat: bool) -> None:
        self.flat = flat
        self.states: list = []
        self.actions: list = []
        self.rewards: list = []
        self.next_states: list = []
        self.terminal: list[bool] = []
        self.timeout: list[bool] = []
        self.ends: list[int] = []
        self.line_nos: list[int] = []

    def add(self, record: dict, line_no: int) -> None:
        """Take one record, or raise the fault in its shape or flags."""
        if self.flat:
            try:
                values = (record["state"], record["action"], record["reward"],
                          record["next_state"])
                terminal, timeout = record["terminal"], record["timeout"]
            except KeyError:
                terminal = timeout = None
            if type(terminal) is not bool or type(timeout) is not bool:
                _transition_from_record(record, line_no)  # raises the fault
            self.states.append(values[0])
            self.actions.append(values[1])
            self.rewards.append(values[2])
            self.next_states.append(values[3])
        else:
            states, actions, rewards, next_states, terminal, timeout = _record_arrays(
                record, line_no
            )
            self.states += states
            self.actions += actions
            self.rewards += rewards
            self.next_states += next_states
            self.ends.append(len(self.states))
        self.terminal.append(terminal)
        self.timeout.append(timeout)
        self.line_nos.append(line_no)

    def start(self, record: int) -> int:
        """Flat position of a record's first step."""
        if self.flat:
            return record
        return self.ends[record - 1] if record else 0

    def raise_fault(self, record: int) -> None:
        """Raise the message the object constructors give for one taken record."""
        lo = self.start(record)
        line_no = self.line_nos[record]
        if self.flat:
            _transition_from_record({
                "state": self.states[lo], "action": self.actions[lo],
                "reward": self.rewards[lo], "next_state": self.next_states[lo],
                "terminal": self.terminal[lo], "timeout": self.timeout[lo],
            }, line_no)
        else:
            hi = self.ends[record]
            _trajectory_from_record({
                "states": self.states[lo:hi], "actions": self.actions[lo:hi],
                "rewards": self.rewards[lo:hi], "next_states": self.next_states[lo:hi],
                "terminal": self.terminal[record], "timeout": self.timeout[record],
            }, line_no, record)
        # only ids too large for the columns get here; no object rejects them
        raise ValueError(f"line {line_no}: id larger than {_INTP_MAX}")

    def columns(self, fault: ValueError | None):
        """The checked columns, or raise the file's first fault.

        Records count in file order, as the object constructors met them:
        within a record its shape and flags first, then its steps' values,
        then (for a trajectory record) its chain.  A ``flat-transitions``
        log is split only after every record, so its chain breaks come after
        every record fault.  ``fault`` is the shape or flag fault that stopped
        the stream, at the record after the last one taken.
        """
        bad_record = len(self.line_nos)
        lists = (self.states, self.actions, self.rewards, self.next_states)
        values, bad_step = _value_columns(*lists)
        if values is None:
            # the columns of the records before it, which the chain check reads
            bad_record = bad_step if self.flat else bisect_right(self.ends, bad_step)
            stop = self.start(bad_record)
            values, _ = _value_columns(*(column[:stop] for column in lists))
        states, actions, rewards, next_states = values
        n = len(states)
        if self.flat:
            if bad_record < len(self.line_nos):
                self.raise_fault(bad_record)
            if fault is not None:
                raise fault
            terminal = np.array(self.terminal, dtype=bool)
            timeout = np.array(self.timeout, dtype=bool)
            flagged = terminal | timeout
            breaks = (next_states[:-1] != states[1:]) & ~flagged[:-1]
            if np.logical_or.reduce(breaks):
                i = int(breaks.argmax()) + 1
                raise ValueError(
                    f"chain break at step index {i} "
                    f"(next_state {next_states[i - 1]} != state {states[i]})"
                )
            ends = np.flatnonzero(flagged) + 1
            timeout = timeout[ends - 1] & ~terminal[ends - 1]
            ends = ends.tolist()
            if not flagged[-1]:
                # Truncated tail: keep it, marked as a timeout trajectory.
                ends.append(n)
                timeout = np.append(timeout, True)
        else:
            ends = self.ends[:bad_record]
            if n > 1:
                breaks = next_states[:-1] != states[1:]
                breaks[np.array(ends[:-1], dtype=np.intp) - 1] = False
                if np.logical_or.reduce(breaks):
                    bad_record = bisect_right(ends, int(breaks.argmax()))
            if bad_record < len(self.line_nos):
                self.raise_fault(bad_record)
            if fault is not None:
                raise fault
            ends_at = np.array(ends, dtype=np.intp)
            terminal = np.zeros(n, dtype=bool)
            terminal[ends_at[np.array(self.terminal, dtype=bool)] - 1] = True
            timeout = np.array(self.timeout, dtype=bool)
        offsets = (0, *ends)
        return states, actions, rewards, next_states, terminal, timeout, offsets


def load_dataset(path: str | Path, format: str | None = None) -> OfflineDataset:
    """Load an :class:`OfflineDataset` from a JSONL file.

    ``format`` is one of ``trajectory-jsonl`` / ``flat-transitions``; when
    omitted it is detected from the first data record.  Counts and discount
    come from the optional metadata header, otherwise counts are inferred from
    the data and the discount defaults to 0.99.

    Records stream onto flat columns, which are then checked in a few array
    operations; no per-step object is built.  A file with faults raises the
    message of the first one in file order, worded as the :class:`Transition`
    and :class:`Trajectory` constructors word it.  A malformed JSON line
    reports before any other fault.
    """
    path = Path(path)
    records = _iter_records(path)
    header: dict = {}
    first = next(records, None)
    if first is not None and "state_count" in first[1]:
        header, first = first[1], next(records, None)
    if first is None:
        raise ValueError(f"{path}: file contains no data records")
    fault: ValueError | None = None
    try:
        if format is None:
            format = _detect_format(*first)
        if format not in FORMATS:
            raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    except ValueError as exc:
        fault = exc
    data = _Records(format == FLAT_TRANSITIONS)
    for line_no, record in chain((first,), records):
        # after a fault keep parsing: a malformed later line still reports first
        if fault is None:
            try:
                data.add(record, line_no)
            except ValueError as exc:
                fault = exc
    states, actions, rewards, next_states, terminal, timeout, offsets = data.columns(fault)

    if "state_count" in header:
        state_count = int(header["state_count"])
    else:
        state_count = 1 + int(max(np.maximum.reduce(states), np.maximum.reduce(next_states)))
    if "action_count" in header:
        action_count = int(header["action_count"])
    else:
        action_count = 1 + int(np.maximum.reduce(actions))
    return OfflineDataset._from_columns(
        states, actions, rewards, next_states, terminal, timeout, offsets,
        state_count, action_count, float(header.get("discount", DEFAULT_DISCOUNT)),
    )


def save_dataset(dataset: OfflineDataset, path: str | Path) -> None:
    """Write a dataset in trajectory-jsonl form, metadata header first."""
    path = Path(path)
    offsets = dataset.offsets
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        header = {
            "state_count": dataset.state_count,
            "action_count": dataset.action_count,
            "discount": dataset.discount,
        }
        fh.write(json.dumps(header) + "\n")
        for j, timeout in enumerate(dataset.timeout.tolist()):
            lo, hi = offsets[j], offsets[j + 1]
            record = {
                "states": dataset.states[lo:hi].tolist(),
                "actions": dataset.actions[lo:hi].tolist(),
                "rewards": dataset.rewards[lo:hi].tolist(),
                "next_states": dataset.next_states[lo:hi].tolist(),
                "terminal": dataset.terminal.item(hi - 1),
                "timeout": timeout,
            }
            fh.write(json.dumps(record) + "\n")
