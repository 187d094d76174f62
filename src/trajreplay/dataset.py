"""Trajectory-structured offline data: a columnar store, its object view, and JSONL I/O.

:class:`OfflineDataset` keeps flat per-step columns sliced by trajectory
offsets, the layout of D4RL-style ``observations``/``actions``/``rewards``
arrays.  :class:`Transition` and :class:`Trajectory` are the object view of
it, for tests and analysis.  The training path never builds them, and
:func:`load_dataset` builds only a faulty record's, to word its fault.

Two on-disk formats are supported, both JSON Lines (UTF-8, LF).  The first
data record tells them apart: ``states`` marks the first, ``state`` the
second.

* ``trajectory-jsonl`` -- one trajectory object per line with parallel arrays
  ``states``, ``actions``, ``rewards``, ``next_states`` plus ``terminal`` and
  ``timeout`` booleans.
* ``flat-transitions`` -- one transition object per line with ``state``,
  ``action``, ``reward``, ``next_state``, ``terminal``, ``timeout``; episode
  boundaries are recovered by :func:`split_flat_transitions`.

Either file may start with an optional metadata line carrying any of
``state_count``, ``action_count`` and ``discount`` and no record key;
``save_dataset`` always writes all three so that a save/load round trip
reproduces the dataset field for field.
"""

from __future__ import annotations

import json
import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

_HEADER_KEYS = frozenset(("state_count", "action_count", "discount"))

DEFAULT_DISCOUNT = 0.99

# The largest id a column holds.
_INTP_MAX = np.iinfo(np.intp).max


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
            if value > _INTP_MAX:
                raise ValueError(f"id larger than {_INTP_MAX}: {name} {value}")
        if not math.isfinite(self.reward):
            raise ValueError(f"reward must be finite, got {self.reward!r}")


@dataclass(frozen=True, slots=True)
class Trajectory:
    """An ordered, chain-consistent sequence of transitions.

    ``timeout_truncated`` marks trajectories cut short by a time limit (or a
    truncated log tail) rather than by environment termination; it is mutually
    exclusive with a terminal final transition.  A trajectory's id is its
    position in the dataset.
    """

    transitions: tuple[Transition, ...]
    timeout_truncated: bool = False

    def __post_init__(self) -> None:
        if len(self.transitions) < 1:
            raise ValueError("must contain at least one transition")
        for t in range(len(self.transitions) - 1):
            cur, nxt = self.transitions[t], self.transitions[t + 1]
            if cur.terminal:
                raise ValueError(f"terminal flag at non-final step {t}")
            if cur.next_state != nxt.state:
                raise ValueError(
                    f"chain break at step {t + 1} "
                    f"(next_state {cur.next_state} != state {nxt.state})"
                )
        if self.timeout_truncated and self.transitions[-1].terminal:
            raise ValueError("timeout_truncated conflicts with terminal final step")

    @property
    def length(self) -> int:
        return len(self.transitions)


# The per-step and per-trajectory columns, in constructor order.
_COLUMNS = ("states", "actions", "rewards", "next_states", "terminal", "timeout")
_STORED = (*_COLUMNS, "offsets")  # what a dataset compares and pickles, besides its counts


def _object_columns(trajectories: Sequence[Trajectory]) -> tuple:
    """The columns of :data:`_COLUMNS` and the offsets of some trajectories."""
    steps = [tr for traj in trajectories for tr in traj.transitions]
    return (
        np.array([tr.state for tr in steps], dtype=np.intp),
        np.array([tr.action for tr in steps], dtype=np.intp),
        np.array([tr.reward for tr in steps], dtype=np.float64),
        np.array([tr.next_state for tr in steps], dtype=np.intp),
        np.array([tr.terminal for tr in steps], dtype=bool),
        np.array([traj.timeout_truncated for traj in trajectories], dtype=bool),
        tuple(accumulate((traj.length for traj in trajectories), initial=0)),
    )


class OfflineDataset:
    """Immutable columnar store of every trajectory plus the MDP bookkeeping counts.

    The per-step columns are trajectory-major: trajectory j owns the
    positions ``offsets[j]:offsets[j + 1]`` of each.

    * ``states``, ``actions``, ``next_states``: ``np.intp`` ids.
    * ``rewards``: float64.
    * ``terminal``: bool; true only at the last step of a trajectory that
      ended by environment termination.
    * ``head``: bool; true at each trajectory's last step.  It is derived
      from ``offsets``, so it is not saved, compared or pickled.

    ``timeout`` is the per-trajectory bool column of timeout truncation, and
    ``offsets`` the ``np.intp`` array of trajectory bounds.  All are read-only.

    Build one from :class:`Trajectory` objects or with :func:`load_dataset`.
    :attr:`trajectories` is the object view.  A loaded dataset builds it from
    the columns on first read, so nothing between the file and ``train``
    makes a per-step object.
    """

    __slots__ = (*_COLUMNS, "head", "offsets", "state_count", "action_count", "discount",
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
        self._adopt(*_object_columns(trajectories), state_count, action_count, discount)
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
        offsets: Sequence[int],
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
               state_count, action_count, discount) -> None:
        """Take the columns, offsets and counts, mark each trajectory's last step
        as its head, then check the discount and the id bounds."""
        if not 0.0 < discount <= 1.0:
            raise ValueError(f"discount must be in (0, 1], got {discount}")
        offsets = np.asarray(offsets, dtype=np.intp)
        head = np.zeros(len(states), dtype=bool)
        head[offsets[1:] - 1] = True
        columns = (states, actions, rewards, next_states, terminal, timeout, head, offsets)
        for name, column in zip((*_COLUMNS, "head", "offsets"), columns):
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "state_count", state_count)
        object.__setattr__(self, "action_count", action_count)
        object.__setattr__(self, "discount", discount)
        max_ = np.maximum.reduce
        if (max_(states) < state_count and max_(next_states) < state_count
                and max_(actions) < action_count):
            return
        outside = (states >= state_count) | (next_states >= state_count)
        outside |= actions >= action_count
        bad_step = int(outside.argmax())
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
        stored = tuple(getattr(self, name) for name in _STORED)
        return type(self)._from_columns, stored + (self.state_count, self.action_count, self.discount)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OfflineDataset):
            return NotImplemented
        return (
            (self.state_count, self.action_count, self.discount)
            == (other.state_count, other.action_count, other.discount)
            and all(np.array_equal(getattr(self, c), getattr(other, c)) for c in _STORED)
        )

    def __hash__(self) -> int:
        return hash((self.offsets.tobytes(), self.state_count, self.action_count, self.discount))

    def __repr__(self) -> str:
        return (
            f"OfflineDataset(n_trajectories={self.n_trajectories}, "
            f"total_transitions={self.total_transitions}, state_count={self.state_count}, "
            f"action_count={self.action_count}, discount={self.discount})"
        )

    @property
    def trajectories(self) -> tuple[Trajectory, ...]:
        """The object view: one :class:`Trajectory` per trajectory, in order.

        A loaded dataset builds it from the columns on first read and keeps it.
        """
        if self._trajectories is None:
            rows = zip(*(getattr(self, name).tolist() for name in _COLUMNS[:-1]))
            steps = [Transition(*row) for row in rows]
            bounds = zip(self.offsets, self.offsets[1:], self.timeout.tolist())
            object.__setattr__(self, "_trajectories", tuple(
                Trajectory(tuple(steps[lo:hi]), timeout) for lo, hi, timeout in bounds
            ))
        return self._trajectories

    @property
    def n_trajectories(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_transitions(self) -> int:
        return self.offsets.item(-1)

    @property
    def start_state(self) -> int:
        """s0, the state whose greedy value the learning curve records: the
        first state of trajectory 0."""
        return self.states.item(0)

    def position(self, index: int) -> tuple[int, int]:
        """The (trajectory id, time index) of flat position ``index``."""
        j = int(self.offsets.searchsorted(index, "right")) - 1
        return j, index - self.offsets.item(j)


def _chain_break(index: int, next_state: int, state: int) -> ValueError:
    return ValueError(
        f"chain break at step index {index} (next_state {next_state} != state {state})")


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
    for i, (tr, timeout) in enumerate(steps):
        if segment and segment[-1].next_state != tr.state:
            raise _chain_break(i, segment[-1].next_state, tr.state)
        segment.append(tr)
        if tr.terminal or timeout:
            trajectories.append(Trajectory(tuple(segment), timeout and not tr.terminal))
            segment = []
    if segment:
        # Truncated tail: keep it, marked as a timeout trajectory.
        trajectories.append(Trajectory(tuple(segment), True))
    return trajectories


def flatten_trajectories(
    trajectories: Iterable[Trajectory],
) -> list[tuple[Transition, bool]]:
    """Inverse of :func:`split_flat_transitions` on the step sequence."""
    return [(tr, traj.timeout_truncated and t == traj.length - 1)
            for traj in trajectories for t, tr in enumerate(traj.transitions)]


def _require(record: dict, key: str, line_no: int):
    if key not in record:
        raise ValueError(f"line {line_no}: missing field {key!r}")
    return record[key]


def _as_bool(value, key: str, line_no: int) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"line {line_no}: field {key!r} must be a boolean")
    return value


def _parse_line(line: str, line_no: int) -> dict | None:
    """A line's record as ``json.loads(line.strip())`` reads it, None for a blank line."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {line_no}: malformed JSON record ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise ValueError(f"line {line_no}: record must be a JSON object")
    return record


def _trajectory_from_record(record: dict, line_no: int) -> Trajectory:
    states, actions, rewards, next_states = arrays = tuple(
        _require(record, key, line_no) for key in ("states", "actions", "rewards", "next_states"))
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
        return Trajectory(transitions, timeout)
    except (TypeError, ValueError, OverflowError) as exc:
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"line {line_no}: {exc}") from exc
    return tr, timeout


def _header_count(header: dict, key: str, ids: tuple) -> int:
    """The header's non-negative int count, else one more than the largest id."""
    if key not in header:
        return 1 + int(max(map(np.maximum.reduce, ids)))
    count = header[key]
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ValueError(f"header field {key!r} must be a non-negative integer, got {count!r}")
    return count


def _dataset(header: dict, *columns) -> OfflineDataset:
    """A dataset over checked columns and offsets, with the header's counts
    and discount, which must be a number (not a bool)."""
    states, actions, _, next_states = columns[:4]
    state_count = _header_count(header, "state_count", (states, next_states))
    action_count = _header_count(header, "action_count", (actions,))
    discount = header.get("discount", DEFAULT_DISCOUNT)
    if isinstance(discount, bool) or not isinstance(discount, (int, float)):
        raise ValueError(f"header field 'discount' must be a number, got {discount!r}")
    # an int out of range fails the dataset's check before float() overflows
    discount = float(discount) if 0 < discount <= 1 else discount
    return OfflineDataset._from_columns(*columns, state_count, action_count, discount)


def _is_header(record: dict) -> bool:
    """A first line is the header if it has a header key and no record key."""
    return not _HEADER_KEYS.isdisjoint(record) and "states" not in record and "state" not in record


def _id_column(values: list) -> np.ndarray | None:
    """The ids as an intp column, or None unless each is an int (not a bool) in [0, intp max]."""
    if set(map(type, values)) == {int}:
        try:
            column = np.fromiter(values, np.intp, len(values))
        except OverflowError:
            return None
        if np.minimum.reduce(column) >= 0:
            return column
    return None


def _reward_column(values: list) -> np.ndarray | None:
    """The rewards converted as ``float()`` does, or None unless all are finite."""
    try:
        column = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        return None
    finite = column.ndim == 1 and np.logical_and.reduce(np.isfinite(column))
    return column if finite else None


def _first_bad(values: list, column) -> int:
    """The position of the first value that ``column`` rejects, given that it
    rejects ``values`` (``len(values)`` if that is empty), by bisection."""
    lo, hi = 0, len(values)  # values[:lo] are good, values[lo:hi] hold a bad one
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if column(values[lo:mid]) is None else (mid, hi)
    return lo


# The function that makes each per-step column, in column order.
_CONVERTERS = (_id_column, _id_column, _reward_column, _id_column)
_FLAT_KEYS = ("state", "action", "reward", "next_state", "terminal", "timeout")


def _raise_first_fault(raw: list, bounds, lines, untaken, columns: list) -> None:
    """Word the fault of the first record, in file order, that its own checks
    reject.  The columns locate it among the records the stream took, else
    it is the record the stream could not take; only it is built."""
    flat = isinstance(bounds, range)  # a flat record is one step
    states, _, _, next_states, terminal, timeout = raw
    # the first step with a bad id or reward, or that breaks its record's chain
    step = min(len(values) if column is not None else _first_bad(values, convert)
               for values, column, convert in zip(raw, columns, _CONVERTERS))
    if not flat:
        starts = set(bounds)
        step = next((i for i in range(1, step)
                     if next_states[i - 1] != states[i] and i not in starts), step)
    at = bisect_right(bounds, step) - 1
    # before it, a flag that is not a bool, or a trajectory record with both set
    at = next((j for j, flags in enumerate(zip(terminal[:at], timeout[:at]))
               if set(map(type, flags)) != {bool} or not flat and all(flags)), at)
    if at < len(lines):
        lo, hi = bounds[at], bounds[at + 1]
        values = [column[lo] if flat else column[lo:hi] for column in raw[:4]]
        values += terminal[at], timeout[at]
        untaken = lines[at], dict(zip(_FLAT_KEYS if flat else _COLUMNS, values))
    (_transition_from_record if flat else _trajectory_from_record)(untaken[1], untaken[0])


def load_dataset(path: str | Path) -> OfflineDataset:
    """Load an :class:`OfflineDataset` from a JSONL file.

    The first line is the metadata header if it has any of ``state_count``,
    ``action_count`` and ``discount`` and neither ``states`` nor ``state``.
    The first data record decides the format: ``states`` means
    ``trajectory-jsonl``, else ``state`` means ``flat-transitions``.  A count
    the header lacks is inferred from the data; the discount defaults to 0.99.

    The file is read once, and each line decoded once by ``raw_decode``.  A
    line it rejects, or with more than whitespace after the value, is read
    as ``json.loads(line.strip())`` reads it: so are a blank line, leading
    whitespace and a BOM, and that route words every malformed line.  The
    records stream onto flat lists, which a few array operations convert and
    check; no per-step object is built.  Every line is parsed before a fault
    is raised, so a malformed JSON line reports first.  Then the first record
    in file order that fails its own checks: the columns locate it, and it
    alone is built into :class:`Transition` and :class:`Trajectory` objects,
    whose constructors word the fault.  Then a flat file's chain break, then
    the header's counts and discount and the id bounds.  Ids above the
    ``intp`` range are rejected.
    """
    path = Path(path)
    decode = json.JSONDecoder().raw_decode
    header = first = pick = untaken = None
    raw = states, actions, rewards, next_states, terminal, timeout = [[] for _ in _FLAT_KEYS]
    ends: list[int] = []
    lines = array("q")  # each taken record's line number; not int objects, one per step
    with path.open("r", encoding="utf-8") as fh:
        numbered = enumerate(fh, start=1)
        for line_no, line in numbered:
            try:
                record, end = decode(line)
            except json.JSONDecodeError:
                record = None
            if type(record) is not dict or not (line[end:].isspace() or end == len(line)):
                record = _parse_line(line, line_no)  # words a fault as json.loads does
                if record is None:
                    continue
            if pick is None:  # the header, or the first data record, which sets the format
                if header is None and _is_header(record):
                    header = record
                    continue
                first = line_no, record
                flat = "states" not in record
                pick = itemgetter(*(_FLAT_KEYS if flat else _COLUMNS))
            try:
                s, a, r, ns, te, ti = row = pick(record)
            except KeyError:
                row = None
            if row is None or not (flat or (type(s) is type(a) is type(r) is type(ns) is list
                                            and len(s) == len(a) == len(r) == len(ns) > 0)):
                untaken = line_no, record
                for line_no, line in numbered:  # every line is parsed before a fault is raised
                    _parse_line(line, line_no)
                break
            if flat:
                states.append(s)
                actions.append(a)
                rewards.append(r)
                next_states.append(ns)
            else:
                states += s
                actions += a
                rewards += r
                next_states += ns
                ends.append(len(states))
            terminal.append(te)
            timeout.append(ti)
            lines.append(line_no)
    if first is None:
        raise ValueError(f"{path}: file contains no data records")
    if flat and "state" not in first[1]:
        raise ValueError(f"line {first[0]}: cannot detect record format")
    bounds = range(len(lines) + 1) if flat else [0, *ends]
    columns = [convert(values) for convert, values in zip(_CONVERTERS, raw)]
    broken = None
    if (untaken is None and set(map(type, terminal)) | set(map(type, timeout)) == {bool}
            and all(column is not None for column in columns)):
        states, actions, rewards, next_states = columns
        terminal, timeout = np.array(terminal, dtype=bool), np.array(timeout, dtype=bool)
        if flat:
            ended = terminal | timeout
            ended[-1] = True  # an untagged tail is kept, as a timeout-truncated trajectory
            ends = np.flatnonzero(ended) + 1
            timeout = ~terminal[ends - 1]
        else:
            both = np.logical_or.reduce(terminal & timeout)
            ends = np.array(ends, dtype=np.intp)
            terminal, terminal_ends = np.zeros(len(states), dtype=bool), ends[terminal]
            terminal[terminal_ends - 1] = True
        # a chain break: a step's state is not the next state of the step before,
        # unless that step ends a trajectory
        breaks = next_states[:-1] != states[1:]
        breaks[ends[:-1] - 1] = False
        broken = np.logical_or.reduce(breaks)
    if broken is None or not flat and (both or broken):
        _raise_first_fault(raw, bounds, lines, untaken, columns)
    if broken:
        i = int(breaks.argmax()) + 1
        raise _chain_break(i, next_states.item(i - 1), states.item(i))
    return _dataset(header or {}, states, actions, rewards, next_states, terminal, timeout,
                    np.concatenate(([0], ends)))


def save_dataset(dataset: OfflineDataset, path: str | Path) -> None:
    """Write a dataset in trajectory-jsonl form, metadata header first."""
    path = Path(path)
    offsets = dataset.offsets
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        header = {"state_count": dataset.state_count, "action_count": dataset.action_count,
                  "discount": dataset.discount}
        fh.write(json.dumps(header) + "\n")
        for j, timeout in enumerate(dataset.timeout.tolist()):
            lo, hi = offsets[j], offsets[j + 1]
            record = {key: getattr(dataset, key)[lo:hi].tolist() for key in _COLUMNS[:4]}
            record.update(terminal=dataset.terminal.item(hi - 1), timeout=timeout)
            fh.write(json.dumps(record) + "\n")
