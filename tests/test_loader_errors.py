"""Error parity of the columnar loader, as a property test.

``load_dataset`` checks whole columns at once.  On any file, it must give
the result of a reference loader that reads every record first and then
builds ``Transition``, ``Trajectory`` and ``OfflineDataset`` objects from
them, record by record, so that each object's own constructor checks it.
"Result" means the dataset, or the same exception type with the same text.
The files are random valid datasets in both formats with zero, one or two
injected faults, so the precedence between two faults is pinned as well.
"""

from __future__ import annotations

import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from trajreplay.dataset import (
    DEFAULT_DISCOUNT,
    OfflineDataset,
    Trajectory,
    Transition,
    load_dataset,
    split_flat_transitions,
)

ARRAYS = ("states", "actions", "rewards", "next_states")
FIELDS = ("state", "action", "reward", "next_state")
FLAGS = ("terminal", "timeout")


# ---------------------------------------------------------------- reference


def _require(record, key, line_no):
    if key not in record:
        raise ValueError(f"line {line_no}: missing field {key!r}")
    return record[key]


def _flag(record, key, line_no):
    value = _require(record, key, line_no)
    if not isinstance(value, bool):
        raise ValueError(f"line {line_no}: field {key!r} must be a boolean")
    return value


def _reference_trajectory(record, line_no):
    arrays = [_require(record, key, line_no) for key in ARRAYS]
    if not all(isinstance(a, list) for a in arrays):
        raise ValueError(f"line {line_no}: states/actions/rewards/next_states must be arrays")
    if len({len(a) for a in arrays}) != 1:
        raise ValueError(f"line {line_no}: parallel arrays have mismatched lengths")
    if len(arrays[0]) == 0:
        raise ValueError(f"line {line_no}: trajectory must have at least one step")
    terminal = _flag(record, "terminal", line_no)
    timeout = _flag(record, "timeout", line_no)
    if terminal and timeout:
        raise ValueError(f"line {line_no}: terminal and timeout are mutually exclusive")
    states, actions, rewards, next_states = arrays
    last = len(states) - 1
    try:
        return Trajectory(tuple(
            Transition(states[t], actions[t], float(rewards[t]), next_states[t],
                       terminal and t == last)
            for t in range(len(states))
        ), timeout)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"line {line_no}: {exc}") from exc


def _reference_step(record, line_no):
    terminal = _flag(record, "terminal", line_no)
    timeout = _flag(record, "timeout", line_no)
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


def reference_load(path):
    """Parse every line, then build and check the objects one record at a time."""
    records = []
    with open(path, encoding="utf-8") as fh:
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
            records.append((line_no, record))
    header = {}
    keys = records[0][1].keys() if records else set()
    if {"state_count", "action_count", "discount"} & keys and not {"states", "state"} & keys:
        header, records = records[0][1], records[1:]
    if not records:
        raise ValueError(f"{path}: file contains no data records")
    line_no, first = records[0]
    if "states" in first:
        trajectories = [_reference_trajectory(record, line_no) for line_no, record in records]
    elif "state" in first:
        trajectories = split_flat_transitions(
            [_reference_step(record, line_no) for line_no, record in records]
        )
    else:
        raise ValueError(f"line {line_no}: cannot detect record format")
    steps = [tr for traj in trajectories for tr in traj.transitions]
    counts = {
        "state_count": 1 + max(max(tr.state, tr.next_state) for tr in steps),
        "action_count": 1 + max(tr.action for tr in steps),
    }
    for key in counts:
        if key in header:
            count = header[key]
            if type(count) is not int or count < 0:
                raise ValueError(
                    f"header field {key!r} must be a non-negative integer, got {count!r}")
            counts[key] = count
    discount = header.get("discount", DEFAULT_DISCOUNT)
    if type(discount) not in (int, float):
        raise ValueError(f"header field 'discount' must be a number, got {discount!r}")
    # an int out of range fails the dataset's check before float() overflows
    discount = float(discount) if 0 < discount <= 1 else discount
    return OfflineDataset(trajectories, counts["state_count"], counts["action_count"], discount)


def outcome(load, path):
    try:
        return "ok", load(path)
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------- files

bad_ids = st.sampled_from([-1, True, False, 1.5, "3", None, [1], 2**70])
bad_rewards = st.sampled_from(
    [None, "abc", "1.5", "nan", math.nan, math.inf, -math.inf, True, [1.0], {}, 2, 10**400]
)
bad_flags = st.sampled_from([0, 1, "true", None, [], True, False])
bad_lines = st.sampled_from(["{not json", "[1, 2]", "3", '"text"', "{}", '{"foo": 1}'])


@st.composite
def trajectory_records(draw):
    records = []
    state = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(1, 5))):
        length = draw(st.integers(1, 4))
        terminal = draw(st.booleans())
        states = list(range(state, state + length))
        records.append({
            "states": states,
            "actions": draw(st.lists(st.integers(0, 2), min_size=length, max_size=length)),
            "rewards": draw(st.lists(st.floats(-5.0, 5.0), min_size=length, max_size=length)),
            "next_states": [s + 1 for s in states],
            "terminal": terminal,
            "timeout": not terminal,
        })
        state = draw(st.integers(0, state + length + 1))
    return records


def as_steps(records, untagged_tail):
    """The trajectory records as a flat log; optionally drop the last flag."""
    steps = []
    for record in records:
        last = len(record["states"]) - 1
        for t in range(last + 1):
            steps.append({
                "state": record["states"][t], "action": record["actions"][t],
                "reward": record["rewards"][t], "next_state": record["next_states"][t],
                "terminal": record["terminal"] and t == last,
                "timeout": record["timeout"] and t == last,
            })
    if untagged_tail and not steps[-1]["terminal"]:
        steps[-1]["timeout"] = False
    return steps


@st.composite
def record_fault(draw, flat):
    """A function that injects one fault into a record in place."""
    kind = draw(st.sampled_from(
        ["drop", "flag", "value", "value", "value", "chain", "chain", "chain", "bounds",
         "both_flags"]
        + ([] if flat else ["not_array", "lengths", "empty"])
    ))
    fields = FIELDS if flat else ARRAYS
    if kind == "chain":
        # a fresh state id: a break unless it starts a record or segment
        if flat:
            return lambda r: r.__setitem__("state", 50)

        def break_chain(r):
            if isinstance(r.get("states"), list) and len(r["states"]) > 1:
                r["states"][-1] = 50
        return break_chain
    if kind == "drop":
        key = draw(st.sampled_from(fields + FLAGS))
        return lambda r: r.pop(key, None)
    if kind == "flag":
        key, value = draw(st.sampled_from(FLAGS)), draw(bad_flags)
        return lambda r: r.__setitem__(key, value)
    if kind == "both_flags":
        return lambda r: r.update(terminal=True, timeout=True)
    if kind in ("value", "bounds"):
        if kind == "bounds":
            # a valid id, past any count the header gives
            key, value = draw(st.sampled_from([k for k in fields if "reward" not in k])), 10**6
        else:
            key = draw(st.sampled_from(fields))
            value = draw(bad_rewards if key.startswith("reward") else bad_ids)
        if flat:
            return lambda r: r.__setitem__(key, value)
        t = draw(st.integers(0, 3))

        def set_step(r):
            if isinstance(r.get(key), list) and r[key]:
                r[key][t % len(r[key])] = value
        return set_step
    if kind == "not_array":
        key, value = draw(st.sampled_from(ARRAYS)), draw(st.sampled_from([3, "abc", None, {}]))
        return lambda r: r.__setitem__(key, value)
    if kind == "lengths":
        key = draw(st.sampled_from(ARRAYS))
        return lambda r: r[key].append(0) if isinstance(r.get(key), list) else None
    return lambda r: r.update({key: [] for key in ARRAYS})


@st.composite
def fault_files(draw):
    """A file's text with up to two injected faults."""
    flat = draw(st.booleans())
    records = draw(trajectory_records())
    state_count = 1 + max(max(r["next_states"] + r["states"]) for r in records)
    if flat:
        records = as_steps(records, draw(st.booleans()))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 2, 2]))):
        fault = draw(record_fault(flat))
        fault(records[draw(st.integers(0, len(records) - 1))])
    if draw(st.sampled_from([False] * 3 + [True])):
        # a record may carry a header key of its own, as step logs carry a discount
        records[0][draw(st.sampled_from(["state_count", "action_count", "discount"]))] = 1
    lines = [json.dumps(record) for record in records]
    header = draw(st.sampled_from(["none", "counts", "discount", "small", "bad", "partial"]))
    if header != "none":
        meta = {"state_count": state_count + draw(st.integers(0, 2)), "action_count": 3}
        if header == "partial":
            # a header with any one of its keys is still the header
            meta = draw(st.sampled_from([{"discount": 0.9}, {"action_count": 3},
                                         {"state_count": state_count}]))
        elif header == "discount":
            meta["discount"] = draw(st.sampled_from([0.9, 0.0, 1.5, 1, True, "0.9", None, 10**400]))
        elif header == "small":
            # ids past these counts fail the bounds check
            meta.update(state_count=draw(st.integers(1, 4)), action_count=draw(st.integers(1, 2)))
        elif header == "bad":
            key = draw(st.sampled_from(["state_count", "action_count"]))
            meta[key] = draw(st.sampled_from(["abc", None, 7.9, 3.0, "12", True, -1]))
        lines.insert(0, json.dumps(meta))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "")
    if draw(st.sampled_from([False] * 9 + [True])):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(bad_lines)
    return "\n".join(lines) + "\n"


@settings(max_examples=2500, deadline=None)
@given(fault_files())
def test_loader_matches_the_object_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("faults") / "data.jsonl"
    path.write_text(text, encoding="utf-8")
    assert outcome(load_dataset, path) == outcome(reference_load, path)


def test_two_faults_report_in_file_order(tmp_path):
    """A chain break in record 1 reports before a bad reward in record 2, and
    a bad reward before a chain break inside the same record."""
    good = {"states": [0, 1], "actions": [0, 0], "rewards": [0.0, 1.0],
            "next_states": [1, 2], "terminal": True, "timeout": False}
    broken = dict(good, states=[0, 5])
    bad_reward = dict(good, rewards=[0.0, "x"])
    both = dict(good, states=[0, 5], rewards=[0.0, None])
    cases = [
        ([good, broken, bad_reward], "line 2: chain break at step 1"),
        ([good, bad_reward, broken], "line 2: could not convert string to float: 'x'"),
        ([both], "line 1: float() argument must be a string or a real number, not 'NoneType'"),
    ]
    for records, message in cases:
        path = tmp_path / "two.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        got = outcome(load_dataset, path)
        assert got == outcome(reference_load, path)
        assert got[1].startswith(message)
