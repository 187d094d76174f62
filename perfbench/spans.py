"""Span tracer that wraps the program's public names from outside the program.

A *location* is ``"module:attr"`` or ``"module:Class.method"``; the wrapper is
installed where the calling code looks the name up (a module global or a class
attribute), so the program itself is unchanged.  Spans are kept in memory as
parallel arrays (name id, parent index, start ns, end ns) and written out once
at the end.  A location that no longer resolves is reported as absent rather
than raising, so a later change that removes a wrapped name still gets a
report.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CHECK_SPAN = "bench.check"

Hook = Callable[..., None]


@dataclass
class Probe:
    """What to do at one location: time it as a span, count it, run hooks."""

    span: str | None = None
    counter: str | None = None
    before: Hook | None = None
    after: Hook | None = None


def resolve(location: str):
    """Return (owner, attribute name) for a location, or None if it is gone."""
    module_name, _, path = location.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not hasattr(owner, attr):
        return None
    return owner, attr


class Tracer:
    """Installs probes, records spans and counts, and restores the originals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object | None]] = []

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _run_hook(self, hook: Hook, *args) -> None:
        # Checks run in a span of their own so their cost is not charged to
        # the self time of the layer that called the probed function.
        idx = self._open(self._intern(CHECK_SPAN))
        try:
            hook(*args)
        finally:
            self._close(idx)

    def _wrap(self, fn, probe: Probe):
        nid = self._intern(probe.span) if probe.span else -1
        cell = self.counts.setdefault(probe.counter, [0]) if probe.counter else None
        before, after = probe.before, probe.after
        tracer = self

        def traced(*args, **kwargs):
            if cell is not None:
                cell[0] += 1
            if before is not None:
                tracer._run_hook(before, args, kwargs)
            if nid < 0:
                result = fn(*args, **kwargs)
            else:
                idx = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
            if after is not None:
                tracer._run_hook(after, args, kwargs, result)
            return result

        return traced

    def install(self, probes: dict[str, Probe]) -> None:
        for location, probe in probes.items():
            found = resolve(location)
            if found is None:
                self.absent.append(location)
                continue
            owner, attr = found
            # Read the raw class attribute so the wrapper binds like the
            # original method; an inherited one is deleted again on uninstall.
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._patches.append((owner, attr, original if own else None))
            setattr(owner, attr, self._wrap(original, probe))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        n = len(self.start)
        if n == 0:
            return {}
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        incl = np.bincount(names, weights=dur, minlength=k)
        own = np.bincount(names, weights=self_ns, minlength=k)
        return {
            name: (int(calls[i]), float(incl[i]) * 1e-9, float(own[i]) * 1e-9)
            for i, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
