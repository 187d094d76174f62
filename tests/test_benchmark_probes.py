"""The benchmark's probe surface resolves in the program.

``perfbench/run.py`` times and counts calls at the locations in its
``SPANS`` and ``COUNTERS`` tables, and hooks its replay checks on the
selectors' ``select``.  A location that no longer resolves is reported
absent there, and its metrics read nothing.  This test reads the tables as
they are, so a refactor that renames a probed name fails here first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# reported absent on every traced run; the program has no target cache
KNOWN_ABSENT = {"trajreplay.targets:TargetCache.clear_trajectory"}
# hooked by the traced run besides the SPANS and COUNTERS locations
HOOKED = ["trajreplay.replay:UniformSelector.select"]


@pytest.fixture
def bench(monkeypatch):
    """perfbench/run.py as a module, imported without writing bytecode next to
    it; its sibling imports are removed afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        if str(PERFBENCH) in (getattr(sys.modules[name], "__file__", None) or ""):
            del sys.modules[name]


def test_every_probed_location_resolves(bench):
    locations = [loc for locs in bench.SPANS.values() for loc in locs]
    locations += [*bench.COUNTERS.values(), *HOOKED]
    assert KNOWN_ABSENT <= set(locations)
    missing = [loc for loc in locations
               if loc not in KNOWN_ABSENT and bench.resolve(loc) is None]
    assert missing == []
