"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's figures (or an ablation) on
the network simulator, prints the measured series in a table, and asserts the
*shape* properties the paper reports (who wins, where the knees and
crossovers fall).  Absolute times are simulated seconds, not 1999 wall-clock
milliseconds.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def write_snapshot(name: str, payload) -> None:
    """Record a perf snapshot as ``BENCH_<name>.json`` at the repo root.

    Only the reduced (``REPRO_BENCH_SMOKE=1``) configuration writes
    snapshots: that is the configuration CI runs on every push, so the
    committed files form a comparable perf trajectory.  Full-size local runs
    print their tables but leave the snapshots alone.
    """
    if os.environ.get("REPRO_BENCH_SMOKE") != "1":
        return
    path = os.path.join(_REPO_ROOT, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_once(benchmark, function):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The experiments are deterministic simulations, so repeated rounds would
    only re-measure identical work.
    """
    return benchmark.pedantic(function, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
