"""Shared harness for the benchmark suite.

Every benchmark regenerates one of the paper's figures (or an ablation) on
the network simulator: it declares a :class:`~repro.workloads.experiments.Sweep`
(a grid, as data), runs it once through the ``run_sweep`` fixture — which
prints the measured series as a table — and asserts the *shape* properties
the paper reports (who wins, where the knees and crossovers fall).  Absolute
times are simulated seconds, not 1999 wall-clock milliseconds.

``REPRO_BENCH_SMOKE=1`` selects the reduced configuration (the ``smoke`` side
of every :class:`~repro.workloads.experiments.Sized` declaration).  That is
the configuration CI runs on every push, and the only one that writes the
``BENCH_<name>.json`` snapshots at the repo root, so the committed files form
a comparable trajectory; full-size runs print their tables and leave the
files alone.  This module is the only reader of the variable.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any, Dict

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.workloads.experiments import format_records  # noqa: E402

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

#: ``{snapshot name: {section: payload}}`` accumulated over the session.
_PENDING: Dict[str, Dict[str, Any]] = {}


def snapshot(name: str, sections: Dict[str, Any]) -> None:
    """Queue top-level ``sections`` of ``BENCH_<name>.json``.

    A section is the unit of replacement: the session's end rewrites the
    sections queued and leaves the file's other sections byte for byte, so
    running one driver alone does not drop its neighbours' pins.
    """
    _PENDING.setdefault(name, {}).update(sections)


def pytest_sessionfinish(session, exitstatus) -> None:
    if not SMOKE:
        return
    for name, sections in _PENDING.items():
        path = os.path.join(_REPO_ROOT, f"BENCH_{name}.json")
        payload: Dict[str, Any] = {}
        if os.path.exists(path):
            with open(path) as handle:
                payload = json.load(handle)
        payload.update(sections)
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


@pytest.fixture
def run_sweep(benchmark):
    """Run a sweep once under pytest-benchmark timing and print its table.

    Once, because the experiments are deterministic simulations: repeated
    rounds would only re-measure identical work.  ``pin`` names the snapshot
    that keeps the sweep's records, keyed by point ID, under the sweep's name.
    """

    def run(sweep, title, columns=None, pin=None):
        records = benchmark.pedantic(sweep.run, args=(SMOKE,), rounds=1, iterations=1)
        print(f"\n{title}")
        print(format_records(records, columns))
        if pin is not None:
            snapshot(pin, {sweep.name: sweep.snapshot()})
        return records

    return run
