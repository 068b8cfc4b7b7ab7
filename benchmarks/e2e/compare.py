#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: one row per (workload, end-to-end metric).

    python3 benchmarks/e2e/compare.py base.json new.json

Each row gives the base value, the new value, their ratio (new / base), the
metric's bound and a verdict:

* ``better`` / ``worse`` — the new value differs from the base by more than
  the bound, in the metric's good or bad direction;
* ``within`` — it does not;
* ``unresolved`` — a host-clock metric moved by more than its bound but one of
  the two runs' own rounds disagree by more than that bound
  (``ops.host_round_spread``), so the difference cannot be told from noise.

Simulated-clock metrics and ``sim_digest`` repeat exactly for equal inputs,
so they are compared exactly and are never ``unresolved``; a changed digest
with unchanged totals is reported for a person to look at.  Exits 1 if any
row is ``worse``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional, Tuple

import metrics as names

#: Host-clock metrics whose difference competes with round-to-round noise.
NOISY = ("setup_s", "host_ops_per_s", "host_op_p50_ms")


def _value(record: Dict[str, Any], metric: str) -> Optional[float]:
    entry = record["metrics"].get(metric)
    return None if entry is None else entry["value"]


def verdict(
    metric: str, better: str, bound: float, base: float, new: float, spread: float
) -> str:
    if base == new:
        return "within"
    if base == 0:
        return "worse" if (new > 0) == (better == "lower") else "better"
    # Worsening as a share of the base; negative when the metric improved.
    worsening = (new - base) / abs(base) * (1.0 if better == "lower" else -1.0)
    if abs(worsening) <= bound:
        return "within"
    if metric in NOISY and spread > bound:
        return "unresolved"
    return "worse" if worsening > 0 else "better"


def compare(base: Dict[str, Any], new: Dict[str, Any]) -> Tuple[List[str], int]:
    lines = [
        f"{'workload':<16} {'metric':<26} {'base':>16} {'new':>16} {'new/base':>9} "
        f"{'bound':>6}  verdict"
    ]
    worse = 0
    declared = {**names.END_TO_END, **names.REPORT_ONLY}
    for workload in names.WORKLOADS:
        before = base["workloads"].get(workload)
        after = new["workloads"].get(workload)
        if before is None or after is None:
            lines.append(f"{workload:<16} missing from one of the files")
            worse += 1
            continue
        spread = max(
            _value(before, "ops.host_round_spread") or 0.0,
            _value(after, "ops.host_round_spread") or 0.0,
        )
        for metric, (_unit, better, bound) in declared.items():
            old_value, new_value = _value(before, metric), _value(after, metric)
            if old_value is None or new_value is None:
                continue  # not defined on this workload
            outcome = verdict(metric, better, bound, old_value, new_value, spread)
            ratio = f"{new_value / old_value:9.4f}" if old_value else f"{'n/a':>9}"
            lines.append(
                f"{workload:<16} {metric:<26} {old_value:>16.6g} {new_value:>16.6g} {ratio} "
                f"{bound:>6.2f}  {outcome}"
            )
            worse += outcome == "worse"
        old_digest, new_digest = (
            format(int(_value(record, "sim_digest") or 0), "012x") for record in (before, after)
        )
        outcome = (
            "within" if old_digest == new_digest else "unresolved (simulated behaviour changed)"
        )
        lines.append(
            f"{workload:<16} {'sim_digest':<26} {old_digest:>16} {new_digest:>16} "
            f"{'':>9} {'exact':>6}  {outcome}"
        )
    return lines, worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        new = json.load(handle)
    lines, worse = compare(base, new)
    print("\n".join(lines))
    print(f"# {worse} row(s) worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
