#!/usr/bin/env python3
"""The repository's end-to-end benchmark: two clocks, five workloads.

One workload, as the driver calls it (last stdout line is one JSON object)::

    python3 benchmarks/e2e/run.py --workload ship_bulk --seed 1999 --seconds 8 --trace 0

Everything, for a person (each workload in a fresh subprocess, untraced then
traced; prints every metric by name with its unit and writes a result file
that ``compare.py`` reads)::

    python3 benchmarks/e2e/run.py --seed 1999 [--smoke] [--out results.json]

See README.md in this directory for the metrics, workloads and protocol.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)
# The program under test is imported from the checkout's source tree.
sys.path.insert(1, os.path.join(REPO_ROOT, "src"))

DEVELOPMENT_SEED = 1999


def _workload_class(name: str) -> Any:
    from wl_paged import PagedMix
    from wl_scatter import ScatterSharded
    from wl_stock import PlanSmall, ShipBulk
    from wl_tenants import TenantsMixed

    classes = {cls.name: cls for cls in (ShipBulk, PlanSmall, PagedMix, TenantsMixed, ScatterSharded)}
    return classes[name]


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    trace_out: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload in this process and return its result record."""
    import harness
    from layers import per_layer
    from trace import Tracer

    pinned = harness.pin_to_one_cpu()
    workload = _workload_class(name)(seed, smoke)
    config = workload.config()
    env = harness.environment(pinned)
    print(f"# workload {name} seed {seed} run {harness.run_id(name, seed, config)} config {json.dumps(config)}")
    print(f"# environment {json.dumps(env)}")

    setup_s, _parts = harness.timed_setup(workload, repeats=not trace and not smoke)
    try:
        harness.run_round(workload.round_ops())  # warm-up, untimed
        rounds: List[harness.RoundLog] = []
        after_rounds: Dict[str, float] = {}
        spent = 0.0
        while len(rounds) < harness.SIM_ROUNDS or (not trace and not smoke and spent < seconds):
            rounds.append(harness.run_round(workload.round_ops()))
            spent += rounds[-1].total_raw_host_s
            if len(rounds) == harness.SIM_ROUNDS:
                after_rounds = workload.after_sim_rounds()
        attempted = sum(log.attempted for log in rounds)
        failed = sum(log.failed for log in rounds)

        if trace:
            tracer = Tracer()
            tracer.install()
            for registry in workload.udf_registries():
                tracer.wrap_udfs(registry)
            try:
                traced = harness.run_round(workload.round_ops(), tracer)
            finally:
                tracer.uninstall()
            attempted += traced.attempted
            failed += traced.failed
            metrics = per_layer(workload, rounds, traced, tracer, after_rounds)
            if trace_out:
                tracer.dump(trace_out)
        else:
            metrics = harness.end_to_end(setup_s, rounds)
            if "storage.disk_bytes_per_user_byte" in after_rounds:  # the durable workload
                metrics["disk_bytes_per_user_byte"] = (
                    after_rounds["storage.disk_bytes_per_user_byte"],
                    "ratio",
                )
    finally:
        workload.teardown()

    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "rounds": len(rounds),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
        "environment": env,
        "config": config,
    }


def _driver_line(record: Dict[str, Any], declared: Dict[str, Any]) -> str:
    """The one-line JSON the driver reads: only the declared metrics of this mode."""
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: record["metrics"][name] for name in declared},
        }
    )


def single(args: argparse.Namespace) -> int:
    import metrics as names

    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke, args.trace_out
    )
    for name, entry in record["metrics"].items():
        print(f"{name:<44} {entry['value']:>18.6f} {entry['unit']}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
    declared = names.PER_LAYER if args.trace else names.END_TO_END
    print(_driver_line(record, declared))
    return 0 if record["correct"] else 1


def everything(args: argparse.Namespace) -> int:
    """Run the five workloads, each untraced then traced, each in a fresh subprocess."""
    import tempfile

    import metrics as names
    from harness import WORK_DIR

    results: Dict[str, Any] = {"seed": args.seed, "smoke": args.smoke, "workloads": {}}
    status = 0
    started = time.perf_counter()
    os.makedirs(WORK_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="records_", dir=WORK_DIR) as scratch:
        for workload in names.WORKLOADS:
            merged: Dict[str, Any] = {"metrics": {}, "attempted": 0, "failed": 0}
            for trace in (0, 1):
                record_path = os.path.join(scratch, f"{workload}.{trace}.json")
                command = [
                    sys.executable,
                    os.path.abspath(__file__),
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", str(trace),
                    "--record", record_path,
                ] + (["--smoke"] if args.smoke else [])
                completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
                if not os.path.exists(record_path):
                    sys.stdout.write(completed.stdout)
                    print(f"{workload} (trace {trace}) did not finish: exit {completed.returncode}")
                    return 2
                with open(record_path, encoding="utf-8") as handle:
                    record = json.load(handle)
                merged["metrics"].update(record["metrics"])
                merged["attempted"] += record["attempted"]
                merged["failed"] += record["failed"]
                merged.setdefault("environment", record["environment"])
                merged.setdefault("config", record["config"])
            merged["metrics"]["error_rate"] = {
                "value": merged["failed"] / merged["attempted"],
                "unit": "ratio",
            }
            results["workloads"][workload] = merged
            if merged["failed"]:
                status = 1
            print(f"\n== {workload}  config {json.dumps(merged['config'])}")
            print(f"   environment {json.dumps(merged['environment'])}")
            for name, entry in merged["metrics"].items():
                print(f"{workload:<16} {name:<44} {entry['value']:>18.6f} {entry['unit']}")
    print(f"\n# {len(names.WORKLOADS)} workloads in {time.perf_counter() - started:.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(results, handle, indent=1, sort_keys=True)
        print(f"# results written to {args.out}")
    if status:
        print("# error_rate > 0: at least one operation failed or returned wrong rows")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        run_seconds = json.load(handle)["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload in this process (driver mode)")
    parser.add_argument("--seed", type=int, default=DEVELOPMENT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, < 10 s for everything")
    parser.add_argument("--out", help="write every workload's metrics to this JSON file")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--trace-out", help="write the traced pass's spans here (JSON lines)")
    args = parser.parse_args(argv)
    return single(args) if args.workload else everything(args)


if __name__ == "__main__":
    sys.exit(main())
