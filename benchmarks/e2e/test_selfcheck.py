"""Self-check of the benchmark itself.  Run it explicitly; it is not a tier-1 test:

    python3 -m pytest benchmarks/e2e/test_selfcheck.py -q
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)
sys.path.insert(1, os.path.join(REPO_ROOT, "src"))

import harness  # noqa: E402
import metrics as names  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_declares_what_metrics_py_defines():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared == names.benchmark_json(declared["run_seconds"])
    assert declared["paths"] == ["benchmarks/e2e"]
    assert [entry["name"] for entry in declared["workloads"]] == list(names.WORKLOADS)
    assert "setup_s" in names.END_TO_END
    assert len(declared["per_layer"]) <= 128
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert NAME.match(entry["name"]), entry
        assert UNIT.match(entry["unit"]), entry
    for entry in declared["end_to_end"]:
        assert 0 < entry["bound"] <= 0.25


def test_smoke_run_emits_every_declared_metric(tmp_path):
    out = tmp_path / "smoke.json"
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", "--seed", "1999", "--out", str(out)],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
        timeout=170,
    )
    assert completed.returncode == 0, completed.stdout[-2000:]
    results = json.loads(out.read_text(encoding="utf-8"))
    expected = set(names.END_TO_END) | set(names.PER_LAYER) | {"error_rate"}
    for workload in names.WORKLOADS:
        emitted = results["workloads"][workload]["metrics"]
        assert expected <= set(emitted), (workload, sorted(expected - set(emitted)))
        for name, entry in emitted.items():
            assert NAME.match(name), name
            assert UNIT.match(entry["unit"]), (name, entry)
            assert isinstance(entry["value"], (int, float))
        assert emitted["error_rate"]["value"] == 0
        for name in names.END_TO_END:
            assert emitted[name]["value"] != 0, (workload, name)
        # Only the durable workload touches the storage layer.
        storage = emitted["trace.storage_share"]["value"]
        assert (storage > 0) == (workload == "paged_mix"), (workload, storage)
    assert "disk_bytes_per_user_byte" in results["workloads"]["paged_mix"]["metrics"]


def test_wrong_expectation_is_counted_as_a_failure():
    from wl_stock import PlanSmall

    workload = PlanSmall(1999, smoke=True)
    workload.setup()
    healthy = harness.run_round(workload.round_ops())
    assert healthy.failed == 0
    # One Figure 11 row removed from the oracle: every Figure 11 operation must now fail.
    workload.expected11 = workload.expected11[:-1]
    broken = harness.run_round(workload.round_ops())
    figure11 = sum(1 for kind in broken.kinds if kind.startswith("f11"))
    assert broken.failed == figure11 > 0


def test_raised_operation_is_counted_not_skipped():
    def explode():
        raise RuntimeError("refused")

    log = harness.run_round([harness.Op("boom", explode, lambda raw: harness.Sample())])
    assert (log.attempted, log.failed) == (1, 1)


def test_compare_flags_worse_and_unresolved():
    import compare

    assert compare.verdict("sim_s", "lower", 0.02, 100.0, 100.0, 0.5) == "within"
    assert compare.verdict("sim_s", "lower", 0.02, 100.0, 105.0, 0.5) == "worse"
    assert compare.verdict("host_ops_per_s", "higher", 0.10, 100.0, 80.0, 0.02) == "worse"
    assert compare.verdict("host_ops_per_s", "higher", 0.10, 100.0, 80.0, 0.30) == "unresolved"
    assert compare.verdict("host_ops_per_s", "higher", 0.10, 100.0, 130.0, 0.02) == "better"
    assert compare.verdict("error_rate", "lower", 0.0, 0.0, 0.01, 0.0) == "worse"
