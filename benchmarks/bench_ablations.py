"""Ablation benchmarks for the design choices called out in DESIGN.md.

* duplicate elimination in the semi-join sender (Section 3.2.2),
* result caching of duplicate arguments,
* pushing predicates/projections to the client in the client-site join,
* the analytic B·T concurrency choice vs. fixed factors.
"""

from __future__ import annotations

import pytest

from repro.client.runtime import ClientRuntime
from repro.core.execution import RemoteExecutionContext, build_operator
from repro.core.strategies import StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.operators.scan import TableScan
from repro.workloads.experiments import (
    Sweep,
    concurrency_point,
    predicted_concurrency_factor,
    run_workload_point,
)
from repro.workloads.synthetic import SyntheticWorkload

NETWORK = NetworkConfig.paper_symmetric()

#: 80 rows of 800 bytes, a quarter of the arguments distinct (D = 0.25).
DUPLICATE_HEAVY = dict(
    row_count=80,
    input_record_bytes=800,
    argument_fraction=0.5,
    result_bytes=400,
    selectivity=0.5,
    distinct_fraction=0.25,
)


def semi_join_point(eliminate_duplicates, **workload):
    config = StrategyConfig.semi_join(eliminate_duplicates=eliminate_duplicates)
    return run_workload_point(SyntheticWorkload(**workload), NETWORK, config).record()


def client_join_point(pushdown, **workload):
    config = StrategyConfig.client_site_join(push_predicates=pushdown, push_projections=pushdown)
    return run_workload_point(SyntheticWorkload(**workload), NETWORK, config).record()


def result_cache_point(use_result_cache, **workload):
    workload = SyntheticWorkload(**workload)
    registry = workload.build_registry()
    context = RemoteExecutionContext.create(
        NETWORK, client=ClientRuntime(registry=registry, use_result_cache=use_result_cache)
    )
    operator = build_operator(
        child=TableScan(workload.build_table()),
        udf=registry.get(workload.udf_name),
        argument_columns=["Relation.Argument"],
        context=context,
        config=StrategyConfig.client_site_join(),
    )
    rows = operator.run()
    return {
        "rows": len(rows),
        "udf_invocations": context.client.udf_invocations,
        "downlink_bytes": context.downlink_bytes,
        "elapsed_s": context.elapsed_seconds,
    }


DEDUP = Sweep(
    "ablation_duplicate_elimination",
    semi_join_point,
    axes={"eliminate_duplicates": (True, False)},
    fixed=DUPLICATE_HEAVY,
)
PUSHDOWN = Sweep(
    "ablation_pushdown",
    client_join_point,
    axes={"pushdown": (True, False)},
    fixed={**DUPLICATE_HEAVY, "result_bytes": 200, "selectivity": 0.2, "distinct_fraction": 1.0},
)
CONCURRENCY = Sweep(
    "ablation_concurrency_choice",
    concurrency_point,
    # The swept factors, and the analytic one if it is not among them.
    axes={"factor": tuple(sorted({1, 3, 5, 8, 12, 20, predicted_concurrency_factor(1000)}))},
    fixed={"object_size": 1000, "row_count": 60},
)
RESULT_CACHE = Sweep(
    "ablation_client_result_cache",
    result_cache_point,
    axes={"use_result_cache": (True, False)},
    fixed=DUPLICATE_HEAVY,
)


@pytest.mark.benchmark(group="ablations")
def test_ablation_duplicate_elimination(run_sweep):
    with_dedup, without_dedup = run_sweep(
        DEDUP,
        "Ablation: semi-join duplicate elimination (D=0.25)",
        ["eliminate_duplicates", "elapsed_s", "downlink_bytes", "rows"],
        pin="paper",
    )
    assert with_dedup["rows"] == without_dedup["rows"]
    assert with_dedup["downlink_bytes"] < 0.5 * without_dedup["downlink_bytes"]
    assert with_dedup["elapsed_s"] < without_dedup["elapsed_s"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_pushdown(run_sweep):
    pushed, unpushed = run_sweep(
        PUSHDOWN,
        "Ablation: client-site join pushdown (S=0.2)",
        ["pushdown", "elapsed_s", "uplink_bytes", "rows"],
        pin="paper",
    )
    assert pushed["rows"] == unpushed["rows"]
    assert pushed["uplink_bytes"] < 0.5 * unpushed["uplink_bytes"]
    assert pushed["elapsed_s"] <= unpushed["elapsed_s"]


@pytest.mark.benchmark(group="ablations")
def test_ablation_concurrency_choice(run_sweep):
    """The analytic B·T buffer size performs within 10% of the best swept factor."""
    records = run_sweep(CONCURRENCY, "Ablation: concurrency factor choice", pin="paper")
    times = {record["factor"]: record["elapsed_s"] for record in records}
    assert times[records[0]["predicted_optimal_factor"]] <= min(times.values()) * 1.10


@pytest.mark.benchmark(group="ablations")
def test_ablation_client_result_cache(run_sweep):
    """Caching duplicate-argument results saves client CPU, not bytes, for the CSJ."""
    cached, uncached = run_sweep(
        RESULT_CACHE, "Ablation: client result cache on duplicate arguments", pin="paper"
    )
    assert cached["rows"] == uncached["rows"]
    assert cached["udf_invocations"] < uncached["udf_invocations"]
    assert cached["downlink_bytes"] == uncached["downlink_bytes"]  # as the paper notes
