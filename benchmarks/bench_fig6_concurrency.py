"""Figure 6 — query execution time vs. pipeline concurrency factor.

Paper setup: ``SELECT UDF(R.DataObject) FROM Relation R`` over 100 objects of
100 / 500 / 1000 bytes on a slow symmetric link; the execution time falls
steeply with the pipeline concurrency factor and flattens once the factor
reaches the bandwidth·latency product divided by the object size (≈5 for the
1000-byte objects, later for smaller objects).
"""

from __future__ import annotations

import pytest

from repro.workloads.experiments import FIGURE6_NETWORK, Sweep, concurrency_point

SWEEP = Sweep(
    "fig6",
    concurrency_point,
    axes={"object_size": (100, 500, 1000), "factor": (1, 2, 3, 5, 7, 9, 11, 13, 17, 21)},
    fixed={"row_count": 100, "network": FIGURE6_NETWORK, "udf_cost_seconds": 0.03},
)


@pytest.mark.benchmark(group="figure-6")
def test_fig6_concurrency_sweep(run_sweep):
    records = run_sweep(
        SWEEP, "Figure 6 — execution time (simulated seconds) vs. concurrency factor", pin="paper"
    )

    optimum = {}
    for size in SWEEP.axes["object_size"]:
        series = [record for record in records if record["object_size"] == size]
        times = {record["factor"]: record["elapsed_s"] for record in series}
        optimum[size] = series[0]["predicted_optimal_factor"]
        # Steep improvement from no pipelining to a modest pipeline.
        assert times[5] < 0.55 * times[1]
        # Times never get worse as the buffer grows (within a small slack).
        ordered = list(times.values())
        assert all(b <= a * 1.05 for a, b in zip(ordered, ordered[1:]))
        # Flattening: beyond the analytic optimum (where it falls inside the
        # swept range), more buffering barely helps.
        beyond = [t for factor, t in times.items() if factor >= optimum[size]]
        if beyond:
            assert max(beyond) <= min(beyond) * 1.25
    # Larger objects flatten earlier (their optimum factor is smaller).
    assert optimum[1000] < optimum[100]
