"""Figure 10 — influence of the UDF result size.

Paper setup: 100 rows of 500 bytes (A = 0.2), symmetric network, selectivities
0.25/0.5/0.75/1.0, result size swept from 0 to 2000 bytes.  The ratio starts
above 1 for tiny results (the CSJ ships whole records for nothing), declines
as results grow (the semi-join's uplink fills up), crosses 1.0 where the
selectivity-scaled CSJ return stream matches the semi-join's return stream,
and asymptotically approaches the selectivity.  The selectivity-1.0 curve
never crosses below 1.0.
"""

from __future__ import annotations

import pytest

from repro.network.topology import NetworkConfig
from repro.workloads.experiments import Sweep, ratio_point

SWEEP = Sweep(
    "fig10",
    ratio_point,
    axes={
        "selectivity": (0.25, 0.5, 0.75, 1.0),
        "result_size": (0, 200, 400, 800, 1200, 1600, 2000),
    },
    fixed={
        "row_count": 100,
        "input_record_bytes": 500,
        "argument_fraction": 0.2,
        "network": NetworkConfig.paper_symmetric(),
    },
)


@pytest.mark.benchmark(group="figure-10")
def test_fig10_result_size_sweep(run_sweep):
    records = run_sweep(
        SWEEP,
        "Figure 10 — relative time (CSJ / SJ) vs. result size",
        ["selectivity", "result_size", "measured_ratio", "predicted_ratio"],
        pin="paper",
    )

    curves = {
        selectivity: [r["measured_ratio"] for r in records if r["selectivity"] == selectivity]
        for selectivity in SWEEP.axes["selectivity"]
    }
    for selectivity, ratios in curves.items():
        # Declining overall: small results penalise the CSJ the most.
        assert ratios[0] > ratios[-1]
        # Monotone non-increasing (within measurement slack).
        assert all(b <= a + 0.08 for a, b in zip(ratios, ratios[1:]))
        # Large-result limit approaches the selectivity from above.
        assert ratios[-1] >= selectivity - 0.05
        assert ratios[-1] <= selectivity + 0.45

    # Selective predicates eventually make the CSJ cheaper; S=1.0 never does.
    assert min(curves[0.25]) < 1.0
    assert min(curves[0.5]) < 1.0
    assert all(ratio >= 0.95 for ratio in curves[1.0])
    # Lower selectivity curves sit below higher ones at the largest result size.
    final = {selectivity: ratios[-1] for selectivity, ratios in curves.items()}
    assert final[0.25] < final[0.5] < final[0.75] <= final[1.0] + 0.05
