"""Figure 8 — client-site join vs. semi-join on a symmetric network.

Paper setup: 100 rows of 1000 bytes (A = 0.5), result sizes 100/1000/2000/5000
bytes, selectivity of the pushable predicate swept from 0 to 1, symmetric
modem-class link.  Each CSJ/SJ curve is flat while the CSJ is downlink-bound
and rises linearly once its uplink becomes the bottleneck; larger results push
the flat region lower and the knee earlier.
"""

from __future__ import annotations

import pytest

from repro.network.topology import NetworkConfig
from repro.workloads.experiments import Sweep, ratio_point

SWEEP = Sweep(
    "fig8",
    ratio_point,
    axes={
        "result_size": (100, 1000, 2000, 5000),
        "selectivity": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    },
    fixed={
        "row_count": 100,
        "input_record_bytes": 1000,
        "argument_fraction": 0.5,
        "network": NetworkConfig.paper_symmetric(),
    },
)


@pytest.mark.benchmark(group="figure-8")
def test_fig8_selectivity_sweep_symmetric(run_sweep):
    records = run_sweep(
        SWEEP,
        "Figure 8 — relative time (CSJ / SJ) on a symmetric network",
        ["result_size", "selectivity", "measured_ratio", "predicted_ratio"],
        pin="paper",
    )

    curves = {
        size: [r for r in records if r["result_size"] == size]
        for size in SWEEP.axes["result_size"]
    }
    for rows in curves.values():
        ratios = [r["measured_ratio"] for r in rows]
        # Monotone non-decreasing in selectivity (flat, then rising).
        assert all(b >= a - 0.05 for a, b in zip(ratios, ratios[1:]))
        # Measured ratios track the cost model's predictions reasonably well.
        for row in rows:
            assert row["measured_ratio"] == pytest.approx(row["predicted_ratio"], rel=0.35, abs=0.2)
        # At selectivity 1.0 the client-site join never beats the semi-join.
        assert ratios[-1] >= 0.95

    # Larger results push the flat (low-selectivity) part of the curve lower.
    low_sel = {size: rows[0]["measured_ratio"] for size, rows in curves.items()}
    assert low_sel[5000] < low_sel[1000] < low_sel[100]
    # At low selectivity and large results the client-site join wins (< 1.0).
    assert low_sel[5000] < 1.0 and low_sel[2000] < 1.0
