"""Figure 9 — client-site join vs. semi-join on an asymmetric network (N = 100).

Paper setup: 100 rows of 5000 bytes (A = 0.8), result sizes 500/1000/5000
bytes, downlink one hundred times faster than the uplink.  Because the
downlink never becomes the bottleneck, the flat region of Figure 8 disappears:
the ratio grows essentially linearly with selectivity from the origin region,
and the client-site join wins only at low selectivities.
"""

from __future__ import annotations

import pytest

from repro.network.topology import NetworkConfig
from repro.workloads.experiments import Sweep, ratio_point

SWEEP = Sweep(
    "fig9",
    ratio_point,
    axes={
        "result_size": (500, 1000, 5000),
        "selectivity": (0.0, 0.2, 0.4, 0.6, 0.8, 1.0),
    },
    fixed={
        "row_count": 60,  # smaller grid: the 5000-byte records dominate runtime
        "input_record_bytes": 5000,
        "argument_fraction": 0.8,
        "network": NetworkConfig.paper_asymmetric(asymmetry=100.0),
    },
)


@pytest.mark.benchmark(group="figure-9")
def test_fig9_selectivity_sweep_asymmetric(run_sweep):
    records = run_sweep(
        SWEEP,
        "Figure 9 — relative time (CSJ / SJ) on an asymmetric network, N = 100",
        ["result_size", "selectivity", "measured_ratio", "predicted_ratio"],
        pin="paper",
    )

    for result_size in SWEEP.axes["result_size"]:
        ratios = [r["measured_ratio"] for r in records if r["result_size"] == result_size]
        # Strictly increasing (no flat downlink-bound region).
        assert all(b > a for a, b in zip(ratios, ratios[1:]))
        # The increase from the lowest to the highest selectivity is large —
        # the uplink is always the bottleneck, so selectivity matters a lot.
        assert ratios[-1] > 2.5 * max(ratios[0], 0.05)
        # Low selectivity favours the client-site join; selectivity 1 does not.
        assert ratios[0] < 1.0
        assert ratios[-1] > 1.0
