"""Cost-model validation — analytic Section 3.2 predictions vs. simulated runs.

The paper uses its bandwidth cost model to explain every crossover in
Figures 8-10.  This bench sweeps a grid of (result size, selectivity,
asymmetry) points, runs both strategies on the simulator, and checks that the
model predicts the *winner* correctly across the grid and tracks the measured
CSJ/SJ ratio.
"""

from __future__ import annotations

import pytest

from repro.network.topology import NetworkConfig
from repro.workloads.experiments import Sweep, ratio_point


def validation_point(case, row_count):
    input_bytes, fraction, result_bytes, selectivity, asymmetry = case
    if asymmetry == 1.0:
        network = NetworkConfig.paper_symmetric()
    else:
        network = NetworkConfig.asymmetric(200_000.0, asymmetry=asymmetry, latency=0.05)
    record = ratio_point(input_bytes, fraction, result_bytes, selectivity, network, row_count)
    # Ties go to the semi-join, in the model (``preferred_strategy``) and here.
    record["predicted_winner"] = "csj" if record["predicted_ratio"] < 1.0 else "sj"
    record["measured_winner"] = "csj" if record["measured_ratio"] < 1.0 else "sj"
    return record


SWEEP = Sweep(
    "cost_model_validation",
    validation_point,
    axes={
        # (input bytes, A, result bytes, selectivity, asymmetry)
        "case": (
            (1000, 0.5, 100, 0.2, 1.0),
            (1000, 0.5, 2000, 0.2, 1.0),
            (1000, 0.5, 2000, 0.9, 1.0),
            (500, 0.2, 1000, 0.25, 1.0),
            (500, 0.2, 1000, 1.0, 1.0),
            (2000, 0.8, 500, 0.3, 20.0),
            (2000, 0.8, 2000, 0.1, 20.0),
            (1000, 0.5, 1000, 0.5, 100.0),
        )
    },
    fixed={"row_count": 50},
)


@pytest.mark.benchmark(group="cost-model")
def test_cost_model_predicts_strategy_winner(run_sweep):
    records = run_sweep(
        SWEEP,
        "Cost-model validation — predicted vs. measured CSJ/SJ ratios over (I, A, R, S, N)",
        ["case", "measured_ratio", "predicted_ratio", "predicted_winner", "measured_winner"],
        pin="paper",
    )

    # The model should call the winner on (nearly) every grid point; allow one
    # disagreement for points sitting almost exactly on the breakeven line.
    agree = sum(record["predicted_winner"] == record["measured_winner"] for record in records)
    assert agree >= len(records) - 1
    # And the predicted ratio should correlate with the measured one.
    for record in records:
        assert record["measured_ratio"] == pytest.approx(
            record["predicted_ratio"], rel=0.5, abs=0.3
        )
