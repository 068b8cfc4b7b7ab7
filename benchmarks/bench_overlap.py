"""Overlapped vs. synchronous UDF shipping, and Figure 6 on the new protocol.

The overlapped shipping protocol keeps up to W request batches outstanding on
the wire while the server keeps producing — the batch-level generalisation of
the paper's pipeline-concurrency analysis (Section 3.1.2, Figure 6).  Two
experiments:

* **Overlap speedup** — each of the three strategies on a high-latency link,
  synchronous (window 1) vs. overlapped (window W).  Asserted: the overlapped
  run returns exactly the synchronous run's rows, carries exactly the same
  wire trace (message count and bytes — the window changes *when* messages
  leave, never what is sent), and is at least 1.5x faster in simulated time.
  The cost model's overlap term must predict the speedup's direction and
  rough magnitude.

* **Figure 6 regenerated on the new protocol** — the concurrency sweep of
  the paper, with the in-flight *batch window* as the swept knob: execution
  time falls steeply from window 1 and flattens once the window covers the
  pipeline's bandwidth-latency product, exactly like the original
  tuple-granular sweep.
"""

from __future__ import annotations

import pytest

from conftest import snapshot
from repro.core.costmodel import CostModel, CostParameters
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.workloads.experiments import Sized, Sweep, plain, run_workload_point
from repro.workloads.synthetic import SyntheticWorkload

BATCH_SIZE = 4
WINDOW = 4
WINDOW_SWEEP = Sized(full=(1, 2, 3, 4, 6, 8, 12, 16), smoke=(1, 2, 4, 8))
STRATEGIES = tuple(strategy.value for strategy in ExecutionStrategy)

#: A link where latency dominates transfer: 1 MB/s both ways, 200 ms one-way.
HIGH_LATENCY = NetworkConfig.symmetric(1_000_000.0, latency=0.2, name="overlap-highlat")

#: The Figure 6 sweep needs a *bandwidth-limited* link so the flattening knee
#: (the pipeline's B·T product, in batches) falls inside the swept range —
#: the paper's slow-modem setup, as in ``bench_fig6_concurrency``.
MODEM = NetworkConfig.symmetric(3600.0, latency=0.4, name="overlap-modem")

WORKLOAD = dict(
    # The semi-join's tuple pipeline, pinned large enough (the widest swept
    # window, in tuples) that the batch window is the binding knob.
    tuple_pipeline=Sized(full=BATCH_SIZE * 16, smoke=BATCH_SIZE * 8),
    row_count=Sized(full=120, smoke=60),
    input_record_bytes=200,
    argument_fraction=0.5,
    result_bytes=50,
    selectivity=0.5,
    distinct_fraction=1.0,
    udf_cost_seconds=0.0005,
)


def _run(strategy, window, network, tuple_pipeline, **workload):
    config = StrategyConfig(
        strategy=ExecutionStrategy(strategy), batch_size=BATCH_SIZE, overlap_window=window
    )
    if config.strategy is ExecutionStrategy.SEMI_JOIN:
        config = config.with_concurrency(tuple_pipeline)
    return run_workload_point(SyntheticWorkload(**workload), network, config)


def overlap_point(strategy, **setup):
    """Synchronous (window 1) against overlapped (window ``WINDOW``) shipping."""
    synchronous = _run(strategy, 1, **setup)
    overlapped = _run(strategy, WINDOW, **setup)
    return {
        "sync_s": synchronous.elapsed_seconds,
        "overlap_s": overlapped.elapsed_seconds,
        "speedup": synchronous.elapsed_seconds / overlapped.elapsed_seconds,
        "_runs": (synchronous, overlapped),
    }


def window_point(strategy, window, **setup):
    return {"elapsed_s": _run(strategy, window, **setup).elapsed_seconds}


SPEEDUP = Sweep(
    "overlap_speedup",
    overlap_point,
    axes={"strategy": STRATEGIES},
    fixed={"network": HIGH_LATENCY, **WORKLOAD},
)
WINDOWS = Sweep(
    "overlap_window_sweep",
    window_point,
    axes={"strategy": STRATEGIES, "window": WINDOW_SWEEP},
    fixed={"network": MODEM, **WORKLOAD},
)


@pytest.mark.benchmark(group="overlap")
def test_overlapped_beats_synchronous_shipping(run_sweep):
    records = run_sweep(
        SPEEDUP,
        f"Overlapped (W={WINDOW}) vs. synchronous (W=1) shipping, batch {BATCH_SIZE}, 200 ms link",
    )
    rows = records[0]["_runs"][0].parameters["row_count"]
    snapshot(
        "overlap",
        {
            "rows": rows,
            "batch_size": BATCH_SIZE,
            "window": WINDOW,
            "records": [plain(record) for record in records],
        },
    )

    model = CostModel(
        CostParameters.paper_experiment(
            input_record_bytes=WORKLOAD["input_record_bytes"],
            argument_fraction=WORKLOAD["argument_fraction"],
            result_bytes=WORKLOAD["result_bytes"],
            selectivity=WORKLOAD["selectivity"],
        )
    )
    for record in records:
        synchronous, overlapped = record["_runs"]
        # Identical answers and identical wire traces: the window changes
        # when messages leave, never what is sent.
        assert overlapped.result_rows == synchronous.result_rows
        assert overlapped.downlink_messages == synchronous.downlink_messages
        assert overlapped.uplink_messages == synchronous.uplink_messages
        assert overlapped.downlink_bytes == synchronous.downlink_bytes
        assert overlapped.uplink_bytes == synchronous.uplink_bytes
        # The acceptance bar: >= 1.5x faster with W >= 4 on the high-latency
        # link, for every strategy.
        assert record["speedup"] >= 1.5
        # The cost model's overlap term predicts a speedup in the same
        # direction (it models bytes, not latency, so only the direction and
        # a loose magnitude are checked).
        assert model.overlap_speedup(ExecutionStrategy(record["strategy"]), WINDOW) >= 1.0


@pytest.mark.benchmark(group="overlap")
def test_fig6_window_sweep_on_the_new_protocol(run_sweep):
    records = run_sweep(
        WINDOWS, "Figure 6 on the overlapped protocol — time (s) vs. in-flight window"
    )
    for strategy in STRATEGIES:
        times = {r["window"]: r["elapsed_s"] for r in records if r["strategy"] == strategy}
        ordered = list(times.values())
        # Steep improvement from synchronous to a modest window.
        assert times[4] < 0.55 * times[1]
        # Times never get worse as the window grows (within a small slack).
        assert all(b <= a * 1.05 for a, b in zip(ordered, ordered[1:]))
        # Flattening: past the pipeline's capacity more window barely helps.
        deep = [elapsed for window, elapsed in times.items() if window >= 8]
        if len(deep) > 1:
            assert max(deep) <= min(deep) * 1.25
