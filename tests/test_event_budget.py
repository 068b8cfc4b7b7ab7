"""The simulator's event count is budgeted per *message*, not per row.

Every wire message needs three kernel entries that advance the clock — its
transmission end, its arrival (which wakes the parked receiver in place) and
the client's compute timeout — on a private link and on a shared trunk alike,
and nothing else may be scheduled on its behalf.
``ExecutionMetrics.sim_events`` surfaces ``Simulator.events_processed`` so
the budget is asserted here instead of rediscovered in a profile.
"""

import pytest

import schedule_digest
from repro.core.strategies import ExecutionStrategy
from repro.tenancy.driver import MultiTenantEngine
from repro.workloads.multitenant import make_tenant_database, mixed_traffic
from repro.workloads.sharding import FILTER_SQL, make_sharded_setup

#: Kernel entries allowed per wire message, and per query on top of that
#: (process start-ups and completions, the end-of-stream exchange, result
#: delivery).  Measured: 2.3–3.9 per message including the constant.
EVENTS_PER_MESSAGE = 3
EVENTS_PER_QUERY = 24


def _run(strategy, batch_size, window=None, rows=90, deliver=True, **tunables):
    result = schedule_digest.readings_database(rows=rows).execute(
        schedule_digest.GRID_SQL,
        config=schedule_digest.strategy_config(strategy, batch_size, **tunables),
        overlap_window=window,
        deliver_results=deliver,
    )
    metrics = result.metrics
    return metrics, metrics.downlink_messages + metrics.uplink_messages


@pytest.mark.parametrize("window", [None, 1, 4])
@pytest.mark.parametrize("batch_size", [1, 7, 32])
@pytest.mark.parametrize("strategy", list(ExecutionStrategy))
def test_events_are_bounded_by_messages(strategy, batch_size, window):
    metrics, messages = _run(strategy, batch_size, window)
    assert 0 < metrics.sim_events <= EVENTS_PER_MESSAGE * messages + EVENTS_PER_QUERY


@pytest.mark.parametrize("tunables", [{}, {"concurrency_factor": 2}])
def test_semi_join_events_do_not_grow_with_duplicate_rows(tunables):
    """90, 180 and 360 rows over the same 37 distinct argument tuples ship
    the same messages; rows that ship nothing must cost no events."""
    runs = [
        _run(ExecutionStrategy.SEMI_JOIN, 2, rows=rows, deliver=False, **tunables)
        for rows in (90, 180, 360)
    ]
    assert len({messages for _metrics, messages in runs}) == 1
    assert len({metrics.sim_events for metrics, _messages in runs}) == 1


def test_sim_events_reads_the_simulator_counter():
    metrics, messages = _run(ExecutionStrategy.NAIVE, 4)
    assert metrics.sim_events >= 2 * messages  # tx end and arrival at least


def test_shared_simulation_stays_within_budget():
    """Sessions share the simulator, so the budget holds for the whole run."""
    engine = MultiTenantEngine(make_tenant_database(), "drr", executor_slots=4)
    report = engine.run(mixed_traffic(point_count=4, bulk_count=1, queries_per_session=2))
    messages = sum(
        record.metrics.downlink_messages + record.metrics.uplink_messages
        for record in report.records
    )
    queries = len(report.records)
    # Per query on top: admission grant, think-time timeout.  The trunk adds
    # nothing per message: its chaining step rides the completion entry.
    budget = EVENTS_PER_MESSAGE * messages + EVENTS_PER_QUERY * queries
    assert 0 < engine.simulator.events_processed <= budget


def test_scatter_gather_stays_within_budget():
    """Four equal shards run in lockstep: their senders share every instant,
    so each row legitimately takes the same-instant hop (order between the
    sites is part of the schedule) — a per-row term, but a bounded one."""
    _single, distributed = make_sharded_setup(sites=4, shards=4, rows=96)
    metrics = distributed.execute(FILTER_SQL).metrics
    messages = metrics.downlink_messages + metrics.uplink_messages
    budget = EVENTS_PER_MESSAGE * messages + 2 * metrics.input_rows + EVENTS_PER_QUERY * 4
    assert 0 < metrics.sim_events <= budget
