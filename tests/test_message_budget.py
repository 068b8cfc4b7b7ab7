"""One wire message's fixed host work is budgeted in counts, not timings.

Tuple-at-a-time shipping (the paper's strategies at batch 1) pays a
message's fixed cost once per argument tuple, so what is fixed per link, per
operation or per process must not be redone per message: a trunk message is
booked once per ledger it belongs to (its session link's and the trunk's —
the per-flow split is folded from the link ledgers on read), a non-adaptive
operation resolves its pacing once, the client answers a batch with a plain
function, and a plan is rendered to text once per query.  The counts are
taken with wrappers this test installs.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from typing import Dict, Iterator, List

import pytest

from repro.adaptive.controller import BatchSizeController, OverlapWindowController
from repro.client.runtime import ClientRuntime
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.stats import LinkStats, TransferCounters
from repro.relational.operators.base import Operator
from repro.tenancy.driver import MultiTenantEngine, SessionWorkload
from repro.workloads.multitenant import POINT_SQL, make_tenant_database, point_query_spec

#: Ledger bodies per trunk message: the session link's and the trunk's.
LEDGER_BODIES_PER_TRUNK_MESSAGE = 2
#: ``StrategyConfig`` pacing look-ups per remote operation of a static
#: config: the batch controller and the window target, once each.
PACING_LOOKUPS_PER_OPERATION = 2

PACING = ("controller_for", "next_batch_size", "next_overlap_window")


@contextmanager
def counted(*targets) -> Iterator[Dict[str, int]]:
    """Count calls of ``(owner, attribute)`` pairs, keyed ``Owner.attribute``."""
    counts: Dict[str, int] = {}
    restore = []

    def counting(original, key):
        def call(*arguments, **keywords):
            counts[key] += 1
            return original(*arguments, **keywords)

        return call

    for owner, attribute in targets:
        key = f"{owner.__name__}.{attribute}"
        counts[key] = 0
        restore.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, counting(owner.__dict__[attribute], key))
    try:
        yield counts
    finally:
        for owner, attribute, original in restore:
            setattr(owner, attribute, original)


def drr_run(point_rows: int) -> Dict[str, int]:
    """Four sessions on one DRR trunk, one-row batches, every strategy."""
    engine = MultiTenantEngine(make_tenant_database(point_rows=point_rows), "drr", executor_slots=4)
    strategies = [*ExecutionStrategy, ExecutionStrategy.SEMI_JOIN]
    workloads = [
        SessionWorkload(tenant_id=f"t{index}", queries=[point_query_spec(strategy)], repeat=2)
        for index, strategy in enumerate(strategies)
    ]
    targets = [(LinkStats, "record"), (TransferCounters, "record")]
    targets += [(StrategyConfig, name) for name in PACING]
    with counted(*targets) as counts:
        report = engine.run(workloads)
    assert report.error_count == 0 and len(report.records) == 8
    metrics = [record.metrics for record in report.records]
    assert all(m.counters.downlink.rows_per_message == 1.0 for m in metrics)
    counts["messages"] = sum(m.downlink_messages + m.uplink_messages for m in metrics)
    counts["operations"] = sum(m.remote_operations for m in metrics)
    counts["ledger_bodies"] = counts["LinkStats.record"] + counts["TransferCounters.record"]
    counts["pacing"] = sum(counts[f"StrategyConfig.{name}"] for name in PACING)
    trunks = (engine.trunk_downlink, engine.trunk_uplink)
    assert sum(trunk.stats.message_count for trunk in trunks) == counts["messages"]
    return counts


def test_a_trunk_message_is_booked_once_per_ledger():
    counts = drr_run(point_rows=24)
    assert counts["messages"] > 200
    assert 0 < counts["ledger_bodies"] <= LEDGER_BODIES_PER_TRUNK_MESSAGE * counts["messages"]


def test_static_pacing_is_resolved_per_operation_not_per_tuple():
    small, large = drr_run(point_rows=24), drr_run(point_rows=240)
    assert large["messages"] > 5 * small["messages"]
    assert small["operations"] == large["operations"] == 8
    assert small["pacing"] == large["pacing"]
    assert 0 < small["pacing"] <= PACING_LOOKUPS_PER_OPERATION * small["operations"]


def test_the_client_answers_a_batch_with_a_function():
    assert inspect.isgeneratorfunction(ClientRuntime._serve)
    for handler in (ClientRuntime._handle_argument_batch, ClientRuntime._handle_record_batch):
        assert not inspect.isgeneratorfunction(handler)


def test_a_plan_is_rendered_to_text_once_per_query():
    db = make_tenant_database()
    renderings: List[Operator] = []
    original = Operator.explain

    def explain(self, indent=0):
        if indent == 0:
            renderings.append(self)
        return original(self, indent)

    Operator.explain = explain
    try:
        result = db.execute(POINT_SQL)
    finally:
        Operator.explain = original
    assert len(renderings) == 1
    assert result.plan_text == result.metrics.plan_description == renderings[0].explain()


# -- the adaptive case still asks its controller at every batch boundary --------------------


class SteppedBatchSize(BatchSizeController):
    """Holds ``before`` until ``after_replies`` batches are acknowledged, then ``after``."""

    def __init__(self, before: int, after: int, after_replies: int) -> None:
        super().__init__(initial_batch_size=before)
        self.after, self.after_replies = after, after_replies

    def observe_rows(self, rows: int, now: float) -> None:
        self.batches_observed += 1
        if self.batches_observed == self.after_replies:
            self._size = self.after


class SteppedWindow(OverlapWindowController):
    def __init__(self, before: int, after: int) -> None:
        super().__init__(initial_window=before)
        self.after = after

    def observe_rows(self, rows: int, now: float) -> None:
        self._size = self.after


@contextmanager
def downlink_batches() -> Iterator[List[int]]:
    """Rows per data message booked on a downlink, in order."""
    sizes: List[int] = []
    original = LinkStats.record

    def record(self, message, queued_for, transmission, flow=None):
        if message.is_data and self.name.endswith("downlink"):
            sizes.append(message.row_count)
        return original(self, message, queued_for, transmission, flow=flow)

    LinkStats.record = record
    try:
        yield sizes
    finally:
        LinkStats.record = original


@pytest.mark.parametrize("strategy", list(ExecutionStrategy), ids=str)
def test_a_batch_controller_stepped_mid_operation_moves_the_next_batch(strategy):
    """Window 1: a batch leaves only once the previous one is answered, so at
    most the batch assembled while waiting still has the old size."""
    before, after, after_replies = 2, 5, 2
    controller = SteppedBatchSize(before, after, after_replies)
    config = StrategyConfig(strategy=strategy, overlap_window=1).with_batch_controller(controller)
    with downlink_batches() as sizes:
        result = make_tenant_database().execute(POINT_SQL, config=config)
    assert result.metrics.remote_operations == 1 and sum(sizes) == 24
    old = [size for size in sizes if size == before]
    assert after_replies <= len(old) <= after_replies + 1
    assert sizes[: len(old)] == old
    assert set(sizes[len(old) : -1]) == {after} and sizes[-1] <= after


@pytest.mark.parametrize("strategy", list(ExecutionStrategy), ids=str)
def test_a_window_controller_stepped_mid_operation_widens_the_window(strategy):
    config = StrategyConfig(strategy=strategy, batch_size=2).with_overlap_controller(
        SteppedWindow(before=1, after=3)
    )
    metrics = make_tenant_database().execute(POINT_SQL, config=config).metrics
    assert metrics.overlap_window == 3
    assert 1 < metrics.peak_in_flight_batches <= 3
