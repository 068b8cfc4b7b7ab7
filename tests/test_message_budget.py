"""One wire message's fixed host work is budgeted in counts, not timings.

Tuple-at-a-time shipping (the paper's strategies at batch 1) pays a
message's fixed cost once per argument tuple, so what is fixed per link, per
operation or per process must not be redone per message: a trunk message is
booked once per ledger it belongs to (its session link's and the trunk's —
the per-flow split is folded from the link ledgers on read), a non-adaptive
operation resolves its pacing once, the client answers a batch with a plain
function, a plan is rendered to text once per query, a kernel entry nobody
waits on builds no event object, and a mailbox reader (the client's serving,
the coordinator's reply taking) is a call, so only senders resume per
message.  The counts are taken with wrappers this test installs.
"""

from __future__ import annotations

import gc
import inspect
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List

import pytest

from repro.adaptive.controller import BatchSizeController, OverlapWindowController
from repro.client.runtime import ClientRuntime
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.distribution import DistributedDatabase
from repro.network.events import Event, Process
from repro.network.stats import TransferCounters
from repro.relational.operators.base import Operator
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.tenancy.driver import MultiTenantEngine, SessionWorkload
from repro.workloads.multitenant import (
    POINT_SQL,
    make_tenant_database,
    mixed_traffic,
    point_query_spec,
)
from repro.workloads.sharding import FILTER_SQL, make_cluster
from repro.workloads.stock import StockWorkload

#: Ledger bodies per trunk message: the session link's and the trunk's.
LEDGER_BODIES_PER_TRUNK_MESSAGE = 2
#: ``StrategyConfig`` pacing look-ups per remote operation of a static
#: config: the batch controller and the window target, once each.
PACING_LOOKUPS_PER_OPERATION = 2
#: ``Event`` objects of every class per wire message at batch 1: the
#: sender-side transmission end.  A delivery, a reader parked on a mailbox,
#: the client's compute time, a same-instant hop and a free window slot
#: build none.
EVENT_OBJECTS_PER_MESSAGE = 1
#: ... and per remote operation on top: its coordinator and sender
#: processes, the end of its reply stream and of the client's serving; a
#: shard's result delivery adds its process, its serving's end and the
#: acknowledgement's get; and each simulator has its ``instant``.
EVENT_OBJECTS_PER_OPERATION = 8
#: Objects the cyclic collector frees after one query on a private link:
#: the simulator and its ``instant`` event, which name each other, with
#: their two empty lists.  A reader whose callbacks formed a cycle would hold
#: the query's messages and input batch until a full collection.
CYCLIC_OBJECTS_PER_QUERY = 4
#: ``Process._resume`` calls per wire message at batch 1 outside the
#: senders: none — the client serves and the coordinator takes replies by
#: calls.  What still resumes besides the senders is fixed per remote
#: operation: the coordinator (its kick-off, the reply stream's end, the
#: sender's end) and a shard's result delivery (its kick-off, two
#: transmission ends, the acknowledgement).
READER_RESUMES_PER_MESSAGE = 0
OTHER_RESUMES_PER_OPERATION = 7

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
    targets = [(TransferCounters, "record")]
    targets += [(StrategyConfig, name) for name in PACING]
    with counted(*targets) as counts:
        report = engine.run(workloads)
    assert report.error_count == 0 and len(report.records) == 8
    metrics = [record.metrics for record in report.records]
    assert all(m.counters.downlink.rows_per_message == 1.0 for m in metrics)
    counts["messages"] = sum(m.downlink_messages + m.uplink_messages for m in metrics)
    counts["operations"] = sum(m.remote_operations for m in metrics)
    counts["ledger_bodies"] = counts["TransferCounters.record"]
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
    """... and serves its mailbox by calls: a query resumes the coordinator
    and the sender, no process of the client's."""
    for handler in (ClientRuntime._handle_argument_batch, ClientRuntime._handle_record_batch):
        assert not inspect.isgeneratorfunction(handler)
    db = make_tenant_database()
    for strategy in ExecutionStrategy:
        with resumes_by_process() as resumes:
            result = db.execute(POINT_SQL, config=StrategyConfig(strategy=strategy))
        metrics = result.metrics
        assert metrics.udf_invocations == 24 and metrics.counters.downlink.rows_per_message == 1.0
        coordinator = [name for name in resumes if not name.endswith(".sender")]
        assert len(coordinator) == 1 and resumes[coordinator[0]] <= OTHER_RESUMES_PER_OPERATION


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
    original = TransferCounters.record

    def record(self, message, queued_for, transmission):
        if message.is_data and self.name.endswith("downlink"):
            sizes.append(message.row_count)
        return original(self, message, queued_for, transmission)

    TransferCounters.record = record
    try:
        yield sizes
    finally:
        TransferCounters.record = original


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


# -- a message's description is formatted only when read ----------------------------------


def test_a_data_message_formats_its_description_only_when_read():
    from repro.network.link import Link
    from repro.network.message import MessageKind, batch_message, end_of_stream, is_end_of_stream
    from repro.workloads.stock import StockWorkload

    sent = []
    original = Link.send

    def send(self, message, *arguments, **keywords):
        sent.append(message)
        return original(self, message, *arguments, **keywords)

    Link.send = send
    try:
        db = StockWorkload(company_count=12, seed=7).build()
        for strategy in ExecutionStrategy:
            config = StrategyConfig(strategy=strategy)
            db.execute(StockWorkload.figure1_query(), config=config, deliver_results=True)
    finally:
        Link.send = original
    data = [message for message in sent if message.is_data]
    assert {message.kind for message in data} == set(MessageKind) - {
        MessageKind.CONTROL, MessageKind.ERROR
    }
    assert not any(isinstance(message._description, str) for message in data)
    # Read, the parts join into what an f-string gave, and stay joined.
    parts = ("semijoin ", "Score", " x", 16)
    message = batch_message(MessageKind.UDF_ARGUMENTS, None, 64, 16, description=parts)
    assert message._description is parts
    assert repr(message) == f"Message(#{message.sequence} udf_arguments, 80B, semijoin Score x16)"
    assert message._description == message.description == "semijoin Score x16"
    assert batch_message(MessageKind.UDF_RESULT, None, 8, 3).description == "3 rows"
    assert is_end_of_stream(end_of_stream())


# -- a kernel entry nobody waits on builds no object ----------------------------------------


def figure1_semijoin_b1():
    """A batch-1 semi-join Figure 1 query over one private link."""
    db = StockWorkload(company_count=300, seed=7).build()
    config = StrategyConfig.semi_join(batch_size=1)
    return lambda: db.execute(StockWorkload.figure1_query(), config=config)


def scatter_4_shards_b1():
    """A batch-1 scatter over four sites, each behind its own FIFO trunks;
    every row's argument is distinct, so every row ships."""
    db = DistributedDatabase(make_cluster(sites=4, shards=4))
    columns = [("Name", STRING), ("Sector", STRING), ("Series", TIME_SERIES), ("Bucket", INTEGER)]
    series = [TimeSeries([float(index % 50 + step) for step in range(8)] + [index]) for index in range(400)]
    rows = [[f"T{index:04d}", "tech", series[index], index] for index in range(400)]
    db.create_table("Trades", columns, rows=rows)
    db.register_client_udf(
        "Score", lambda series: sum(series) / len(series), result_dtype=FLOAT, result_size_bytes=8
    )
    return lambda: db.execute(FILTER_SQL)


@contextmanager
def resumes_by_process() -> Iterator[Counter]:
    """``Process._resume`` calls, keyed by the resumed process's name."""
    resumes: Counter = Counter()
    original = Process._resume

    def resume(self, event):
        resumes[self.name] += 1
        return original(self, event)

    Process._resume = resume
    try:
        yield resumes
    finally:
        Process._resume = original


def drr_eighteen_sessions():
    """16 point and 2 bulk sessions on DRR trunks, every query at batch 1."""
    engine = MultiTenantEngine(make_tenant_database(), "drr")
    workloads = mixed_traffic(point_count=16, bulk_count=2)

    def run():
        report = engine.run(workloads)
        assert report.error_count == 0 and len(report.records) == 36
        return [record.metrics for record in report.records]

    return run


def event_objects(build):
    """``(Event objects, wire messages, metrics)`` of one run of ``build()``'s query."""
    query = build()
    with counted((Event, "__init__")) as counts:
        metrics = query().metrics
    return counts["Event.__init__"], metrics.downlink_messages + metrics.uplink_messages, metrics


@pytest.mark.parametrize(
    "build, sim_events",
    [(figure1_semijoin_b1, 524), (scatter_4_shards_b1, 4113)],
    ids=["private-link", "fifo-trunks"],
)
def test_a_wire_message_builds_one_event(build, sim_events):
    objects, messages, metrics = event_objects(build)
    # Batch 1: a request and a reply per invocation, plus the end-of-stream exchanges.
    assert 200 < 2 * metrics.udf_invocations <= messages < 2 * metrics.udf_invocations + 24
    # Kernel entries are pinned exactly: no entry was traded for an object.
    assert metrics.sim_events == sim_events
    per_operation = EVENT_OBJECTS_PER_OPERATION * metrics.remote_operations
    assert objects <= EVENT_OBJECTS_PER_MESSAGE * messages + per_operation


@pytest.mark.parametrize(
    "build",
    [figure1_semijoin_b1, drr_eighteen_sessions, scatter_4_shards_b1],
    ids=["private-link", "drr-18-sessions", "fifo-trunks"],
)
def test_only_the_senders_resume_per_wire_message(build):
    query = build()
    with resumes_by_process() as resumes:
        outcome = query()
    metrics = outcome if isinstance(outcome, list) else [outcome.metrics]
    messages = sum(m.downlink_messages + m.uplink_messages for m in metrics)
    operations = sum(m.remote_operations for m in metrics)
    senders = sum(count for name, count in resumes.items() if name.endswith(".sender"))
    others = sum(resumes.values()) - senders
    assert messages > 200 and senders > 0
    assert others <= READER_RESUMES_PER_MESSAGE * messages + OTHER_RESUMES_PER_OPERATION * operations


@pytest.mark.parametrize("strategy", list(ExecutionStrategy), ids=str)
def test_a_query_leaves_no_reader_cycle_for_the_collector(strategy):
    db = make_tenant_database()
    config = StrategyConfig(strategy=strategy)
    db.execute(POINT_SQL, config=config)  # memos and plan caches filled
    gc.collect()
    gc.disable()
    try:
        db.execute(POINT_SQL, config=config)
        found = gc.collect()
    finally:
        gc.enable()
    assert found <= CYCLIC_OBJECTS_PER_QUERY
