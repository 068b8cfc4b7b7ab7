"""What every query pays after its rows are made, whether anyone reads it or not.

A session folds each query's counters into its one running total in place
(``ExecutionCounters.fold``, held to ``+`` below); a finished plan's text is
kept as an outline that holds none of the run's state and is rendered when
first read; and a flush after a query visits only the buffers marked dirty
since the last one, in the pool order a full sweep writes them in.
"""

from __future__ import annotations

import copy
import gc
from collections import Counter
from dataclasses import fields

from hypothesis import given, settings, strategies as st

from repro.client.runtime import ClientRuntime
from repro.client.udf import UdfDefinition
from repro.core.execution.context import ExecutionCounters, RemoteExecutionContext
from repro.network.simulator import Simulator
from repro.network.stats import TransferCounters
from repro.relational.operators.base import Operator, PlanOutline
from repro.relational.table import Table
from repro.relational.tuples import RowBatch
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.storage.buffer import BufferManager
from repro.storage.file import FileManager
from repro.workloads.stock import StockWorkload

# ---------------------------------------------------------------------------
# A session's running total
# ---------------------------------------------------------------------------

_counts = st.integers(0, 10_000)
_seconds = st.floats(0.0, 50.0, allow_nan=False)
_udf_names = st.sampled_from(["analysis", "rating", "volatility"])
_transfers = st.builds(
    TransferCounters,
    name=st.sampled_from(["down", "up"]),
    message_count=_counts,
    data_message_count=_counts,
    total_bytes=_counts,
    payload_bytes=_counts,
    rows_transferred=_counts,
    busy_seconds=_seconds,
    queueing_seconds=_seconds,
)
_readings = st.builds(
    ExecutionCounters,
    downlink=_transfers,
    uplink=_transfers,
    udf_invocations=_counts,
    client_cache_hits=_counts,
    client_compute_seconds=_seconds,
    invocations_by_udf=st.dictionaries(_udf_names, _counts),
    compute_seconds_by_udf=st.dictionaries(_udf_names, _seconds),
    remote_operations=_counts,
    input_rows=_counts,
    send_stall_seconds=_seconds,
    index_lookups=_counts,
    index_pages_read=_counts,
    peak_in_flight_batches=st.integers(0, 64),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_readings, max_size=8))
def test_an_in_place_fold_is_the_sum_field_by_field(readings):
    kept = copy.deepcopy(readings)
    folded, summed = ExecutionCounters(), ExecutionCounters()
    for reading in readings:
        folded.fold(reading)
        summed = summed + reading
    for field in fields(ExecutionCounters):
        mine, theirs = getattr(folded, field.name), getattr(summed, field.name)
        assert mine == theirs, field.name
        if isinstance(mine, dict):  # the per-UDF maps in first-seen order too
            assert list(mine) == list(theirs), field.name
        if isinstance(mine, TransferCounters):
            assert mine.name == theirs.name == ""
    assert folded.peak_in_flight_batches == max(
        [reading.peak_in_flight_batches for reading in readings], default=0
    )
    assert readings == kept  # what was folded in is left as it was


def _stock_database() -> Database:
    return StockWorkload(company_count=25, seed=1999).build()


def test_a_session_records_a_query_building_no_counters(monkeypatch):
    db = _stock_database()
    sql = StockWorkload.figure1_query()
    first = db.execute(sql, optimize=True).metrics
    second = db.execute(sql, optimize=True).metrics
    session = db.session.metrics
    expected = first.counters + second.counters
    built = Counter()
    for kind in (ExecutionCounters, TransferCounters):

        def counting(self, *arguments, _init=kind.__init__, _name=kind.__name__, **keywords):
            built[_name] += 1
            _init(self, *arguments, **keywords)

        monkeypatch.setattr(kind, "__init__", counting)
    session.record(second)
    assert built == {}
    assert session.queries == 3
    assert session.counters == expected + second.counters


# ---------------------------------------------------------------------------
# A finished plan's text
# ---------------------------------------------------------------------------

#: What a finished query's outline may lead to and need not be followed
#: into: the catalog's and registry's own objects, which outlive every run.
SHARED = (Table, UdfDefinition, type)
#: What a run owns: none of it may be reachable from the outline.
RUN_STATE = (RemoteExecutionContext, ClientRuntime, Simulator, RowBatch, Operator)


def run_state_reached(outline: PlanOutline) -> list:
    """The run-owned objects reachable from ``outline``'s operator records."""
    seen, found = set(), []
    pending = [value for _, _, described in outline._outline for value in described.values()]
    while pending:
        value = pending.pop()
        if id(value) in seen or isinstance(value, SHARED) or type(value).__name__.endswith("Index"):
            continue
        seen.add(id(value))
        if isinstance(value, RUN_STATE):
            found.append(type(value).__name__)
            continue
        pending.extend(gc.get_referents(value))
    return found


def paged_database(directory: str) -> Database:
    db = Database(storage_dir=directory)
    db.create_table(
        "Quotes",
        [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)],
        rows=[(key, key * 0.5, f"name{key % 7}") for key in range(400)],
    )
    db.create_index("quotes_id", "Quotes", "Id", kind="hash")
    db.analyze("Quotes")
    return db


def test_a_plan_outline_keeps_nothing_of_the_run_and_renders_explain(tmp_path):
    stock = _stock_database()
    paged = paged_database(str(tmp_path / "paged"))
    runs = [
        (stock, StockWorkload.figure1_query(), {"optimize": True, "deliver_results": True}),
        (stock, StockWorkload.figure13_query(), {"reoptimize": True}),
        (paged, "SELECT Q.Id, Q.Name FROM Quotes Q WHERE Q.Id = 17", {"optimize": True}),
    ]
    for db, sql, options in runs:
        roots = []
        original = PlanOutline.__init__

        def capturing(self, root, header=None):
            roots.append(root)
            original(self, root, header)

        PlanOutline.__init__ = capturing
        try:
            result = db.execute(sql, **options)
        finally:
            PlanOutline.__init__ = original
        outline = result.metrics.plan_outline
        assert run_state_reached(outline) == [], sql
        assert result.plan_text == roots[0].explain()
    paged.close()


# ---------------------------------------------------------------------------
# Flushing after a query
# ---------------------------------------------------------------------------


def test_a_flush_after_a_read_only_query_writes_nothing_back(tmp_path, monkeypatch):
    db = paged_database(str(tmp_path / "db"))
    db.execute("SELECT Q.Id FROM Quotes Q WHERE Q.Price > 100.0")  # flushed after it ran
    calls = Counter()
    for owner, name in ((BufferManager, "_write_back"), (FileManager, "write")):

        def counted(*arguments, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(*arguments)

        monkeypatch.setattr(owner, name, counted)
    result = db.execute("SELECT Q.Id, Q.Name FROM Quotes Q WHERE Q.Id = 17", optimize=True)
    db.storage.flush()
    assert result.rows == [(17, "name3")] and calls == {}
    db.catalog.table("Quotes").insert_many([(400, 200.0, "name1")])
    db.storage.flush()
    assert calls["write"] == calls["_write_back"] > 0  # each dirty buffer, written once
    db.close()
