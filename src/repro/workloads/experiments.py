"""The sweep harness that regenerates the paper's figures.

A figure is a :class:`Sweep`: a cartesian grid declared as data (axes, with
full and smoke sizes side by side), a run-point function, and records keyed
by a deterministic ID fingerprinted from each point's configuration.  The
run-point functions several figures share live here too:

* :func:`concurrency_point` — Figure 6  (execution time vs. pipeline concurrency factor)
* :func:`ratio_point`       — Figures 8, 9 and 10 (CSJ/SJ ratio, measured and predicted)
* :func:`run_workload_point` — one strategy over the Figure 7 query

They construct execution operators directly through the public
``build_operator`` API (rather than through SQL) because the experiments
require the pushable predicate to be applied *after* the UDF — exactly the
situation of the paper's Figure 7 query, where the predicate is itself a
client-site UDF over the same argument.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
from repro.core.concurrency import recommended_concurrency_factor
from repro.core.costmodel import CostModel, CostParameters
from repro.core.execution.context import ExecutionCounters, RemoteExecutionContext
from repro.core.execution.rewrite import build_operator
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.operators.scan import TableScan
from repro.relational.types import DataObject
from repro.workloads.synthetic import (
    SyntheticWorkload,
    make_object_relation,
    register_identity_udf,
)


@dataclass
class ExperimentPoint:
    """One measured execution in a sweep."""

    strategy: ExecutionStrategy
    elapsed_seconds: float
    #: What the run's context moved and computed (``context.counters()``).
    counters: ExecutionCounters
    rows: int
    result_rows: Tuple[Tuple, ...] = ()
    parameters: Dict[str, float] = field(default_factory=dict)
    #: Mid-query strategy switching, when the config armed it: how many
    #: switches fired and which strategies ran, in first-use order.
    strategy_switches: int = 0
    strategies_used: Tuple[ExecutionStrategy, ...] = ()

    downlink_bytes = property(attrgetter("counters.downlink.total_bytes"))
    uplink_bytes = property(attrgetter("counters.uplink.total_bytes"))
    downlink_messages = property(attrgetter("counters.downlink.message_count"))
    uplink_messages = property(attrgetter("counters.uplink.message_count"))
    udf_invocations = property(attrgetter("counters.udf_invocations"))

    @property
    def total_bytes(self) -> int:
        return self.downlink_bytes + self.uplink_bytes

    def record(self) -> Dict[str, Any]:
        """The simulated figures of this run as plain data (exact, so diffable)."""
        return {
            **_wire_record(self),
            "rows": self.rows,
            "strategies_used": [strategy.value for strategy in self.strategies_used],
        }


def _wire_record(run: Any) -> Dict[str, Any]:
    """What an :class:`ExperimentPoint` and an ``ExecutionMetrics`` both report."""
    return {
        "elapsed_s": run.elapsed_seconds,
        "downlink_bytes": run.downlink_bytes,
        "uplink_bytes": run.uplink_bytes,
        "downlink_messages": run.downlink_messages,
        "uplink_messages": run.uplink_messages,
        "udf_invocations": run.udf_invocations,
        "strategy_switches": run.strategy_switches,
    }


def query_record(result: Any) -> Dict[str, Any]:
    """The simulated figures of one ``Database.execute`` result as plain data."""
    metrics = result.metrics
    return {
        **_wire_record(metrics),
        "rows": metrics.rows_returned,
        "replan_attempts": metrics.replan_attempts,
        "plan_migrations": metrics.plan_migrations,
        "udf_orders_used": [list(order) for order in metrics.udf_orders_used or ()],
        "shapes_used": list(metrics.shapes_used or ()),
    }


def run_workload_point(
    workload: SyntheticWorkload,
    network: NetworkConfig,
    config: StrategyConfig,
    storage_dir: Optional[str] = None,
    indexes: bool = False,
) -> ExperimentPoint:
    """Execute the Figure 7 style query for one parameter point.

    The query computes ``Analyze(Argument)`` for every row, keeps the rows
    whose result falls below the workload's selectivity threshold, and
    returns the non-argument column together with the result — the byte flows
    of the paper's ``UDF1``/``UDF2`` experiment.

    With ``storage_dir`` the workload's table is written to a slotted-page
    heap file there and scanned back through a buffer pool — the execution
    then exercises the durable storage data path, and must produce exactly
    the in-memory point (rows *and* wire bytes).  ``indexes`` (paged runs
    only) additionally creates a hash index on the argument column *before*
    loading, so every insert maintains it incrementally — index maintenance
    must never change what the query returns or ships.
    """
    table = workload.build_table()
    storage_engine = None
    if storage_dir is not None:
        from repro.relational.table import Table
        from repro.storage.engine import StorageEngine

        storage_engine = StorageEngine(storage_dir)
        backend = storage_engine.create_table(table.name, table.schema, replace=True)
        if indexes:
            # DataObject arguments are unorderable, so the equality-only
            # hash index is the one that applies here.
            storage_engine.create_index(
                "workload_argument_idx", table.name, "Argument", kind="hash"
            )
        paged = Table(table.name, table.schema, storage=backend)
        paged.insert_many(tuple(row) for row in table.rows)
        table = paged
    registry = workload.build_registry()
    context = RemoteExecutionContext.create(network, client=ClientRuntime(registry=registry))

    scan = TableScan(table)
    result_column = workload.result_column_name
    pushable_predicate = Comparison(
        "<",
        ColumnRef(result_column),
        Literal(DataObject(workload.result_bytes, seed=workload.selectivity_threshold_seed)),
    )
    output_columns = [f"{workload.relation_name}.NonArgument", result_column]

    operator = build_operator(
        child=scan,
        udf=registry.get(workload.udf_name),
        argument_columns=[f"{workload.relation_name}.Argument"],
        context=context,
        config=config,
        pushable_predicate=pushable_predicate,
        output_columns=output_columns,
    )
    rows = operator.run()
    if storage_engine is not None:
        storage_engine.close()
    controller = getattr(operator, "controller", None)
    return ExperimentPoint(
        strategy=config.strategy,
        elapsed_seconds=context.elapsed_seconds,
        counters=context.counters(),
        rows=len(rows),
        strategy_switches=controller.change_count if controller is not None else 0,
        strategies_used=controller.strategies_used if controller is not None else (),
        # repr is a total order over mixed-type (and None-valued) rows, which
        # plain tuple comparison is not; equal multisets still sort equally.
        result_rows=tuple(sorted((tuple(row) for row in rows), key=repr)),
        parameters={
            "input_record_bytes": workload.input_record_bytes,
            "argument_fraction": workload.argument_fraction,
            "result_bytes": workload.result_bytes,
            "selectivity": workload.selectivity,
            "distinct_fraction": workload.distinct_fraction,
            "row_count": workload.row_count,
        },
    )


# ---------------------------------------------------------------------------
# The sweep: a grid declared as data
# ---------------------------------------------------------------------------


class Sized(NamedTuple):
    """One declaration, two sizes: a full run's value and the CI smoke run's."""

    full: Any
    smoke: Any


def point_id(config: Mapping[str, Any]) -> str:
    """The deterministic ID of one grid point: a fingerprint of its configuration.

    Only *what* is configured counts — not the order the keys were given in,
    not the process, not the point's place in its grid — so adding a point
    renumbers nothing and re-running one lands on its own record.  Values
    that are not JSON (a :class:`NetworkConfig`, an enum member) enter through
    their ``repr``, which for the frozen dataclasses used here is a pure
    function of their fields.
    """
    canonical = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


class Sweep:
    """A cartesian grid of runs, declared as data.

    ``axes`` maps an axis name to its values and ``fixed`` a parameter name to
    the one value every point shares; either may be a :class:`Sized` pair.
    ``run_point(**config)`` executes one point — its configuration is the
    fixed parameters plus one value per axis — and returns its measurements
    as a flat record.  Record keys starting with ``_`` carry evidence for a
    driver's assertions (result rows, a statistics store): they stay in
    memory and never reach a table or a snapshot.

    ``records`` keeps every executed point's record under its
    :func:`point_id`, axis values first.
    """

    def __init__(
        self,
        name: str,
        run_point: Callable[..., Dict[str, Any]],
        axes: Optional[Mapping[str, Any]] = None,
        fixed: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.name = name
        self.run_point = run_point
        self.axes = dict(axes or {})
        self.fixed = dict(fixed or {})
        self.records: Dict[str, Dict[str, Any]] = {}

    def points(self, smoke: bool = False) -> List[Dict[str, Any]]:
        """Every point's configuration, in declared order (last axis fastest)."""

        def sized(value: Any) -> Any:
            if isinstance(value, Sized):
                return value.smoke if smoke else value.full
            return value

        fixed = {name: sized(value) for name, value in self.fixed.items()}
        grid = itertools.product(*(sized(values) for values in self.axes.values()))
        return [{**fixed, **dict(zip(self.axes, values))} for values in grid]

    def run_one(self, config: Mapping[str, Any]) -> Dict[str, Any]:
        """Execute one point and file its record, replacing an earlier run of it."""
        record = {name: config[name] for name in self.axes}
        record.update(self.run_point(**config))
        self.records[point_id(config)] = record
        return record

    def run(self, smoke: bool = False) -> List[Dict[str, Any]]:
        """Execute the whole grid; the records in grid order."""
        return [self.run_one(config) for config in self.points(smoke)]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """``records`` without their evidence: what a ``BENCH_*.json`` pins."""
        return {identifier: plain(record) for identifier, record in self.records.items()}


def plain(record: Mapping[str, Any]) -> Dict[str, Any]:
    """``record`` without its evidence (``_``-prefixed) keys."""
    return {key: value for key, value in record.items() if not key.startswith("_")}


# ---------------------------------------------------------------------------
# Run-point functions the figure drivers share
# ---------------------------------------------------------------------------

#: Figure 6's slow link: a bandwidth·latency product of roughly 5000 bytes, so
#: the 1000-byte curve flattens near a factor of 5 and smaller objects later.
FIGURE6_NETWORK = NetworkConfig.symmetric(3600.0, latency=0.4, name="fig6-modem")


def concurrency_point(
    object_size: int,
    factor: int,
    row_count: int = 100,
    network: NetworkConfig = FIGURE6_NETWORK,
    udf_cost_seconds: float = 0.03,
) -> Dict[str, Any]:
    """Figure 6: ``SELECT UDF(R.DataObject) FROM Relation R`` as a semi-join
    whose tuple pipeline holds ``factor`` tuples; the UDF echoes an object of
    the argument's size."""
    table = make_object_relation("Relation", row_count, object_size)
    registry = UdfRegistry()
    udf = register_identity_udf(
        registry,
        name="EchoObject",
        result_size=object_size,
        cost_per_call_seconds=udf_cost_seconds,
    )
    context = RemoteExecutionContext.create(network, client=ClientRuntime(registry=registry))
    operator = build_operator(
        child=TableScan(table),
        udf=udf,
        argument_columns=["Relation.DataObject"],
        context=context,
        config=StrategyConfig.semi_join(concurrency_factor=factor),
    )
    rows = operator.run()
    return {
        "elapsed_s": context.elapsed_seconds,
        "rows": len(rows),
        "predicted_optimal_factor": predicted_concurrency_factor(
            object_size, network, udf_cost_seconds
        ),
    }


def predicted_concurrency_factor(
    object_size: int,
    network: NetworkConfig = FIGURE6_NETWORK,
    udf_cost_seconds: float = 0.03,
) -> int:
    """The analytic B·T recommendation for :func:`concurrency_point`'s pipeline."""
    return recommended_concurrency_factor(
        network,
        request_payload_bytes=object_size + 4,
        response_payload_bytes=object_size + 4,
        client_seconds_per_tuple=udf_cost_seconds,
    )


def ratio_point(
    input_record_bytes: int,
    argument_fraction: float,
    result_size: int,
    selectivity: float,
    network: NetworkConfig,
    row_count: int = 100,
) -> Dict[str, Any]:
    """Figures 8–10: client-site join over semi-join time, measured and predicted.

    Both strategies run the Figure 7 query over the same synthetic relation;
    the prediction is the Section 3.2 bandwidth model's for the same
    parameters.
    """
    workload = SyntheticWorkload(
        row_count=row_count,
        input_record_bytes=input_record_bytes,
        argument_fraction=argument_fraction,
        result_bytes=result_size,
        selectivity=selectivity,
    )
    semi = run_workload_point(workload, network, StrategyConfig.semi_join())
    csj = run_workload_point(workload, network, StrategyConfig.client_site_join())
    model = CostModel(
        CostParameters.paper_experiment(
            input_record_bytes=input_record_bytes,
            argument_fraction=argument_fraction,
            result_bytes=result_size,
            selectivity=selectivity,
            asymmetry=network.asymmetry,
        )
    )
    return {
        "semi_join_seconds": semi.elapsed_seconds,
        "client_join_seconds": csj.elapsed_seconds,
        "measured_ratio": csj.elapsed_seconds / semi.elapsed_seconds,
        "predicted_ratio": model.relative_time(),
        "sj_downlink_bytes": semi.downlink_bytes,
        "sj_uplink_bytes": semi.uplink_bytes,
        "csj_downlink_bytes": csj.downlink_bytes,
        "csj_uplink_bytes": csj.uplink_bytes,
    }


def format_records(
    records: Sequence[Dict[str, Any]], columns: Optional[Sequence[str]] = None
) -> str:
    """Render sweep records as a fixed-width text table (for bench output).

    Without ``columns``: every key of the first record that is not evidence.
    A single record (a sweep without axes) reads better on its side: one
    ``name  value`` line per column.
    """
    if columns is None:
        columns = list(plain(records[0])) if records else []

    def cell(value: Any) -> str:
        return f"{value:.4g}" if isinstance(value, float) else str(value)

    table = [[cell(record.get(column, "")) for column in columns] for record in records]
    if len(table) == 1:
        width = max(map(len, columns))
        return "\n".join(f"{column.ljust(width)}  {text}" for column, text in zip(columns, table[0]))
    widths = [
        max(12, len(column), *(len(row[index]) for row in table))
        for index, column in enumerate(columns)
    ]
    header = "  ".join(column.rjust(width) for column, width in zip(columns, widths))
    lines = [header, "-" * len(header)]
    lines += ["  ".join(text.rjust(width) for text, width in zip(row, widths)) for row in table]
    return "\n".join(lines)
