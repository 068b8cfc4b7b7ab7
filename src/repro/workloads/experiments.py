"""Parameter-sweep harnesses that regenerate the paper's figures.

Each harness builds the synthetic workload of the corresponding experiment,
executes it under the relevant strategies on the network simulator, and
returns the measured series together with the cost model's prediction, so
benchmarks can compare shapes directly:

* :class:`ConcurrencySweep`   — Figure 6  (execution time vs. pipeline concurrency factor)
* :class:`SelectivitySweep`   — Figures 8 and 9 (CSJ/SJ ratio vs. selectivity)
* :class:`ResultSizeSweep`    — Figure 10 (CSJ/SJ ratio vs. result size)

The harnesses construct execution operators directly through the public
``build_operator`` API (rather than through SQL) because the experiments
require the pushable predicate to be applied *after* the UDF — exactly the
situation of the paper's Figure 7 query, where the predicate is itself a
client-site UDF over the same argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.client.registry import UdfRegistry
from repro.client.runtime import ClientRuntime
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
# Figure 6 — pipeline concurrency factor
# ---------------------------------------------------------------------------


@dataclass
class ConcurrencySweep:
    """Figure 6: query time vs. pipeline concurrency factor.

    ``SELECT UDF(R.DataObject) FROM Relation R`` over 100 rows, for several
    object sizes, executed as a semi-join whose buffer size is swept.  The
    default network models the paper's slow link with a bandwidth·latency
    product of roughly 5000 bytes, so the 1000-byte curve flattens near a
    factor of 5 and smaller objects flatten later, as in the paper.
    """

    row_count: int = 100
    object_sizes: Sequence[int] = (100, 500, 1000)
    concurrency_factors: Sequence[int] = tuple(range(1, 22))
    network: NetworkConfig = field(
        default_factory=lambda: NetworkConfig.symmetric(3600.0, latency=0.4, name="fig6-modem")
    )
    udf_cost_seconds: float = 0.03

    def run_point(self, object_size: int, factor: int) -> ExperimentPoint:
        table = make_object_relation("Relation", self.row_count, object_size)
        registry = UdfRegistry()
        udf = register_identity_udf(
            registry,
            name="EchoObject",
            result_size=object_size,
            cost_per_call_seconds=self.udf_cost_seconds,
        )
        context = RemoteExecutionContext.create(
            self.network, client=ClientRuntime(registry=registry)
        )
        operator = build_operator(
            child=TableScan(table),
            udf=udf,
            argument_columns=["Relation.DataObject"],
            context=context,
            config=StrategyConfig.semi_join(concurrency_factor=factor),
        )
        rows = operator.run()
        return ExperimentPoint(
            strategy=ExecutionStrategy.SEMI_JOIN,
            elapsed_seconds=context.elapsed_seconds,
            counters=context.counters(),
            rows=len(rows),
            parameters={"object_size": object_size, "concurrency_factor": factor},
        )

    def run(self) -> Dict[int, List[Tuple[int, float]]]:
        """``{object_size: [(factor, elapsed_seconds), ...]}``."""
        series: Dict[int, List[Tuple[int, float]]] = {}
        for object_size in self.object_sizes:
            points: List[Tuple[int, float]] = []
            for factor in self.concurrency_factors:
                point = self.run_point(object_size, factor)
                points.append((factor, point.elapsed_seconds))
            series[object_size] = points
        return series

    def predicted_optimal_factor(self, object_size: int) -> int:
        """The analytic B·T recommendation for this object size."""
        from repro.core.concurrency import recommended_concurrency_factor

        return recommended_concurrency_factor(
            self.network,
            request_payload_bytes=object_size + 4,
            response_payload_bytes=object_size + 4,
            client_seconds_per_tuple=self.udf_cost_seconds,
        )


# ---------------------------------------------------------------------------
# Figures 8 and 9 — CSJ/SJ ratio vs. selectivity
# ---------------------------------------------------------------------------


@dataclass
class SelectivitySweep:
    """Figures 8 (symmetric) and 9 (asymmetric): relative time vs. selectivity."""

    row_count: int = 100
    input_record_bytes: int = 1000
    argument_fraction: float = 0.5
    result_sizes: Sequence[int] = (100, 1000, 2000, 5000)
    selectivities: Sequence[float] = tuple(round(0.1 * i, 1) for i in range(0, 11))
    network: NetworkConfig = field(default_factory=NetworkConfig.paper_symmetric)
    udf_cost_seconds: float = 0.001
    distinct_fraction: float = 1.0

    def _workload(self, result_size: int, selectivity: float) -> SyntheticWorkload:
        return SyntheticWorkload(
            row_count=self.row_count,
            input_record_bytes=self.input_record_bytes,
            argument_fraction=self.argument_fraction,
            result_bytes=result_size,
            selectivity=selectivity,
            distinct_fraction=self.distinct_fraction,
            udf_cost_seconds=self.udf_cost_seconds,
        )

    def predicted_ratio(self, result_size: int, selectivity: float) -> float:
        parameters = CostParameters.paper_experiment(
            input_record_bytes=self.input_record_bytes,
            argument_fraction=self.argument_fraction,
            result_bytes=result_size,
            selectivity=selectivity,
            asymmetry=self.network.asymmetry,
            distinct_fraction=self.distinct_fraction,
        )
        return CostModel(parameters).relative_time()

    def run(self) -> List[Dict[str, float]]:
        """One record per (result size, selectivity) with measured and predicted ratios."""
        records: List[Dict[str, float]] = []
        for result_size in self.result_sizes:
            # The semi-join does not apply the pushable predicate early, so its
            # time is independent of the selectivity: measure it once.
            baseline = run_workload_point(
                self._workload(result_size, selectivity=1.0),
                self.network,
                StrategyConfig.semi_join(),
            )
            for selectivity in self.selectivities:
                csj = run_workload_point(
                    self._workload(result_size, selectivity),
                    self.network,
                    StrategyConfig.client_site_join(),
                )
                records.append(
                    {
                        "result_size": result_size,
                        "selectivity": selectivity,
                        "semi_join_seconds": baseline.elapsed_seconds,
                        "client_join_seconds": csj.elapsed_seconds,
                        "measured_ratio": csj.elapsed_seconds / baseline.elapsed_seconds,
                        "predicted_ratio": self.predicted_ratio(result_size, selectivity),
                        "csj_downlink_bytes": csj.downlink_bytes,
                        "csj_uplink_bytes": csj.uplink_bytes,
                        "sj_downlink_bytes": baseline.downlink_bytes,
                        "sj_uplink_bytes": baseline.uplink_bytes,
                    }
                )
        return records

    @classmethod
    def figure8(cls) -> "SelectivitySweep":
        """The exact parameterisation of Figure 8 (symmetric network)."""
        return cls(
            input_record_bytes=1000,
            argument_fraction=0.5,
            result_sizes=(100, 1000, 2000, 5000),
            network=NetworkConfig.paper_symmetric(),
        )

    @classmethod
    def figure9(cls, asymmetry: float = 100.0) -> "SelectivitySweep":
        """The exact parameterisation of Figure 9 (asymmetric network, N=100)."""
        return cls(
            input_record_bytes=5000,
            argument_fraction=0.8,
            result_sizes=(500, 1000, 5000),
            network=NetworkConfig.paper_asymmetric(asymmetry=asymmetry),
        )


# ---------------------------------------------------------------------------
# Figure 10 — CSJ/SJ ratio vs. result size
# ---------------------------------------------------------------------------


@dataclass
class ResultSizeSweep:
    """Figure 10: relative time vs. UDF result size, for several selectivities."""

    row_count: int = 100
    input_record_bytes: int = 500
    argument_fraction: float = 0.2
    selectivities: Sequence[float] = (0.25, 0.5, 0.75, 1.0)
    result_sizes: Sequence[int] = tuple(range(0, 2001, 200))
    network: NetworkConfig = field(default_factory=NetworkConfig.paper_symmetric)
    udf_cost_seconds: float = 0.001
    distinct_fraction: float = 1.0

    def _workload(self, result_size: int, selectivity: float) -> SyntheticWorkload:
        return SyntheticWorkload(
            row_count=self.row_count,
            input_record_bytes=self.input_record_bytes,
            argument_fraction=self.argument_fraction,
            result_bytes=result_size,
            selectivity=selectivity,
            distinct_fraction=self.distinct_fraction,
            udf_cost_seconds=self.udf_cost_seconds,
        )

    def predicted_ratio(self, result_size: int, selectivity: float) -> float:
        parameters = CostParameters.paper_experiment(
            input_record_bytes=self.input_record_bytes,
            argument_fraction=self.argument_fraction,
            result_bytes=result_size,
            selectivity=selectivity,
            asymmetry=self.network.asymmetry,
            distinct_fraction=self.distinct_fraction,
        )
        return CostModel(parameters).relative_time()

    def run(self) -> List[Dict[str, float]]:
        records: List[Dict[str, float]] = []
        for selectivity in self.selectivities:
            for result_size in self.result_sizes:
                baseline = run_workload_point(
                    self._workload(result_size, selectivity),
                    self.network,
                    StrategyConfig.semi_join(),
                )
                csj = run_workload_point(
                    self._workload(result_size, selectivity),
                    self.network,
                    StrategyConfig.client_site_join(),
                )
                records.append(
                    {
                        "selectivity": selectivity,
                        "result_size": result_size,
                        "semi_join_seconds": baseline.elapsed_seconds,
                        "client_join_seconds": csj.elapsed_seconds,
                        "measured_ratio": csj.elapsed_seconds / baseline.elapsed_seconds,
                        "predicted_ratio": self.predicted_ratio(result_size, selectivity),
                    }
                )
        return records


def format_records(records: Sequence[Dict[str, float]], columns: Sequence[str]) -> str:
    """Render sweep records as a fixed-width text table (for bench output)."""
    widths = {column: max(len(column), 12) for column in columns}
    header = "  ".join(column.rjust(widths[column]) for column in columns)
    lines = [header, "-" * len(header)]
    for record in records:
        cells = []
        for column in columns:
            value = record.get(column, "")
            if isinstance(value, float):
                cells.append(f"{value:.4g}".rjust(widths[column]))
            else:
                cells.append(str(value).rjust(widths[column]))
        lines.append("  ".join(cells))
    return "\n".join(lines)
