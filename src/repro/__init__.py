"""repro — a reproduction of "Client-Site Query Extensions" (SIGMOD 1999).

The package implements, from scratch and in pure Python:

* a small in-memory relational engine (:mod:`repro.relational`);
* a SQL front end for the paper's query subset (:mod:`repro.sql`);
* a deterministic discrete-event network simulator standing in for the
  paper's modem / asymmetric links (:mod:`repro.network`);
* a client-site UDF runtime with a restricted-exec sandbox
  (:mod:`repro.client`);
* the paper's contribution — naive, semi-join and client-site-join execution
  of client-site UDFs, the Section 3.2 bandwidth cost model, the B·T
  pipeline-concurrency analysis, and an extended System-R optimizer
  (:mod:`repro.core`);
* the server engine facade tying everything together (:mod:`repro.server`);
* an adaptive runtime subsystem closing the observe → calibrate → adapt
  loop: runtime observation of link/UDF behaviour, a cross-query statistics
  store calibrating the optimizer, and mid-query adaptive batch sizing
  (:mod:`repro.adaptive`);
* workload generators reproducing the paper's experiments, plus
  drifting-bandwidth scenarios (:mod:`repro.workloads`).

Quick start::

    from repro import Database, NetworkConfig, StrategyConfig, STRING, TIME_SERIES

    db = Database(network=NetworkConfig.paper_symmetric())
    db.create_table("StockQuotes", [("Name", STRING), ("Quotes", TIME_SERIES)])
    db.register_client_udf("ClientAnalysis", lambda quotes: sum(quotes) / len(quotes))
    result = db.execute(
        "SELECT S.Name FROM StockQuotes S WHERE ClientAnalysis(S.Quotes) > 500",
        config=StrategyConfig.semi_join(),
    )
"""

from repro.errors import (
    ReproError,
    SchemaError,
    CatalogError,
    SqlError,
    ParseError,
    BindError,
    SimulationError,
    NetworkError,
    UdfError,
    SandboxViolation,
    ExecutionError,
    OptimizerError,
    PlanError,
)
from repro.relational import (
    BOOLEAN,
    INTEGER,
    FLOAT,
    STRING,
    DATA_OBJECT,
    TIME_SERIES,
    DataObject,
    TimeSeries,
    Column,
    Schema,
    Row,
    Table,
    Catalog,
)
from repro.network import NetworkConfig, Simulator, Channel
from repro.client import UdfDefinition, UdfSite, UdfRegistry, Sandbox, ClientRuntime
from repro.core import (
    ExecutionStrategy,
    StrategyConfig,
    CostModel,
    CostParameters,
    recommended_concurrency_factor,
)
from repro.server import Database, QueryResult, ExecutionMetrics
from repro.adaptive import (
    BatchSizeController,
    QueryObservation,
    RuntimeObserver,
    StatisticsStore,
)

__version__ = "0.19.0"

__all__ = [
    # errors
    "ReproError",
    "SchemaError",
    "CatalogError",
    "SqlError",
    "ParseError",
    "BindError",
    "SimulationError",
    "NetworkError",
    "UdfError",
    "SandboxViolation",
    "ExecutionError",
    "OptimizerError",
    "PlanError",
    # relational
    "BOOLEAN",
    "INTEGER",
    "FLOAT",
    "STRING",
    "DATA_OBJECT",
    "TIME_SERIES",
    "DataObject",
    "TimeSeries",
    "Column",
    "Schema",
    "Row",
    "Table",
    "Catalog",
    # network
    "NetworkConfig",
    "Simulator",
    "Channel",
    # client
    "UdfDefinition",
    "UdfSite",
    "UdfRegistry",
    "Sandbox",
    "ClientRuntime",
    # core
    "ExecutionStrategy",
    "StrategyConfig",
    "CostModel",
    "CostParameters",
    "recommended_concurrency_factor",
    # server
    "Database",
    "QueryResult",
    "ExecutionMetrics",
    # adaptive runtime
    "BatchSizeController",
    "QueryObservation",
    "RuntimeObserver",
    "StatisticsStore",
    "__version__",
]
