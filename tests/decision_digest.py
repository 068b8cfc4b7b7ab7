"""Optimizer decision digests: every priced plan as a committed contract.

A host-only change to ``core/optimizer`` (memoised derivations, cheaper plan
copies, a cost-only batch sweep) must not move a single estimate: not the
chosen plan or batch size, not any plan the DP keeps, not one step's cost or
transfer profile in its last bit, not the insertion order of a column map
(the bare-name fallback and ``sum(column_sizes.values())`` depend on it), and
not the number of ``_apply`` calls the enumerators make.  This module reduces
all of that to a SHA-256 per case; ``tests/data/decision_digests.json`` holds
the digests recorded at the commit *before* the optimizer's derivations were
memoised, and ``tests/test_decision_digest.py`` recomputes and compares them
exactly.

Regenerate (only when a change is *meant* to move an estimate)::

    PYTHONPATH=src python tests/decision_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.optimizer import CostSettings, Optimizer
from repro.core.optimizer.enumerator import SystemREnumerator
from repro.core.optimizer.plans import CandidatePlan
from repro.core.strategies import StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.workloads.misestimation import MisorderedUdfScenario
from repro.workloads.stock import StockWorkload

DIGEST_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "decision_digests.json"
)


# ---------------------------------------------------------------------------
# Reducing plans to digests
# ---------------------------------------------------------------------------


def plan_record(plan: CandidatePlan) -> Tuple:
    """Everything a :class:`CandidatePlan` says, floats as hex, maps in order."""
    return (
        sorted(plan.operations),
        plan.cost.hex(),
        float(plan.cardinality).hex(),
        float(plan.row_bytes).hex(),
        [(name, float(size).hex()) for name, size in plan.column_sizes.items()],
        [(name, float(value).hex()) for name, value in plan.column_distinct.items()],
        (plan.properties.site.value, sorted(plan.properties.client_columns)),
        sorted(plan.applied_udfs),
        plan.table_order,
        plan.udf_order,
        [(name, strategy.value) for name, strategy in plan.udf_strategies.items()],
        [
            (
                alias,
                path.alias,
                path.kind,
                path.index_name,
                path.index_kind,
                path.column,
                path.join_column,
                path.predicate_keys,
            )
            for alias, path in plan.access_paths.items()
        ],
        [
            (
                step.kind,
                step.name,
                step.strategy.value if step.strategy is not None else None,
                step.detail,
                float(step.cost).hex(),
                float(step.cardinality).hex(),
                None
                if step.transfer is None
                else tuple(float(part).hex() for part in step.transfer),
                float(step.transfer_cost).hex(),
            )
            for step in plan.steps
        ],
    )


@contextmanager
def captured_enumerators() -> Iterator[List[SystemREnumerator]]:
    """Every enumerator ``Optimizer.enumerator`` hands out, in call order."""
    captured: List[SystemREnumerator] = []
    original = Optimizer.enumerator

    def enumerator(self, *args, **kwargs):
        built = original(self, *args, **kwargs)
        captured.append(built)
        return built

    Optimizer.enumerator = enumerator
    try:
        yield captured
    finally:
        Optimizer.enumerator = original


def digest_of(records: List[Tuple], plans_considered: List[int]) -> Dict[str, object]:
    sha = hashlib.sha256()
    for record in records:
        sha.update(repr(record).encode())
        sha.update(b"\n")
    sha.update(repr(plans_considered).encode())
    return {
        "records": len(records),
        "plans_considered": plans_considered,
        "digest": sha.hexdigest(),
    }


def decision_digest(optimizer: Optimizer, bound) -> Dict[str, object]:
    """One optimizer, one query: the decision, its baselines, the plan space."""
    with captured_enumerators() as enumerators:
        decision = optimizer.optimize(bound, include_baselines=True)
        space = optimizer.plan_space(bound)
    records: List[Tuple] = [
        (
            "decision",
            decision.batch_size,
            decision.strategy_config.strategy.value,
            decision.strategy_config.batch_size,
            plan_record(decision.plan),
        )
    ]
    for name, alternative in decision.alternatives.items():
        records.append(("baseline", name, plan_record(alternative)))
    for plan in space:
        records.append(("space", plan_record(plan)))
    return digest_of(records, [enumerator.plans_considered for enumerator in enumerators])


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------

NETWORKS: Dict[str, NetworkConfig] = {
    "symmetric": NetworkConfig.paper_symmetric(),
    "asymmetric": NetworkConfig.paper_asymmetric(),
    "zero-latency": NetworkConfig.symmetric(200_000.0, latency=0.0, name="digest-zero-latency"),
}

#: setting name -> (cost settings, default strategy config, needs the paged database)
SETTINGS: Dict[str, Tuple[Optional[CostSettings], StrategyConfig, bool]] = {
    "default": (None, StrategyConfig(), False),
    "no-overhead": (CostSettings(per_message_overhead_bytes=0), StrategyConfig(), False),
    "pinned-b16": (None, StrategyConfig(batch_size=16), False),
    "window-1": (CostSettings(overlap_window=1), StrategyConfig(), False),
    "block-io": (CostSettings(block_access_seconds=0.005), StrategyConfig(), True),
}

STOCK_QUERIES: Dict[str, str] = {
    "figure1/t300": StockWorkload.figure1_query(threshold=300.0),
    "figure1/t500": StockWorkload.figure1_query(threshold=500.0),
    "figure1/t700": StockWorkload.figure1_query(threshold=700.0),
    "figure11": StockWorkload.figure11_query(),
    "figure13": StockWorkload.figure13_query(),
}

#: Only on the paged stock twin: conjuncts on its indexed columns.  At 25-60
#: rows a table fits one or two blocks, so most index variants are generated,
#: priced and pruned; the B-tree interval scan of ``close-range`` wins.
INDEXED_STOCK_QUERIES: Dict[str, str] = {
    "close-range": (
        "SELECT S.Name FROM StockQuotes S "
        "WHERE S.Close >= 50 AND S.Close < 120 AND ClientAnalysis(S.Quotes) > 500"
    ),
    "rating-point": (
        "SELECT S.Name, E.BrokerName FROM StockQuotes S, Estimations E "
        "WHERE S.Name = E.CompanyName AND E.Rating = 3 AND ClientRating(S.Quotes) = E.Rating"
    ),
}

#: A 2000-row indexed table probed by a 3-row one: here every index variant —
#: B-tree and hash, scan and nested-loop join — is the chosen access path.
INDEXED_QUERIES: Dict[str, str] = {
    "btree-join": "SELECT O.OId, Q.Price FROM Orders O, Quotes Q WHERE O.QuoteId = Q.Id",
    "btree-join-udf": (
        "SELECT O.OId, Q.Price FROM Orders O, Quotes Q "
        "WHERE O.QuoteId = Q.Id AND Score(Q.Price) > 100"
    ),
    "hash-join": "SELECT O.OId, Q.Id FROM Orders O, Quotes Q WHERE O.QName = Q.Name",
    "hash-point": "SELECT Q.Id FROM Quotes Q WHERE Q.Name = 'name7' AND Score(Q.Price) > 100",
    "btree-range": (
        "SELECT Q.Id FROM Quotes Q WHERE Q.Price >= 10 AND Q.Price < 20 AND Score(Q.Price) > 30"
    ),
}

#: The fixed sequence of adaptive runs that fills a database's StatisticsStore.
ADAPTIVE_RUNS = (
    "figure1/t500",
    "figure11",
    "figure13",
    "figure1/t300",
    "figure13",
    "figure11",
)

THREE_TABLE_SQL = "SELECT A.X, C.Z FROM A, B, C WHERE A.X = B.X AND B.Y = C.Y"
THREE_TABLE_UDF_SQL = (
    "SELECT A.X, C.Z FROM A, B, C WHERE A.X = B.X AND B.Y = C.Y AND Probe(A.Y) > 100"
)


def three_table_database(network: Optional[NetworkConfig] = None) -> Database:
    """``A(X,Y)``, ``B(X,Y)``, ``C(Y,Z)`` of 300 rows each: same-named columns
    across tables, which is where the bare-name fallback decides estimates."""
    db = Database(network=network or NETWORKS["symmetric"])
    db.create_table("A", [("X", INTEGER), ("Y", INTEGER)], rows=[[i, i] for i in range(300)])
    db.create_table("B", [("X", INTEGER), ("Y", INTEGER)], rows=[[i, i] for i in range(300)])
    db.create_table("C", [("Y", INTEGER), ("Z", INTEGER)], rows=[[i, i] for i in range(300)])
    db.register_client_udf(
        "Probe",
        lambda value: float(value),
        result_dtype=FLOAT,
        result_size_bytes=8,
        cost_per_call_seconds=0.001,
        selectivity=0.3,
    )
    return db


class Environment:
    """The databases the grid prices against, built once and shared.

    An in-memory stock database per (companies, network) and a paged twin
    with a B-tree and a hash index on each table; both have run
    :data:`ADAPTIVE_RUNS`, so ``db.statistics`` is the calibrated store of
    the grid's statistics dimension.  Close it to drop the paged directories.
    """

    def __init__(self) -> None:
        self._root = tempfile.mkdtemp(prefix="decision-digest-")
        self._databases: Dict[Tuple, Database] = {}

    def close(self) -> None:
        for db in self._databases.values():
            db.close()
        self._databases.clear()
        shutil.rmtree(self._root, ignore_errors=True)

    def __enter__(self) -> "Environment":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def database(self, companies: int, network: str, paged: bool) -> Database:
        key = (companies, network, paged)
        if key not in self._databases:
            db = StockWorkload(
                company_count=companies, seed=1999, network=NETWORKS[network]
            ).build()
            if paged:
                db = self._paged_twin(db, f"{companies}-{network}")
            for name in ADAPTIVE_RUNS:
                db.execute(STOCK_QUERIES[name], optimize=True, adaptive=True, deliver_results=True)
            self._databases[key] = db
        return self._databases[key]

    def indexed_database(self, network: str) -> Database:
        """``Quotes`` (2000 rows; B-trees on Id and Price, a hash index on
        Name) and a 3-row ``Orders``, paged, charging block I/O."""
        key = ("indexed", network)
        if key not in self._databases:
            db = Database(
                network=NETWORKS[network],
                storage_dir=os.path.join(self._root, f"indexed-{network}"),
                cost_settings=SETTINGS["block-io"][0],
            )
            db.create_table(
                "Quotes",
                [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)],
                rows=[(index, index / 4.0, f"name{index % 500}") for index in range(2000)],
            )
            db.create_table(
                "Orders",
                [("OId", INTEGER), ("QuoteId", INTEGER), ("QName", STRING)],
                rows=[(index, index * 400, f"name{index}") for index in range(3)],
            )
            db.analyze("Quotes")
            db.analyze("Orders")
            db.create_index("quotes_id_btree", "Quotes", "Id")
            db.create_index("quotes_price_btree", "Quotes", "Price")
            db.create_index("quotes_name_hash", "Quotes", "Name", kind="hash")
            db.register_client_udf(
                "Score",
                lambda value: value * 2.0,
                result_dtype=FLOAT,
                result_size_bytes=8,
                cost_per_call_seconds=0.001,
                selectivity=0.5,
            )
            self._databases[key] = db
        return self._databases[key]

    def _paged_twin(self, memory: Database, name: str) -> Database:
        paged = Database(
            network=memory.network,
            storage_dir=os.path.join(self._root, name),
            cost_settings=SETTINGS["block-io"][0],
        )
        for table in ("StockQuotes", "Estimations"):
            source = memory.catalog.table(table)
            paged.create_table(
                table,
                [(column.name, column.dtype) for column in source.schema.columns],
                rows=[list(row) for row in source.rows],
            )
            paged.analyze(table)
        for definition in memory.udfs:
            paged.udfs.register(definition)
        paged.create_index("quotes_close_btree", "StockQuotes", "Close", kind="btree")
        paged.create_index("quotes_name_hash", "StockQuotes", "Name", kind="hash")
        paged.create_index("estimations_company_btree", "Estimations", "CompanyName", kind="btree")
        paged.create_index("estimations_rating_hash", "Estimations", "Rating", kind="hash")
        return paged


def _grid_case(
    env: Environment,
    companies: int,
    network: str,
    setting: str,
    sql: str,
    exhaustive: bool,
    calibrated: bool,
) -> Callable[[], Dict[str, object]]:
    def run() -> Dict[str, object]:
        settings, config, paged = SETTINGS[setting]
        db = env.database(companies, network, paged)
        optimizer = Optimizer(
            db.network,
            default_config=config,
            settings=settings,
            exhaustive_properties=exhaustive,
            statistics=db.statistics if calibrated else None,
        )
        return decision_digest(optimizer, db.bind(sql))

    return run


def _indexed_case(env: Environment, network: str, sql: str) -> Callable[[], Dict[str, object]]:
    def run() -> Dict[str, object]:
        db = env.indexed_database(network)
        return decision_digest(Optimizer(db.network, settings=db.cost_settings), db.bind(sql))

    return run


def _three_table_case(sql: str, network: str) -> Callable[[], Dict[str, object]]:
    def run() -> Dict[str, object]:
        db = three_table_database(NETWORKS[network])
        return decision_digest(Optimizer(db.network), db.bind(sql))

    return run


def _reoptimizer_reentry() -> Dict[str, object]:
    """The plans ``ReOptimizer`` gets back from ``best_plan_from(seed)`` while
    a mis-declared two-UDF query runs, with each re-entry's ``_apply`` count."""
    records: List[Tuple] = []
    considered: List[int] = []
    original = SystemREnumerator.best_plan_from

    def best_plan_from(self, seed=None):
        plan = original(self, seed)
        if seed is not None:
            records.append(("seed", plan_record(seed)))
            records.append(("re-entry", plan_record(plan)))
            considered.append(self.plans_considered)
        return plan

    scenario = MisorderedUdfScenario()
    SystemREnumerator.best_plan_from = best_plan_from
    try:
        scenario.build_database().execute(
            scenario.sql, reoptimize=True, replan_policy=scenario.replan_policy()
        )
    finally:
        SystemREnumerator.best_plan_from = original
    assert records, "the scenario must re-enter the enumerator at least once"
    return digest_of(records, considered)


def cases(env: Environment) -> Dict[str, Callable[[], Dict[str, object]]]:
    """Every case by key, in a fixed order."""
    table: Dict[str, Callable[[], Dict[str, object]]] = {}
    for companies in (25, 60):
        for network in NETWORKS:
            for setting, (_settings, _config, paged) in SETTINGS.items():
                queries = dict(STOCK_QUERIES)
                if paged:
                    queries.update(INDEXED_STOCK_QUERIES)
                for query, sql in queries.items():
                    for exhaustive in (True, False):
                        for calibrated in (False, True):
                            key = (
                                f"stock/{query}/c{companies}/{network}/{setting}"
                                f"/x{int(exhaustive)}/s{int(calibrated)}"
                            )
                            table[key] = _grid_case(
                                env, companies, network, setting, sql, exhaustive, calibrated
                            )
    for network in ("symmetric", "asymmetric"):
        for query, sql in INDEXED_QUERIES.items():
            table[f"indexed/{query}/{network}"] = _indexed_case(env, network, sql)
        table[f"three-table/plain/{network}"] = _three_table_case(THREE_TABLE_SQL, network)
        table[f"three-table/udf/{network}"] = _three_table_case(THREE_TABLE_UDF_SQL, network)
    table["reoptimizer/re-entry"] = _reoptimizer_reentry
    return table


def compute_all() -> Dict[str, Dict[str, object]]:
    with Environment() as env:
        return {key: run() for key, run in cases(env).items()}


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    import sys

    digests = compute_all()
    if "--write" in sys.argv:
        os.makedirs(os.path.dirname(DIGEST_FILE), exist_ok=True)
        with open(DIGEST_FILE, "w") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
    else:
        print(json.dumps(digests, indent=1, sort_keys=True))
