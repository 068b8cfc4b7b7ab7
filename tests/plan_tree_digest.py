"""Built operator trees as a committed contract.

The decision digests pin what the optimizer *prices*; the schedule digests pin
what goes on the wire.  Neither sees where the planner puts a server-side
filter, whether it records that filter's selectivity, or what a remote
operator pushes to the client.  This module pins the tree ``build_plan``
makes, per case:

* every optimizer case of :mod:`decision_digest` (its decision, realised);
* a few pinned shapes: no decision at all, a UDF order, per-UDF strategies,
  a join order, an index scan, an index nested-loop join with a residual
  inner predicate, and a re-optimizing chain.

A case's record is the plan's ``explain()`` text, each ``Filter``'s
``observe_selectivity`` in walk order, and each remote operator's pushed
predicate and output columns, reduced to one SHA-256.
``tests/data/plan_tree_digests.json`` holds them; ``tests/test_plan_tree_digest.py``
recomputes and compares them exactly.

Regenerate (only when a change is *meant* to move a built plan)::

    PYTHONPATH=src python tests/plan_tree_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, Optional, Tuple

from decision_digest import Environment, optimizer_cases, STOCK_QUERIES
from repro.adaptive.segmented import ReOptimizer
from repro.core.execution.adaptive import PlanMigrationOperator
from repro.core.execution.context import RemoteExecutionContext
from repro.core.optimizer import OptimizationDecision
from repro.core.optimizer.plans import AccessPath
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.relational.operators import Filter
from repro.relational.predicates import index_condition
from repro.server.engine import Database
from repro.server.planner import PlanBuildResult, build_plan
from repro.sql.logical import BoundQuery

DIGEST_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "data", "plan_tree_digests.json"
)


def _remote_record(operator) -> Tuple:
    if isinstance(operator, PlanMigrationOperator):
        return (
            type(operator).__name__,
            [(stage.udf.name, stage.strategy.value) for stage in operator.stages],
            [
                (str(p.expression), sorted(p.udf_names), float(p.declared_selectivity).hex())
                for p in operator.predicates
            ],
            operator.output_columns,
        )
    pushed = operator.pushable_predicate
    return (
        type(operator).__name__,
        None if pushed is None else str(pushed),
        getattr(operator, "output_columns", None),
    )


def tree_digest(built: PlanBuildResult) -> Dict[str, object]:
    """The explain text, the filters' observe flags and the remote operators, hashed."""
    text = built.root.explain()
    observed = [
        operator.observe_selectivity
        for operator in built.root.walk()
        if isinstance(operator, Filter)
    ]
    remote = [_remote_record(operator) for operator in built.remote_operators]
    sha = hashlib.sha256()
    for part in (text, observed, remote):
        sha.update(repr(part).encode())
        sha.update(b"\n")
    return {"operators": text.count("\n") + 1, "digest": sha.hexdigest()}


def _build(
    db: Database,
    bound: BoundQuery,
    decision: Optional[OptimizationDecision] = None,
    config: Optional[StrategyConfig] = None,
) -> Dict[str, object]:
    return tree_digest(
        build_plan(
            bound,
            RemoteExecutionContext.create(db.network, registry=db.udfs),
            config=config,
            server_functions=db._server_functions(),
            decision=decision,
        )
    )


def _optimized(priced: Callable) -> Callable[[], Dict[str, object]]:
    def run() -> Dict[str, object]:
        db, optimizer, bound = priced()
        return _build(db, bound, optimizer.optimize(bound))

    return run


INDEX_SCAN_SQL = "SELECT Q.Id FROM Quotes Q WHERE Q.Price >= 10 AND Q.Price < 20 AND Score(Q.Price) > 30"
INDEX_JOIN_SQL = (
    "SELECT O.OId, Q.Price FROM Orders O, Quotes Q "
    "WHERE O.QuoteId = Q.Id AND Q.Price > 1.0 AND Score(Q.Price) > 100"
)


def _pinned_cases(env: Environment) -> Dict[str, Callable[[], Dict[str, object]]]:
    semi = StrategyConfig.semi_join()
    figure13 = STOCK_QUERIES["figure13"]

    def stock(config: Optional[StrategyConfig] = None, **shape) -> Callable[[], Dict[str, object]]:
        def run() -> Dict[str, object]:
            db = env.database(25, "symmetric", False)
            bound = db.bind(figure13)
            if not shape:
                return _build(db, bound, config=config)
            return _build(db, bound, OptimizationDecision.pinned(bound, config, **shape))

        return run

    def reoptimizing() -> Dict[str, object]:
        db = env.database(25, "symmetric", False)
        bound = db.bind(figure13)
        config = semi.with_reoptimizer(ReOptimizer())
        decision = OptimizationDecision.pinned(bound, config, udf_order=("Volatility", "ClientRating"))
        return _build(db, bound, decision)

    def index_scan() -> Dict[str, object]:
        db = env.indexed_database("symmetric")
        bound = db.bind(INDEX_SCAN_SQL)
        keys = tuple(
            str(predicate.expression)
            for predicate in bound.single_table_predicates("Q")
            if index_condition(predicate.expression) is not None
        )
        path = AccessPath("Q", "index_scan", "quotes_price_btree", "btree", "Price", predicate_keys=keys)
        return _build(db, bound, OptimizationDecision.pinned(bound, semi, access_paths={"Q": path}))

    def index_join() -> Dict[str, object]:
        db = env.indexed_database("symmetric")
        bound = db.bind(INDEX_JOIN_SQL)
        path = AccessPath(
            "Q", "index_join", "quotes_id_btree", "btree", "Id",
            predicate_keys=("O.QuoteId = Q.Id",), join_column="O.QuoteId",
        )
        decision = OptimizationDecision.pinned(
            bound, semi, table_order=("O", "Q"), access_paths={"Q": path}
        )
        return _build(db, bound, decision)

    return {
        "pinned/default/figure13": stock(StrategyConfig()),
        "pinned/udf-order/figure13": stock(semi, udf_order=("Volatility", "ClientRating")),
        "pinned/udf-strategies/figure13": stock(
            semi, udf_strategies={"Volatility": ExecutionStrategy.CLIENT_SITE_JOIN}
        ),
        "pinned/table-order/figure13": stock(
            StrategyConfig.client_site_join(), table_order=("E", "S")
        ),
        "pinned/reoptimize/figure13": reoptimizing,
        "pinned/index-scan": index_scan,
        "pinned/index-join": index_join,
    }


def cases(env: Environment) -> Dict[str, Callable[[], Dict[str, object]]]:
    """Every case by key: the optimizer cases, then the pinned shapes."""
    table = {key: _optimized(priced) for key, priced in optimizer_cases(env).items()}
    table.update(_pinned_cases(env))
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
