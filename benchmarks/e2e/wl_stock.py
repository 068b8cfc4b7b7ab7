"""``ship_bulk`` and ``plan_small``: the paper's stock-market queries at two sizes.

``ship_bulk`` — 4000 companies on the paper's asymmetric network.  At this
size shipping rows through ``core.execution`` + ``network`` + ``client`` is
> 95 % of host time and the SQL front end and optimizer < 3 %.  Its batch-1
kinds send one message per row per hop (where a simulator fast-forward must
show); the batch-16 and adaptive kinds move the same data in 15-85x fewer
messages (where it should show much less).

``plan_small`` — the same schema at the paper-default 60 companies.  Parse +
bind + optimize + build_plan + observe are about half of a 2-8 ms operation
and the simulator handles only 20-90 UDF rows, so a plan/parse cache or a
cheaper cost surface shows here and nowhere else.  Half of the Figure 1
thresholds repeat (4 values), half are literals never seen before — fresh in
every round — which keeps a text-keyed cache honest.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

import probes
from metrics import KINDS
import stockgen
from harness import Op, Workload, sample_from_result
from repro.core.strategies import StrategyConfig
from repro.network.topology import NetworkConfig


class _StockWorkload(Workload):
    companies = 0

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.data = stockgen.make_stock(seed, self.companies)
        self.expected11 = self.data.figure11_expected()
        self.expected13 = self.data.figure13_expected()
        self.db: Any = None

    def setup(self) -> Dict[str, float]:
        self.db = stockgen.build_database(self.data, self.network)
        return {}

    def udf_registries(self) -> List[Any]:
        return [self.db.udfs]

    def _query(self, kind: str, sql: str, expected: List[tuple], **options: Any) -> Op:
        return Op(
            kind,
            lambda: self.db.execute(sql, deliver_results=True, **options),
            lambda result: sample_from_result(result, expected),
        )

    def layer_metrics(self, traced: Any, spans: Any) -> Dict[str, float]:
        functions = {name: function for name, function, *_declared in stockgen.CLIENT_UDFS}
        metrics = probes.udf_bare_call(functions, self.data.udf_arguments())
        metrics.update(
            probes.server_subtree(
                self.db,
                [stockgen.figure1_sql(self.data.default_threshold), stockgen.FIGURE11_SQL],
            )
        )
        return metrics


class ShipBulk(_StockWorkload):
    name = "ship_bulk"
    kinds = KINDS[name]

    def __init__(self, seed: int, smoke: bool) -> None:
        self.companies = 100 if smoke else 4000
        self.network = NetworkConfig.paper_asymmetric()
        super().__init__(seed, smoke)
        self.expected1 = self.data.figure1_expected(self.data.default_threshold)

    def config(self) -> Dict[str, Any]:
        return {
            "companies": self.companies,
            "estimations": len(self.data.estimation_rows),
            "quote_points": 30,
            "ops_per_round": len(self.kinds),
        }

    def round_ops(self) -> List[Op]:
        sql1 = stockgen.figure1_sql(self.data.default_threshold)
        return [
            self._query("f1_naive_b1", sql1, self.expected1, config=StrategyConfig.naive()),
            self._query("f1_semijoin_b1", sql1, self.expected1, config=StrategyConfig.semi_join()),
            self._query(
                "f1_csj_b1", sql1, self.expected1, config=StrategyConfig.client_site_join()
            ),
            self._query(
                "f1_semijoin_b16",
                sql1,
                self.expected1,
                config=StrategyConfig.semi_join(batch_size=16),
            ),
            self._query("f1_opt_adaptive", sql1, self.expected1, optimize=True, adaptive=True),
            self._query("f11_opt", stockgen.FIGURE11_SQL, self.expected11, optimize=True),
            self._query(
                "f13_opt_adaptive",
                stockgen.FIGURE13_SQL,
                self.expected13,
                optimize=True,
                adaptive=True,
            ),
            self._query(
                "f13_reopt_adaptive",
                stockgen.FIGURE13_SQL,
                self.expected13,
                reoptimize=True,
                adaptive=True,
            ),
        ]


class PlanSmall(_StockWorkload):
    name = "plan_small"
    kinds = KINDS[name]
    companies = 60

    def __init__(self, seed: int, smoke: bool) -> None:
        self.ops_per_round = 18 if smoke else 300
        self.network = NetworkConfig.paper_symmetric()
        super().__init__(seed, smoke)
        ranks = len(self.data.gap_scores)
        #: The four thresholds that repeat within and across rounds: the
        #: 20/40/60/80 % points of the gap-up scores.
        self.repeated = [
            self.data.threshold_below_rank(ranks * share // 100) for share in (20, 40, 60, 80)
        ]
        self._round = 0
        self._ranks: List[int] = []

    def config(self) -> Dict[str, Any]:
        return {
            "companies": self.companies,
            "estimations": len(self.data.estimation_rows),
            "ops_per_round": self.ops_per_round,
            "repeated_thresholds": 4,
        }

    def _threshold(self, rng: random.Random, figure1_index: int) -> float:
        # Two repeated, two fresh, ...: independent of the static/adaptive alternation.
        if (figure1_index // 2) % 2 == 0:
            return rng.choice(self.repeated)
        # Every rank in turn (shuffled), at a random place inside it: a literal
        # no earlier operation of this run has used, and the same mix of
        # selectivities in every round.
        if not self._ranks:
            self._ranks = list(range(1, len(self.data.gap_scores)))
            rng.shuffle(self._ranks)
        return self.data.threshold_below_rank(self._ranks.pop(), rng.uniform(0.05, 0.95))

    def round_ops(self) -> List[Op]:
        rng = random.Random(self.seed * 1009 + self._round)
        self._round += 1
        ops: List[Op] = []
        for index in range(self.ops_per_round):
            figure = index % 3
            adaptive = (index // 3) % 2 == 1
            suffix = "_opt_adaptive" if adaptive else "_opt"
            if figure == 0:
                threshold = self._threshold(rng, index // 3)
                sql, expected, name = (
                    stockgen.figure1_sql(threshold),
                    self.data.figure1_expected(threshold),
                    "f1",
                )
            elif figure == 1:
                sql, expected, name = stockgen.FIGURE11_SQL, self.expected11, "f11"
            else:
                sql, expected, name = stockgen.FIGURE13_SQL, self.expected13, "f13"
            ops.append(self._query(name + suffix, sql, expected, optimize=True, adaptive=adaptive))
        return ops
