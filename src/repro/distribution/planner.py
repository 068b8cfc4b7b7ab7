"""Distributed planning: per-shard plans, replica pricing, site selection.

The :class:`ClusterPlanner` grows single-site optimization by one decision
dimension — *which replica runs each shard*:

1. every (shard, candidate replica) pair is priced by running the ordinary
   System-R optimizer over the shard *fragment* (bound per-shard, so the
   fragment's exact statistics drive the estimate) against that site's
   network, **calibrated per site** from the statistics store's observed
   per-site bandwidths (:meth:`StatisticsStore.calibrated_network`, ``site=``);
2. the :class:`~repro.core.optimizer.enumerator.SiteSelectionEnumerator`
   assigns shards to replicas minimising the fan-out makespan (shard fan-out
   is priced as the max over sites of the overlapped per-site cost — see
   :func:`~repro.core.optimizer.cost.scatter_gather_cost`);
3. the resulting :class:`ClusterPlan` carries one :class:`ShardTask` per
   shard — fragment, assigned site, candidate replicas with their costs, and
   (under ``optimize=True``) the per-site optimizer decision the executor
   realises.

Mid-query, the distribution engine revisits step 2 per shard: when the
observed per-segment time on the committed replica exceeds a candidate
replica's estimate by the :class:`MigrationPolicy`'s hysteresis, the
remaining shard work migrates off the slow/contended replica.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Tuple

from repro.errors import PlanError
from repro.adaptive.store import StatisticsOverlay, StatisticsStore
from repro.client.registry import UdfRegistry
from repro.core.optimizer import (
    OptimizationDecision,
    Optimizer,
    SiteSelectionEnumerator,
    scatter_gather_cost,
)
from repro.core.strategies import StrategyConfig
from repro.relational.catalog import Catalog
from repro.relational.table import Table
from repro.distribution.cluster import ClusterConfig
from repro.distribution.sharding import ShardedTable
from repro.sql.binder import Binder
from repro.sql.logical import BoundQuery


@dataclass(frozen=True)
class MigrationPolicy:
    """When mid-query shard migration is worth the switch.

    A shard migrates off its committed replica only when the best candidate
    replica's estimated remaining time (plus ``switch_penalty_seconds``)
    beats the observed-rate projection on the current replica by more than
    the ``hysteresis`` fraction — the same damping idea the strategy
    switcher uses, so transient jitter does not bounce shards between
    replicas.
    """

    hysteresis: float = 0.25
    switch_penalty_seconds: float = 0.0

    def should_migrate(
        self, current_estimate: float, candidate_estimate: float
    ) -> bool:
        adjusted = candidate_estimate + self.switch_penalty_seconds
        return adjusted * (1.0 + self.hysteresis) < current_estimate


def site_calibrated(store: StatisticsStore, site: str) -> StatisticsOverlay:
    """``store`` with its network calibration fixed to ``site``'s own
    observations: the single-site :class:`Optimizer` asks for the global ones."""
    return StatisticsOverlay(store, calibrated_network=partial(store.calibrated_network, site=site))


@dataclass
class ShardTask:
    """One shard's unit of distributed work."""

    shard_index: int
    site: str
    fragment: Optional[Table]
    bound: BoundQuery
    replicas: List[str] = field(default_factory=list)
    candidate_costs: Dict[str, float] = field(default_factory=dict)
    #: The plan the task runs, whole: the site's System-R decision under
    #: ``optimize``, else the caller's config pinned as a decision.
    decision: Optional[OptimizationDecision] = None
    estimated_cost: float = 0.0

    @property
    def label(self) -> str:
        return f"shard{self.shard_index}"

    def describe(self) -> str:
        others = {
            site: round(cost, 4)
            for site, cost in sorted(self.candidate_costs.items())
        }
        return (
            f"{self.label} -> {self.site} "
            f"(est {self.estimated_cost:.3f}s, candidates {others})"
        )


@dataclass
class ClusterPlan:
    """The distributed plan: shard tasks plus the fan-out estimate."""

    tasks: List[ShardTask]
    makespan_estimate: float
    site_loads: Dict[str, float]
    sharded_table: Optional[str] = None

    def describe(self) -> str:
        target = self.sharded_table if self.sharded_table else "(unsharded)"
        lines = [
            f"cluster plan over {target}: {len(self.tasks)} tasks, "
            f"estimated makespan {self.makespan_estimate:.3f}s"
        ]
        for task in self.tasks:
            lines.append("  " + task.describe())
        return "\n".join(lines)


class ClusterPlanner:
    """Builds a :class:`ClusterPlan` for one bound query over the cluster."""

    def __init__(
        self,
        cluster: ClusterConfig,
        unsharded: Catalog,
        sharded: Dict[str, ShardedTable],
        udfs: UdfRegistry,
        statistics: Optional[StatisticsStore] = None,
        default_config: Optional[StrategyConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.unsharded = unsharded
        self.sharded = {name.lower(): table for name, table in sharded.items()}
        self.udfs = udfs
        self.statistics = statistics
        self.default_config = (
            default_config if default_config is not None else StrategyConfig()
        )

    # -- planning ---------------------------------------------------------------------

    def plan(
        self,
        query: BoundQuery,
        config: Optional[StrategyConfig] = None,
        optimize: bool = False,
        calibrated: bool = True,
    ) -> ClusterPlan:
        config = config if config is not None else self.default_config
        sharded_aliases = [
            bound.table.name
            for bound in query.tables
            if bound.table.name.lower() in self.sharded
        ]
        if len(set(alias.lower() for alias in sharded_aliases)) > 1:
            raise PlanError(
                f"scatter-gather supports at most one sharded table per query, "
                f"got {sorted(set(sharded_aliases))}"
            )
        if not sharded_aliases:
            return self._plan_unsharded(query, config, optimize, calibrated)
        return self._plan_sharded(
            query, sharded_aliases[0], config, optimize, calibrated
        )

    def _plan_sharded(
        self,
        query: BoundQuery,
        table_name: str,
        config: StrategyConfig,
        optimize: bool,
        calibrated: bool,
    ) -> ClusterPlan:
        sharded = self.sharded[table_name.lower()]
        placement = self.cluster.placement(sharded.spec)

        costs: Dict[Tuple[str, str], float] = {}
        decisions: Dict[Tuple[int, str], OptimizationDecision] = {}
        bounds: Dict[int, BoundQuery] = {}
        for index, fragment in enumerate(sharded.fragments):
            bound = self.bind_for_fragment(query.sql, fragment)
            bounds[index] = bound
            for site_name in placement[index]:
                decision = self._price(bound, site_name, config, calibrated)
                costs[(f"shard{index}", site_name)] = decision.estimated_cost
                decisions[(index, site_name)] = decision

        assignment = SiteSelectionEnumerator(costs).select()
        tasks: List[ShardTask] = []
        for index in range(sharded.spec.shards):
            shard_key = f"shard{index}"
            site_name = assignment.site_for(shard_key)
            tasks.append(
                ShardTask(
                    shard_index=index,
                    site=site_name,
                    fragment=sharded.fragments[index],
                    bound=bounds[index],
                    replicas=list(placement[index]),
                    candidate_costs={
                        site: costs[(shard_key, site)] for site in placement[index]
                    },
                    decision=(
                        decisions[(index, site_name)]
                        if optimize
                        else OptimizationDecision.pinned(config)
                    ),
                    estimated_cost=costs[(shard_key, site_name)],
                )
            )
        merge_rows = float(sum(len(task.fragment) for task in tasks if task.fragment))
        makespan = scatter_gather_cost(
            list(assignment.site_loads.values()), merge_rows=merge_rows
        )
        return ClusterPlan(
            tasks=tasks,
            makespan_estimate=makespan,
            site_loads=assignment.site_loads,
            sharded_table=sharded.spec.table,
        )

    def _plan_unsharded(
        self,
        query: BoundQuery,
        config: StrategyConfig,
        optimize: bool,
        calibrated: bool,
    ) -> ClusterPlan:
        """No sharded table in the query: run it whole on the cheapest site."""
        candidates: Dict[str, float] = {}
        decisions: Dict[str, OptimizationDecision] = {}
        for site in self.cluster.sites:
            decision = self._price(query, site.name, config, calibrated)
            candidates[site.name] = decision.estimated_cost
            decisions[site.name] = decision
        best = min(sorted(candidates), key=lambda name: candidates[name])
        task = ShardTask(
            shard_index=0,
            site=best,
            fragment=None,
            bound=query,
            replicas=sorted(candidates),
            candidate_costs=candidates,
            decision=decisions[best] if optimize else OptimizationDecision.pinned(config),
            estimated_cost=candidates[best],
        )
        return ClusterPlan(
            tasks=[task],
            makespan_estimate=candidates[best],
            site_loads={best: candidates[best]},
            sharded_table=None,
        )

    # -- helpers ----------------------------------------------------------------------

    def bind_for_fragment(self, sql: str, fragment: Table) -> BoundQuery:
        """Bind the original SQL against a catalog where the sharded table is
        replaced by one fragment (unsharded tables are fully replicated)."""
        catalog = Catalog()
        catalog.register(fragment)
        for table in self.unsharded:
            if not catalog.has_table(table.name):
                catalog.register(table)
        return Binder(catalog, self.udfs).bind_sql(sql)

    def _price(
        self,
        bound: BoundQuery,
        site_name: str,
        config: StrategyConfig,
        calibrated: bool,
    ) -> OptimizationDecision:
        site = self.cluster.site(site_name)
        statistics = None
        if (
            calibrated
            and self.statistics is not None
            and self.statistics.queries_observed
        ):
            statistics = site_calibrated(self.statistics, site_name)
        optimizer = Optimizer(
            site.network, default_config=config, statistics=statistics
        )
        return optimizer.optimize(bound)

    def site_estimate_seconds(
        self,
        site_name: str,
        downlink_bytes: float,
        uplink_bytes: float,
        messages: float = 0.0,
    ) -> float:
        """Projected transfer seconds for a byte profile on ``site_name``.

        Used by mid-query migration: the observed per-segment byte profile on
        the committed replica is re-priced on each candidate replica from its
        per-site calibrated (or configured) bandwidths.
        """
        site = self.cluster.site(site_name)
        network = site.network
        if self.statistics is not None:
            network = self.statistics.calibrated_network(network, site_name)
        down = downlink_bytes / network.downlink_bandwidth
        up = uplink_bytes / network.uplink_bandwidth
        return max(down, up) + messages * network.latency
