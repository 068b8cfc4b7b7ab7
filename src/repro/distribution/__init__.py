"""Scatter-gather distribution: sharded/replicated server sites.

The paper's client-site UDF machinery assumes one server behind one link.
This package scales it out horizontally: a :class:`ClusterConfig` of N
server sites holds the shards and replicas declared by
:class:`ShardingSpec`s, the :class:`ClusterPlanner` prices every (shard,
replica) pair with the single-site System-R optimizer against per-site
calibrated bandwidth and picks the makespan-minimising assignment, and the
:class:`DistributedDatabase` fans the shard tasks out over the existing
overlapped wire protocol — one baton-driven worker per task on one shared
simulator — then merges the result streams through a
:class:`~repro.core.execution.scatter.ScatterGatherOperator`.
"""

from repro.distribution.sharding import (
    ShardedTable,
    ShardingSpec,
    hash_shard_of,
    shard_table,
)
from repro.distribution.cluster import ClusterConfig, SiteConfig
from repro.distribution.planner import (
    ClusterPlan,
    ClusterPlanner,
    MigrationPolicy,
    ShardTask,
)
from repro.distribution.engine import DistributedDatabase

__all__ = [
    "ShardingSpec",
    "ShardedTable",
    "shard_table",
    "hash_shard_of",
    "SiteConfig",
    "ClusterConfig",
    "ClusterPlanner",
    "ClusterPlan",
    "ShardTask",
    "MigrationPolicy",
    "DistributedDatabase",
]
