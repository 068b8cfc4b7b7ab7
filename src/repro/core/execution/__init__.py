"""Execution operators for client-site UDFs.

The three strategies of Section 2/3 are implemented as relational operators
that drive the network simulator:

* :class:`~repro.core.execution.naive.NaiveUdfOperator` — one synchronous
  round trip per tuple;
* :class:`~repro.core.execution.semijoin.SemiJoinUdfOperator` — sender /
  bounded pipeline buffer / receiver, duplicate elimination, merge of result
  stream onto buffered records;
* :class:`~repro.core.execution.clientjoin.ClientSiteJoinOperator` — whole
  records shipped to the client, pushable predicates and projections applied
  there.

A fourth, segmented executor —
:class:`~repro.core.execution.adaptive.PlanMigrationOperator` — owns one or
more client-site UDF applications, runs the input in segments, and may hand
the unprocessed tail to a different plan *shape* at segment boundaries: a
different shipping strategy when it owns one UDF (strategy switching), a
different UDF application order too when it owns the whole chain.

All of them share :class:`~repro.core.execution.context.RemoteExecutionContext`,
which bundles the simulator, the channel, and the client runtime.
"""

from repro.core.execution.context import RemoteExecutionContext
from repro.core.execution.base import RemoteUdfOperator
from repro.core.execution.naive import NaiveUdfOperator
from repro.core.execution.semijoin import SemiJoinSegmentState, SemiJoinUdfOperator
from repro.core.execution.clientjoin import ClientSiteJoinOperator
from repro.core.execution.adaptive import (
    MigrationPredicate,
    MigrationStage,
    PlanMigrationOperator,
)
from repro.core.execution.rewrite import replace_udf_calls_with_columns, build_operator
from repro.core.execution.scatter import ScatterGatherOperator, ShardResult
from repro.core.execution.access import IndexNestedLoopJoinOperator, IndexScanOperator

__all__ = [
    "IndexNestedLoopJoinOperator",
    "IndexScanOperator",
    "RemoteExecutionContext",
    "RemoteUdfOperator",
    "NaiveUdfOperator",
    "SemiJoinSegmentState",
    "SemiJoinUdfOperator",
    "ClientSiteJoinOperator",
    "MigrationPredicate",
    "MigrationStage",
    "PlanMigrationOperator",
    "replace_udf_calls_with_columns",
    "build_operator",
    "ScatterGatherOperator",
    "ShardResult",
]
