"""Batch-at-a-time (vectorized) physical operators.

Each operator exposes a :class:`~repro.relational.operators.base.Operator`
interface: an output :class:`~repro.relational.schema.Schema` plus an
``execute_batches()`` generator yielding
:class:`~repro.relational.tuples.RowBatch` es (with ``execute()`` a view
yielding each row as a plain tuple, for row-at-a-time consumers).
Operators compose into trees; the root's ``execute_batches()`` drives the
whole pipeline lazily, one batch at a time.  Scans, filters, projections and
hash joins are batch-native; the remaining operators are row-oriented and
chunked by the base class.
"""

from repro.relational.operators.base import Operator, CollectingOperator
from repro.relational.operators.scan import TableScan
from repro.relational.operators.filter import Filter
from repro.relational.operators.project import Project, ProjectExpressions
from repro.relational.operators.sort import Sort
from repro.relational.operators.distinct import Distinct
from repro.relational.operators.nested_loop_join import NestedLoopJoin
from repro.relational.operators.hash_join import HashJoin
from repro.relational.operators.limit import Limit

__all__ = [
    "Operator",
    "CollectingOperator",
    "TableScan",
    "Filter",
    "Project",
    "ProjectExpressions",
    "Sort",
    "Distinct",
    "NestedLoopJoin",
    "HashJoin",
    "Limit",
]
