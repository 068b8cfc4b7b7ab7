"""Synthetic relations and UDFs with controllable sizes and selectivities.

The paper's Section 4 experiments use relations of fixed-size opaque data
objects and UDFs with declared result sizes; selectivity is controlled
exactly.  The helpers here build those ingredients deterministically:

* data objects carry a ``seed`` (0, 1, 2, ...) so equal arguments compare
  equal, duplicates can be generated exactly, and "the first ``S`` fraction
  of seeds passes" gives an exact selectivity;
* UDFs derive their result's seed from the argument's seed, so duplicate
  arguments produce duplicate results (a property the semi-join relies on).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.client.registry import UdfRegistry
from repro.client.udf import UdfSite
from repro.relational.schema import Column, Schema
from repro.relational.table import Table
from repro.relational.types import DATA_OBJECT, INTEGER, DataObject


def make_object_relation(
    name: str,
    row_count: int,
    object_size: int,
    column_name: str = "DataObject",
    distinct_fraction: float = 1.0,
) -> Table:
    """A relation of one DATA_OBJECT column (the Figure 6 ``Relation``).

    ``distinct_fraction`` < 1 repeats seeds so that only that fraction of the
    rows carry distinct argument values (the paper's ``D``).
    """
    schema = Schema([Column(column_name, DATA_OBJECT)])
    distinct = max(1, int(round(row_count * distinct_fraction)))
    rows = [(DataObject(object_size, seed=index % distinct),) for index in range(row_count)]
    return Table(name, schema, rows=rows)


def interleaving_stride(row_count: int) -> int:
    """A stride coprime to ``row_count`` near the golden ratio point.

    Walking seeds as ``(index * stride) % row_count`` yields a low-discrepancy
    permutation: every prefix of the relation carries approximately the same
    fraction of predicate-passing seeds as the whole — the property mid-query
    selectivity observation needs to see the true selectivity early.
    """
    if row_count <= 2:
        return 1
    stride = max(1, int(round(row_count * 0.618)))
    while math.gcd(stride, row_count) != 1:
        stride += 1
    return stride


def make_udf_relation(
    name: str,
    row_count: int,
    argument_size: int,
    non_argument_size: int,
    distinct_fraction: float = 1.0,
    interleaved: bool = False,
) -> Table:
    """The two-column relation of the Figure 7 query.

    ``Argument`` holds the UDF argument objects (size ``A * I``);
    ``NonArgument`` holds the remaining payload (size ``(1 - A) * I``).  The
    non-argument column always has a distinct seed so that argument
    duplicates are *not* tuple duplicates, matching the paper's distinction.

    With ``interleaved=True`` the argument seeds are laid out in a
    low-discrepancy (stride) order instead of ascending, so predicate-passing
    rows are spread uniformly through the relation rather than clustered at
    the front.  The overall seed *multiset* — and therefore every selectivity
    and duplicate property — is unchanged; only the row order differs.
    """
    schema = Schema([Column("Argument", DATA_OBJECT), Column("NonArgument", DATA_OBJECT)])
    distinct = max(1, int(round(row_count * distinct_fraction)))
    stride = interleaving_stride(row_count) if interleaved else 1
    rows = [
        (
            DataObject(argument_size, seed=(index * stride) % row_count % distinct),
            DataObject(non_argument_size, seed=index),
        )
        for index in range(row_count)
    ]
    return Table(name, schema, rows=rows)


def register_identity_udf(
    registry: UdfRegistry,
    name: str = "EchoObject",
    result_size: int = 1000,
    cost_per_call_seconds: float = 0.001,
    replace: bool = False,
):
    """A UDF that returns a data object of ``result_size`` derived from its argument.

    This is the Figure 6 UDF: "a simple function that returned another object
    of the same size" (use ``result_size`` equal to the argument size for the
    exact setup).
    """

    def echo(argument: DataObject) -> DataObject:
        return argument.derive(result_size)

    return registry.register_function(
        name,
        echo,
        site=UdfSite.CLIENT,
        result_dtype=DATA_OBJECT,
        result_size_bytes=result_size,
        cost_per_call_seconds=cost_per_call_seconds,
        description=f"returns a {result_size}-byte object derived from the argument",
        replace=replace,
    )


def register_sized_udf(
    registry: UdfRegistry,
    name: str = "Analyze",
    result_size: int = 1000,
    cost_per_call_seconds: float = 0.001,
    selectivity: float = 0.5,
    replace: bool = False,
):
    """The Figure 7 ``UDF2``: takes an object, returns a result of known size.

    The result's seed equals the argument's seed, so a comparison on the
    result column selects exactly the arguments whose seed falls below a
    threshold — the mechanism the selectivity sweeps use.
    """

    def analyze(argument: DataObject) -> DataObject:
        return DataObject(result_size, seed=argument.seed)

    return registry.register_function(
        name,
        analyze,
        site=UdfSite.CLIENT,
        result_dtype=DATA_OBJECT,
        result_size_bytes=result_size,
        cost_per_call_seconds=cost_per_call_seconds,
        selectivity=selectivity,
        description=f"returns a {result_size}-byte analysis result",
        replace=replace,
    )


@dataclass
class SyntheticWorkload:
    """A bundled synthetic workload: relation + UDF registry + bookkeeping.

    ``selectivity_threshold_seed`` is the seed value below which rows pass the
    pushable predicate; with seeds 0..row_count-1 and distinct_fraction 1 the
    selectivity is exact.

    ``selectivity`` is the *actual* selectivity the data realises.
    ``declared_selectivity``, when set, is what the UDF *declares* to the
    planner instead — the misestimation scenarios set the two apart so a
    plan committed from the declaration is provably wrong at runtime.
    ``interleaved`` spreads passing rows uniformly through the relation (same
    multiset, different order) so any prefix reveals the true selectivity.
    """

    row_count: int = 100
    input_record_bytes: int = 1000
    argument_fraction: float = 0.5
    result_bytes: int = 1000
    selectivity: float = 0.5
    distinct_fraction: float = 1.0
    udf_cost_seconds: float = 0.001
    relation_name: str = "Relation"
    udf_name: str = "Analyze"
    declared_selectivity: Optional[float] = None
    interleaved: bool = False

    def __post_init__(self) -> None:
        self.argument_size = int(round(self.input_record_bytes * self.argument_fraction))
        self.non_argument_size = self.input_record_bytes - self.argument_size

    def build_table(self) -> Table:
        return make_udf_relation(
            self.relation_name,
            row_count=self.row_count,
            argument_size=self.argument_size,
            non_argument_size=self.non_argument_size,
            distinct_fraction=self.distinct_fraction,
            interleaved=self.interleaved,
        )

    def build_registry(self) -> UdfRegistry:
        registry = UdfRegistry()
        register_sized_udf(
            registry,
            name=self.udf_name,
            result_size=self.result_bytes,
            cost_per_call_seconds=self.udf_cost_seconds,
            selectivity=(
                self.declared_selectivity
                if self.declared_selectivity is not None
                else self.selectivity
            ),
        )
        return registry

    @property
    def selectivity_threshold_seed(self) -> int:
        distinct = max(1, int(round(self.row_count * self.distinct_fraction)))
        return int(round(self.selectivity * distinct))

    @property
    def result_column_name(self) -> str:
        return f"{self.udf_name}_result"
