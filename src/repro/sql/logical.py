"""The bound (logical) form of a query.

A :class:`BoundQuery` is what planners and the optimizer consume: tables are
resolved against the catalog, expressions are bound relational expression
trees, predicates are split into conjuncts, and every client-site UDF call
appearing anywhere in the query is catalogued with its argument columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.client.udf import UdfDefinition
from repro.relational.expressions import Expression, FunctionCall
from repro.relational.predicates import PredicateInfo
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.types import DataType


@dataclass
class BoundTable:
    """A FROM-list entry resolved against the catalog."""

    table: Table
    alias: str
    schema: Schema  # the table's schema re-qualified by the alias

    @property
    def row_count(self) -> int:
        return len(self.table)

    def __str__(self) -> str:
        if self.alias.lower() == self.table.name.lower():
            return self.table.name
        return f"{self.table.name} AS {self.alias}"


@dataclass
class OutputColumn:
    """One output column of the query."""

    name: str
    expression: Expression
    dtype: DataType

    def __str__(self) -> str:
        return f"{self.expression} AS {self.name}"


@dataclass
class ClientUdfCall:
    """A distinct client-site UDF invocation appearing in the query.

    ``call`` is the bound expression node; ``argument_columns`` are the
    qualified column names its arguments reference (the paper's "argument
    columns"); ``used_in_predicate`` / ``used_in_output`` record where its
    value is needed, which drives pushability analysis.
    """

    udf: UdfDefinition
    call: FunctionCall
    argument_columns: Tuple[str, ...]
    used_in_predicate: bool = False
    used_in_output: bool = False

    @property
    def name(self) -> str:
        return self.udf.name

    @property
    def result_column_name(self) -> str:
        return self.udf.result_column_name

    def __str__(self) -> str:
        return str(self.call)


@dataclass
class BoundQuery:
    """A fully bound SELECT query."""

    sql: str
    tables: List[BoundTable]
    outputs: List[OutputColumn]
    predicates: List[PredicateInfo]
    client_udf_calls: List[ClientUdfCall]
    combined_schema: Schema
    distinct: bool = False
    #: ``(position in outputs, descending)`` per ORDER BY key, in key order.
    order_by: List[Tuple[int, bool]] = field(default_factory=list)
    limit: Optional[int] = None
    offset: int = 0

    # -- convenience views -------------------------------------------------------------

    @property
    def client_udf_names(self) -> Set[str]:
        return {call.udf.name for call in self.client_udf_calls}

    def join_predicates(self) -> List[PredicateInfo]:
        """Conjuncts referencing columns of more than one table and no UDF."""
        result = []
        for predicate in self.predicates:
            if predicate.references_udf:
                continue
            tables = self._tables_of(predicate.columns)
            if len(tables) > 1:
                result.append(predicate)
        return result

    def single_table_predicates(self, alias: str) -> List[PredicateInfo]:
        """UDF-free conjuncts referencing only the given table."""
        result = []
        for predicate in self.predicates:
            if predicate.references_udf:
                continue
            tables = self._tables_of(predicate.columns)
            if tables == {alias.lower()}:
                result.append(predicate)
        return result

    def udf_predicates(self) -> List[PredicateInfo]:
        """Conjuncts that mention at least one client-site UDF."""
        names = {name.lower() for name in self.client_udf_names}
        return [
            predicate
            for predicate in self.predicates
            if any(udf.lower() in names for udf in predicate.udf_names)
        ]

    def output_column_names(self) -> List[str]:
        return [output.name for output in self.outputs]

    def _tables_of(self, columns: FrozenSet[str]) -> Set[str]:
        """Lower-cased aliases of the tables the given columns belong to."""
        aliases = {table.alias.lower() for table in self.tables}
        owners: Set[str] = set()
        for name in columns:
            # A qualifier naming a table in the FROM list settles ownership
            # outright; asking each schema would mis-attribute ``R.K`` to
            # ``L`` when both tables carry a column ``K`` (schemas fall back
            # to the bare name for unknown prefixes).
            qualifier = name.partition(".")[0].lower() if "." in name else None
            if qualifier in aliases:
                owners.add(qualifier)
                continue
            for table in self.tables:
                if table.schema.has_column(name):
                    owners.add(table.alias.lower())
                    break
        return owners

    def describe(self) -> str:
        lines = [f"Query: {self.sql.strip()}"]
        lines.append("  tables: " + ", ".join(str(table) for table in self.tables))
        lines.append("  outputs: " + ", ".join(str(output) for output in self.outputs))
        if self.predicates:
            lines.append("  predicates: " + " AND ".join(str(p) for p in self.predicates))
        if self.client_udf_calls:
            lines.append(
                "  client-site UDFs: " + ", ".join(str(call) for call in self.client_udf_calls)
            )
        return "\n".join(lines)
