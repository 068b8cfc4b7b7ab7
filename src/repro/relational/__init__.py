"""In-memory relational engine substrate.

This subpackage provides the relational machinery that the paper's
client-site UDF algorithms are layered on: typed schemas, rows, tables, a
catalog with statistics, scalar expressions, and iterator-model physical
operators.  It deliberately stays small and dependency-free; it is the
stand-in for the Cornell PREDATOR server engine used in the paper.
"""

from repro.relational.types import (
    DataType,
    BOOLEAN,
    INTEGER,
    FLOAT,
    STRING,
    DATA_OBJECT,
    TIME_SERIES,
    DataObject,
    TimeSeries,
)
from repro.relational.schema import Column, Schema
from repro.relational.tuples import row_size
from repro.relational.table import Table
from repro.relational.catalog import Catalog
from repro.relational.statistics import ColumnStatistics, TableStatistics

__all__ = [
    "DataType",
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
    "row_size",
    "Table",
    "Catalog",
    "ColumnStatistics",
    "TableStatistics",
]
