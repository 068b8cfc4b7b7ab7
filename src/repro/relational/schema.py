"""Schemas: ordered collections of typed, optionally table-qualified columns.

A :class:`Schema` is immutable.  Operators derive new schemas (projection,
concatenation for joins, appending UDF result columns) rather than mutating
existing ones, which keeps plan construction and property propagation simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SchemaError
from repro.relational.types import DataType


def bare_name(name: str) -> str:
    """``name`` without its table (or alias) qualifier."""
    return name.partition(".")[2] if "." in name else name


def column_key(name: str) -> str:
    """A column as indexes, access paths and observed statistics know it: the
    bare name, case-folded — whichever table or alias the query read it through."""
    return bare_name(name).lower()


class NeededColumns:
    """The columns something downstream still reads, and the one keep-rule.

    Planner, segmented executor and estimator all prune a row to what is
    still needed above it (the paper's pushable projection), and all by this
    rule: a column is kept when it is needed under its own name, or when its
    bare name is the bare name of a needed column — whatever the qualifiers
    (needing ``A.K`` keeps ``B.K``: the qualifier-blind rule ROADMAP item 4
    still has to replace; ``docs/design.md``, "Names").
    """

    __slots__ = ("_names", "_bare")

    def __init__(self, names: Iterable[str] = ()) -> None:
        self._names: Set[str] = set()
        self._bare: Set[str] = set()
        self.update(names)

    def update(self, names: Iterable[str]) -> None:
        for name in names:
            self._names.add(name)
            self._bare.add(bare_name(name))

    def copy(self) -> "NeededColumns":
        twin = NeededColumns()
        twin._names, twin._bare = set(self._names), set(self._bare)
        return twin

    def keep(self, columns: Iterable[str]) -> List[str]:
        """Those of ``columns`` still needed, in their own order."""
        # ``bare_name``, inline: the estimator filters every candidate's
        # columns, and a decision's ``bare_name`` calls are budgeted per column.
        names, bare = self._names, self._bare
        return [
            column
            for column in columns
            if column in names or (column.partition(".")[2] or column) in bare
        ]


@dataclass(frozen=True)
class Column:
    """A named, typed column, optionally qualified by a table (or alias) name."""

    name: str
    dtype: DataType
    table: Optional[str] = None

    @property
    def qualified_name(self) -> str:
        """``table.name`` when qualified, else just ``name``."""
        if self.table:
            return f"{self.table}.{self.name}"
        return self.name

    def with_table(self, table: Optional[str]) -> "Column":
        """Return a copy of this column qualified by ``table``."""
        return Column(self.name, self.dtype, table)

    def __str__(self) -> str:
        return f"{self.qualified_name}:{self.dtype.name}"


class Schema:
    """An immutable, ordered sequence of :class:`Column` objects."""

    __slots__ = ("columns", "_index", "_size_plan")

    def __init__(self, columns: Iterable[Column]) -> None:
        self.columns: Tuple[Column, ...] = tuple(columns)
        index: Dict[str, List[int]] = {}
        for position, column in enumerate(self.columns):
            index.setdefault(column.name, []).append(position)
            if column.table:
                index.setdefault(column.qualified_name, []).append(position)
        self._index = index
        self._size_plan: Optional[
            Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]
        ] = None

    def size_plan(self) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[int, ...]]:
        """``(fixed, variable)`` wire-sizing plan, computed once per schema.

        ``fixed`` holds ``(position, width)`` pairs for columns whose non-NULL
        values all serialize to ``width`` bytes; ``variable`` the positions
        whose values must be sized individually.  Batch size accounting
        charges fixed columns arithmetically and only walks variable ones.
        """
        plan = self._size_plan
        if plan is None:
            fixed = tuple(
                (position, column.dtype.fixed_size)
                for position, column in enumerate(self.columns)
                if column.dtype.fixed_size is not None
            )
            variable = tuple(
                position
                for position, column in enumerate(self.columns)
                if column.dtype.fixed_size is None
            )
            plan = (fixed, variable)
            self._size_plan = plan
        return plan

    # -- construction helpers ------------------------------------------------

    @classmethod
    def of(cls, *pairs: Tuple[str, DataType], table: Optional[str] = None) -> "Schema":
        """Build a schema from ``(name, dtype)`` pairs, all in one table."""
        return cls(Column(name, dtype, table) for name, dtype in pairs)

    def qualify(self, table: str) -> "Schema":
        """Return this schema with every column qualified by ``table``."""
        return Schema(column.with_table(table) for column in self.columns)

    def concat(self, other: "Schema") -> "Schema":
        """Schema of a join: this schema's columns followed by ``other``'s."""
        return Schema(self.columns + other.columns)

    def append(self, column: Column) -> "Schema":
        """Return a schema with ``column`` added at the end (e.g. a UDF result)."""
        return Schema(self.columns + (column,))

    def project(self, names: Sequence[str]) -> "Schema":
        """Schema containing only the named columns, in the given order."""
        return Schema(self.columns[self.index_of(name)] for name in names)

    def select_positions(self, positions: Sequence[int]) -> "Schema":
        """Schema containing the columns at ``positions``, in that order."""
        return Schema(self.columns[position] for position in positions)

    # -- lookups ---------------------------------------------------------------

    def index_of(self, name: str) -> int:
        """Position of the column referred to by ``name``.

        Raises :class:`SchemaError` if the name is unknown or ambiguous.
        """
        positions = self._index.get(name)
        if positions is None and "." in name:
            # A qualified name whose table prefix is unknown to this schema:
            # fall back to the bare column name.
            positions = self._index.get(name.partition(".")[2])
        if not positions:
            raise SchemaError(f"unknown column {name!r} in schema {self}")
        if len(positions) > 1:
            raise SchemaError(f"ambiguous column {name!r} in schema {self}")
        return positions[0]

    def column(self, name: str) -> Column:
        return self.columns[self.index_of(name)]

    def has_column(self, name: str) -> bool:
        try:
            self.index_of(name)
        except SchemaError:
            return False
        return True

    def names(self) -> List[str]:
        return [column.name for column in self.columns]

    def qualified_names(self) -> List[str]:
        return [column.qualified_name for column in self.columns]

    # -- protocol --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __getitem__(self, position: int) -> Column:
        return self.columns[position]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def __repr__(self) -> str:
        return "Schema(" + ", ".join(str(column) for column in self.columns) + ")"
