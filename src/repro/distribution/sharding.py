"""Horizontal sharding: split one logical table into disjoint fragments.

A :class:`ShardingSpec` declares how a table is partitioned — hash or range
on one column — and how many replicas each shard keeps.  :func:`shard_table`
materialises the fragments; each fragment is a :class:`Table` *named like
the original*, so a per-shard catalog binds the original SQL unchanged and
plans build against the fragment's exact statistics.

Hashing is deterministic across processes (CRC32 of the value's ``repr``,
plain modulo for integers) — Python's builtin ``hash`` is salted per process
and would scatter rows differently on every run, breaking both replica
agreement and test reproducibility.
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import PlanError
from repro.relational.table import Table


@dataclass(frozen=True)
class ShardingSpec:
    """How one logical table is split over shards.

    ``method`` is ``"hash"`` (CRC32/modulo on ``column``) or ``"range"``
    (``boundaries`` are the ascending split points; shard *i* takes values in
    ``[boundaries[i-1], boundaries[i])``).  With ``boundaries`` omitted under
    range sharding, :func:`shard_table` derives them from the data's
    quantiles.  ``replication_factor`` is how many sites keep a copy of each
    shard (placement itself is the cluster's decision, not the spec's).
    """

    table: str
    column: str
    shards: int
    method: str = "hash"
    replication_factor: int = 1
    boundaries: Optional[Tuple[Any, ...]] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a sharding spec needs at least one shard")
        if self.replication_factor < 1:
            raise ValueError("replication factor must be at least 1")
        if self.method not in ("hash", "range"):
            raise ValueError(
                f"unknown sharding method {self.method!r} (want 'hash' or 'range')"
            )
        if self.boundaries is not None:
            if self.method != "range":
                raise ValueError("boundaries are only meaningful for range sharding")
            ordered = list(self.boundaries)
            if ordered != sorted(ordered):
                raise ValueError("range boundaries must be ascending")
            if len(ordered) != self.shards - 1:
                raise ValueError(
                    f"{self.shards} shards need {self.shards - 1} boundaries, "
                    f"got {len(ordered)}"
                )

    def describe(self) -> str:
        detail = f"{self.method} on {self.column}"
        if self.method == "range" and self.boundaries is not None:
            detail += f" at {list(self.boundaries)}"
        return (
            f"{self.table}: {self.shards} shards ({detail}), "
            f"replication x{self.replication_factor}"
        )


def hash_shard_of(value: Any, shards: int) -> int:
    """The shard an individual value hashes to — deterministic across runs."""
    if shards == 1:
        return 0
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return value % shards
    return zlib.crc32(repr(value).encode("utf-8")) % shards


def range_boundaries_from_data(values: Sequence[Any], shards: int) -> Tuple[Any, ...]:
    """Even quantile split points over the observed values."""
    ordered = sorted(values)
    if not ordered:
        return tuple()
    boundaries: List[Any] = []
    for index in range(1, shards):
        position = (index * len(ordered)) // shards
        boundaries.append(ordered[min(position, len(ordered) - 1)])
    return tuple(boundaries)


def range_shard_of(value: Any, boundaries: Sequence[Any]) -> int:
    """The shard of a value under the given ascending boundaries."""
    return bisect_right(boundaries, value)


@dataclass
class ShardedTable:
    """The materialised fragments of one sharded logical table."""

    spec: ShardingSpec
    fragments: List[Table] = field(default_factory=list)
    boundaries: Tuple[Any, ...] = ()

    @property
    def shard_count(self) -> int:
        return len(self.fragments)

    def total_rows(self) -> int:
        return sum(len(fragment) for fragment in self.fragments)

    def describe(self) -> str:
        sizes = ", ".join(str(len(fragment)) for fragment in self.fragments)
        return f"{self.spec.describe()} | rows per shard: [{sizes}]"


def shard_table(table: Table, spec: ShardingSpec) -> ShardedTable:
    """Split ``table`` into disjoint fragments according to ``spec``.

    Every fragment keeps the original table name and schema, so per-shard
    catalogs bind the original SQL without rewriting; the union of all
    fragments is exactly the original row multiset.
    """
    try:
        position = table.schema.index_of(spec.column)
    except Exception:
        names = table.schema.names()
        raise PlanError(
            f"sharding column {spec.column!r} is not in table {table.name!r} "
            f"(columns: {names})"
        )
    boundaries: Tuple[Any, ...] = ()
    if spec.method == "range":
        boundaries = (
            spec.boundaries
            if spec.boundaries is not None
            else range_boundaries_from_data(
                [row[position] for row in table.rows], spec.shards
            )
        )
    buckets: List[List[Tuple[Any, ...]]] = [[] for _ in range(spec.shards)]
    for row in table.rows:
        value = row[position]
        if spec.method == "hash":
            shard = hash_shard_of(value, spec.shards)
        else:
            shard = range_shard_of(value, boundaries)
        buckets[shard].append(row)
    fragments = [Table(table.name, table.schema, rows=bucket) for bucket in buckets]
    return ShardedTable(spec=spec, fragments=fragments, boundaries=boundaries)
