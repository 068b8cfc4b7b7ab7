"""Horizontal sharding: split one logical table into disjoint fragments.

A :class:`ShardingSpec` declares how a table is partitioned — by a hash of
one column — and how many replicas each shard keeps.  :func:`shard_table`
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
from dataclasses import dataclass, field
from typing import Any, List, Tuple

from repro.errors import PlanError
from repro.relational.table import Table


@dataclass(frozen=True)
class ShardingSpec:
    """How one logical table is split over shards.

    Rows go to shard ``hash_shard_of(value of column, shards)``.
    ``replication_factor`` is how many sites keep a copy of each shard
    (placement itself is the cluster's decision, not the spec's).
    """

    table: str
    column: str
    shards: int
    replication_factor: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("a sharding spec needs at least one shard")
        if self.replication_factor < 1:
            raise ValueError("replication factor must be at least 1")

    def describe(self) -> str:
        return (
            f"{self.table}: {self.shards} shards (hash on {self.column}), "
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


@dataclass
class ShardedTable:
    """The materialised fragments of one sharded logical table."""

    spec: ShardingSpec
    fragments: List[Table] = field(default_factory=list)

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
    buckets: List[List[Tuple[Any, ...]]] = [[] for _ in range(spec.shards)]
    for row in table.rows:
        buckets[hash_shard_of(row[position], spec.shards)].append(row)
    fragments = [Table(table.name, table.schema, rows=bucket) for bucket in buckets]
    return ShardedTable(spec=spec, fragments=fragments)
