"""Tests for schemas, rows, tables, catalog and statistics."""

import pytest

from repro.errors import CatalogError, SchemaError, TypeMismatchError
from repro.relational.catalog import Catalog
from repro.relational.schema import Column, Schema
from repro.relational.statistics import compute_table_statistics
from repro.relational.table import Table
from repro.relational.tuples import row_size, values_size
from repro.relational.types import DataObject, DATA_OBJECT, FLOAT, INTEGER, STRING


@pytest.fixture
def people_schema():
    return Schema.of(("name", STRING), ("age", INTEGER), table="people")


class TestSchema:
    def test_qualified_lookup(self, people_schema):
        assert people_schema.index_of("people.name") == 0
        assert people_schema.index_of("age") == 1

    def test_unknown_column_raises(self, people_schema):
        with pytest.raises(SchemaError):
            people_schema.index_of("salary")

    def test_ambiguous_column_raises(self):
        schema = Schema(
            [Column("id", INTEGER, "a"), Column("id", INTEGER, "b")]
        )
        with pytest.raises(SchemaError):
            schema.index_of("id")
        # Qualified lookups stay unambiguous.
        assert schema.index_of("a.id") == 0
        assert schema.index_of("b.id") == 1

    def test_concat_and_append(self, people_schema):
        extra = Schema.of(("city", STRING), table="addr")
        combined = people_schema.concat(extra)
        assert combined.qualified_names() == ["people.name", "people.age", "addr.city"]
        appended = combined.append(Column("score", FLOAT))
        assert appended.names()[-1] == "score"

    def test_project_and_select_positions(self, people_schema):
        projected = people_schema.project(["age"])
        assert projected.names() == ["age"]
        selected = people_schema.select_positions([1, 0])
        assert selected.names() == ["age", "name"]

    def test_qualify_rewrites_table(self, people_schema):
        aliased = Schema(c.with_table(None) for c in people_schema.columns).qualify("p")
        assert aliased.qualified_names() == ["p.name", "p.age"]

    def test_equality_and_hash(self, people_schema):
        clone = Schema.of(("name", STRING), ("age", INTEGER), table="people")
        assert people_schema == clone
        assert hash(people_schema) == hash(clone)

    def test_qualified_fallback_to_bare_name(self, people_schema):
        # A qualified name with an unknown prefix falls back to the bare column.
        assert people_schema.index_of("p.age") == 1


class TestRow:
    def test_row_size_matches_column_types(self, people_schema):
        row = ("ann", 30)
        assert row_size(row, people_schema) == (4 + 3) + 4

    def test_values_size_generic(self):
        assert values_size([1, DataObject(10)]) == 4 + 14


class TestTable:
    def test_insert_validates_arity_and_types(self, people_schema):
        table = Table("people", people_schema)
        table.insert(["ann", 30])
        with pytest.raises(SchemaError):
            table.insert(["bob"])
        with pytest.raises(TypeMismatchError):
            table.insert(["bob", "old"])

    def test_statistics_cached_and_invalidated(self, people_schema):
        table = Table("people", people_schema, rows=[["ann", 30], ["bob", 30]])
        stats = table.statistics
        assert stats.row_count == 2
        assert stats.column("age").distinct_count == 1
        table.insert(["cid", 50])
        assert table.statistics.row_count == 3

    def test_schema_is_qualified_by_table_name(self, people_schema):
        table = Table("people", people_schema)
        assert table.schema.qualified_names() == ["people.name", "people.age"]

    def test_total_size_and_dicts(self):
        schema = Schema.of(("payload", DATA_OBJECT))
        table = Table("blobs", schema, rows=[[DataObject(10)], [DataObject(20)]])
        assert table.total_size() == (4 + 10) + (4 + 20)
        assert len(table.to_dicts()) == 2


class TestCatalog:
    def test_register_lookup_drop(self, people_schema):
        catalog = Catalog()
        table = Table("people", people_schema)
        catalog.register(table)
        assert catalog.has_table("PEOPLE")
        assert catalog.table("people") is table
        with pytest.raises(CatalogError):
            catalog.register(Table("people", people_schema))
        catalog.register(Table("people", people_schema), replace=True)
        catalog.drop("people")
        assert not catalog.has_table("people")
        with pytest.raises(CatalogError):
            catalog.table("people")
        with pytest.raises(CatalogError):
            catalog.drop("people")

    def test_table_names_sorted(self, people_schema):
        catalog = Catalog()
        catalog.register(Table("zeta", people_schema))
        catalog.register(Table("alpha", people_schema))
        assert catalog.table_names() == ["alpha", "zeta"]


class TestStatistics:
    def test_compute_table_statistics(self):
        schema = Schema.of(("k", INTEGER), ("v", STRING))
        rows = [(1, "a"), (1, "b"), (2, None)]
        stats = compute_table_statistics(schema, rows)
        assert stats.row_count == 3
        assert stats.column("k").distinct_count == 2
        assert stats.column("v").null_count == 1
        assert stats.column("k").minimum == 1
        assert stats.column("k").maximum == 2

    def test_distinct_fraction(self):
        schema = Schema.of(("k", INTEGER), ("v", STRING))
        rows = [(i % 2, "xx") for i in range(10)]
        stats = compute_table_statistics(schema, rows)
        assert stats.distinct_fraction(["k"]) == pytest.approx(0.2)

    def test_unknown_column_gets_neutral_default(self):
        schema = Schema.of(("k", INTEGER),)
        stats = compute_table_statistics(schema, [(1,)])
        assert stats.column("missing").distinct_count >= 1
