"""Secondary indexes and index-aware access paths, end to end.

Covers the access-path choice (the optimizer picks an index scan or an
index nested-loop join from catalog statistics alone, and declines both
when statistics are missing or the predicate is unselective), result
equivalence against unindexed plans, the SQL DDL surface, and the storage
satellites: free-space reuse bounding heap growth, statistics refresh
after large delete batches, the buffer pool under index workloads, and
index rebuild on reopen after a crash corrupted the index file.
"""

from __future__ import annotations

import os
import shutil

import pytest

from repro.core.optimizer import OptimizationDecision
from repro.core.optimizer.plans import AccessPath
from repro.core.optimizer.cost import CostSettings
from repro.errors import BindError, OptimizerError, ParseError, PlanError, StorageError
from repro.network.topology import NetworkConfig
from repro.relational.schema import Column, Schema
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.server.planner import build_plan
from repro.sql.ast import CreateIndexStatement, DropIndexStatement
from repro.sql.binder import Binder
from repro.sql.parser import parse
from repro.storage.buffer import BufferManager
from repro.storage.engine import StorageEngine
from repro.storage.file import FileManager
from repro.storage.index import IndexDefinition, open_index, sort_key
from repro.storage.page import BlockId, Page

NETWORK = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="index-tests")
#: Non-zero block cost is what lets index access paths compete at all; the
#: default of 0.0 keeps plans identical to the pre-index engine.
COST = CostSettings(block_access_seconds=0.005)

QUOTE_SCHEMA = [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)]
QUOTE_ROWS = [(index, float(index) / 4.0, f"name{index % 50}") for index in range(4000)]

SELECTIVE_SQL = "SELECT Q.Id FROM Quotes Q WHERE Q.Price < 2.0"
UNSELECTIVE_SQL = "SELECT Q.Id FROM Quotes Q WHERE Q.Price < 900.0"


def make_quotes(storage_dir=None, cost_settings=COST) -> Database:
    db = Database(network=NETWORK, storage_dir=storage_dir, cost_settings=cost_settings)
    db.create_table("Quotes", QUOTE_SCHEMA, rows=QUOTE_ROWS)
    return db


def open_copy(source: str, tmp_path, cost_settings=COST) -> Database:
    """Open a private copy of a pre-built database directory.

    Building the 4000-entry B-tree takes seconds; copying the finished
    directory takes milliseconds, so tests share pre-built fixtures and
    mutate their own copies freely.
    """
    target = os.path.join(str(tmp_path), "db")
    shutil.copytree(source, target)
    return Database(network=NETWORK, storage_dir=target, cost_settings=cost_settings)


@pytest.fixture(scope="module")
def quotes_indexed_dir(tmp_path_factory):
    """Quotes with fresh statistics and a B-tree index on Price."""
    directory = str(tmp_path_factory.mktemp("quotes-indexed"))
    db = make_quotes(storage_dir=directory)
    db.analyze("Quotes")
    db.create_index("quotes_price_idx", "Quotes", "Price")
    db.close()
    return directory


@pytest.fixture(scope="module")
def quotes_unanalyzed_dir(tmp_path_factory):
    """Quotes with the Price index but no statistics refresh (no histogram)."""
    directory = str(tmp_path_factory.mktemp("quotes-unanalyzed"))
    db = make_quotes(storage_dir=directory)
    db.create_index("quotes_price_idx", "Quotes", "Price")
    db.close()
    return directory


@pytest.fixture(scope="module")
def quotes_join_dir(tmp_path_factory):
    """Quotes indexed on Id plus a tiny Orders table for join tests."""
    directory = str(tmp_path_factory.mktemp("quotes-join"))
    db = make_quotes(storage_dir=directory)
    db.analyze("Quotes")
    db.create_index("quotes_id_idx", "Quotes", "Id")
    orders = [(index, index * 400) for index in range(8)]
    db.create_table("Orders", [("OId", INTEGER), ("QuoteId", INTEGER)], rows=orders)
    db.analyze("Orders")
    db.close()
    return directory


# ---------------------------------------------------------------------------
# Access-path choice: from catalog statistics alone, no hints
# ---------------------------------------------------------------------------


class TestAccessPathChoice:
    def test_index_scan_chosen_from_stats_alone(self, quotes_indexed_dir, tmp_path):
        """With fresh histograms and a matching index, the enumerator prices
        the selective range predicate below the full scan and the executed
        plan probes the B-tree — no hint anywhere in the query."""
        db = open_copy(quotes_indexed_dir, tmp_path)

        seq = db.execute(SELECTIVE_SQL, deliver_results=True)
        indexed = db.execute(SELECTIVE_SQL, optimize=True, deliver_results=True)

        assert indexed.metrics.index_lookups > 0
        assert indexed.metrics.index_pages_read > 0
        assert "IndexScan" in indexed.plan_text
        assert indexed.row_set() == seq.row_set()
        # The whole point: touch a handful of pages instead of every heap block.
        assert indexed.metrics.buffer_accesses < seq.metrics.buffer_accesses / 2
        db.close()

    def test_sjf_admission_prices_the_plan_execute_takes(self, quotes_indexed_dir, tmp_path):
        """Shortest-job-first admission must order queries by the cost model
        ``execute`` plans with: on a database with a block-access cost the
        estimate includes block I/O and takes the index path, instead of
        pricing a free sequential scan."""
        from repro.core.optimizer import Optimizer
        from repro.tenancy import MultiTenantEngine, QuerySpec

        db = open_copy(quotes_indexed_dir, tmp_path)
        engine = MultiTenantEngine(db, executor_slots=1, admission_policy="sjf")
        predicted = engine._predicted_cost(QuerySpec(SELECTIVE_SQL))

        bound = db.bind(SELECTIVE_SQL)
        planned = Optimizer(
            db.network, default_config=db.default_config, settings=db.cost_settings
        ).optimize(bound)
        executed = db.execute(SELECTIVE_SQL, optimize=True)
        assert planned.access_paths and executed.metrics.index_lookups > 0
        assert predicted == planned.estimated_cost
        # The estimate a settings-less optimizer gives is a different number.
        blind = Optimizer(db.network, default_config=db.default_config).optimize(bound)
        assert predicted != blind.estimated_cost
        db.close()

    def test_seq_scan_without_statistics(self, quotes_unanalyzed_dir, tmp_path):
        """No ANALYZE means no histogram: the optimizer falls back to the
        flat default range selectivity and keeps the sequential scan."""
        db = open_copy(quotes_unanalyzed_dir, tmp_path)
        result = db.execute(SELECTIVE_SQL, optimize=True, deliver_results=True)
        assert result.metrics.index_lookups == 0
        assert "IndexScan" not in result.plan_text
        db.close()

    def test_seq_scan_at_high_selectivity(self, quotes_indexed_dir, tmp_path):
        """An unselective predicate touches nearly every heap page anyway
        (Yao), so the scan stays cheaper even with stats and an index."""
        db = open_copy(quotes_indexed_dir, tmp_path)
        result = db.execute(UNSELECTIVE_SQL, optimize=True, deliver_results=True)
        assert result.metrics.index_lookups == 0
        assert "IndexScan" not in result.plan_text
        assert len(result.row_set()) == 3600
        db.close()

    def test_no_index_paths_without_block_cost(self, quotes_indexed_dir, tmp_path):
        """With the default cost settings (block accesses free) index
        variants never enter the plan space, preserving prior behaviour."""
        db = open_copy(quotes_indexed_dir, tmp_path, cost_settings=None)
        result = db.execute(SELECTIVE_SQL, optimize=True, deliver_results=True)
        assert result.metrics.index_lookups == 0
        db.close()

    def test_index_nested_loop_join_chosen(self, quotes_join_dir, tmp_path):
        """A tiny outer table against an indexed inner: per-row probes beat
        scanning the big table, and every probe is counted."""
        db = open_copy(quotes_join_dir, tmp_path)

        sql = "SELECT O.OId, Q.Price FROM Orders O, Quotes Q WHERE O.QuoteId = Q.Id"
        plain = db.execute(sql, deliver_results=True)
        indexed = db.execute(sql, optimize=True, deliver_results=True)

        assert "IndexNestedLoopJoin" in indexed.plan_text
        assert indexed.metrics.index_lookups == 8  # one probe per Orders row
        assert indexed.row_set() == plain.row_set()
        assert indexed.metrics.buffer_accesses < plain.metrics.buffer_accesses
        db.close()

    def test_a_second_join_predicate_filters_above_the_index_join(self, quotes_join_dir, tmp_path):
        """The probe serves one equality; any other join predicate the pair
        satisfies is a residual filter over the joined rows."""
        db = open_copy(quotes_join_dir, tmp_path)
        sql = (
            "SELECT O.OId, Q.Price FROM Orders O, Quotes Q "
            "WHERE O.QuoteId = Q.Id AND O.OId + 20 < Q.Id"
        )
        plain = db.execute(sql, deliver_results=True)
        indexed = db.execute(sql, optimize=True, deliver_results=True)
        assert "Filter((O.OId + 20) < Q.Id)\n    IndexNestedLoopJoin" in indexed.plan_text
        assert indexed.metrics.index_lookups == 8
        assert 0 < len(indexed.rows) < 8 and indexed.row_set() == plain.row_set()
        db.close()

    def test_same_named_index_join_probes_with_the_outer_column(self, tmp_path):
        """Which side of ``B.X = A.X`` is the inner's goes by qualifier: the
        priced probe column is A's however the equality is written, so the
        strict planner can build what was priced."""
        db = Database(network=NETWORK, storage_dir=str(tmp_path / "db"), cost_settings=COST)
        db.create_table("A", [("X", INTEGER)], rows=[(i * 100,) for i in range(5)])
        db.create_table("B", [("X", INTEGER), ("Y", INTEGER)], rows=[(i, i) for i in range(3000)])
        db.analyze("A")
        db.analyze("B")
        db.create_index("b_x_idx", "B", "X")
        for where in ("A.X = B.X", "B.X = A.X"):
            result = db.execute(f"SELECT A.X, B.Y FROM B B, A A WHERE {where}", optimize=True)
            assert "IndexNestedLoopJoin(B AS B via b_x_idx, probe A.X)" in result.plan_text
            assert sorted(map(tuple, result.rows)) == [(i * 100, i * 100) for i in range(5)]
        db.close()

    def test_explain_reports_access_path(self, quotes_indexed_dir, tmp_path):
        db = open_copy(quotes_indexed_dir, tmp_path)
        text = db.explain(SELECTIVE_SQL, optimize=True)
        assert "index_scan" in text or "IndexScan" in text
        db.close()


# ---------------------------------------------------------------------------
# Strict realisation: a priced access path is built, or PlanError names it
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_indexed_dir(tmp_path_factory):
    """60 quotes with a B-tree on Price and a hash index on Id, plus Orders."""
    directory = str(tmp_path_factory.mktemp("small-indexed"))
    db = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
    db.create_table("Quotes", QUOTE_SCHEMA, rows=QUOTE_ROWS[:60])
    db.create_index("price_btree", "Quotes", "Price")
    db.create_index("id_hash", "Quotes", "Id", kind="hash")
    db.create_table(
        "Orders", [("OId", INTEGER), ("QuoteId", INTEGER)], rows=[(i, i * 7) for i in range(8)]
    )
    db.close()
    return directory


def scan_path(index_name="price_btree", index_kind="btree", column="Price", key="Q.Price < 2.0"):
    return AccessPath("Q", "index_scan", index_name, index_kind, column, predicate_key=key)


def join_path(index_name="id_hash", join_column="O.QuoteId"):
    return AccessPath(
        "Q", "index_join", index_name, "hash", "Id",
        predicate_key="O.QuoteId = Q.Id", join_column=join_column,
    )


JOIN_SQL = "SELECT O.OId, Q.Price FROM Orders O, Quotes Q WHERE O.QuoteId = Q.Id"
SELF_JOIN_SQL = (
    "SELECT O.OId, Q.Price FROM Orders O, Orders P, Quotes Q "
    "WHERE O.QuoteId = Q.Id AND P.QuoteId = Q.Id"
)


class TestStrictRealisation:
    """One case per place the planner used to answer with a silent seq scan."""

    def build(self, db, sql, **shape):
        decision = OptimizationDecision.pinned(db.default_config, **shape)
        return build_plan(db.bind(sql), db.session.new_context(), decision=decision)

    def test_buildable_paths_are_built(self, small_indexed_dir, tmp_path):
        db = open_copy(small_indexed_dir, tmp_path)
        scan = self.build(db, SELECTIVE_SQL, access_paths={"Q": scan_path()})
        assert "IndexScan" in scan.explain()
        join = self.build(db, JOIN_SQL, table_order=("O", "Q"), access_paths={"Q": join_path()})
        assert "IndexNestedLoopJoin" in join.explain()
        db.close()

    def test_index_dropped_after_optimize(self, quotes_indexed_dir, tmp_path):
        db = open_copy(quotes_indexed_dir, tmp_path)
        bound = db.bind(SELECTIVE_SQL)
        decision = db._decide(bound, db.default_config, optimize=True)
        assert decision.access_paths["Q"].index_name == "quotes_price_idx"
        db.drop_index("quotes_price_idx")
        with pytest.raises(PlanError, match="quotes_price_idx.*gone or incomplete"):
            build_plan(bound, db.session.new_context(), decision=decision)
        # A fresh decision no longer prices the dropped index: execute still answers.
        assert len(db.execute(SELECTIVE_SQL, optimize=True).rows) == 8
        db.close()

    def test_incomplete_index(self, small_indexed_dir, tmp_path):
        db = open_copy(small_indexed_dir, tmp_path)
        db.catalog.table("Quotes").indexes()["price_btree"].incomplete = True
        with pytest.raises(PlanError, match="price_btree.*gone or incomplete"):
            self.build(db, SELECTIVE_SQL, access_paths={"Q": scan_path()})
        db.close()

    @pytest.mark.parametrize(
        "sql, path, reason",
        [
            (
                "SELECT Q.Id FROM Quotes Q WHERE Q.Price < Q.Id",
                scan_path(key="Q.Price < Q.Id"),
                "price_btree.*not an indexable comparison",
            ),
            (
                "SELECT Q.Id FROM Quotes Q WHERE Q.Id < 5",
                scan_path("id_hash", "hash", "Id", key="Q.Id < 5"),
                "id_hash.*equality only",
            ),
            (SELECTIVE_SQL, scan_path(key="Q.Price < 3.0"), "price_btree.*no such predicate"),
        ],
    )
    def test_unbuildable_index_scan(self, small_indexed_dir, tmp_path, sql, path, reason):
        db = open_copy(small_indexed_dir, tmp_path)
        with pytest.raises(PlanError, match=reason):
            self.build(db, sql, access_paths={"Q": path})
        db.close()

    @pytest.mark.parametrize(
        "sql, order, path, reason",
        [
            (JOIN_SQL, ("O", "Q"), join_path(index_name="dropped_idx"), "dropped_idx.*gone"),
            (JOIN_SQL, ("O", "Q"), join_path(join_column="Q.Id"), "id_hash.*not in the outer"),
            (JOIN_SQL, ("Q", "O"), join_path(), "id_hash.*opens the join order"),
            # Covered by both Orders aliases, so the probe position is ambiguous.
            (SELF_JOIN_SQL, ("O", "P", "Q"), join_path(join_column="QuoteId"), "id_hash.*ambiguous"),
        ],
    )
    def test_unbuildable_index_join(self, small_indexed_dir, tmp_path, sql, order, path, reason):
        db = open_copy(small_indexed_dir, tmp_path)
        with pytest.raises(PlanError, match=reason):
            self.build(db, sql, table_order=order, access_paths={"Q": path})
        db.close()


# ---------------------------------------------------------------------------
# One interval per indexed column: both bounds reach the B-tree together
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def wide_quotes_dir(tmp_path_factory):
    """6,000 quotes (three times the 64-page pool) in shuffled price order,
    analyzed, B-tree on Price, then written to past both ends of the column."""
    directory = str(tmp_path_factory.mktemp("wide-quotes"))
    db = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
    rows = [(i, ((i * 3571) % 6000) * 0.5, f"name{i % 50:02d}" + "x" * 90) for i in range(6000)]
    db.create_table("Quotes", QUOTE_SCHEMA, rows=rows)
    db.analyze("Quotes")
    db.create_index("quotes_price_idx", "Quotes", "Price")
    table = db.catalog.table("Quotes")
    for i in range(20):
        table.insert((6000 + i, 3000.0 + i + (i % 2) * 500.0, "above"))
    table.insert((6020, -7.5, "below"))
    db.close()
    return directory


#: 15 of 6,021 rows (0.25 %) in the middle of the column.
MID_RANGE_SQL = "SELECT Q.Id, Q.Price FROM Quotes Q WHERE Q.Price >= 1500.0 AND Q.Price < 1507.5"


class TestIntervalScan:
    def test_two_sided_range_costs_its_matches_not_the_table(self, wide_quotes_dir, tmp_path):
        db = open_copy(wide_quotes_dir, tmp_path)
        seq = db.execute(MID_RANGE_SQL, deliver_results=True)
        indexed = db.execute(MID_RANGE_SQL, optimize=True, deliver_results=True)
        handle = db.storage.index_handle("quotes_price_idx")

        assert (
            "IndexScan(Quotes AS Q via quotes_price_idx: "
            "Q.Price >= 1500.0 AND Q.Price < 1507.5)" in indexed.plan_text
        )
        assert indexed.plan_text.count("Filter(") == 2  # both re-checks kept
        assert indexed.metrics.index_lookups == 1
        assert len(indexed.rows) == 15 and indexed.row_set() == seq.row_set()
        # The descent, at most two leaves, and one heap page per matching row.
        assert indexed.metrics.buffer_misses <= handle.height + 2 + 15
        assert seq.metrics.buffer_misses > 150
        db.close()

    def test_histogram_survives_writes(self, wide_quotes_dir, tmp_path):
        """Inserts past either end widen the histogram instead of blinding
        the chooser until the next full refresh."""
        db = open_copy(wide_quotes_dir, tmp_path)
        db.catalog.table("Quotes").insert((6021, None, "null price"))
        for _ in range(2):  # as written, then as read back from catalog.json
            histogram = db.catalog.table("Quotes").statistics.column("Price").histogram
            assert histogram is not None
            assert histogram.total == 6021  # every non-NULL price
            assert histogram.low <= -7.5 and histogram.high >= 3519.0
            below = [histogram.fraction_below(-10.0 + step * 40.0) for step in range(90)]
            assert below == sorted(below) and below[0] == 0.0 and below[-1] == 1.0
            assert "index scan of Q via quotes_price_idx" in db.explain(MID_RANGE_SQL, optimize=True)
            db.close()
            db = Database(network=NETWORK, storage_dir=db.storage.directory, cost_settings=COST)
        db.close()

    def test_histogram_ignores_non_finite_values(self, wide_quotes_dir, tmp_path):
        """``inf`` (or a span no float can hold) is stored and indexed but
        never widens the histogram: the insert succeeds, the estimates stay
        finite, and the chooser still sees the column."""
        db = open_copy(wide_quotes_dir, tmp_path)
        table = db.catalog.table("Quotes")
        before = table.statistics.column("Price").histogram.to_dict()
        for i, price in enumerate((float("inf"), float("-inf"), 1.7e308, -1.7e308)):
            table.insert((7000 + i, price, "non-finite"))
        histogram = table.statistics.column("Price").histogram
        # 1.7e308 alone still spans a finite float; adding -1.7e308 would not.
        assert histogram.total == sum(before["counts"]) + 1
        assert histogram.low == before["low"] and histogram.high == 1.7e308
        assert 0.0 < histogram.range_fraction(1500.0, 1507.5) < 1.0
        assert "index scan of Q via quotes_price_idx" in db.explain(MID_RANGE_SQL, optimize=True)
        huge = "1" + "0" * 300 + ".0"  # the SQL grammar has no exponent form
        result = db.execute(
            f"SELECT Q.Id FROM Quotes Q WHERE Q.Price > {huge}", optimize=True, deliver_results=True
        )
        assert sorted(row[0] for row in result.rows) == [7000, 7002]
        db.close()

    def test_lone_range_keeps_observed_selectivity_feedback(self, wide_quotes_dir, tmp_path):
        """A single conjunct prices as before this PR: through its own
        selectivity, which is where recorded feedback corrects it."""
        from repro.adaptive.store import StatisticsOverlay
        from repro.core.optimizer.cost import CostEstimator
        from repro.core.optimizer.plans import operations_for_query

        class Feedback(StatisticsOverlay):
            def predicate_selectivity(self, predicate, default):
                return 0.5 if predicate == "Q.Price < 2.0" else default

        db = open_copy(wide_quotes_dir, tmp_path)
        bound = db.bind("SELECT Q.Id FROM Quotes Q WHERE Q.Price < 2.0")
        tables, _ = operations_for_query(bound)
        rows = db.catalog.table("Quotes").statistics.row_count

        def index_step(statistics):
            estimator = CostEstimator(NETWORK, bound, COST, statistics=statistics)
            _, indexed = estimator.scan_variants(tables[0])
            return indexed.steps[-1].detail

        assert f"~{rows * 0.5:.0f} matches" in index_step(Feedback())
        assert f"~{rows * 0.5:.0f} matches" not in index_step(None)
        db.close()

    def test_one_key_spelling_is_the_same_path(self):
        one_key = scan_path("quotes_price_idx", "btree", "Price", key="Q.Price < 2.0")
        several = AccessPath(
            "Q", "index_scan", "quotes_price_idx", "btree", "Price",
            predicate_keys=("Q.Price < 2.0",),
        )
        assert one_key == several and hash(one_key) == hash(several)
        assert one_key.predicate_keys == ("Q.Price < 2.0",)
        assert one_key.predicate_key == several.predicate_key == "Q.Price < 2.0"
        with pytest.raises(ValueError):
            AccessPath(
                "Q", "index_scan", "i", "btree", "Price",
                predicate_key="Q.Price < 2.0", predicate_keys=("Q.Price > 1.0",),
            )

    def test_empty_interval_reads_no_page(self, wide_quotes_dir, tmp_path):
        db = open_copy(wide_quotes_dir, tmp_path)
        sql = "SELECT Q.Id FROM Quotes Q WHERE Q.Price > 1507.5 AND Q.Price <= 1500.0"
        result = db.execute(sql, optimize=True, deliver_results=True)
        assert "IndexScan" in result.plan_text and result.rows == []
        assert result.metrics.index_lookups == 0 and result.metrics.buffer_accesses == 0
        db.close()

    def test_kept_decision_is_realised_strictly(self, wide_quotes_dir, tmp_path):
        """A decision outliving its index, or one of the conjuncts it was
        priced as serving, is refused by name — never run as another plan."""
        db = open_copy(wide_quotes_dir, tmp_path)
        bound = db.bind(MID_RANGE_SQL)
        decision = db._decide(bound, db.default_config, optimize=True)
        assert decision.access_paths["Q"].predicate_keys == (
            "Q.Price >= 1500.0", "Q.Price < 1507.5",
        )
        one_sided = db.bind("SELECT Q.Id, Q.Price FROM Quotes Q WHERE Q.Price >= 1500.0")
        with pytest.raises(PlanError, match="quotes_price_idx.*no such predicate"):
            build_plan(one_sided, db.session.new_context(), decision=decision)
        db.execute("DROP INDEX quotes_price_idx")
        with pytest.raises(PlanError, match="quotes_price_idx.*gone or incomplete"):
            build_plan(bound, db.session.new_context(), decision=decision)
        db.close()

    def test_hash_index_serves_only_the_equality_member(self, small_indexed_dir, tmp_path):
        db = open_copy(small_indexed_dir, tmp_path)
        db.execute("DROP INDEX price_btree")
        sql = "SELECT Q.Id FROM Quotes Q WHERE Q.Id = 7 AND Q.Id < 30"
        path = AccessPath(
            "Q", "index_scan", "id_hash", "hash", "Id", predicate_keys=("Q.Id = 7", "Q.Id < 30")
        )
        decision = OptimizationDecision.pinned(db.default_config, access_paths={"Q": path})
        with pytest.raises(PlanError, match="id_hash.*equality only"):
            build_plan(db.bind(sql), db.session.new_context(), decision=decision)
        other_column = scan_path("id_hash", "hash", "Id", key="Q.Price = 2.0")
        decision = OptimizationDecision.pinned(db.default_config, access_paths={"Q": other_column})
        with pytest.raises(PlanError, match="id_hash.*not on the indexed column"):
            build_plan(
                db.bind("SELECT Q.Id FROM Quotes Q WHERE Q.Price = 2.0"),
                db.session.new_context(),
                decision=decision,
            )
        db.close()


# ---------------------------------------------------------------------------
# Result equivalence: indexed plans answer exactly like unindexed ones
# ---------------------------------------------------------------------------


class TestResultEquivalence:
    QUERIES = [
        "SELECT Q.Id, Q.Name FROM Quotes Q WHERE Q.Price < 2.0",
        "SELECT Q.Id FROM Quotes Q WHERE Q.Price = 1.25",
        "SELECT Q.Name FROM Quotes Q WHERE Q.Price > 999.0",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_btree_paths_match_memory(self, quotes_indexed_dir, tmp_path, sql):
        memory = make_quotes()
        paged = open_copy(quotes_indexed_dir, tmp_path)
        expected = memory.execute(sql, deliver_results=True)
        actual = paged.execute(sql, optimize=True, deliver_results=True)
        assert actual.row_set() == expected.row_set()
        paged.close()

    def test_hash_index_numeric_keys_match_by_value(self, tmp_path):
        """``1000`` and ``1000.0`` are equal keys: the hash index normalizes
        numerics so an equality probe with either spelling finds the row."""
        db = make_quotes(storage_dir=str(tmp_path))
        db.analyze("Quotes")
        db.create_index("quotes_id_hash", "Quotes", "Id", kind="hash")
        result = db.execute(
            "SELECT Q.Name FROM Quotes Q WHERE Q.Id = 1000", optimize=True
        )
        assert "IndexScan" in result.plan_text
        for literal in ("1000", "1000.0"):
            result = db.execute(
                f"SELECT Q.Name FROM Quotes Q WHERE Q.Id = {literal}",
                optimize=True,
                deliver_results=True,
            )
            assert result.row_set() == [("name0",)]
        db.close()

    def test_index_survives_deletes_and_reinserts(self, quotes_indexed_dir, tmp_path):
        db = open_copy(quotes_indexed_dir, tmp_path)
        table = db.catalog.table("Quotes")
        table.delete(lambda row: row[1] < 2.0)
        table.insert((9001, 0.25, "revived"))
        result = db.execute(SELECTIVE_SQL, optimize=True, deliver_results=True)
        assert result.row_set() == [(9001,)]
        db.close()


# ---------------------------------------------------------------------------
# SQL DDL surface
# ---------------------------------------------------------------------------


class TestIndexDdl:
    def test_parse_create_index(self):
        statement = parse("CREATE INDEX quotes_price_idx ON Quotes (Price)")
        assert statement == CreateIndexStatement(
            name="quotes_price_idx", table="Quotes", column="Price", kind="btree"
        )

    def test_parse_create_index_using_hash(self):
        statement = parse("CREATE INDEX q_idx ON Quotes (Id) USING HASH")
        assert isinstance(statement, CreateIndexStatement)
        assert statement.kind == "hash"

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ParseError):
            parse("CREATE INDEX q_idx ON Quotes (Id) USING bitmap")

    def test_parse_drop_index(self):
        assert parse("DROP INDEX q_idx") == DropIndexStatement(name="q_idx")

    def test_binder_rejects_ddl(self):
        db = make_quotes()
        with pytest.raises(BindError):
            Binder(db.catalog, db.udfs).bind_sql("DROP INDEX q_idx")

    def test_execute_create_and_drop_index(self, tmp_path):
        db = Database(network=NETWORK, storage_dir=str(tmp_path), cost_settings=COST)
        db.create_table("Mini", [("Id", INTEGER)], rows=[(index,) for index in range(50)])
        result = db.execute("CREATE INDEX mini_id_idx ON Mini (Id)")
        assert result.rows == []
        assert db.index_names() == ["mini_id_idx"]
        db.execute("DROP INDEX mini_id_idx")
        assert db.index_names() == []
        db.close()

    def test_create_index_requires_durable_database(self):
        db = Database(network=NETWORK)
        db.create_table("Mini", [("Id", INTEGER)], rows=[(1,)])
        with pytest.raises(OptimizerError):
            db.create_index("mini_id_idx", "Mini", "Id")


# ---------------------------------------------------------------------------
# Satellite: free-space reuse bounds the heap file
# ---------------------------------------------------------------------------


class TestFreeSpaceReuse:
    def test_delete_insert_cycles_keep_file_bounded(self, tmp_path):
        """Tombstoned space is reused: churning the same rows through delete
        and re-insert must not grow the heap file beyond a small slack."""
        engine = StorageEngine(str(tmp_path))
        schema = Schema((Column("Id", INTEGER), Column("Payload", STRING)))
        storage = engine.create_table("Churn", schema)
        rows = [(index, "x" * 64) for index in range(500)]
        for values in rows:
            storage.append(values)
        baseline = storage.block_count()
        for _ in range(10):
            storage.delete_where(lambda values: values[0] % 2 == 0)
            for values in rows:
                if values[0] % 2 == 0:
                    storage.append(values)
        assert storage.row_count == len(rows)
        assert storage.block_count() <= baseline + 2
        engine.close()

    def test_free_space_map_survives_reopen(self, tmp_path):
        directory = str(tmp_path)
        engine = StorageEngine(directory)
        schema = Schema((Column("Id", INTEGER), Column("Payload", STRING)))
        storage = engine.create_table("Churn", schema)
        for index in range(500):
            storage.append((index, "x" * 64))
        storage.delete_where(lambda values: values[0] % 2 == 0)
        blocks_before = storage.block_count()
        engine.close()

        reopened = StorageEngine(directory)
        recovered = reopened.open_table("Churn")
        assert recovered.heap.holes  # the persisted map, not a fresh scan
        for index in range(0, 500, 2):
            recovered.append((index, "x" * 64))
        assert recovered.block_count() <= blocks_before + 2
        reopened.close()


# ---------------------------------------------------------------------------
# Overflow records reached by RID (index lookups fetch, they do not scan)
# ---------------------------------------------------------------------------


class TestOverflowRecordsByRid:
    """A record wider than a block lives in an overflow chain.  Scans walk
    chains in block order; an index lookup instead lands on the chain head
    by RID (``HeapFile.fetch``), and deleting that row must free the whole
    chain (``HeapFile.delete``) — the path every index over wide
    ``TIME_SERIES`` rows takes."""

    WIDE = "w" * 20_000  # ~5 blocks of 4 KB
    WIDE_ID = 7
    LOOKUP_SQL = f"SELECT B.Id, B.Payload FROM Blobs B WHERE B.Id = {WIDE_ID}"

    def _build(self, directory: str) -> Database:
        db = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
        rows = [
            (index, self.WIDE if index == self.WIDE_ID else f"narrow{index}")
            for index in range(600)
        ]
        db.create_table("Blobs", [("Id", INTEGER), ("Payload", STRING)], rows=rows)
        db.analyze("Blobs")
        db.create_index("blobs_id_idx", "Blobs", "Id")
        return db

    def _lookup(self, db: Database):
        result = db.execute(self.LOOKUP_SQL, optimize=True)
        assert result.metrics.index_lookups > 0 and "IndexScan" in result.plan_text
        return result.row_set()

    def test_index_lookup_fetches_the_wide_row_intact(self, tmp_path):
        db = self._build(str(tmp_path))
        (rid,) = db.storage.index_handle("blobs_id_idx").search_eq(self.WIDE_ID)
        assert rid[1] == -1  # an overflow head, not a slot
        assert self._lookup(db) == [(self.WIDE_ID, self.WIDE)]
        db.close()

        reopened = Database(network=NETWORK, storage_dir=str(tmp_path), cost_settings=COST)
        assert self._lookup(reopened) == [(self.WIDE_ID, self.WIDE)]
        reopened.close()

    def test_deleted_chain_blocks_are_reused_by_narrow_rows(self, tmp_path):
        directory = str(tmp_path)
        db = self._build(directory)
        table = db.catalog.table("Blobs")
        handle = db.storage.index_handle("blobs_id_idx")
        ((head, _),) = handle.search_eq(self.WIDE_ID)
        blocks = table.storage.block_count()

        assert table.delete(lambda row: row[0] == self.WIDE_ID) == 1
        assert handle.search_eq(self.WIDE_ID) == []
        assert self._lookup(db) == []
        chain = [number for number in table.storage.heap.holes if number >= head]
        assert len(chain) >= 5  # every chain block is free again

        table.insert((self.WIDE_ID, "narrow again"))
        ((block, slot),) = handle.search_eq(self.WIDE_ID)
        assert block in chain and slot >= 0
        assert table.storage.block_count() == blocks
        assert self._lookup(db) == [(self.WIDE_ID, "narrow again")]
        db.close()

        reopened = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
        assert self._lookup(reopened) == [(self.WIDE_ID, "narrow again")]
        assert len(reopened.catalog.table("Blobs")) == 600
        reopened.close()

    def test_truncated_chain_raises_storage_error(self, tmp_path):
        directory = str(tmp_path)
        db = self._build(directory)
        ((head, _),) = db.storage.index_handle("blobs_id_idx").search_eq(self.WIDE_ID)
        heap = db.catalog.table("Blobs").storage.heap
        heap_file = os.path.join(directory, heap.file_name)
        block_size = heap.layout.block_size
        db.close()
        # Tear the chain: its second block comes back zeroed, as after a
        # crash that wrote the head but not the continuation.
        with open(heap_file, "r+b") as handle:
            handle.seek((head + 1) * block_size)
            handle.write(b"\x00" * block_size)

        engine = StorageEngine(directory)
        storage = engine.open_table("Blobs")
        with pytest.raises(StorageError, match="truncated overflow chain"):
            storage.fetch_row((head, -1))
        engine.close()


# ---------------------------------------------------------------------------
# Satellite: statistics refresh after large delete batches
# ---------------------------------------------------------------------------


class TestDeleteStatisticsRefresh:
    def test_large_delete_batch_refreshes_stats(self, tmp_path):
        """Before the refresh hook, a bulk delete left the catalog claiming
        the old row count until ``refresh_interval`` scans had passed; now a
        batch that removes a large share of the table recomputes at once."""
        engine = StorageEngine(str(tmp_path), refresh_interval=100)
        schema = Schema((Column("Id", INTEGER), Column("Price", FLOAT)))
        storage = engine.create_table("Fat", schema)
        for index in range(400):
            storage.append((index, float(index)))
        assert engine.stat_info("Fat").records == 400

        deleted = engine.delete_rows("Fat", lambda values: values[0] >= 100)
        assert deleted == 300
        assert engine.stat_info("Fat").records == 100
        assert not engine.metadata.deletes_refresh_due("Fat")
        engine.close()

    def test_small_delete_batch_stays_lazy(self, tmp_path):
        """A handful of deletes is not worth a full recompute: the running
        counters absorb them and the full refresh stays deferred."""
        engine = StorageEngine(str(tmp_path), refresh_interval=100)
        schema = Schema((Column("Id", INTEGER), Column("Price", FLOAT)))
        storage = engine.create_table("Thin", schema)
        for index in range(400):
            storage.append((index, float(index)))
        engine.refresh_statistics("Thin")
        engine.delete_rows("Thin", lambda values: values[0] < 3)
        # Stale by exactly the small batch — no refresh fired.
        assert engine.stat_info("Thin").records == 397
        engine.close()


# ---------------------------------------------------------------------------
# Satellite: the buffer pool under index workloads
# ---------------------------------------------------------------------------


class TestBufferPoolUnderIndexWorkloads:
    def test_interleaved_pinned_heap_and_index_pages(self, tmp_path):
        """Pins on heap and index files interleave in one pool: eviction
        only ever claims unpinned buffers, and the peak counts both files."""
        files = FileManager(str(tmp_path), block_size=256)
        for name in ("heap.tbl", "index.btx"):
            for _ in range(6):
                files.append(name, Page(files.block_size))
        pool = BufferManager(files, pool_size=4)
        pinned = [
            pool.pin(BlockId("heap.tbl", 0)),
            pool.pin(BlockId("index.btx", 0)),
            pool.pin(BlockId("heap.tbl", 1)),
        ]
        assert pool.pinned_count == 3
        # The single free buffer cycles through the remaining blocks.
        for number in range(2, 6):
            buffer = pool.pin(BlockId("index.btx", number))
            pool.unpin(buffer)
        stats = pool.stats()
        assert stats.pinned_peak >= 3
        assert stats.evictions >= 3
        # Pinned blocks were never evicted: re-pinning them is a hit.
        hits_before = pool.hits
        for buffer in pinned:
            assert pool.pin(buffer.block) is buffer
        assert pool.hits == hits_before + 3

    def test_pool_exhaustion_raises_when_all_pinned(self, tmp_path):
        files = FileManager(str(tmp_path), block_size=256)
        for _ in range(4):
            files.append("heap.tbl", Page(files.block_size))
        pool = BufferManager(files, pool_size=2)
        pool.pin(BlockId("heap.tbl", 0))
        pool.pin(BlockId("heap.tbl", 1))
        with pytest.raises(StorageError):
            pool.pin(BlockId("heap.tbl", 2))

    def test_index_probes_leave_no_pins_behind(self, tmp_path):
        """A search must unpin everything it touched, even through a pool
        far smaller than the index, so later queries never starve."""
        engine = StorageEngine(str(tmp_path), pool_size=8)
        schema = Schema((Column("Id", INTEGER), Column("Price", FLOAT)))
        storage = engine.create_table("Quotes", schema)
        for index in range(2000):
            storage.append((index, float(index)))
        handle = engine.create_index("quotes_id_idx", "Quotes", "Id")
        assert engine.buffers.pinned_count == 0
        before = engine.buffer_stats()
        for key in (0, 999, 1999, -5):
            expected = 1 if 0 <= key < 2000 else 0
            assert len(handle.search_eq(key)) == expected
        assert list(handle.search_range(10, 20)) != []
        after = engine.buffer_stats().delta(before)
        assert after.accesses > 0
        assert engine.buffers.pinned_count == 0
        engine.close()


# ---------------------------------------------------------------------------
# Satellite: bulk build — same index as one-at-a-time inserts, built once
# ---------------------------------------------------------------------------


#: 3,000 postings over 40 keys — runs of ~71 equal keys straddle leaves — of
#: both numeric spellings and strings, plus NULLs and keys neither index can hold.
BULK_KEYS = [None, frozenset({1})] + [
    (k, float(k) + 0.5, f"s{k:02d}")[k % 3] for k in range(40)
]
BULK_PAIRS = [(BULK_KEYS[(i * 5) % len(BULK_KEYS)], (i // 16, i % 16)) for i in range(3000)]
BULK_INDEXABLE = [pair for pair in BULK_PAIRS if isinstance(pair[0], (int, float, str))]


class TestBulkLoad:
    @staticmethod
    def _open(directory, kind):
        pool = BufferManager(FileManager(str(directory), block_size=1024), pool_size=16)
        return open_index(pool, IndexDefinition("idx", "T", "K", kind))

    @pytest.mark.parametrize("kind", ["btree", "hash"])
    def test_bulk_load_equals_incremental_inserts(self, tmp_path, kind):
        bulk = self._open(tmp_path / "bulk", kind)
        bulk.bulk_load(iter(BULK_PAIRS))
        incremental = self._open(tmp_path / "incremental", kind)
        for key, rid in BULK_PAIRS:
            incremental.insert(key, rid)

        assert bulk.entry_count == incremental.entry_count == len(BULK_INDEXABLE)
        assert bulk.incomplete and incremental.incomplete  # the frozenset keys
        assert bulk.block_count() <= incremental.block_count()
        for key in BULK_KEYS[2:] + [3.0, "zz", 999]:
            expected = sorted(rid for k, rid in BULK_INDEXABLE if k == key)
            assert sorted(bulk.search_eq(key)) == sorted(incremental.search_eq(key)) == expected
        if kind == "btree":
            assert bulk.leaf_count <= incremental.leaf_count
            assert bulk.height == 3  # built bottom-up over two internal levels
            walked = list(bulk.search_range(None, None))
            assert len(walked) == bulk.entry_count
            assert [sort_key(key) for key, _ in walked] == sorted(sort_key(k) for k, _ in walked)

    @pytest.mark.parametrize("kind", ["btree", "hash"])
    def test_inserts_and_deletes_keep_working_after_a_bulk_load(self, tmp_path, kind):
        handle = self._open(tmp_path, kind)
        handle.bulk_load(BULK_PAIRS)
        blocks = handle.block_count()
        twelves = [pair for pair in BULK_INDEXABLE if pair[0] == 12]
        extra = [(12, (500 + i, 0)) for i in range(200)]  # overflows key 12's leaf / chain
        for key, rid in extra:
            assert handle.insert(key, rid)
        assert handle.block_count() > blocks
        assert sorted(handle.search_eq(12)) == sorted(rid for _, rid in twelves + extra)
        for key, rid in extra + twelves:
            assert handle.delete(key, rid)
        assert handle.search_eq(12) == [] and not handle.delete(12, (500, 0))
        assert handle.entry_count == len(BULK_INDEXABLE) - len(twelves)

        handle.bulk_load([])  # and back to an empty, complete index
        assert (handle.entry_count, handle.incomplete, handle.search_eq(12)) == (0, False, [])
        assert handle.insert(5, (1, 1)) and handle.search_eq(5.0) == [(1, 1)]

    def test_btree_bisects_without_the_key_argument(self, tmp_path, monkeypatch):
        """``bisect(..., key=)`` only exists from Python 3.10; the package
        supports 3.8, so the B-tree bisects over plain key lists."""
        import bisect

        import repro.storage.index as index_module

        monkeypatch.setattr(index_module, "bisect_left", lambda a, x: bisect.bisect_left(a, x))
        monkeypatch.setattr(index_module, "bisect_right", lambda a, x: bisect.bisect_right(a, x))
        handle = self._open(tmp_path, "btree")
        pairs = BULK_INDEXABLE[:900]
        for key, rid in pairs:
            assert handle.insert(key, rid)
        assert handle.height > 1
        assert sorted(handle.search_eq(12)) == sorted(rid for key, rid in pairs if key == 12)
        ranged = [rid for _, rid in handle.search_range(3, 9.5, False, True)]
        assert sorted(ranged) == sorted(
            rid for key, rid in pairs if not isinstance(key, str) and 3 < key <= 9.5
        )
        assert handle.delete(*pairs[0]) and not handle.delete(*pairs[0])

    def test_a_split_leaves_both_halves_on_their_pages(self, tmp_path):
        """Keys of very different sizes (found by the SQLite oracle): eight
        1-byte keys then seven 600-byte keys overflow a 4 KiB leaf, and its
        middle *by count* leaves all seven wide keys in the left half — an
        "index node overflows a page" error on an ordinary insert."""
        pool = BufferManager(FileManager(str(tmp_path)), pool_size=16)
        handle = open_index(pool, IndexDefinition("idx", "T", "K", "btree"))
        pairs = [("b", (0, slot)) for slot in range(8)]
        pairs += [("a" * 600, (1, slot)) for slot in range(7)]
        pairs += [("c" * 600 + str(slot), (2, slot)) for slot in range(60)]  # inner nodes too
        for key, rid in pairs:
            assert handle.insert(key, rid)
        assert handle.height > 2
        assert [rid for _, rid in handle.search_range(None, None)] == [
            rid for _, rid in sorted(pairs)
        ]
        assert sorted(handle.search_eq("a" * 600)) == [(1, slot) for slot in range(7)]


# ---------------------------------------------------------------------------
# Satellite: crash safety — reopen revalidates and rebuilds indexes
# ---------------------------------------------------------------------------


class TestCrashSafetyReopen:
    @staticmethod
    def _build(directory: str) -> str:
        engine = StorageEngine(directory)
        schema = Schema((Column("Id", INTEGER), Column("Price", FLOAT)))
        storage = engine.create_table("Quotes", schema)
        for index in range(800):
            storage.append((index, float(index)))
        definition = engine.create_index("quotes_id_idx", "Quotes", "Id").definition
        engine.close()
        return os.path.join(directory, definition.file_name)

    def _assert_rebuilt(self, directory: str) -> None:
        reopened = StorageEngine(directory)
        handle = reopened.index_handle("quotes_id_idx")
        assert handle.entry_count == 800
        assert handle.search_eq(123) != []
        assert handle.search_eq(799) != []
        reopened.close()

    def test_truncated_index_file_is_rebuilt(self, tmp_path):
        index_file = self._build(str(tmp_path))
        with open(index_file, "r+b") as handle:
            handle.truncate(0)
        self._assert_rebuilt(str(tmp_path))

    def test_corrupted_meta_page_is_rebuilt(self, tmp_path):
        index_file = self._build(str(tmp_path))
        with open(index_file, "r+b") as handle:
            handle.write(b"\xff" * 64)  # clobber the magic + meta fields
        self._assert_rebuilt(str(tmp_path))

    def test_missing_index_file_is_rebuilt(self, tmp_path):
        index_file = self._build(str(tmp_path))
        os.remove(index_file)
        self._assert_rebuilt(str(tmp_path))

    def test_reopened_database_answers_through_rebuilt_index(
        self, quotes_indexed_dir, tmp_path
    ):
        db = open_copy(quotes_indexed_dir, tmp_path)
        directory = db.storage.directory
        expected = db.execute(SELECTIVE_SQL, optimize=True, deliver_results=True)
        db.close()
        index_file = os.path.join(directory, "quotes.quotes_price_idx.btx")
        with open(index_file, "r+b") as handle:
            handle.truncate(0)

        reopened = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
        result = reopened.execute(SELECTIVE_SQL, optimize=True, deliver_results=True)
        assert result.metrics.index_lookups > 0
        assert result.row_set() == expected.row_set()
        reopened.close()
