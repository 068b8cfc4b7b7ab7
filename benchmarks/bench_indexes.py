"""Secondary indexes — page-count and modeled-time wins on selective queries.

The access-path claim the index subsystem has to earn: on a selective
predicate the optimizer, fed nothing but catalog statistics, swaps the full
heap scan for a B-tree probe and touches a small fraction of the pages.  On
an unselective predicate it must *keep* the scan (Yao's formula says the
probe would touch nearly every heap page anyway, just with extra index
pages on top).  And with a tiny outer table joining a big indexed inner,
per-row index probes beat building a hash table over the full inner.

Measured quantities are buffer-pool page accesses (heap + index pages, the
unit ``CostSettings.block_access_seconds`` prices) and the modeled query
time: simulated network/UDF time plus the block charge for every page the
plan touched.  Asserted criteria:

* the selective (< 5% matching) predicate touches at least 5x fewer pages
  through the index than the sequential scan, with lower modeled time;
* the unselective predicate keeps the sequential scan (no index lookups);
* a two-sided range over 0.25% of the table, in the middle of the column and
  measured after an insert past the column maximum, reaches the B-tree as
  one interval: one lookup, identical answers, and at least 5x fewer
  distinct pages (buffer misses of a freshly opened database — an index
  scan pins a heap page once per row, so its accesses overcount pages);
* the index nested-loop join issues one probe per outer row and touches
  fewer pages than the hash-join baseline, with identical answers.
"""

from __future__ import annotations

import tempfile

import pytest

from conftest import snapshot
from repro.core.optimizer.cost import CostSettings
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.workloads.experiments import Sized, Sweep, plain

ROW_COUNT = Sized(full=12000, smoke=4000)
ORDER_COUNT = 8

NETWORK = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="bench-indexes")
COST = CostSettings(block_access_seconds=0.005)


def _open_database(directory: str, row_count: int) -> Database:
    db = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
    db.create_table(
        "Quotes",
        [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)],
        rows=[(i, float(i) / 4.0, f"name{i % 50}") for i in range(row_count)],
    )
    db.create_table(
        "Orders",
        [("OId", INTEGER), ("QuoteId", INTEGER)],
        rows=[(i, i * (row_count // ORDER_COUNT)) for i in range(ORDER_COUNT)],
    )
    db.analyze("Quotes")
    db.analyze("Orders")
    return db


def _run_cold(directory: str, sql: str, optimize: bool):
    """Run on a freshly opened database: every page touched is a buffer miss."""
    db = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
    try:
        return db.execute(sql, optimize=optimize, deliver_results=True)
    finally:
        db.close()


def _modeled_seconds(result) -> float:
    """Simulated query time plus the block charge for every page touched."""
    return round(
        result.metrics.elapsed_seconds
        + result.metrics.buffer_accesses * COST.block_access_seconds,
        6,
    )


def access_path_point(row_count):
    """Three predicates, each by sequential scan and through the optimizer."""
    #: Matches 4 rows (0.1% of the smoke table) — far below the 5% line.
    selective = "SELECT Q.Id FROM Quotes Q WHERE Q.Price < 1.0"
    #: Matches ~45% of the table — the scan must survive.
    unselective = f"SELECT Q.Id FROM Quotes Q WHERE Q.Price < {row_count * 0.45 / 4.0}"
    #: 0.25% of the table between two bounds, in the middle of the price column.
    interval = (
        f"SELECT Q.Id FROM Quotes Q WHERE Q.Price >= {row_count / 8.0} "
        f"AND Q.Price < {row_count / 8.0 + row_count * 0.0025 / 4.0}"
    )
    with tempfile.TemporaryDirectory() as directory:
        db = _open_database(directory, row_count)
        seq_sel = db.execute(selective, deliver_results=True)
        seq_unsel = db.execute(unselective, deliver_results=True)
        db.execute("CREATE INDEX quotes_price_idx ON Quotes (Price)")
        idx_sel = db.execute(selective, optimize=True, deliver_results=True)
        idx_unsel = db.execute(unselective, optimize=True, deliver_results=True)
        # A write past the column maximum must not blind the chooser.
        db.catalog.table("Quotes").insert((row_count, float(row_count), "late"))
        db.close()
        # An index scan pins a heap page once per row, so its accesses
        # overcount pages: the interval pair counts the misses of a freshly
        # opened database instead.
        seq_int = _run_cold(directory, interval, optimize=False)
        idx_int = _run_cold(directory, interval, optimize=True)
    return {
        "row_count": row_count,
        "selective_seq_pages": seq_sel.metrics.buffer_accesses,
        "selective_index_pages": idx_sel.metrics.buffer_accesses,
        "page_reduction": round(
            seq_sel.metrics.buffer_accesses / max(1, idx_sel.metrics.buffer_accesses), 2
        ),
        "selective_seq_modeled_seconds": _modeled_seconds(seq_sel),
        "selective_index_modeled_seconds": _modeled_seconds(idx_sel),
        "unselective_kept_seq_scan": idx_unsel.metrics.index_lookups == 0,
        "interval_seq_pages": seq_int.metrics.buffer_misses,
        "interval_index_pages": idx_int.metrics.buffer_misses,
        "interval_page_reduction": round(
            seq_int.metrics.buffer_misses / max(1, idx_int.metrics.buffer_misses), 2
        ),
        "_same_rows": (
            idx_sel.row_set() == seq_sel.row_set()
            and idx_unsel.row_set() == seq_unsel.row_set()
            and idx_int.row_set() == seq_int.row_set()
        ),
        "_interval_rows": len(idx_int.rows),
        "_selective_index_lookups": idx_sel.metrics.index_lookups,
        "_interval_index_lookups": idx_int.metrics.index_lookups,
    }


def join_point(row_count):
    """Tiny outer vs indexed inner: hash join, then index nested-loop."""
    sql = "SELECT O.OId, Q.Price FROM Orders O, Quotes Q WHERE O.QuoteId = Q.Id"
    with tempfile.TemporaryDirectory() as directory:
        db = _open_database(directory, row_count)
        hash_join = db.execute(sql, deliver_results=True)
        db.execute("CREATE INDEX quotes_id_idx ON Quotes (Id)")
        index_join = db.execute(sql, optimize=True, deliver_results=True)
        db.close()
    return {
        "hash_join_pages": hash_join.metrics.buffer_accesses,
        "hash_join_modeled_seconds": _modeled_seconds(hash_join),
        "index_join_pages": index_join.metrics.buffer_accesses,
        "index_join_probes": index_join.metrics.index_lookups,
        "index_join_modeled_seconds": _modeled_seconds(index_join),
        "_same_rows": index_join.row_set() == hash_join.row_set(),
    }


ACCESS_PATHS = Sweep("index_access_paths", access_path_point, fixed={"row_count": ROW_COUNT})
JOIN = Sweep("index_nested_loop_join", join_point, fixed={"row_count": ROW_COUNT})


@pytest.mark.benchmark(group="indexes")
def test_index_scan_page_savings(run_sweep):
    """Selective predicate through the B-tree: >= 5x fewer pages touched."""
    (record,) = run_sweep(ACCESS_PATHS, "Index-scan access paths: pages touched, modeled seconds")
    snapshot("indexes", plain(record))

    # Same answers either way.
    assert record["_same_rows"]
    assert record["_interval_rows"] == int(record["row_count"] * 0.0025)

    # Both bounds reach the B-tree in one lookup, and it pays off >= 5x.
    assert record["_interval_index_lookups"] == 1
    assert record["interval_page_reduction"] >= 5.0

    # The index path was chosen from statistics alone and pays off >= 5x.
    assert record["_selective_index_lookups"] > 0
    assert record["page_reduction"] >= 5.0
    assert record["selective_index_modeled_seconds"] < record["selective_seq_modeled_seconds"]

    # The unselective predicate keeps the sequential scan.
    assert record["unselective_kept_seq_scan"]


@pytest.mark.benchmark(group="indexes")
def test_index_nested_loop_join(run_sweep):
    """Tiny outer vs indexed inner: per-row probes beat the hash join."""
    (record,) = run_sweep(JOIN, f"Index nested-loop join: {ORDER_COUNT} outer rows vs the indexed inner")

    assert record["_same_rows"]
    assert record["index_join_probes"] == ORDER_COUNT
    assert record["index_join_pages"] < record["hash_join_pages"]
    assert record["index_join_modeled_seconds"] < record["hash_join_modeled_seconds"]
