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

Set ``REPRO_BENCH_SMOKE=1`` to run the reduced CI configuration (and record
the ``BENCH_indexes.json`` snapshot).
"""

from __future__ import annotations

import os
import tempfile

import pytest

from conftest import write_snapshot
from repro.core.optimizer.cost import CostSettings
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database
from repro.workloads.experiments import format_records

#: Reduced configuration for the CI smoke job.
SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

ROW_COUNT = 4000 if SMOKE else 12000
ORDER_COUNT = 8

NETWORK = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="bench-indexes")
COST = CostSettings(block_access_seconds=0.005)

#: Matches 4 rows (0.1% of the table) — far below the 5% line.
SELECTIVE_SQL = "SELECT Q.Id FROM Quotes Q WHERE Q.Price < 1.0"
#: Matches ~45% of the table — the scan must survive.
UNSELECTIVE_SQL = f"SELECT Q.Id FROM Quotes Q WHERE Q.Price < {ROW_COUNT * 0.45 / 4.0}"
#: 0.25% of the table between two bounds, in the middle of the price column.
INTERVAL_SQL = (
    f"SELECT Q.Id FROM Quotes Q WHERE Q.Price >= {ROW_COUNT / 8.0} "
    f"AND Q.Price < {ROW_COUNT / 8.0 + ROW_COUNT * 0.0025 / 4.0}"
)
JOIN_SQL = "SELECT O.OId, Q.Price FROM Orders O, Quotes Q WHERE O.QuoteId = Q.Id"


def _open_database(directory: str) -> Database:
    db = Database(network=NETWORK, storage_dir=directory, cost_settings=COST)
    db.create_table(
        "Quotes",
        [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)],
        rows=[(i, float(i) / 4.0, f"name{i % 50}") for i in range(ROW_COUNT)],
    )
    db.create_table(
        "Orders",
        [("OId", INTEGER), ("QuoteId", INTEGER)],
        rows=[(i, i * (ROW_COUNT // ORDER_COUNT)) for i in range(ORDER_COUNT)],
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
    return (
        result.metrics.elapsed_seconds
        + result.metrics.buffer_accesses * COST.block_access_seconds
    )


@pytest.mark.benchmark(group="indexes")
def test_index_scan_page_savings(benchmark, once):
    """Selective predicate through the B-tree: >= 5x fewer pages touched."""

    def run():
        with tempfile.TemporaryDirectory() as directory:
            db = _open_database(directory)
            seq_selective = db.execute(SELECTIVE_SQL, deliver_results=True)
            seq_unselective = db.execute(UNSELECTIVE_SQL, deliver_results=True)
            db.execute("CREATE INDEX quotes_price_idx ON Quotes (Price)")
            idx_selective = db.execute(
                SELECTIVE_SQL, optimize=True, deliver_results=True
            )
            idx_unselective = db.execute(
                UNSELECTIVE_SQL, optimize=True, deliver_results=True
            )
            # A write past the column maximum must not blind the chooser.
            db.catalog.table("Quotes").insert((ROW_COUNT, float(ROW_COUNT), "late"))
            db.close()
            seq_interval = _run_cold(directory, INTERVAL_SQL, optimize=False)
            idx_interval = _run_cold(directory, INTERVAL_SQL, optimize=True)
        return (
            seq_selective, seq_unselective, idx_selective, idx_unselective,
            seq_interval, idx_interval,
        )

    seq_sel, seq_unsel, idx_sel, idx_unsel, seq_int, idx_int = once(benchmark, run)

    records = [
        {
            "query": "selective (0.1%)",
            "plan": "seq scan",
            "pages": seq_sel.metrics.buffer_accesses,
            "index_pages": 0,
            "modeled_s": round(_modeled_seconds(seq_sel), 4),
        },
        {
            "query": "selective (0.1%)",
            "plan": "index scan",
            "pages": idx_sel.metrics.buffer_accesses,
            "index_pages": idx_sel.metrics.index_pages_read,
            "modeled_s": round(_modeled_seconds(idx_sel), 4),
        },
        {
            "query": "unselective (45%)",
            "plan": "seq scan",
            "pages": seq_unsel.metrics.buffer_accesses,
            "index_pages": 0,
            "modeled_s": round(_modeled_seconds(seq_unsel), 4),
        },
        {
            "query": "unselective (45%)",
            "plan": "optimized",
            "pages": idx_unsel.metrics.buffer_accesses,
            "index_pages": idx_unsel.metrics.index_pages_read,
            "modeled_s": round(_modeled_seconds(idx_unsel), 4),
        },
        {
            "query": "two-sided (0.25%)",
            "plan": "seq scan",
            "pages": seq_int.metrics.buffer_misses,
            "index_pages": 0,
            "modeled_s": round(_modeled_seconds(seq_int), 4),
        },
        {
            "query": "two-sided (0.25%)",
            "plan": "interval scan",
            "pages": idx_int.metrics.buffer_misses,
            "index_pages": idx_int.metrics.index_pages_read,
            "modeled_s": round(_modeled_seconds(idx_int), 4),
        },
    ]
    reduction = seq_sel.metrics.buffer_accesses / max(
        1, idx_sel.metrics.buffer_accesses
    )
    interval_reduction = seq_int.metrics.buffer_misses / max(1, idx_int.metrics.buffer_misses)
    print(f"\nIndex-scan access paths over {ROW_COUNT} rows")
    print(format_records(records, ["query", "plan", "pages", "index_pages", "modeled_s"]))
    print(f"selective-page reduction: {reduction:.1f}x")
    print(f"two-sided-interval page reduction: {interval_reduction:.1f}x")

    # Same answers either way.
    assert idx_sel.row_set() == seq_sel.row_set()
    assert idx_unsel.row_set() == seq_unsel.row_set()
    assert idx_int.row_set() == seq_int.row_set()
    assert len(idx_int.rows) == int(ROW_COUNT * 0.0025)

    # Both bounds reach the B-tree in one lookup, and it pays off >= 5x.
    assert idx_int.metrics.index_lookups == 1
    assert interval_reduction >= 5.0

    # The index path was chosen from statistics alone and pays off >= 5x.
    assert idx_sel.metrics.index_lookups > 0
    assert reduction >= 5.0
    assert _modeled_seconds(idx_sel) < _modeled_seconds(seq_sel)

    # The unselective predicate keeps the sequential scan.
    assert idx_unsel.metrics.index_lookups == 0

    write_snapshot(
        "indexes",
        {
            "row_count": ROW_COUNT,
            "selective_seq_pages": seq_sel.metrics.buffer_accesses,
            "selective_index_pages": idx_sel.metrics.buffer_accesses,
            "page_reduction": round(reduction, 2),
            "selective_seq_modeled_seconds": round(_modeled_seconds(seq_sel), 6),
            "selective_index_modeled_seconds": round(_modeled_seconds(idx_sel), 6),
            "unselective_kept_seq_scan": idx_unsel.metrics.index_lookups == 0,
            "interval_seq_pages": seq_int.metrics.buffer_misses,
            "interval_index_pages": idx_int.metrics.buffer_misses,
            "interval_page_reduction": round(interval_reduction, 2),
        },
    )


@pytest.mark.benchmark(group="indexes")
def test_index_nested_loop_join(benchmark, once):
    """Tiny outer vs indexed inner: per-row probes beat the hash join."""

    def run():
        with tempfile.TemporaryDirectory() as directory:
            db = _open_database(directory)
            hash_join = db.execute(JOIN_SQL, deliver_results=True)
            db.execute("CREATE INDEX quotes_id_idx ON Quotes (Id)")
            index_join = db.execute(JOIN_SQL, optimize=True, deliver_results=True)
            db.close()
        return hash_join, index_join

    hash_join, index_join = once(benchmark, run)

    records = [
        {
            "plan": "hash join",
            "pages": hash_join.metrics.buffer_accesses,
            "probes": 0,
            "modeled_s": round(_modeled_seconds(hash_join), 4),
        },
        {
            "plan": "index nested-loop",
            "pages": index_join.metrics.buffer_accesses,
            "probes": index_join.metrics.index_lookups,
            "modeled_s": round(_modeled_seconds(index_join), 4),
        },
    ]
    print(f"\nIndex nested-loop join: {ORDER_COUNT} outer rows vs {ROW_COUNT} inner")
    print(format_records(records, ["plan", "pages", "probes", "modeled_s"]))

    assert index_join.row_set() == hash_join.row_set()
    assert index_join.metrics.index_lookups == ORDER_COUNT
    assert index_join.metrics.buffer_accesses < hash_join.metrics.buffer_accesses
    assert _modeled_seconds(index_join) < _modeled_seconds(hash_join)
