"""Secondary indexes: the optimizer swaps a heap scan for a B-tree probe.

A durable table starts as a heap file the executor can only scan front to
back.  This example walks the full access-path story on one table:

1. run a selective query with nothing but the heap — every page is read;
2. ``db.analyze(...)`` refreshes the catalog histograms so the optimizer
   can *see* that the predicate is selective;
3. ``CREATE INDEX`` builds a paged B-tree over the filter column;
4. the same query, re-optimized, probes the index and touches a handful of
   pages — chosen purely from catalog statistics, no hints;
5. an unselective query on the same table keeps the sequential scan
   (Yao's formula: it would touch nearly every heap page anyway);
6. a two-sided range over 0.25% of the table, after a write past the column
   maximum: both bounds reach the B-tree as *one* interval, and the
   histogram — widened by the write, not discarded — still prices it.

Index access paths only compete when block accesses cost something:
``CostSettings(block_access_seconds=...)`` opts in (the default of 0.0
keeps plans identical to the index-free engine).

Run with::

    python examples/indexes.py
"""

from __future__ import annotations

import tempfile

from repro import NetworkConfig
from repro.core.optimizer import CostSettings
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database

NETWORK = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="indexes")

SELECTIVE_SQL = "SELECT Q.Id, Q.Name FROM Quotes Q WHERE Q.Price < 1.0"
UNSELECTIVE_SQL = "SELECT Q.Id FROM Quotes Q WHERE Q.Price < 450.0"
#: 10 of 4,000 rows, in the middle of the column.
INTERVAL_SQL = "SELECT Q.Id FROM Quotes Q WHERE Q.Price >= 500.0 AND Q.Price < 502.5"


def report(label: str, result) -> None:
    metrics = result.metrics
    print(
        f"  {label:<28} rows={len(result.rows):>4}  "
        f"pages={metrics.buffer_accesses:>3}  "
        f"index lookups={metrics.index_lookups}  "
        f"index pages={metrics.index_pages_read}"
    )


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        db = Database(
            network=NETWORK,
            storage_dir=directory,
            cost_settings=CostSettings(block_access_seconds=0.005),
        )
        db.create_table(
            "Quotes",
            [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)],
            rows=[(i, float(i) / 4.0, f"name{i % 50}") for i in range(4000)],
        )

        print("1) heap scan only (no index, no fresh statistics):")
        report("seq scan", db.execute(SELECTIVE_SQL, deliver_results=True))

        print("2) ANALYZE refreshes the catalog histograms,")
        db.analyze("Quotes")
        print("3) CREATE INDEX builds the B-tree:")
        db.execute("CREATE INDEX quotes_price_idx ON Quotes (Price)")
        print(f"   indexes now: {db.index_names()}")

        print("4) the optimizer picks the index path from statistics alone:")
        indexed = db.execute(SELECTIVE_SQL, optimize=True, deliver_results=True)
        report("index scan", indexed)
        print("   plan:")
        for line in indexed.plan_text.splitlines():
            print(f"     {line}")

        print("5) the unselective predicate keeps the sequential scan:")
        report("seq scan (45% match)",
               db.execute(UNSELECTIVE_SQL, optimize=True, deliver_results=True))

        print("6) a two-sided range, after an insert past the column maximum:")
        db.catalog.table("Quotes").insert((4000, 4000.0, "late"))
        report("interval scan (0.25% match)",
               db.execute(INTERVAL_SQL, optimize=True, deliver_results=True))
        for line in db.explain(INTERVAL_SQL, optimize=True).splitlines():
            print(f"     {line}")

        db.close()


if __name__ == "__main__":
    main()
