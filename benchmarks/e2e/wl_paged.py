"""``paged_mix``: the durable, paged, indexed database under reads *and* writes.

The only workload where ``storage`` (buffer pool, heap file, B-tree and hash
index, catalog flush) dominates.  ``Quotes(Id, Price, Name, Series)`` holds
6000 rows in about 430 4-KB heap pages — roughly 7x the 64-page (256 KB)
buffer pool, so the working set does not fit and the pool really evicts.
Reads (skewed point lookups, B-tree range scans, range + UDF, full scan +
UDF) and writes (insert batches, delete sweeps, close + reopen) sit side by
side because lowering the cost of one usually raises another: a WAL,
checksums or fsync will cost the write kinds and the space ratio, a better
index build or eviction policy will move ``setup_s`` and the read kinds.
The four in-memory workloads are the bypass case.

The oracle is a dict model of the table updated by the same inserts and
deletes, consulted for every read and compared row for row with the whole
table after every reopen.
"""

from __future__ import annotations

import bisect
import os
import random
import shutil
import statistics
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import probes
from metrics import KINDS
from harness import WORK_DIR, Op, Sample, Workload, sample_from_result
from repro.core.optimizer.cost import CostSettings
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database

COLUMNS = [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING), ("Series", TIME_SERIES)]
#: Points per series: 28-32, drawn per row, so row sizes differ a little.
SERIES_POINTS = (28, 32)
POOL_PAGES = 64
BLOCK_BYTES = 4096
INSERTS_PER_BATCH = 25
#: Rows a range scan (0.25 %) and a range + UDF query (1 %) return, exactly.
RANGE_FRACTION = 0.0025
RANGE_UDF_FRACTION = 0.01
HOT_KEY_FRACTION = 0.2
HOT_PROBE_FRACTION = 0.8


def score(series: TimeSeries) -> float:
    return sum(series) / len(series)


def user_bytes(row: tuple) -> int:
    """Plain payload bytes of one row, independent of the program's encoding."""
    return 8 + 8 + len(row[2].encode("utf-8")) + 8 * len(row[3])


class PagedMix(Workload):
    name = "paged_mix"
    kinds = KINDS[name]

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.rows = 400 if smoke else 6000
        # Per round: about the issue's 300/100/40/3/8 mix, scaled to ~1.5 s.
        self.mix = (
            {"point_lookup": 8, "range_scan": 2, "range_udf": 2, "full_scan_udf": 1, "writes": 1}
            if smoke
            else {"point_lookup": 40, "range_scan": 12, "range_udf": 5, "full_scan_udf": 1, "writes": 1}
        )
        # Slow enough that shipped bytes, not only UDF compute, set simulated time.
        self.network = NetworkConfig.symmetric(250_000.0, latency=0.0005, name="paged-mix")
        self.cost = CostSettings(block_access_seconds=0.005)
        self.rng = random.Random(seed)
        self.initial = [self._new_row(index, slot=index) for index in range(self.rows)]
        self.rng.shuffle(self.initial)
        self.hot = self.rng.sample(range(self.rows), max(1, int(self.rows * HOT_KEY_FRACTION)))
        self.directory: Optional[str] = None
        self.db: Any = None
        self._reset_model()
        #: Host sub-timings the operations take themselves (seconds).
        self.timers: Dict[str, List[float]] = {"insert_row": [], "delete_sweep": [], "reopen": []}
        self.parts: Dict[str, float] = {}

    # -- generation ---------------------------------------------------------------------

    def _new_row(self, row_id: int, slot: int) -> tuple:
        rng = self.rng
        # One price per grid slot: prices stay distinct, so ranges have exact sizes.
        price = round(slot * 0.5 + rng.uniform(0.0, 0.4), 2)
        points = rng.randint(*SERIES_POINTS)
        series = TimeSeries([round(rng.uniform(1.0, 100.0), 2) for _ in range(points)])
        return (row_id, price, f"name{rng.randrange(50):02d}", series)

    def _reset_model(self) -> None:
        self.model: Dict[int, tuple] = {row[0]: row for row in self.initial}
        self.by_price: List[Tuple[float, int]] = sorted((row[1], row[0]) for row in self.initial)
        self.free_slots = list(range(self.rows, self.rows + 4 * INSERTS_PER_BATCH))
        self.next_id = self.rows
        # Initial rows sit on the grid slot that equals their Id.
        self._slot_of = {row[0]: row[0] for row in self.initial}

    def config(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "series_points": list(SERIES_POINTS),
            "pool_pages": POOL_PAGES,
            "block_bytes": BLOCK_BYTES,
            "ops_per_round": sum(self.mix.values()) + self.mix["writes"] + 1,
            "mix": self.mix,
        }

    # -- set-up -------------------------------------------------------------------------

    def _open(self) -> Any:
        db = Database(
            network=self.network,
            storage_dir=self.directory,
            buffer_pool_size=POOL_PAGES,
            cost_settings=self.cost,
        )
        db.register_client_udf(
            "Score", score, result_dtype=FLOAT, result_size_bytes=8, cost_per_call_seconds=0.0005
        )
        return db

    def setup(self) -> Dict[str, float]:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.directory = tempfile.mkdtemp(prefix="paged_mix_", dir=WORK_DIR)
        self._reset_model()
        clock = time.perf_counter
        marks = [clock()]
        self.db = self._open()
        self.db.create_table("Quotes", COLUMNS, rows=self.initial)
        marks.append(clock())
        self.db.create_index("quotes_price", "Quotes", "Price", kind="btree")
        marks.append(clock())
        self.db.create_index("quotes_id", "Quotes", "Id", kind="hash")
        marks.append(clock())
        self.db.analyze("Quotes")
        self._mark = self._io()
        self.parts = {
            "storage.load_host_s": marks[1] - marks[0],
            "storage.btree_build_host_s": marks[2] - marks[1],
            "storage.hash_build_host_s": marks[3] - marks[2],
        }
        return self.parts

    def teardown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = None
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None
        if os.path.isdir(WORK_DIR) and not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)

    def udf_registries(self) -> List[Any]:
        return [self.db.udfs]

    # -- I/O accounting (read between operations; only reopen reads it inside its call) --

    def _io(self) -> Tuple[int, int, int, int, int]:
        stats = self.db.storage.buffer_stats()
        files = self.db.storage.files
        return (stats.hits, stats.misses, stats.evictions, files.blocks_read, files.blocks_written)

    def _account(self, sample: Sample, carried: Tuple[int, ...] = (0, 0, 0, 0, 0)) -> Sample:
        now = self._io()
        delta = [after - before + extra for after, before, extra in zip(now, self._mark, carried)]
        names = (
            "storage.buffer_hits",
            "storage.buffer_misses",
            "storage.buffer_evictions",
            "storage.file_reads",
            "storage.file_writes",
        )
        sample.counters.update(zip(names, delta))
        return sample

    def _settle(self) -> None:
        """Start the next operation's I/O window (after any verification traffic)."""
        self._mark = self._io()

    # -- operations ---------------------------------------------------------------------

    def _read(self, kind: str, sql: str, expected: List[tuple]) -> Op:
        def verify(result: Any) -> Sample:
            sample = self._account(sample_from_result(result, expected))
            self._settle()
            return sample

        return Op(kind, lambda: self.db.execute(sql, optimize=True, deliver_results=True), verify)

    @staticmethod
    def _point_sql(row_id: int) -> str:
        return f"SELECT Q.Id, Q.Price, Q.Name FROM Quotes Q WHERE Q.Id = {row_id}"

    def _point(self, row_id: int) -> Op:
        row = self.model.get(row_id)
        return self._read("point_lookup", self._point_sql(row_id), [row[:3]] if row else [])

    def _range(self, kind: str, fraction: float) -> Op:
        size = max(1, int(len(self.by_price) * fraction))
        start = self.rng.randrange(len(self.by_price) - size)
        low, high = self.by_price[start][0], self.by_price[start + size][0]
        ids = [row_id for _price, row_id in self.by_price[start : start + size]]
        where = f"FROM Quotes Q WHERE Q.Price >= {low} AND Q.Price < {high}"
        if kind == "range_scan":
            expected = sorted((row_id, self.model[row_id][1]) for row_id in ids)
            return self._read(kind, f"SELECT Q.Id, Q.Price {where}", expected)
        expected = sorted((row_id, score(self.model[row_id][3])) for row_id in ids)
        return self._read(kind, f"SELECT Q.Id, Score(Q.Series) {where}", expected)

    def _full_scan(self) -> Op:
        threshold = round(self.rng.uniform(45.0, 55.0), 3)
        expected = sorted(
            (row_id,) for row_id, row in self.model.items() if score(row[3]) > threshold
        )
        return self._read(
            "full_scan_udf", f"SELECT Q.Id FROM Quotes Q WHERE Score(Q.Series) > {threshold}", expected
        )

    def _insert_batch(self) -> Op:
        rows = []
        for _ in range(INSERTS_PER_BATCH):
            slot = self.free_slots.pop(self.rng.randrange(len(self.free_slots)))
            row = self._new_row(self.next_id, slot)
            self.next_id += 1
            self.model[row[0]] = row
            self._slot_of[row[0]] = slot
            bisect.insort(self.by_price, (row[1], row[0]))
            rows.append(row)
        probe = rows[-1]

        def call() -> Any:
            table = self.db.catalog.table("Quotes")
            started = time.perf_counter()
            for row in rows:
                table.insert(row)
            self.timers["insert_row"].append((time.perf_counter() - started) / len(rows))
            # The query makes Database._finalize_result flush the dirty pages.
            return self.db.execute(self._point_sql(probe[0]), optimize=True, deliver_results=True)

        def verify(result: Any) -> Sample:
            sample = self._account(sample_from_result(result, [probe[:3]]))
            sample.counters["storage.user_bytes_written"] = sum(user_bytes(row) for row in rows)
            self._settle()
            return sample

        return Op("insert_batch", call, verify)

    def _delete_sweep(self) -> Op:
        hot = set(self.hot)
        candidates = sorted(row_id for row_id in self.model if row_id not in hot)
        victims = set(self.rng.sample(candidates, INSERTS_PER_BATCH))
        for row_id in victims:
            row = self.model.pop(row_id)
            self.by_price.remove((row[1], row_id))
            self.free_slots.append(self._slot_of.pop(row_id))
        probe = min(victims)

        def call() -> Any:
            table = self.db.catalog.table("Quotes")
            started = time.perf_counter()
            deleted = table.delete(lambda row: row[0] in victims)
            self.timers["delete_sweep"].append(time.perf_counter() - started)
            result = self.db.execute(self._point_sql(probe), optimize=True, deliver_results=True)
            return deleted, result

        def verify(raw: Any) -> Sample:
            deleted, result = raw
            sample = self._account(sample_from_result(result, []))
            if deleted != len(victims):
                sample.fail(f"delete sweep removed {deleted} rows, expected {len(victims)}")
            self._settle()
            return sample

        return Op("delete_sweep", call, verify)

    def _reopen(self) -> Op:
        probe = self.rng.choice(sorted(self.model))
        expected_row = self.model[probe][:3]
        expected_table = sorted(self.model.values())
        carried: List[Tuple[int, ...]] = []

        def call() -> Any:
            started = time.perf_counter()
            before_close = self._io()
            self.db.close()
            carried.append(tuple(a - b for a, b in zip(before_close, self._mark)))
            self.db = self._open()
            self._mark = (0, 0, 0, 0, 0)
            self.timers["reopen"].append(time.perf_counter() - started)
            return self.db.execute(self._point_sql(probe), optimize=True, deliver_results=True)

        def verify(result: Any) -> Sample:
            sample = self._account(sample_from_result(result, [expected_row]), carried.pop())
            # The model is checked again, whole, against what survived the reopen.
            recovered = sorted(tuple(row) for row in self.db.catalog.table("Quotes").rows)
            if recovered != expected_table:
                sample.fail("table contents after reopen differ from the model")
            self._settle()
            return sample

        return Op("reopen_lookup", call, verify)

    def round_ops(self) -> List[Op]:
        """Build the round against the model, replaying its own writes in order."""
        rng = self.rng
        plan = (
            ["point_lookup"] * self.mix["point_lookup"]
            + ["range_scan"] * self.mix["range_scan"]
            + ["range_udf"] * self.mix["range_udf"]
            + ["full_scan_udf"] * self.mix["full_scan_udf"]
        )
        rng.shuffle(plan)
        # Write batches at even spacing: insert, then (a few reads later) the sweep.
        writes = self.mix["writes"]
        for index in range(writes):
            at = (index + 1) * len(plan) // (writes + 1)
            plan.insert(at, "insert_batch")
            plan.insert(min(len(plan), at + 4), "delete_sweep")
        ops: List[Op] = []
        for kind in plan:
            if kind == "point_lookup":
                if rng.random() < HOT_PROBE_FRACTION:
                    ops.append(self._point(rng.choice(self.hot)))
                else:
                    ops.append(self._point(rng.choice(sorted(self.model))))
            elif kind == "range_scan":
                ops.append(self._range(kind, RANGE_FRACTION))
            elif kind == "range_udf":
                ops.append(self._range(kind, RANGE_UDF_FRACTION))
            elif kind == "full_scan_udf":
                ops.append(self._full_scan())
            elif kind == "insert_batch":
                ops.append(self._insert_batch())
            else:
                ops.append(self._delete_sweep())
        ops.append(self._reopen())
        return ops

    # -- measurements -------------------------------------------------------------------

    def _disk_bytes(self) -> int:
        return sum(
            os.path.getsize(os.path.join(self.directory, name))
            for name in os.listdir(self.directory)
        )

    def after_sim_rounds(self) -> Dict[str, float]:
        self.db.storage.flush()
        live = sum(user_bytes(row) for row in self.model.values())
        disk = self._disk_bytes()
        self._settle()
        return {"storage.disk_bytes": float(disk), "storage.disk_bytes_per_user_byte": disk / live}

    def layer_metrics(self, traced: Any, spans: Any) -> Dict[str, float]:
        metrics = dict(self.parts)
        hits = traced.counter("storage.buffer_hits")
        misses = traced.counter("storage.buffer_misses")
        written = traced.counter("storage.user_bytes_written")
        metrics.update(
            {
                "storage.buffer_hits": hits,
                "storage.buffer_misses": misses,
                "storage.buffer_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
                "storage.buffer_evictions": traced.counter("storage.buffer_evictions"),
                "storage.file_reads": traced.counter("storage.file_reads"),
                "storage.file_writes": traced.counter("storage.file_writes"),
                "storage.bytes_written_per_user_byte": (
                    traced.counter("storage.file_writes") * BLOCK_BYTES / written if written else 0.0
                ),
                "storage.insert_host_us_per_row": statistics.median(self.timers["insert_row"]) * 1e6,
                "storage.delete_host_ms_per_sweep": statistics.median(self.timers["delete_sweep"])
                * 1e3,
                "storage.reopen_host_ms": statistics.median(self.timers["reopen"]) * 1e3,
            }
        )
        keys = [self.rng.choice(self.hot) for _ in range(200)]
        metrics.update(probes.storage_point_lookup(self.db, "Quotes", "quotes_id", keys))
        series = [(row[3],) for row in self.model.values()]
        metrics.update(probes.udf_bare_call({"Score": score}, {"Score": series}))
        low, high = self.by_price[0][0], self.by_price[len(self.by_price) // 100][0]
        metrics.update(
            probes.server_subtree(
                self.db,
                [f"SELECT Q.Id, Score(Q.Series) FROM Quotes Q WHERE Q.Price >= {low} AND Q.Price < {high}"],
            )
        )
        return metrics
