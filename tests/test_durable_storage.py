"""Durable storage end to end: the Database over a directory, statistics
persistence, histogram selectivity, observed evidence, and buffer metrics.

The module also carries the cross-process persistence leg used by CI: with
``REPRO_PERSIST_DIR`` and ``REPRO_PERSIST_PHASE=create|verify`` set, one
pytest run creates a database in the directory and a *separate* run verifies
that everything it wrote comes back.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import warnings

import pytest

from repro.adaptive import StatisticsStore
from repro.adaptive.observer import (
    JoinObservation,
    LinkObservation,
    PredicateObservation,
    QueryObservation,
)
from repro.core.optimizer import CostEstimator, operations_for_query
from repro.core.optimizer.cost import CostSettings
from repro.core.strategies import StrategyConfig
from repro.errors import StorageError
from repro.network.topology import NetworkConfig
from repro.relational.expressions import ColumnRef, Comparison, Literal
from repro.relational.predicates import estimate_selectivity
from repro.relational.statistics import (
    ColumnStatistics,
    Histogram,
    TableStatistics,
    apply_observed_evidence,
)
from repro.server.engine import Database
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.workloads.experiments import run_workload_point
from repro.workloads.synthetic import SyntheticWorkload

NETWORK = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="durable-fast")

ITEM_ROWS = [(index, float(index) * 1.5, f"item{index % 7}") for index in range(120)]


def _directory_snapshot(directory):
    """Every file in ``directory``: its modification time and its bytes."""
    snapshot = {}
    for name in os.listdir(directory):
        path = os.path.join(directory, name)
        with open(path, "rb") as handle:
            snapshot[name] = (os.stat(path).st_mtime_ns, handle.read())
    return snapshot


def make_database(storage_dir=None) -> Database:
    db = Database(network=NETWORK, storage_dir=storage_dir)
    db.create_table(
        "Items", [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)], rows=ITEM_ROWS
    )
    return db


# ---------------------------------------------------------------------------
# The paged Database: identical answers, identical wire
# ---------------------------------------------------------------------------


class TestPagedDatabase:
    QUERIES = [
        "SELECT I.Id, I.Price FROM Items I WHERE I.Id < 20",
        "SELECT I.Name FROM Items I WHERE I.Price > 100.0",
        "SELECT I.Id FROM Items I WHERE I.Name = 'item3'",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_paged_matches_memory_rows_and_wire_bytes(self, tmp_path, sql):
        """The storage backend changes where rows live, never what the wire
        carries: both backends must produce byte-identical traffic."""
        memory = make_database()
        paged = make_database(storage_dir=str(tmp_path))
        expected = memory.execute(sql, deliver_results=True)
        actual = paged.execute(sql, deliver_results=True)
        assert actual.row_set() == expected.row_set()
        assert actual.metrics.downlink_bytes == expected.metrics.downlink_bytes
        assert actual.metrics.uplink_bytes == expected.metrics.uplink_bytes
        assert actual.metrics.downlink_messages == expected.metrics.downlink_messages
        assert actual.metrics.uplink_messages == expected.metrics.uplink_messages
        paged.close()

    def test_workload_point_paged_matches_memory(self, tmp_path):
        """The Figure-7 style UDF workload: rows and wire bytes are identical
        whether the table is scanned from memory or from the heap file."""
        workload = SyntheticWorkload(
            row_count=40,
            input_record_bytes=120,
            argument_fraction=0.5,
            result_bytes=24,
            selectivity=0.5,
            distinct_fraction=0.5,
            udf_cost_seconds=0.0001,
        )
        config = StrategyConfig.semi_join()
        memory = run_workload_point(workload, NETWORK, config)
        paged = run_workload_point(
            workload, NETWORK, config, storage_dir=str(tmp_path)
        )
        assert paged.result_rows == memory.result_rows
        assert paged.downlink_bytes == memory.downlink_bytes
        assert paged.uplink_bytes == memory.uplink_bytes

    def test_restart_recovers_tables_and_rows(self, tmp_path):
        directory = str(tmp_path)
        db = make_database(storage_dir=directory)
        db.execute("SELECT I.Id FROM Items I WHERE I.Id = 5")
        db.close()

        reopened = Database(network=NETWORK, storage_dir=directory)
        assert reopened.catalog.has_table("Items")
        result = reopened.execute("SELECT I.Id, I.Name FROM Items I WHERE I.Id < 3")
        assert result.row_set() == [(0, "item0"), (1, "item1"), (2, "item2")]
        assert len(reopened.catalog.table("Items")) == len(ITEM_ROWS)
        reopened.close()

    def test_a_closed_database_refuses_storage_calls_and_closes_once(self, tmp_path):
        """After ``close()`` nothing reopens a file behind the caller's back:
        a query, an insert and DDL raise, and a second close writes nothing."""
        directory = str(tmp_path)
        db = Database(network=NETWORK, storage_dir=directory, buffer_pool_size=8)
        db.create_table("T", [("K", INTEGER), ("V", FLOAT)], rows=[(k, float(k)) for k in range(2000)])
        db.create_index("t_k", "T", "K", kind="hash")
        index = db.catalog.table("T").indexes()["t_k"]
        assert index.search_eq(3)  # its pages are now in the pool
        db.close()
        written = _directory_snapshot(directory)
        with pytest.raises(StorageError, match="closed"):
            db.execute("SELECT T.K FROM T WHERE T.K < 1500")
        with pytest.raises(StorageError, match="closed"):
            db.catalog.table("T").insert((2000, 2000.0))
        with pytest.raises(StorageError, match="closed"):
            index.search_eq(3)  # the pool forgot its pages: no read from a stale cache
        with pytest.raises(StorageError, match="closed"):
            db.create_table("U", [("K", INTEGER)])
        with pytest.raises(StorageError, match="closed"):
            db.create_index("t_v", "T", "V")
        db.close()
        db.storage.close()
        assert _directory_snapshot(directory) == written
        fresh = Database(network=NETWORK, storage_dir=directory)
        assert len(fresh.catalog.table("T")) == 2000
        assert fresh.catalog.table_names() == ["T"]
        fresh.close()

    def test_oversized_values_round_trip_through_overflow_pages(self, tmp_path):
        db = Database(network=NETWORK, storage_dir=str(tmp_path))
        big = "x" * 20_000  # several blocks worth: the overflow-chain path
        db.create_table(
            "Blobs", [("Id", INTEGER), ("Payload", STRING)], rows=[(1, big), (2, "small")]
        )
        result = db.execute("SELECT B.Payload FROM Blobs B WHERE B.Id = 1")
        assert result.rows[0][0] == big
        db.close()

    def test_catalog_statistics_come_from_metadata(self, tmp_path):
        db = make_database(storage_dir=str(tmp_path))
        stats = db.catalog.statistics("Items")
        assert stats.row_count == len(ITEM_ROWS)
        assert stats.column("Name").distinct_count == 7
        db.close()

    def test_buffer_metrics_stamped_on_result(self, tmp_path):
        db = make_database(storage_dir=str(tmp_path))
        result = db.execute("SELECT I.Id FROM Items I WHERE I.Id < 10")
        metrics = result.metrics
        assert metrics.buffer_accesses > 0
        assert 0.0 <= result.buffer_hit_ratio <= 1.0
        assert result.buffer_pinned_peak >= 1
        assert "buffer" in metrics.summary()
        db.close()

    def test_memory_database_reports_zero_buffer_traffic(self):
        db = make_database()
        result = db.execute("SELECT I.Id FROM Items I WHERE I.Id < 10")
        assert result.metrics.buffer_accesses == 0
        assert result.buffer_hit_ratio == 0.0
        assert "buffer" not in result.metrics.summary()


# ---------------------------------------------------------------------------
# Replace/drop invalidation (regression)
# ---------------------------------------------------------------------------


class TestReplaceAndDropInvalidation:
    def test_replace_resets_catalog_statistics(self, tmp_path):
        """Regression: before the storage catalog carried per-table StatInfo,
        a replaced table kept being priced from the old incarnation's
        statistics.  The replacement must start from its own (fresh) stats."""
        db = make_database(storage_dir=str(tmp_path))
        assert db.catalog.statistics("Items").row_count == len(ITEM_ROWS)
        db.create_table(
            "Items",
            [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)],
            rows=[(1, 1.0, "only")],
            replace=True,
        )
        stats = db.catalog.statistics("Items")
        assert stats.row_count == 1
        assert stats.column("Name").distinct_count == 1
        assert db.execute("SELECT I.Id FROM Items I").row_set() == [(1,)]
        db.close()

    def test_replace_forgets_observed_column_evidence(self, tmp_path):
        db = make_database(storage_dir=str(tmp_path))
        observation = QueryObservation(
            elapsed_seconds=0.1,
            predicates=(
                PredicateObservation(
                    predicate="Name = 'item3'",
                    input_rows=120,
                    output_rows=17,
                    equality_column="I.Name",
                ),
            ),
        )
        db.statistics.record(observation)
        assert "name" in db.statistics.column_distinct_evidence()
        db.create_table(
            "Items",
            [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)],
            rows=[(1, 1.0, "x")],
            replace=True,
        )
        assert "name" not in db.statistics.column_distinct_evidence()
        db.close()

    def test_drop_forgets_observed_column_evidence(self):
        db = make_database()
        db.statistics.record(
            QueryObservation(
                elapsed_seconds=0.1,
                joins=(
                    JoinObservation(
                        columns=("Items.Id", "Other.Id"),
                        left_rows=10,
                        right_rows=10,
                        output_rows=10,
                    ),
                ),
            )
        )
        assert db.statistics.join_selectivity(("Id",)) is not None
        db.drop_table("Items")
        assert db.statistics.join_selectivity(("Id",)) is None

    def test_drop_removes_storage_files(self, tmp_path):
        db = make_database(storage_dir=str(tmp_path))
        db.drop_table("Items")
        db.close()
        reopened = Database(network=NETWORK, storage_dir=str(tmp_path))
        assert not reopened.catalog.has_table("Items")
        reopened.close()


# ---------------------------------------------------------------------------
# Statistics store persistence (save / restore round trips)
# ---------------------------------------------------------------------------


def _observation_with_everything() -> QueryObservation:
    link = LinkObservation(
        name="down",
        total_bytes=100_000,
        payload_bytes=90_000,
        message_count=10,
        data_message_count=9,
        rows_transferred=900,
        busy_seconds=0.05,
        queueing_seconds=0.01,
    )
    return QueryObservation(
        elapsed_seconds=0.5,
        downlink=link,
        uplink=link,
        predicates=(
            PredicateObservation(
                predicate="Id = 5", input_rows=100, output_rows=4, equality_column="Id"
            ),
        ),
        joins=(
            JoinObservation(
                columns=("A.K", "B.K"), left_rows=20, right_rows=30, output_rows=60
            ),
        ),
        rows_returned=4,
        converged_batch_size=48,
        udf_batch_sizes={"score": 32},
    )


class TestStorePersistence:
    def test_full_round_trip(self, tmp_path):
        path = os.path.join(str(tmp_path), "stats.json")
        store = StatisticsStore(smoothing=0.5)
        for _ in range(3):  # several samples: EWMA value and count both matter
            store.record(_observation_with_everything())
        store.record(_observation_with_everything(), site="siteA")
        store._udf_selectivity.observe(("score", "Score(V) >= 100"), 0.25)
        store.save(path, fingerprint="fp")

        loaded = StatisticsStore.load(path, fingerprint="fp", smoothing=0.5)
        assert loaded.queries_observed == store.queries_observed
        assert loaded.observed_downlink_bandwidth == pytest.approx(
            store.observed_downlink_bandwidth
        )
        assert loaded._downlink_bandwidth.samples == store._downlink_bandwidth.samples
        assert loaded.observed_site_bandwidth("siteA") == store.observed_site_bandwidth(
            "siteA"
        )
        assert loaded.udf_selectivity(
            "Score", 9.9, predicate="Score(V) >= 100"
        ) == pytest.approx(0.25)
        assert loaded.predicate_selectivity("Id = 5", 9.9) == pytest.approx(
            store.predicate_selectivity("Id = 5", 9.9)
        )
        assert loaded.join_selectivity(("k",)) == pytest.approx(
            store.join_selectivity(("k",))
        )
        assert loaded.column_distinct_evidence() == store.column_distinct_evidence()
        assert loaded.preferred_batch_size() == store.preferred_batch_size() == 48
        assert loaded.preferred_batch_size_for("Score") == 32

    #: ``statistics.json`` exactly as PR 21 wrote it after the three queries
    #: below (client-site joins over T(K, V) = (k, k) for k < 100; bandwidth
    #: and batch sections trimmed — absent sections load as unobserved).
    PARENT_SNAPSHOT = """{
      "fingerprint": null,
      "predicate_identity_selectivity": {
        "((Score_result + Rank_result) >= 150 AND Rank_result < 60)": [0.125, 1],
        "((Score_result < 120 OR Rank_result > 90) AND Rank_result <> 7)": [0.6125, 1],
        "Score_result >= 100": [0.5, 1],
        "Score_result >= 40": [0.8, 1]
      },
      "predicate_selectivity": {"T.K < 80": [0.8, 1]},
      "queries_observed": 3,
      "smoothing": 0.5,
      "udf_cost": {"rank": [0.0005000000000000003, 2], "score": [0.0005000000000000003, 3]},
      "udf_distinct_fraction": {"rank": [1.0, 2], "score": [1.0, 3]},
      "udf_selectivity": [
        ["rank", "((Score_result + Rank_result) >= 150 AND Rank_result < 60)", [0.125, 1]],
        ["rank", "((Score_result < 120 OR Rank_result > 90) AND Rank_result <> 7)", [0.6125, 1]],
        ["score", "Score_result >= 100", [0.5, 1]],
        ["score", "Score_result >= 40", [0.8, 1]]
      ],
      "version": 1
    }"""
    PARENT_QUERIES = {
        "SELECT T.K FROM T WHERE Score(T.V) >= 100": {"Score": 0.5},
        "SELECT T.K FROM T WHERE T.K < 80 AND Score(T.V) + Rank(T.K) >= 150 AND Rank(T.K) < 60": {
            "Rank": 0.125
        },
        "SELECT T.K FROM T WHERE Score(T.V) >= 40 AND (Score(T.V) < 120 OR Rank(T.K) > 90) "
        "AND Rank(T.K) <> 7": {"Score": 0.8, "Rank": 0.6125},
    }

    def test_a_snapshot_the_parent_commit_wrote_answers_the_same_lookups(self, tmp_path):
        """Keys are worked out on the expression now, and rendered as before:
        the planner's operations find what the parent's text canonicaliser
        filed, multi-conjunct keys included, with no format version moved."""
        path = os.path.join(str(tmp_path), "statistics.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.PARENT_SNAPSHOT)
        store = StatisticsStore()
        assert store.restore(path, fingerprint="any") is True
        db = Database(network=NETWORK)
        db.create_table("T", [("K", INTEGER), ("V", FLOAT)], rows=[[k, float(k)] for k in range(100)])
        db.register_client_udf("Score", lambda v: v * 2.0, result_dtype=FLOAT, selectivity=0.5)
        db.register_client_udf("Rank", lambda k: k * 1.0, selectivity=0.5)
        for sql, expected in self.PARENT_QUERIES.items():
            bound = db.bind(sql)
            _, udfs = operations_for_query(bound, statistics=store)
            for udf in udfs:
                if udf.predicate_key is None:
                    continue
                want = expected[udf.name]
                assert store.udf_selectivity(udf.name, -1.0, predicate=udf.predicate_key) == want
                assert store.selectivity_prior(udf.name, udf.predicate_key) == want
            # ... and a fresh run of the same query writes the keys the parent wrote.
            db.execute(sql, config=StrategyConfig.client_site_join(batch_size=16))
        written = db.statistics.to_state()
        snapshot = store.to_state()
        for section in ("udf_selectivity", "predicate_identity_selectivity", "predicate_selectivity"):
            assert written[section] == snapshot[section]

    def test_missing_file_is_a_silent_cold_start(self, tmp_path):
        store = StatisticsStore()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning would fail the test
            assert store.restore(os.path.join(str(tmp_path), "nope.json")) is False

    def test_corrupt_file_warns_and_keeps_store_empty(self, tmp_path):
        path = os.path.join(str(tmp_path), "stats.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{this is not json")
        store = StatisticsStore()
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert store.restore(path) is False
        assert store.queries_observed == 0

    def test_version_mismatch_warns(self, tmp_path):
        path = os.path.join(str(tmp_path), "stats.json")
        store = StatisticsStore()
        store.record(_observation_with_everything())
        store.save(path)
        import json

        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["version"] = 999
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        fresh = StatisticsStore()
        with pytest.warns(RuntimeWarning, match="version"):
            assert fresh.restore(path) is False
        assert fresh.queries_observed == 0

    def test_fingerprint_mismatch_warns_and_starts_cold(self, tmp_path):
        path = os.path.join(str(tmp_path), "stats.json")
        store = StatisticsStore()
        store.record(_observation_with_everything())
        store.save(path, fingerprint="workload-A")
        fresh = StatisticsStore()
        with pytest.warns(RuntimeWarning, match="different"):
            assert fresh.restore(path, fingerprint="workload-B") is False
        assert fresh.queries_observed == 0

    def test_malformed_ewma_state_never_crashes(self, tmp_path):
        path = os.path.join(str(tmp_path), "stats.json")
        store = StatisticsStore()
        store.save(path)
        import json

        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["batch_size"] = ["not-a-number", "nan"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        fresh = StatisticsStore()
        fresh.record(_observation_with_everything())
        before = fresh.queries_observed
        with pytest.warns(RuntimeWarning):
            assert fresh.restore(path) is False
        assert fresh.queries_observed == before  # untouched on failure


def _split_counters(state):
    """A snapshot as (planning state, counters): the planning state is the
    snapshot with every ``[value, samples]`` pair read as its value and no
    ``queries_observed``, in a bit-exact JSON spelling; the counters are
    ``queries_observed`` and every sample count, by path."""
    counters = {"queries_observed": state["queries_observed"]}

    def strip(node, path):
        if isinstance(node, dict):
            return {key: strip(item, f"{path}/{key}") for key, item in node.items()}
        if isinstance(node, list):
            if len(node) == 2 and type(node[1]) is int and not isinstance(node[0], (list, str)):
                counters[path] = node[1]
                return node[0]
            return [strip(item, f"{path}/{position}") for position, item in enumerate(node)]
        return node

    planning = {key: item for key, item in state.items() if key != "queries_observed"}
    return json.dumps(strip(planning, ""), sort_keys=True), counters


@pytest.fixture
def store_saves(monkeypatch):
    """Counts :meth:`StatisticsStore.save` calls from a reset."""
    calls = []
    original = StatisticsStore.save

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(StatisticsStore, "save", counted)
    return calls


#: The child of the crash test: a durable database that learns from UDF and
#: point queries, dumps its store's full state and dies without ``close()``.
_CRASHING_CHILD = """
import json, os, sys
from repro.core.strategies import StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING
from repro.server.engine import Database

directory, dump = sys.argv[1:3]
db = Database(network=NetworkConfig.symmetric(2_000_000.0, latency=0.0005), storage_dir=directory)
db.create_table(
    "Items", [("Id", INTEGER), ("Price", FLOAT), ("Name", STRING)],
    rows=[(index, float(index) * 1.5, f"item{index % 7}") for index in range(120)],
)
db.register_client_udf("Score", lambda v: v * 2.0, result_dtype=FLOAT, selectivity=0.5)
queries = [
    "SELECT I.Id FROM Items I WHERE I.Id = 3",
    "SELECT I.Id, Score(I.Price) FROM Items I WHERE I.Id < 30 AND Score(I.Price) > 90",
    "SELECT I.Id FROM Items I WHERE I.Id = 40",
    "SELECT I.Id, Score(I.Price) FROM Items I WHERE I.Id < 90 AND Score(I.Price) > 90",
]
# The repeated UDF query moves an estimate it already had; the last query moves none.
for sql in queries + queries[1::-1]:
    db.execute(sql, config=StrategyConfig.semi_join(batch_size=16))
with open(dump, "w", encoding="utf-8") as handle:
    json.dump(db.statistics.to_state(), handle)
os._exit(0)
"""


class TestStatisticsWriteRule:
    """``statistics.json`` is rewritten after a query only when its planning
    state changed; ``close()`` still writes everything."""

    QUERY = "SELECT I.Id FROM Items I WHERE I.Id = 7"

    def test_the_store_needs_a_write_only_when_an_estimate_or_the_fingerprint_moved(self, tmp_path):
        path = os.path.join(str(tmp_path), "stats.json")
        store = StatisticsStore()
        assert store.needs_save(path, "A")  # never written
        store.record(_observation_with_everything())
        store.save(path, fingerprint="A")
        assert not store.needs_save(path, "A")
        store.record(_observation_with_everything())  # the same samples: no estimate moves
        assert store.queries_observed == 2
        assert not store.needs_save(path, "A")
        assert store.needs_save(path, "B")
        assert store.needs_save(path + ".other", "A")
        store.forget_columns(["Id"])  # drops the column's distinct-count evidence
        assert store.needs_save(path, "A")
        store.save(path, fingerprint="A")
        store.forget_columns(["Unseen"])
        assert not store.needs_save(path, "A")
        restored = StatisticsStore()
        assert restored.restore(path, fingerprint="A")
        assert not restored.needs_save(path, "A")

    def test_a_repeated_query_that_moves_no_estimate_writes_nothing(self, tmp_path, store_saves):
        db = make_database(storage_dir=str(tmp_path))
        db.execute(self.QUERY)
        assert len(store_saves) == 1
        before = db.statistics.to_state()
        for _ in range(5):
            db.execute(self.QUERY)
        assert len(store_saves) == 1
        after = db.statistics.to_state()
        assert _split_counters(after)[0] == _split_counters(before)[0]
        assert after["queries_observed"] == before["queries_observed"] + 5
        db.close()  # close writes the counters too
        assert len(store_saves) == 2
        with open(os.path.join(str(tmp_path), "statistics.json"), encoding="utf-8") as handle:
            assert json.load(handle)["queries_observed"] == after["queries_observed"]

    def test_the_fingerprint_is_worked_out_once_per_generation(self, tmp_path, monkeypatch):
        """Every durable execute reads the fingerprint; it is worked out again
        only after DDL or a UDF registration, and then names the new workload."""
        db = make_database(storage_dir=str(tmp_path))
        digests = []
        digest = Database._workload_digest
        monkeypatch.setattr(
            Database, "_workload_digest", lambda self: digests.append(1) or digest(self)
        )
        first = db.workload_fingerprint()
        for _ in range(3):
            db.execute(self.QUERY)
        assert len(digests) == 1 and db.workload_fingerprint() == first
        db.create_table("Extra", [("K", INTEGER)], rows=[(1,)])
        with_table = db.workload_fingerprint()
        db.register_client_udf("Twice", lambda value: 2.0 * value)
        with_udf = db.workload_fingerprint()
        db.register_client_udf("Twice", lambda value: 3.0 * value, replace=True)
        reregistered = db.workload_fingerprint()
        db.drop_table("Extra")
        dropped = db.workload_fingerprint()
        assert len(digests) == 5 and len({first, with_table, with_udf, dropped}) == 4
        # A definition under the same name is the same workload: names are digested.
        assert reregistered == with_udf
        db.close()

    def test_creating_a_table_after_a_query_rewrites_the_fingerprint(self, tmp_path, store_saves):
        directory = str(tmp_path)
        db = make_database(storage_dir=directory)
        db.execute(self.QUERY)
        db.execute(self.QUERY)
        assert len(store_saves) == 1
        db.create_table("Extra", [("K", INTEGER)], rows=[(1,)])
        db.execute(self.QUERY)  # no estimate moves, but the workload changed
        assert len(store_saves) == 2
        with open(os.path.join(directory, "statistics.json"), encoding="utf-8") as handle:
            assert json.load(handle)["fingerprint"] == db.workload_fingerprint()
        # A restart without close() accepts the snapshot: no stale fingerprint.
        restarted = Database(network=NETWORK, storage_dir=directory)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            restarted.execute(self.QUERY, observe=False)
        assert restarted.statistics.queries_observed > 0
        restarted.close()
        db.close()

    def test_a_crash_keeps_every_estimate_and_only_counters_lag(self, tmp_path):
        directory = str(tmp_path / "db")
        dump = str(tmp_path / "child_state.json")
        import repro

        source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        environment = dict(os.environ, PYTHONPATH=source)
        subprocess.run(
            [sys.executable, "-c", _CRASHING_CHILD, directory, dump], env=environment, check=True
        )
        with open(dump, encoding="utf-8") as handle:
            child = json.load(handle)
        reopened = Database(network=NETWORK, storage_dir=directory)
        reopened.register_client_udf("Score", lambda v: v * 2.0, result_dtype=FLOAT, selectivity=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened.execute("SELECT I.Id FROM Items I WHERE I.Id = 3", observe=False)
        restored = reopened.statistics.to_state()
        estimates, lagging = _split_counters(restored)
        expected, ahead = _split_counters(child)
        assert estimates == expected
        assert lagging.keys() == ahead.keys()
        assert all(lagging[path] <= ahead[path] for path in ahead)
        assert lagging["queries_observed"] < ahead["queries_observed"]  # the repeats wrote nothing
        reopened.close()


class TestDatabaseStatisticsPersistence:
    def test_execute_saves_and_restart_warm_starts(self, tmp_path):
        directory = str(tmp_path)
        db = make_database(storage_dir=directory)
        db.execute("SELECT I.Id FROM Items I WHERE I.Id < 10")
        assert os.path.exists(os.path.join(directory, "statistics.json"))
        observed = db.statistics.queries_observed
        assert observed >= 1
        db.close()

        warm = Database(network=NETWORK, storage_dir=directory)
        warm.execute("SELECT I.Id FROM Items I WHERE I.Id < 10")
        # restore() brought back the prior run's count before observing this one
        assert warm.statistics.queries_observed == observed + 1
        warm.close()

    def test_schema_change_invalidates_snapshot(self, tmp_path):
        directory = str(tmp_path)
        db = make_database(storage_dir=directory)
        db.execute("SELECT I.Id FROM Items I")
        db.close()

        changed = Database(network=NETWORK, storage_dir=directory)
        changed.create_table("Extra", [("K", INTEGER)], rows=[(1,)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            changed.execute("SELECT E.K FROM Extra E")
        # the fingerprint no longer matches: this run started cold
        assert changed.statistics.queries_observed == 1
        changed.close()


# ---------------------------------------------------------------------------
# Histogram range selectivity and observed evidence in estimates
# ---------------------------------------------------------------------------


class TestHistogramSelectivity:
    @staticmethod
    def _stats_with_histogram(values):
        return TableStatistics(
            row_count=len(values),
            columns={
                "price": ColumnStatistics(
                    name="price",
                    distinct_count=len(set(values)),
                    histogram=Histogram.build(values),
                )
            },
        )

    @staticmethod
    def _price(operator, literal):
        return Comparison(operator, ColumnRef("price"), Literal(literal))

    def test_range_uses_histogram_when_present(self):
        values = list(range(100))  # uniform 0..99
        stats = self._stats_with_histogram(values)
        predicate = self._price("<", 25)
        assert estimate_selectivity(predicate, stats) == pytest.approx(0.25, abs=0.05)
        predicate = self._price(">", 75)
        assert estimate_selectivity(predicate, stats) == pytest.approx(0.25, abs=0.05)

    def test_flipped_literal_side(self):
        stats = self._stats_with_histogram(list(range(100)))
        predicate = Comparison(">", Literal(25), ColumnRef("price"))  # 25 > price
        assert estimate_selectivity(predicate, stats) == pytest.approx(0.25, abs=0.05)

    def test_skew_is_captured(self):
        values = [1] * 90 + list(range(2, 12))  # 90% of mass at the bottom
        stats = self._stats_with_histogram(values)
        predicate = self._price("<", 3)
        assert estimate_selectivity(predicate, stats) > 0.8

    def test_no_statistics_keeps_flat_default(self):
        predicate = self._price("<", 25)
        assert estimate_selectivity(predicate, None) == pytest.approx(1.0 / 3.0)

    def test_no_histogram_keeps_flat_default(self):
        stats = TableStatistics(
            row_count=100,
            columns={"price": ColumnStatistics(name="price", distinct_count=100)},
        )
        predicate = self._price("<", 25)
        assert estimate_selectivity(predicate, stats) == pytest.approx(1.0 / 3.0)


class TestObservedEvidence:
    def test_evidence_fills_only_missing_columns(self):
        stats = TableStatistics(
            row_count=100,
            columns={"known": ColumnStatistics(name="known", distinct_count=10)},
        )
        patched = apply_observed_evidence(stats, {"known": 50.0, "t.unknown": 25.0})
        assert patched.column("known").distinct_count == 10  # exact stats win
        assert patched.column("unknown").distinct_count == 25
        assert stats.columns.keys() == {"known"}  # original untouched

    def test_evidence_capped_by_row_count(self):
        stats = TableStatistics(row_count=10, columns={})
        patched = apply_observed_evidence(stats, {"c": 1e6})
        assert patched.column("c").distinct_count == 10

    def test_store_evidence_flows_into_scan_estimates(self, tmp_path):
        """A measured equality selectivity overrides the neutral distinct
        default in the estimator's scan statistics."""
        db = make_database()
        bound = db.bind("SELECT I.Id FROM Items I WHERE I.Name = 'item3'")
        store = StatisticsStore(smoothing=1.0)
        store.record(
            QueryObservation(
                elapsed_seconds=0.1,
                predicates=(
                    PredicateObservation(
                        predicate="Name = 'item3'",
                        input_rows=120,
                        output_rows=60,  # selectivity 0.5 -> ~2 distinct values
                        equality_column="Name",
                    ),
                ),
            )
        )
        tables, _ = operations_for_query(bound)
        baseline = CostEstimator(NETWORK, bound).scan(tables[0])
        informed = CostEstimator(NETWORK, bound, statistics=store).scan(tables[0])
        name_key = next(k for k in informed.column_distinct if "Name" in k)
        # in-memory exact stats already know Name; evidence must not override
        assert informed.column_distinct[name_key] == baseline.column_distinct[name_key]

        # Strip the exact stats (simulate a catalog that has no Name column)
        table = db.catalog.table("Items")
        table.statistics.columns.pop("Name")
        informed = CostEstimator(NETWORK, bound, statistics=store).scan(tables[0])
        assert informed.column_distinct[name_key] == pytest.approx(2.0)

    def test_observed_join_selectivity_overrides_formula(self, tmp_path):
        db = Database(network=NETWORK)
        db.create_table("L", [("K", INTEGER), ("V", FLOAT)], rows=[(i, 0.0) for i in range(10)])
        db.create_table("R", [("K", INTEGER), ("W", FLOAT)], rows=[(i % 2, 0.0) for i in range(10)])
        bound = db.bind("SELECT L.V FROM L, R WHERE L.K = R.K")
        store = StatisticsStore(smoothing=1.0)
        store.record(
            QueryObservation(
                elapsed_seconds=0.1,
                joins=(
                    JoinObservation(
                        columns=("L.K", "R.K"),
                        left_rows=10,
                        right_rows=10,
                        output_rows=80,  # selectivity 0.8, far from 1/V
                    ),
                ),
            )
        )
        tables, _ = operations_for_query(bound)
        formula = CostEstimator(NETWORK, bound)
        observed = CostEstimator(NETWORK, bound, statistics=store)
        base = formula.join(formula.scan(tables[0]), tables[1])
        informed = observed.join(observed.scan(tables[0]), tables[1])
        assert informed.cardinality == pytest.approx(0.8 * base.cardinality / (1.0 / 10.0))
        assert informed.cardinality > base.cardinality


class TestBlockAccessCosting:
    def test_disabled_by_default(self, tmp_path):
        db = make_database(storage_dir=str(tmp_path))
        bound = db.bind("SELECT I.Id FROM Items I")
        tables, _ = operations_for_query(bound)
        plain = CostEstimator(NETWORK, bound).scan(tables[0])
        assert CostSettings().block_access_seconds == 0.0
        db.close()

        memory = make_database()
        memory_bound = memory.bind("SELECT I.Id FROM Items I")
        memory_tables, _ = operations_for_query(memory_bound)
        memory_plain = CostEstimator(NETWORK, memory_bound).scan(memory_tables[0])
        # with the gate closed, paged and in-memory scans price identically
        assert plain.cost == pytest.approx(memory_plain.cost)

    def test_paged_scan_pays_for_blocks_when_enabled(self, tmp_path):
        db = make_database(storage_dir=str(tmp_path))
        bound = db.bind("SELECT I.Id FROM Items I")
        tables, _ = operations_for_query(bound)
        settings = CostSettings(block_access_seconds=0.01)
        free = CostEstimator(NETWORK, bound).scan(tables[0])
        priced = CostEstimator(NETWORK, bound, settings=settings).scan(tables[0])
        blocks = db.catalog.table("Items").storage.block_count()
        assert blocks >= 1
        assert priced.cost == pytest.approx(free.cost + blocks * 0.01)
        db.close()


# ---------------------------------------------------------------------------
# Cross-process persistence leg (CI)
# ---------------------------------------------------------------------------


PERSIST_DIR = os.environ.get("REPRO_PERSIST_DIR")
PERSIST_PHASE = os.environ.get("REPRO_PERSIST_PHASE")


@pytest.mark.skipif(
    not (PERSIST_DIR and PERSIST_PHASE),
    reason="cross-process persistence leg: set REPRO_PERSIST_DIR and REPRO_PERSIST_PHASE",
)
def test_persistence_across_processes():
    """CI runs this twice against one directory: create, then verify."""
    if PERSIST_PHASE == "create":
        db = make_database(storage_dir=PERSIST_DIR)
        result = db.execute("SELECT I.Id, I.Name FROM Items I WHERE I.Id < 5")
        assert len(result.rows) == 5
        db.close()
        assert os.path.exists(os.path.join(PERSIST_DIR, "catalog.json"))
        assert os.path.exists(os.path.join(PERSIST_DIR, "statistics.json"))
    elif PERSIST_PHASE == "verify":
        db = Database(network=NETWORK, storage_dir=PERSIST_DIR)
        assert db.catalog.has_table("Items")
        result = db.execute("SELECT I.Id, I.Name FROM Items I WHERE I.Id < 5")
        assert result.row_set() == [(index, f"item{index}") for index in range(5)]
        assert len(db.catalog.table("Items")) == len(ITEM_ROWS)
        assert db.statistics.queries_observed >= 2  # prior run's query + this one
        db.close()
    else:  # pragma: no cover - mis-set environment
        pytest.fail(f"unknown REPRO_PERSIST_PHASE {PERSIST_PHASE!r}")
