"""Per-message schedule digests: the wire schedule as a committed contract.

The simulator's host-side shortcuts (events skipped on quiet instants, the
semi-join's per-reply handoff) must not move a single message: not its link,
kind, size, row count, transmission start or arrival time, and not its
position in the global order — on private channels *and* on shared
FIFO / DRR trunks, where the order of same-instant events decides who
transmits next.  This module records exactly that for a fixed list of
scenarios and reduces each to a SHA-256 digest; ``tests/data/
schedule_digests.json`` holds the digests recorded at the commit *before* the
shortcuts existed, and ``tests/test_schedule_digest.py`` recomputes and
compares them exactly.

Regenerate (only when a change is *meant* to move the schedule)::

    PYTHONPATH=src python tests/schedule_digest.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.network.message import Message
from repro.network.resources import Store
from repro.network.simulator import Simulator
from repro.network.stats import TransferCounters
from repro.network.topology import NetworkConfig
from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database
from repro.tenancy.driver import MultiTenantEngine, QuerySpec, SessionWorkload
from repro.workloads.multitenant import (
    bulk_session,
    make_tenant_database,
    mixed_traffic,
)
from repro.workloads.sharding import FILTER_SQL, make_sharded_setup
from repro.workloads.stock import StockWorkload

DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "schedule_digests.json")


# ---------------------------------------------------------------------------
# Recording
# ---------------------------------------------------------------------------


@contextmanager
def recorded_schedule() -> Iterator[List[Tuple]]:
    """Log every transmission and every mailbox arrival, in global order.

    A transmission entry is written where the link (or the shared trunk)
    books the message — ``(link, kind, bytes, rows, now, queued_for,
    transmission)``, which fixes the transmission start; an arrival entry is
    written when the message enters its destination mailbox — ``(mailbox,
    kind, bytes, rows, now)``.  Floats are logged as hex so the digest is
    exact.  Hooks are class-level and removed on exit.
    """
    log: List[Tuple] = []
    clock: List[Simulator] = []

    original_step = Simulator.step
    original_record = TransferCounters.record
    # Messages enter a mailbox through ``put`` (event-returning), through
    # ``post`` where nobody waits on the put, or through ``deliver``, which
    # hands an arrival straight to a parked reader and otherwise posts it;
    # hook whichever exists, and log an arrival once however it nests.
    entry_points = [name for name in ("put", "post", "deliver") if hasattr(Store, name)]
    originals = {name: getattr(Store, name) for name in entry_points}
    in_entry: List[object] = []  # the items whose entry is under way, innermost last

    def step(self):
        clock[:] = [self]
        return original_step(self)

    def record(self, message, queued_for, transmission):
        log.append(
            (
                "tx",
                self.name,
                message.kind.value,
                message.size_bytes,
                message.row_count,
                clock[0].now.hex(),
                float(queued_for).hex(),
                float(transmission).hex(),
            )
        )
        return original_record(self, message, queued_for, transmission)

    def entering(name: str) -> Callable:
        original = originals[name]

        def enter(self, item):
            if isinstance(item, Message) and not (in_entry and in_entry[-1] is item):
                log.append(
                    (
                        "rx",
                        self.name,
                        item.kind.value,
                        item.size_bytes,
                        item.row_count,
                        self.simulator.now.hex(),
                    )
                )
            in_entry.append(item)
            try:
                return original(self, item)
            finally:
                in_entry.pop()

        return enter

    Simulator.step = step
    TransferCounters.record = record
    for name in entry_points:
        setattr(Store, name, entering(name))
    try:
        yield log
    finally:
        Simulator.step = original_step
        TransferCounters.record = original_record
        for name in entry_points:
            setattr(Store, name, originals[name])


def digest_of(log: List[Tuple]) -> Dict[str, object]:
    sha = hashlib.sha256()
    for entry in log:
        sha.update(repr(entry).encode())
        sha.update(b"\n")
    transmissions = sum(1 for entry in log if entry[0] == "tx")
    return {"transmissions": transmissions, "digest": sha.hexdigest()}


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------

GRID_NETWORK = NetworkConfig.symmetric(200_000.0, latency=0.01, name="digest-grid")
ZERO_LATENCY = NetworkConfig.symmetric(200_000.0, latency=0.0, name="digest-zero-latency")

GRID_SQL = "SELECT R.Id, R.Name FROM Readings R WHERE Score(R.Series) > 12"


def readings_database(network: NetworkConfig = GRID_NETWORK, rows: int = 90) -> Database:
    """90 rows over 37 distinct series, duplicates scattered through the scan."""
    db = Database(network=network)
    db.create_table(
        "Readings",
        [("Id", INTEGER), ("Name", STRING), ("Series", TIME_SERIES)],
        rows=[
            [
                index,
                f"R{index}",
                TimeSeries(
                    [3 + (index * 7) % 37 + step for step in range(4 + (index * 7) % 37 % 3)]
                ),
            ]
            for index in range(rows)
        ],
    )
    db.register_client_udf(
        "Score",
        lambda series: sum(series) / len(series),
        result_dtype=FLOAT,
        result_size_bytes=8,
        cost_per_call_seconds=0.0005,
        selectivity=0.5,
    )
    return db


def strategy_config(strategy: ExecutionStrategy, batch_size: int, **tunables) -> StrategyConfig:
    if strategy is ExecutionStrategy.NAIVE:
        return StrategyConfig.naive(batch_size=batch_size, **tunables)
    if strategy is ExecutionStrategy.SEMI_JOIN:
        return StrategyConfig.semi_join(batch_size=batch_size, **tunables)
    return StrategyConfig.client_site_join(batch_size=batch_size, **tunables)


def _single(network: NetworkConfig, config: StrategyConfig, **options) -> Callable[[], None]:
    def run() -> None:
        readings_database(network).execute(
            GRID_SQL, config=config, deliver_results=True, **options
        )

    return run


def _stock(query: str, **options) -> Callable[[], None]:
    def run() -> None:
        db = StockWorkload(company_count=40, seed=11).build(default_config=StrategyConfig())
        db.execute(getattr(StockWorkload, query)(), deliver_results=True, **options)

    return run


def _tenants(discipline: str, twins: bool = False) -> Callable[[], None]:
    def run() -> None:
        db = make_tenant_database(bulk_rows=60, bulk_series=160)
        engine = MultiTenantEngine(db, discipline, executor_slots=6, admission_policy="sjf")
        workloads = mixed_traffic(point_count=5, bulk_count=2, queries_per_session=2, seed=3)
        # A bulk semi-join whose tuple pipeline is the binding constraint, so
        # its sender blocks on slots that replies free (the handoff path),
        # beside the client-site-join bulk session of the canonical mix.
        workloads.append(
            bulk_session(
                tenant_id="bulk-semijoin",
                queries=2,
                config=StrategyConfig.semi_join(batch_size=3, concurrency_factor=6),
            )
        )
        if twins:
            # Identical sessions arriving together: their events coincide at
            # many instants, so same-instant order decides the trunk schedule.
            spec = QuerySpec(
                "SELECT H.Name FROM History H WHERE Score(H.Series) > 10",
                label="twin",
                options={"config": StrategyConfig.semi_join(batch_size=1)},
            )
            workloads.extend(
                SessionWorkload(tenant_id=f"twin{index}", queries=[spec], repeat=2)
                for index in range(3)
            )
        report = engine.run(workloads)
        assert not [record.error for record in report.records if record.error]

    return run


def _scatter() -> Callable[[], None]:
    def run() -> None:
        _single_site, distributed = make_sharded_setup(sites=4, shards=4, rows=96)
        distributed.execute(FILTER_SQL)
        distributed.execute(FILTER_SQL, optimize=True)

    return run


def scenarios() -> Dict[str, Callable[[], None]]:
    """Every scenario by key, in a fixed order."""
    table: Dict[str, Callable[[], None]] = {}
    for strategy in ExecutionStrategy:
        for batch_size in (1, 7, 32):
            for window in (None, 1, 4):
                for adaptive in (False, True):
                    key = f"grid/{strategy.value}/b{batch_size}/w{window}/a{int(adaptive)}"
                    table[key] = _single(
                        GRID_NETWORK,
                        strategy_config(strategy, batch_size),
                        overlap_window=window,
                        adaptive=adaptive,
                    )
    semi = ExecutionStrategy.SEMI_JOIN
    for batch_size in (1, 5):
        # The tuple pipeline admits exactly one batch: the sender blocks on
        # in-flight slots and every reply releases them.
        table[f"pipeline-bound/b{batch_size}"] = _single(
            GRID_NETWORK, strategy_config(semi, batch_size, concurrency_factor=batch_size)
        )
    table["semi_join/keep-duplicates"] = _single(
        GRID_NETWORK, strategy_config(semi, 4, eliminate_duplicates=False)
    )
    for strategy in ExecutionStrategy:
        table[f"zero-latency/{strategy.value}"] = _single(
            ZERO_LATENCY, strategy_config(strategy, 3), overlap_window=2
        )
        table[f"asymmetric/{strategy.value}"] = _single(
            NetworkConfig.paper_asymmetric(asymmetry=100.0), strategy_config(strategy, 2)
        )
        table[f"switching/{strategy.value}"] = _single(
            GRID_NETWORK, strategy_config(strategy, 4), adaptive=True, switch_strategies=True
        )
    table["stock/figure1/optimize+adaptive"] = _stock("figure1_query", optimize=True, adaptive=True)
    table["stock/figure11/optimize"] = _stock("figure11_query", optimize=True)
    table["stock/figure13/reoptimize+adaptive"] = _stock(
        "figure13_query", optimize=True, reoptimize=True, adaptive=True
    )
    for discipline in ("fifo", "drr"):
        table[f"tenants/{discipline}"] = _tenants(discipline)
        table[f"tenants/{discipline}/twins"] = _tenants(discipline, twins=True)
    table["scatter/4-shards"] = _scatter()
    return table


def compute(run: Callable[[], None]) -> Dict[str, object]:
    with recorded_schedule() as log:
        run()
    return digest_of(log)


def compute_all() -> Dict[str, Dict[str, object]]:
    return {key: compute(run) for key, run in scenarios().items()}


if __name__ == "__main__":  # pragma: no cover - maintenance entry point
    import sys

    digests = compute_all()
    if "--write" in sys.argv:
        os.makedirs(os.path.dirname(DIGEST_FILE), exist_ok=True)
        with open(DIGEST_FILE, "w") as handle:
            json.dump(digests, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {len(digests)} digests to {DIGEST_FILE}")
    else:
        print(json.dumps(digests, indent=1, sort_keys=True))
