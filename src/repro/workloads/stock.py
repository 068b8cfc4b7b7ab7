"""The stock-market scenario from the paper's introduction (Figures 1 and 11).

A server publishes ``StockQuotes`` (name, price history, daily change/close,
financial report) and ``Estimations`` (broker ratings per company).  An
investor's client holds proprietary analysis UDFs — ``ClientAnalysis``
(rates a quote history) and ``Volatility`` (estimates price volatility from
quotes and futures prices) — that must run at the client.

:class:`StockWorkload` builds a fully populated :class:`~repro.server.engine.Database`
with those tables and UDFs, so examples, tests and the optimizer benchmarks
can all run the paper's actual queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.strategies import StrategyConfig
from repro.network.topology import NetworkConfig
from repro.relational.types import DataObject, FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries
from repro.server.engine import Database


def client_analysis(quotes: TimeSeries) -> float:
    """The investor's proprietary rating of a price history.

    A deterministic blend of momentum and level, scaled to roughly 0-1000 so
    that thresholds like ``> 500`` (Figure 1) are meaningful.
    """
    values = list(quotes)
    if not values:
        return 0.0
    level = sum(values) / len(values)
    momentum = values[-1] - values[0]
    return round(level * 2.0 + momentum * 5.0, 4)


def client_rating(quotes: TimeSeries) -> int:
    """A 1-5 star rating derived from :func:`client_analysis` (Figure 11)."""
    score = client_analysis(quotes)
    return max(1, min(5, int(score // 200) + 1))


def volatility(quotes: TimeSeries, future_prices: TimeSeries) -> float:
    """The Figure 13 ``Volatility`` UDF: dispersion of quotes vs. futures."""
    history = list(quotes)
    futures = list(future_prices)
    if not history or not futures:
        return 0.0
    mean = sum(history) / len(history)
    variance = sum((value - mean) ** 2 for value in history) / len(history)
    spread = abs(futures[-1] - history[-1])
    return round(variance ** 0.5 + spread, 4)


@dataclass
class StockWorkload:
    """Builds the stock-market database of the paper's running example."""

    company_count: int = 60
    brokers: Sequence[str] = ("Aldrich", "Birch", "Cornell", "Deyo")
    quote_length: int = 30
    seed: int = 1999
    network: Optional[NetworkConfig] = None
    analysis_cost_seconds: float = 0.002
    company_names: List[str] = field(default_factory=list)

    def build(self, default_config: Optional[StrategyConfig] = None) -> Database:
        """Create and populate the database, including the client-site UDFs."""
        rng = random.Random(self.seed)
        network = self.network if self.network is not None else NetworkConfig.paper_symmetric()
        db = Database(network=network, default_config=default_config or StrategyConfig())

        db.create_table(
            "StockQuotes",
            [
                ("Name", STRING),
                ("Quotes", TIME_SERIES),
                ("FuturePrices", TIME_SERIES),
                ("Change", FLOAT),
                ("Close", FLOAT),
                ("Report", STRING),
            ],
        )
        db.create_table(
            "Estimations",
            [
                ("CompanyName", STRING),
                ("BrokerName", STRING),
                ("Rating", INTEGER),
            ],
        )

        quotes_rows, estimation_rows = [], []
        self.company_names = [f"Company{index:03d}" for index in range(self.company_count)]
        for name in self.company_names:
            base = rng.uniform(20.0, 400.0)
            drift = rng.uniform(-0.03, 0.05)
            history = []
            price = base
            for _ in range(self.quote_length):
                price = max(1.0, price * (1.0 + drift + rng.uniform(-0.02, 0.02)))
                history.append(round(price, 2))
            if rng.random() < 0.35:
                # Some companies gap up sharply on the last day so that the
                # Figure 1 "20%+ uptick" predicate selects a meaningful subset.
                history[-1] = round(history[-2] * rng.uniform(1.25, 1.45), 2)
            futures = [round(price * (1.0 + rng.uniform(-0.1, 0.15)), 2) for _ in range(5)]
            close = history[-1]
            change = round(close - history[-2], 2) if len(history) > 1 else 0.0
            report = f"Annual report for {name}: " + "x" * rng.randint(200, 800)
            quotes_rows.append(
                [name, TimeSeries(history), TimeSeries(futures), change, close, report]
            )

            for broker in self.brokers:
                if rng.random() < 0.8:
                    estimation_rows.append([name, broker, rng.randint(1, 5)])
        db.catalog.table("StockQuotes").insert_many(quotes_rows)
        db.catalog.table("Estimations").insert_many(estimation_rows)

        db.register_client_udf(
            "ClientAnalysis",
            client_analysis,
            result_dtype=FLOAT,
            result_size_bytes=8,
            cost_per_call_seconds=self.analysis_cost_seconds,
            selectivity=0.4,
            description="proprietary rating of a quote history",
        )
        db.register_client_udf(
            "ClientRating",
            client_rating,
            result_dtype=INTEGER,
            result_size_bytes=4,
            cost_per_call_seconds=self.analysis_cost_seconds,
            selectivity=0.2,
            description="1-5 star rating derived from the proprietary analysis",
        )
        db.register_client_udf(
            "Volatility",
            volatility,
            result_dtype=FLOAT,
            result_size_bytes=8,
            cost_per_call_seconds=self.analysis_cost_seconds,
            selectivity=0.5,
            description="volatility estimate from quotes and futures prices",
        )
        db.register_server_udf(
            "Uptick",
            lambda change, close: (change / close) if close else 0.0,
            result_dtype=FLOAT,
            description="relative daily change, computable on the server",
        )
        return db

    # -- the paper's queries ------------------------------------------------------------------

    @staticmethod
    def figure1_query(threshold: float = 500.0, uptick: float = 0.2) -> str:
        """The motivating query of Figure 1."""
        return (
            "SELECT S.Name, S.Report FROM StockQuotes S "
            f"WHERE S.Change / S.Close > {uptick} AND ClientAnalysis(S.Quotes) > {threshold}"
        )

    @staticmethod
    def figure11_query() -> str:
        """The two-relation query of Figure 11 (analysis agrees with a broker)."""
        return (
            "SELECT S.Name, E.BrokerName FROM StockQuotes S, Estimations E "
            "WHERE S.Name = E.CompanyName AND ClientRating(S.Quotes) = E.Rating"
        )

    @staticmethod
    def figure13_query() -> str:
        """Figure 11's query extended with the Volatility expression (Figure 13)."""
        return (
            "SELECT S.Name, E.BrokerName, Volatility(S.Quotes, S.FuturePrices) AS Vol "
            "FROM StockQuotes S, Estimations E "
            "WHERE S.Name = E.CompanyName AND ClientRating(S.Quotes) = E.Rating"
        )
