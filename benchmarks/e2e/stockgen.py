"""Seeded generator and plain-Python oracle for the stock-market workloads.

Used by ``ship_bulk`` (4000 companies) and ``plan_small`` (60 companies).
The generator hands the program only tables, UDF callables and SQL text; the
oracle computes every query's expected row multiset directly from the rows
it generated, applying the UDFs and predicates in plain Python.

*Structure* is fixed by the workload definition and *values* by the seed:
the number of companies that share a quote history, that pass the Figure 1
uptick predicate, that clear the Figure 1 threshold, and the number of
broker estimations that agree with the client's rating are exact counts, so
simulated seconds and wire bytes barely move between seeds.  The seed
decides which companies play which role, every price, every literal and the
row order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.relational.types import FLOAT, INTEGER, STRING, TIME_SERIES, TimeSeries

BROKERS = ("Aldrich", "Birch", "Cornell", "Deyo")
UPTICK = 0.2

#: Shares that define the structure (exact after rounding).
SHARED_FRACTION = 0.30      # companies that copy another company's quote history
GAP_FRACTION = 0.35         # quote histories that gap up > 20 % on the last day
PASS_FRACTION = 0.65        # gap-up histories whose ClientAnalysis clears the threshold
AGREE_FRACTION = 0.20       # estimations whose Rating equals ClientRating(Quotes)
#: Brokers per company, cycled over the (shuffled) company order: 3.2 on average.
BROKER_PATTERN = (3, 3, 3, 4, 3)

QUOTES_COLUMNS = [
    ("Name", STRING),
    ("Quotes", TIME_SERIES),
    ("FuturePrices", TIME_SERIES),
    ("Change", FLOAT),
    ("Close", FLOAT),
    ("Report", STRING),
]
ESTIMATIONS_COLUMNS = [
    ("CompanyName", STRING),
    ("BrokerName", STRING),
    ("Rating", INTEGER),
]


# -- the client's UDFs (user code: the program only ever sees the callables) ----------


def client_analysis(quotes: TimeSeries) -> float:
    values = list(quotes)
    level = sum(values) / len(values)
    momentum = values[-1] - values[0]
    return round(level * 2.0 + momentum * 5.0, 4)


def client_rating(quotes: TimeSeries) -> int:
    return max(1, min(5, int(client_analysis(quotes) // 200) + 1))


def volatility(quotes: TimeSeries, future_prices: TimeSeries) -> float:
    history = list(quotes)
    mean = sum(history) / len(history)
    variance = sum((value - mean) ** 2 for value in history) / len(history)
    return round(variance ** 0.5 + abs(list(future_prices)[-1] - history[-1]), 4)


CLIENT_UDFS = (
    # name, callable, result dtype, result bytes, declared selectivity
    ("ClientAnalysis", client_analysis, FLOAT, 8, 0.4),
    ("ClientRating", client_rating, INTEGER, 4, 0.2),
    ("Volatility", volatility, FLOAT, 8, 0.5),
)


def figure1_sql(threshold: float) -> str:
    return (
        "SELECT S.Name, S.Report FROM StockQuotes S "
        f"WHERE S.Change / S.Close > {UPTICK} AND ClientAnalysis(S.Quotes) > {threshold}"
    )


FIGURE11_SQL = (
    "SELECT S.Name, E.BrokerName FROM StockQuotes S, Estimations E "
    "WHERE S.Name = E.CompanyName AND ClientRating(S.Quotes) = E.Rating"
)
FIGURE13_SQL = (
    "SELECT S.Name, E.BrokerName, Volatility(S.Quotes, S.FuturePrices) AS Vol "
    "FROM StockQuotes S, Estimations E "
    "WHERE S.Name = E.CompanyName AND ClientRating(S.Quotes) = E.Rating"
)


@dataclass
class StockData:
    """Generated tables plus what the oracle needs to answer the three queries."""

    quotes_rows: List[list]
    estimation_rows: List[list]
    #: The Figure 1 threshold that exactly ``PASS_FRACTION`` of gap-up histories clear.
    default_threshold: float
    #: ClientAnalysis scores of the distinct gap-up histories, ascending.
    gap_scores: List[float]

    def threshold_below_rank(self, rank: int, position: float = 0.5) -> float:
        """A Figure 1 literal between the ``rank-1``-th and ``rank``-th gap-up score.

        Exactly ``len(gap_scores) - rank`` distinct gap-up histories clear it.
        """
        low, high = self.gap_scores[rank - 1], self.gap_scores[rank]
        return low + (high - low) * position

    # -- oracle ---------------------------------------------------------------------

    def __post_init__(self) -> None:
        # Rows that pass the server-side uptick predicate, with their UDF score.
        self._uptick_rows = [
            (client_analysis(quotes), name, report)
            for name, quotes, _futures, change, close, report in self.quotes_rows
            if change / close > UPTICK
        ]

    def figure1_expected(self, threshold: float) -> List[tuple]:
        return sorted(
            (name, report) for score, name, report in self._uptick_rows if score > threshold
        )

    def _rated(self) -> Dict[str, Tuple[int, float]]:
        return {
            name: (client_rating(quotes), volatility(quotes, futures))
            for name, quotes, futures, _change, _close, _report in self.quotes_rows
        }

    def figure11_expected(self) -> List[tuple]:
        rated = self._rated()
        return sorted(
            (company, broker)
            for company, broker, rating in self.estimation_rows
            if rated[company][0] == rating
        )

    def figure13_expected(self) -> List[tuple]:
        rated = self._rated()
        return sorted(
            (company, broker, rated[company][1])
            for company, broker, rating in self.estimation_rows
            if rated[company][0] == rating
        )

    def udf_arguments(self) -> Dict[str, List[tuple]]:
        """The argument tuples each UDF sees over the whole table (layer probe input)."""
        quotes = [(row[1],) for row in self.quotes_rows]
        return {
            "ClientAnalysis": quotes,
            "ClientRating": quotes,
            "Volatility": [(row[1], row[2]) for row in self.quotes_rows],
        }


def _history(rng: random.Random, length: int, gap_up: bool) -> Tuple[List[float], List[float]]:
    price = rng.uniform(20.0, 400.0)
    # Gap-up histories rise, so their ClientAnalysis scores — the values the
    # Figure 1 literals are drawn from — are positive (the SQL dialect has no
    # unary minus).
    drift = rng.uniform(0.0, 0.05) if gap_up else rng.uniform(-0.03, 0.05)
    history = []
    for _ in range(length):
        price = max(1.0, price * (1.0 + drift + rng.uniform(-0.02, 0.02)))
        history.append(round(price, 2))
    if gap_up:
        history[-1] = round(history[-2] * rng.uniform(1.25, 1.45), 2)
    futures = [round(history[-1] * (1.0 + rng.uniform(-0.1, 0.15)), 2) for _ in range(5)]
    return history, futures


def _exact(count: int, fraction: float) -> int:
    return int(round(count * fraction))


def _evenly(group: List[int], count: int) -> List[int]:
    """``count`` members of a score-ordered group at evenly spaced ranks.

    Copies of gap-up histories then clear any Figure 1 threshold in the same
    numbers whatever the seed.
    """
    return [group[(2 * pick + 1) * len(group) // (2 * count)] for pick in range(count)]


def make_stock(seed: int, companies: int, quote_length: int = 30) -> StockData:
    rng = random.Random(seed)
    copies = _exact(companies, SHARED_FRACTION)
    bases = companies - copies
    gap_bases = _exact(bases, GAP_FRACTION)
    gap_copies = _exact(copies, GAP_FRACTION)

    # Distinct quote histories; the first ``gap_bases`` gap up.
    market = [_history(rng, quote_length, index < gap_bases) for index in range(bases)]
    scores = sorted(
        (client_analysis(TimeSeries(history)), index)
        for index, (history, _futures) in enumerate(market[:gap_bases])
    )
    failing = gap_bases - _exact(gap_bases, PASS_FRACTION)
    threshold = (scores[failing - 1][0] + scores[failing][0]) / 2.0
    fail_group = [index for _score, index in scores[:failing]]
    pass_group = [index for _score, index in scores[failing:]]
    flat_group = list(range(gap_bases, bases))

    # Copies draw their history from a fixed number of bases per group.
    passing_copies = _exact(gap_copies, PASS_FRACTION)
    sources = (
        _evenly(pass_group, passing_copies)
        + _evenly(fail_group, gap_copies - passing_copies)
        + [rng.choice(flat_group) for _ in range(copies - gap_copies)]
    )
    histories = list(range(bases)) + sources
    rng.shuffle(histories)

    quotes_rows: List[list] = []
    for position, source in enumerate(histories):
        history, futures = market[source]
        close = history[-1]
        quotes_rows.append(
            [
                f"Company{position:05d}",
                TimeSeries(history),
                TimeSeries(futures),
                round(close - history[-2], 2),
                close,
                f"Annual report {position:05d}: " + "x" * rng.randint(490, 510),
            ]
        )

    estimation_rows: List[list] = []
    rows_of_history: Dict[int, List[int]] = {}
    for position, row in enumerate(quotes_rows):
        count = BROKER_PATTERN[position % len(BROKER_PATTERN)]
        for broker in rng.sample(BROKERS, count):
            rows_of_history.setdefault(histories[position], []).append(len(estimation_rows))
            estimation_rows.append([row[0], broker, 0])
    # One agreeing estimation per chosen quote history: the rows that survive
    # the rating predicate then carry a fixed number of distinct UDF arguments.
    agreeing = {
        rng.choice(rows_of_history[history])
        for history in rng.sample(range(bases), _exact(len(estimation_rows), AGREE_FRACTION))
    }
    rating_of = {row[0]: client_rating(row[1]) for row in quotes_rows}
    for index, estimation in enumerate(estimation_rows):
        truth = rating_of[estimation[0]]
        estimation[2] = (
            truth if index in agreeing else rng.choice([r for r in range(1, 6) if r != truth])
        )
    return StockData(
        quotes_rows=quotes_rows,
        estimation_rows=estimation_rows,
        default_threshold=threshold,
        gap_scores=[score for score, _index in scores],
    )


def build_database(data: StockData, network, analysis_cost_seconds: float = 0.002):
    """Create the program's database from the generated tables and UDFs."""
    from repro.server.engine import Database

    db = Database(network=network)
    db.create_table("StockQuotes", QUOTES_COLUMNS, rows=data.quotes_rows)
    db.create_table("Estimations", ESTIMATIONS_COLUMNS, rows=data.estimation_rows)
    for name, function, dtype, size, selectivity in CLIENT_UDFS:
        db.register_client_udf(
            name,
            function,
            result_dtype=dtype,
            result_size_bytes=size,
            cost_per_call_seconds=analysis_cost_seconds,
            selectivity=selectivity,
        )
    return db
