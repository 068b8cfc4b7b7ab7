"""A decision is served only while every statistics read it made still reads the same.

``Database._decide`` memoises each ``optimize=True`` decision, calibrated
ones included: it logs the statistics-protocol reads a decision made and
serves the decision again only while the bound query and each base table's
statistics object are unchanged and every logged read, asked again, gets an
equal answer.  The tests below move the store between executes — one answer
at a time, and in Hypothesis-drawn sequences mixed with plain, adaptive,
switching and re-optimizing runs of the paper's Figures 1, 11 and 13 — and
compare every decision the database runs with one made afresh at the same
moment.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Dict, List

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.adaptive.observer import (
    JoinObservation,
    LinkObservation,
    PredicateObservation,
    QueryObservation,
    UdfObservation,
)
from repro.adaptive.store import STATISTICS_PROTOCOL
from repro.server.engine import Database, _reads_hold
from repro.workloads.stock import StockWorkload
from test_front_end_memo import (
    carries_callers_state,
    recorded_decisions,
    runtime_held,
    same_decision,
)

FIGURES = {
    1: StockWorkload.figure1_query(threshold=500.0),
    11: StockWorkload.figure11_query(),
    13: StockWorkload.figure13_query(),
}

#: mode -> execute keywords
MODES: Dict[str, dict] = {
    "plain": {"optimize": True},
    "adaptive": {"optimize": True, "adaptive": True},
    "switching": {"optimize": True, "switch_strategies": True, "adaptive": True},
    "reoptimize": {"reoptimize": True, "adaptive": True},
}


def _link(bytes_per_second: float) -> LinkObservation:
    return LinkObservation(
        name="down",
        total_bytes=int(bytes_per_second),
        payload_bytes=int(bytes_per_second) - 160,
        message_count=10,
        data_message_count=9,
        rows_transferred=90,
        busy_seconds=1.0,
        queueing_seconds=0.0,
    )


def _udf(name: str, **measured) -> UdfObservation:
    """One UDF's observation measuring only what ``measured`` gives."""
    nothing = dict(
        invocations=0, compute_seconds=0.0, input_rows=0, output_rows=0, distinct_arguments=0
    )
    return UdfObservation(name, **{**nothing, **measured})


#: protocol method -> (the figure that reads it, an observation of another
#: query that moves that method's answer to the figure's read and no other
#: answer the figure reads, given a value in (0, 1]).
MOVES: Dict[str, tuple] = {
    "udf_cost": (
        13,
        lambda v: QueryObservation(0.1, udfs={"Volatility": _udf(
            "Volatility", invocations=10, compute_seconds=v,
        )}),
    ),
    "udf_selectivity": (
        13,
        lambda v: QueryObservation(0.1, udfs={"ClientRating": _udf(
            "ClientRating", input_rows=100, output_rows=int(100 * v), filtered=True,
            predicate="ClientRating_result = E.Rating",
        )}),
    ),
    "udf_distinct_fraction": (
        13,
        lambda v: QueryObservation(0.1, udfs={"ClientRating": _udf(
            "ClientRating", input_rows=100, distinct_arguments=max(1, int(100 * v)),
        )}),
    ),
    "predicate_selectivity": (
        1,
        lambda v: QueryObservation(0.1, predicates=(
            PredicateObservation("(S.Change / S.Close) > 0.2", 100, int(100 * v)),
        )),
    ),
    "join_selectivity": (
        13,
        lambda v: QueryObservation(0.1, joins=(
            JoinObservation(("S.Name", "E.CompanyName"), 10, 10, max(1, int(100 * v))),
        )),
    ),
    "column_distinct_evidence": (
        13,
        lambda v: QueryObservation(0.1, predicates=(
            PredicateObservation(
                "S.Name = 'c7'", 100, max(1, int(100 * v)), equality_column="S.Name"
            ),
        )),
    ),
    "calibrated_network": (
        13, lambda v: QueryObservation(0.1, downlink=_link(1000.0 + 9000.0 * v)),
    ),
    "calibrated_cost_settings": (
        13, lambda v: QueryObservation(0.1, converged_batch_size=int(1 + 300 * v)),
    ),
}  # fmt: skip


def stock_database() -> Database:
    return StockWorkload(company_count=25, seed=1999).build()


def latest_entry(db: Database) -> tuple:
    """The decision-memo entry the last ``_decide`` call served or added."""
    return next(reversed(db._decisions.values()))


def moved_reads(db: Database) -> List[str]:
    """The methods of the latest entry's reads that answer differently now."""
    log = latest_entry(db)[5]
    return sorted({read[0] for read in log if not _reads_hold([read], db.statistics)})


def test_every_protocol_method_has_a_move():
    assert sorted(MOVES) == sorted(STATISTICS_PROTOCOL)


@pytest.mark.parametrize("method", STATISTICS_PROTOCOL)
def test_a_moved_read_makes_the_next_decision_afresh(method):
    """Settle an adaptive query until its decision is served, move the one
    answer ``method`` gave it, and the next execute decides again — equal
    to a decision made fresh — and, with the store left where the move put
    it, is served after that."""
    figure, move = MOVES[method]
    db = stock_database()
    with recorded_decisions(db) as calls:
        for _ in range(3):
            db.execute(FIGURES[figure], **MODES["adaptive"])
        assert [call.ran for call in calls] == [True, True, False]
        assert moved_reads(db) == []
        db.statistics.record(move(0.75))
        assert moved_reads(db) == [method]
        for served in (False, True):
            db.execute(FIGURES[figure], observe=False, **MODES["adaptive"])
            assert calls[-1].ran is not served
            assert same_decision(calls[-1].decision, calls[-1].fresh)


# ---------------------------------------------------------------------------
# The differential: every served decision is one made afresh
# ---------------------------------------------------------------------------


def _reregister(db: Database, name: str, value: float) -> None:
    db.udfs.register(replace(db.udfs.get(name), cost_per_call_seconds=0.01 * value), replace=True)


def _insert(db: Database, value: float) -> None:
    estimations = db.catalog.table("Estimations")
    estimations.insert_many(estimations.rows[: 1 + int(3 * value)])


#: change name -> what it does to the database, given a value in (0, 1]
CHANGES: Dict[str, Callable[[Database, float], None]] = {
    **{
        f"observe-{method}": (lambda db, v, move=move: db.statistics.record(move(v)))
        for method, (_, move) in MOVES.items()
    },
    "forget-columns": lambda db, v: db.statistics.forget_columns(["Name", "CompanyName"]),
    "reregister-udf": lambda db, v: _reregister(db, "ClientRating", v),
    "insert": _insert,
}

_executes = st.tuples(
    st.just("execute"), st.sampled_from(sorted(FIGURES)), st.sampled_from(sorted(MODES))
)
_changes = st.tuples(
    st.just("change"), st.sampled_from(sorted(CHANGES)), st.sampled_from([0.25, 0.5, 0.75, 1.0])
)


def _settled(figure: int, change: str, value: float = 0.75) -> List[tuple]:
    """Three adaptive executes (the third is served), a change, one more."""
    run = ("execute", figure, "adaptive")
    return [run, run, run, ("change", change, value), run]


def _examples(test):
    for method, (figure, _) in MOVES.items():
        test = example(_settled(figure, f"observe-{method}"))(test)
    return test


@_examples
@example([("execute", 11, "switching")] * 3 + [("change", "forget-columns", 1.0)]
         + [("execute", 11, "switching")])
@example(_settled(11, "reregister-udf") + [("execute", 11, "reoptimize")] * 2)
@example(_settled(13, "insert") + [("execute", 13, "plain")] * 2)
@given(st.lists(st.one_of(_executes, _executes, _changes), min_size=1, max_size=14))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_every_served_decision_is_one_made_afresh(steps):
    db = stock_database()
    with recorded_decisions(db) as calls:
        for step in steps:
            if step[0] == "change":
                CHANGES[step[1]](db, step[2])
                continue
            _, figure, mode = step
            db.execute(FIGURES[figure], **MODES[mode])
            call = calls[-1]
            assert same_decision(call.decision, call.fresh) and carries_callers_state(call)
            # Served or made, the entry holds the reads a fresh decision makes.
            assert latest_entry(db)[5] == call.fresh_reads
    assert runtime_held(db) == []
