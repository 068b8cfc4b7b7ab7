"""The statistics protocol: one declaration, one format, one fallback order.

``statistics.json`` is a contract (a database reopened by the next commit
must warm-start from it), and so is who answers the estimator: the store,
the mid-query view over it, the per-site view over it — in that order of
freshness, method by method.
"""

from __future__ import annotations

import inspect
import json
import os
import re
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive import RuntimeStatisticsView, StatisticsStore
from repro.adaptive.observer import (
    JoinObservation,
    LinkObservation,
    PredicateObservation,
    QueryObservation,
    UdfObservation,
)
from repro.adaptive.store import _SCALARS, _TABLES, STATISTICS_PROTOCOL, StatisticsOverlay
from repro.core.optimizer import cost, decision, plans
from repro.core.optimizer.cost import CostSettings
from repro.distribution.planner import site_calibrated
from repro.network.topology import NetworkConfig
from repro.server.engine import StatisticsReads

DATA = os.path.join(os.path.dirname(__file__), "data")
NETWORK = NetworkConfig.symmetric(1_000_000.0, latency=0.001, name="configured")


def _link(name, total, busy, queueing, messages=10):
    return LinkObservation(
        name=name,
        total_bytes=total,
        payload_bytes=total - 100 * messages,
        message_count=messages,
        data_message_count=messages - 1,
        rows_transferred=900,
        busy_seconds=busy,
        queueing_seconds=queueing,
    )


MULTI_CONJUNCT = "((Score_result + Rank_result) >= 150 AND Rank_result < 60)"


def _fixture_observations():
    """The (site, observation) sequence the parent commit recorded before it
    saved ``tests/data/statistics_full.json``."""
    yield None, QueryObservation(
        elapsed_seconds=0.5,
        downlink=_link("down", 100_000, 0.05, 0.01),
        uplink=_link("up", 30_000, 0.15, 0.02),
        udfs={
            "Score": UdfObservation(
                "Score", 90, 0.045, 100, 50, 90, filtered=True, predicate="Score_result >= 100"
            ),
            "Rank": UdfObservation(
                "Rank", 40, 0.03, 50, 6, 40, filtered=True, predicate=MULTI_CONJUNCT
            ),
        },
        predicates=(
            PredicateObservation("T.K < 80", 100, 80),
            PredicateObservation("T.Id = 5", 100, 4, equality_column="T.Id"),
        ),
        joins=(JoinObservation(("A.K", "B.K"), 20, 30, 60),),
        rows_returned=6,
        converged_batch_size=48,
        udf_batch_sizes={"score": 32, "rank": 12},
    )
    yield None, QueryObservation(
        elapsed_seconds=0.4,
        downlink=_link("down", 80_000, 0.05, 0.0),
        uplink=_link("up", 20_000, 0.11, 0.03),
        udfs={
            "Score": UdfObservation(
                "Score", 70, 0.042, 100, 80, 70, filtered=True, predicate="Score_result >= 40"
            )
        },
        predicates=(PredicateObservation("T.K < 80", 100, 79),),
        rows_returned=80,
        converged_batch_size=64,
        udf_batch_sizes={"score": 64},
    )
    yield "site0", QueryObservation(
        elapsed_seconds=0.2,
        downlink=_link("down", 50_000, 0.1, 0.5),
        uplink=_link("up", 10_000, 0.07, 0.25),
        rows_returned=3,
    )
    yield "site1", QueryObservation(
        elapsed_seconds=0.2, downlink=_link("down", 50_000, 0.3, 0.0), uplink=None, rows_returned=3
    )
    yield "site0", QueryObservation(
        elapsed_seconds=0.3,
        downlink=_link("down", 64_000, 0.1, 0.0),
        uplink=_link("up", 12_000, 0.05, 0.0),
        rows_returned=3,
        udfs={"Score": UdfObservation("Score", 10, 0.002, 10, 10, 7)},
    )


def _fixture_store() -> StatisticsStore:
    store = StatisticsStore(smoothing=0.5, contention_aware=True)
    for site, observation in _fixture_observations():
        store.record(observation, site=site)
    return store


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


# ---------------------------------------------------------------------------
# (a) the format: a full-section snapshot the parent commit wrote
# ---------------------------------------------------------------------------


class TestFullSectionSnapshot:
    FIXTURE = os.path.join(DATA, "statistics_full.json")

    def test_it_has_every_section(self):
        state = json.loads(_read(self.FIXTURE))
        assert set(state) == {
            "version", "fingerprint", "smoothing", "contention_aware", "queries_observed",
            "site_bandwidths", *_SCALARS, *_TABLES,
        }  # fmt: skip
        assert all(state[name] != [None, 0] for name in _SCALARS)
        assert all(state[name] for name in _TABLES)
        assert sorted(state["site_bandwidths"]) == ["site0", "site1"]
        assert ["rank", MULTI_CONJUNCT] in [entry[:2] for entry in state["udf_selectivity"]]

    def test_restore_then_save_reproduces_it_byte_for_byte(self, tmp_path):
        store = StatisticsStore(smoothing=0.5, contention_aware=True)
        assert store.restore(self.FIXTURE, fingerprint="fixture-workload") is True
        path = str(tmp_path / "statistics.json")
        store.save(path, fingerprint="fixture-workload")
        assert _read(path) == _read(self.FIXTURE)

    def test_recording_the_same_observations_writes_it(self, tmp_path):
        path = str(tmp_path / "statistics.json")
        _fixture_store().save(path, fingerprint="fixture-workload")
        assert _read(path) == _read(self.FIXTURE)


# ---------------------------------------------------------------------------
# (b) save / restore loses nothing, whatever was observed
# ---------------------------------------------------------------------------

_counts = st.integers(min_value=0, max_value=500)
_seconds = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)
_names = st.sampled_from(["Score", "Rank", "score", "Udf3"])
_keys = st.sampled_from(["", "Score_result >= 100", MULTI_CONJUNCT, "T.K < 80", "T.Id = 5"])
_columns = st.sampled_from(["A.K", "B.K", "k", "T.Id", " "])
_links = st.none() | st.builds(
    LinkObservation,
    name=st.just("link"),
    message_count=_counts,
    data_message_count=_counts,
    total_bytes=_counts.map(lambda n: n * 1000),
    payload_bytes=_counts.map(lambda n: n * 900),
    rows_transferred=_counts,
    busy_seconds=_seconds,
    queueing_seconds=_seconds,
)
_udfs = st.builds(
    UdfObservation,
    name=_names,
    invocations=_counts,
    compute_seconds=_seconds,
    input_rows=_counts,
    output_rows=_counts,
    distinct_arguments=_counts,
    filtered=st.booleans(),
    predicate=st.none() | _keys,
)
_observations = st.builds(
    QueryObservation,
    elapsed_seconds=_seconds,
    downlink=_links,
    uplink=_links,
    udfs=st.lists(_udfs, max_size=3).map(lambda udfs: {udf.name: udf for udf in udfs}),
    predicates=st.lists(
        st.builds(
            PredicateObservation,
            predicate=_keys,
            input_rows=_counts,
            output_rows=_counts,
            equality_column=st.none() | _columns,
        ),
        max_size=3,
    ).map(tuple),
    joins=st.lists(
        st.builds(
            JoinObservation,
            columns=st.lists(_columns, max_size=3).map(tuple),
            left_rows=_counts,
            right_rows=_counts,
            output_rows=_counts,
        ),
        max_size=2,
    ).map(tuple),
    converged_batch_size=st.none() | st.integers(min_value=1, max_value=512),
    udf_batch_sizes=st.dictionaries(_names, st.integers(min_value=1, max_value=512), max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(
    recorded=st.lists(st.tuples(st.none() | st.sampled_from(["s0", "s1"]), _observations), max_size=6),
    contention_aware=st.booleans(),
)
def test_save_then_restore_is_the_identity_on_the_state(tmp_path_factory, recorded, contention_aware):
    store = StatisticsStore(smoothing=0.3, contention_aware=contention_aware)
    for site, observation in recorded:
        store.record(observation, site=site)
    path = str(tmp_path_factory.mktemp("stats") / "statistics.json")
    store.save(path, fingerprint="fp")
    loaded = StatisticsStore.load(
        path, fingerprint="fp", smoothing=0.3, contention_aware=contention_aware
    )
    assert loaded.to_state() == store.to_state()
    assert loaded.site_ids == store.site_ids


# ---------------------------------------------------------------------------
# (c) parse everything before assigning anything — for every declared section
# ---------------------------------------------------------------------------

_MALFORMED = (
    [(name, bad) for name in _SCALARS for bad in ("oops", [1.0], ["x", 1])]
    + [(name, bad) for name in _TABLES for bad in (7, {"key": "oops"}, [["a"]], {"key": [[], 1]})]
    + [("site_bandwidths", bad) for bad in ([], {"s": []}, {"s": [[1.0, 1], "oops"]})]
)


@pytest.mark.parametrize("section, malformed", _MALFORMED, ids=lambda value: str(value)[:24])
def test_a_malformed_section_leaves_every_estimate_as_it_was(tmp_path, section, malformed):
    state = _fixture_store().to_state()
    assert section in state
    state[section] = malformed
    path = str(tmp_path / "statistics.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(state, handle)
    store = StatisticsStore(smoothing=0.5)
    store.record(next(_fixture_observations())[1])
    before = json.dumps(store.to_state(), sort_keys=True)
    with pytest.warns(RuntimeWarning, match="unreadable"):
        assert store.restore(path) is False
    assert json.dumps(store.to_state(), sort_keys=True) == before


def test_an_absent_section_restores_as_unobserved(tmp_path):
    path = str(tmp_path / "statistics.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"version": 1, "queries_observed": 2, "udf_cost": {"score": [0.5, 2]}}, handle)
    store = _fixture_store()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert store.restore(path) is True
    expected = StatisticsStore(smoothing=0.5, contention_aware=True)
    expected.queries_observed = 2
    expected._udf_cost.observe("score", 0.5)
    expected._udf_cost.observe("score", 0.5)
    assert store.to_state() == expected.to_state()


# ---------------------------------------------------------------------------
# (d) overlay precedence, method by method
# ---------------------------------------------------------------------------

#: method -> (arguments up to the default, this run's tables for the view)
_FRESHER = {
    "udf_cost": (("Score",), dict(udf_costs={"SCORE": 0.25})),
    "udf_selectivity": (
        ("Score", 0.9, "Score_result >= 100"),
        dict(selectivities={"Score_result >= 100": 0.25}),
    ),
    "udf_distinct_fraction": (("Score",), dict(distinct_fractions={"Score": 0.25})),
    "predicate_selectivity": (("T.K < 80",), dict(selectivities={"T.K < 80": 0.25})),
}


def _view(store=None, **fresh):
    tables = dict(selectivities={}, udf_costs={}, distinct_fractions={})
    tables.update(fresh)
    return RuntimeStatisticsView(store=store, **tables)


def _ask(statistics, method, arguments):
    if method == "udf_selectivity":
        name, default, predicate = arguments
        return statistics.udf_selectivity(name, default, predicate=predicate)
    return getattr(statistics, method)(*arguments, 0.9)


class TestOverlayPrecedence:
    @pytest.mark.parametrize("method", sorted(_FRESHER))
    def test_this_run_beats_the_store_beats_the_default(self, method):
        arguments, fresh = _FRESHER[method]
        store = _fixture_store()
        stored = _ask(store, method, arguments)
        assert stored not in (0.25, 0.9)  # the store has its own answer
        assert _ask(_view(store, **fresh), method, arguments) == 0.25
        assert _ask(_view(store), method, arguments) == stored
        assert _ask(_view(None, **fresh), method, arguments) == 0.25
        assert _ask(_view(None), method, arguments) == 0.9
        assert _ask(StatisticsStore(), method, arguments) == 0.9

    @pytest.mark.parametrize("cost", [0.0, -1.0, None])
    def test_a_non_positive_per_call_cost_falls_through(self, cost):
        store = _fixture_store()
        assert _view(store, udf_costs={"Score": cost}).udf_cost("Score", 0.9) == store.udf_cost("Score", 0.9)
        assert _view(None, udf_costs={"Score": cost}).udf_cost("Score", 0.9) == 0.9

    def test_this_runs_fractions_are_clamped_and_the_empty_key_names_nothing(self):
        view = _view(None, selectivities={"p": 1.5, "": 0.1}, distinct_fractions={"Score": -0.5})
        assert view.predicate_selectivity("p", 0.9) == 1.0
        assert view.udf_selectivity("Score", 0.9, predicate="") == 0.9
        assert view.udf_selectivity("Score", 0.9) == 0.9  # no predicate: the store's rule
        assert view.udf_distinct_fraction("score", 0.9) == 0.0

    def test_the_view_has_nothing_fresher_for_the_rest_of_the_protocol(self):
        store = _fixture_store()
        view = _view(store, **{k: v for _, fresh in _FRESHER.values() for k, v in fresh.items()})
        assert view.join_selectivity(("B.K", "A.K")) == store.join_selectivity(("k",)) == 0.1
        assert view.column_distinct_evidence() == store.column_distinct_evidence() == {"id": 25.0}
        assert view.calibrated_network(NETWORK) == store.calibrated_network(NETWORK) != NETWORK
        settings_ = CostSettings()
        assert view.calibrated_cost_settings(settings_).batch_size == 56.0
        assert view.queries_observed == store.queries_observed

    def test_an_absent_store_is_an_empty_one(self):
        view = _view(None)
        assert view.join_selectivity(("k",)) is None
        assert view.column_distinct_evidence() == {}
        assert view.calibrated_network(NETWORK) is NETWORK
        assert view.queries_observed == 0

    def test_the_per_site_view_differs_in_calibrated_network_only(self):
        store = _fixture_store()
        view = site_calibrated(store, "site0")
        assert view.calibrated_network(NETWORK) == store.calibrated_network(NETWORK, "site0")
        assert view.calibrated_network(NETWORK) != store.calibrated_network(NETWORK)
        assert view.calibrated_network(NETWORK).name == "configured+observed@site0"
        for method, (arguments, _) in _FRESHER.items():
            assert _ask(view, method, arguments) == _ask(store, method, arguments)
        assert view.join_selectivity(("k",)) == store.join_selectivity(("k",))
        assert view.column_distinct_evidence() == store.column_distinct_evidence()
        assert view.calibrated_cost_settings(CostSettings()) == store.calibrated_cost_settings(CostSettings())
        assert view.queries_observed == store.queries_observed

    def test_an_unvisited_site_is_priced_from_the_global_observation(self):
        store = _fixture_store()
        unvisited = store.calibrated_network(NETWORK, "site9")
        assert unvisited.name == "configured+observed@site9"
        assert unvisited.downlink_bandwidth == store.observed_downlink_bandwidth
        one_way = store.calibrated_network(NETWORK, "site1")  # no uplink observed there
        assert one_way.downlink_bandwidth == store.observed_site_bandwidth("site1")[0]
        assert one_way.uplink_bandwidth == store.observed_uplink_bandwidth
        assert StatisticsStore().calibrated_network(NETWORK, "site0") is NETWORK


# ---------------------------------------------------------------------------
# (e) completeness: whoever the estimator may be handed answers all it asks
# ---------------------------------------------------------------------------


def _asked_by_the_optimizer():
    """Every method called on the estimator's / optimizer's ``self.statistics``
    and on ``operations_for_query``'s ``statistics`` argument."""
    held = inspect.getsource(cost) + inspect.getsource(decision)
    asked = set(re.findall(r"\bself\.statistics\.(\w+)\(", held))
    return asked | set(re.findall(r"(?<![\w.])statistics\.(\w+)\(", inspect.getsource(plans)))


class TestProtocolCompleteness:
    def test_the_list_is_what_the_optimizer_calls(self):
        assert _asked_by_the_optimizer() == set(STATISTICS_PROTOCOL)
        assert len(STATISTICS_PROTOCOL) == len(set(STATISTICS_PROTOCOL))

    def test_the_optimizer_does_not_probe(self):
        source = "".join(inspect.getsource(module) for module in (cost, plans, decision))
        assert not re.findall(r"(?:getattr|hasattr)\(\s*(?:self\.)?statistics", source)

    @pytest.mark.parametrize(
        "answerer",
        [
            StatisticsStore(),
            StatisticsOverlay(),
            _view(None),
            _view(StatisticsStore()),
            site_calibrated(StatisticsStore(), "site0"),
            StatisticsReads(StatisticsStore()),
        ],
        ids=["store", "overlay", "view", "view-over-store", "per-site", "read-log"],
    )
    def test_every_answerer_answers_every_method(self, answerer):
        for method in STATISTICS_PROTOCOL:
            assert callable(getattr(answerer, method)), method

    def test_an_overlay_answers_protocol_methods_only(self):
        own = {name for name in vars(RuntimeStatisticsView) if not name.startswith("_")}
        assert own and own <= set(STATISTICS_PROTOCOL)
        assert all(hasattr(StatisticsStore, name) for name in STATISTICS_PROTOCOL)

    def test_a_read_log_answers_the_protocol_and_nothing_else(self):
        store = _fixture_store()
        reads = StatisticsReads(store)
        for name in ("queries_observed", "record", "forget_columns", "udf_selectivities"):
            with pytest.raises(AttributeError):
                getattr(reads, name)
        asked = [
            ("udf_cost", ("Score", 0.9), {}),
            ("udf_selectivity", ("Score", 0.9), {"predicate": "Score_result >= 100"}),
            ("join_selectivity", (("A.K", "B.K"), None), {}),
            ("calibrated_network", (NETWORK,), {}),
        ]
        answers = [getattr(reads, name)(*args, **kwargs) for name, args, kwargs in asked]
        assert answers == [getattr(store, name)(*args, **kwargs) for name, args, kwargs in asked]
        assert reads.log == [(*read, answer) for read, answer in zip(asked, answers)]
