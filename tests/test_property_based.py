"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import operator
import sqlite3
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.adaptive import (
    BatchSizeController,
    OverlapWindowController,
    ReOptimizationPolicy,
    ReOptimizer,
    SwitchPolicy,
)
from repro.core.costmodel import CostModel, CostParameters
from repro.core.optimizer import OptimizationDecision, Optimizer
from repro.core.optimizer.cost import CostSettings
from repro.core.strategies import ExecutionStrategy, StrategyConfig
from repro.errors import BindError
from repro.network.resources import Store
from repro.network.simulator import Simulator
from repro.network.topology import NetworkConfig
from repro.relational.columns import HAVE_NUMPY, scalar_fallback
from repro.relational.expressions import (
    Arithmetic,
    BooleanOp,
    ColumnRef,
    Comparison,
    Literal,
    conjoin,
)
from repro.relational.operators import Distinct, HashJoin, Sort, TableScan
from repro.relational.keys import _NullsFirstKey, nulls_first_order
from repro.relational.schema import Schema
from repro.relational.table import Table
from repro.relational.tuples import Row, RowBatch, row_size, values_size
from repro.relational.types import (
    BOOLEAN,
    DATA_OBJECT,
    FLOAT,
    INTEGER,
    STRING,
    TIME_SERIES,
    DataObject,
    TimeSeries,
    value_size,
    value_sizes,
)
from repro.server.engine import Database
from repro.server.executor import Executor
from repro.storage.index import KeyInterval
from repro.workloads.experiments import run_workload_point
from repro.workloads.synthetic import SyntheticWorkload, interleaving_stride

FAST = NetworkConfig.symmetric(2_000_000.0, latency=0.0005, name="prop-fast")


def int_table(name, column, values):
    return Table(name, Schema.of((column, INTEGER)), rows=[[v] for v in values])


# ---------------------------------------------------------------------------
# Relational operator algebra
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=-20, max_value=20), max_size=40))
@settings(max_examples=40, deadline=None)
def test_distinct_matches_set_semantics(values):
    table = int_table("t", "v", values)
    result = [row[0] for row in Distinct(TableScan(table)).run()]
    assert result == list(dict.fromkeys(values))


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=40))
@settings(max_examples=40, deadline=None)
def test_sort_matches_python_sorted(values):
    table = int_table("t", "v", values)
    result = [row[0] for row in Sort(TableScan(table), ["v"]).run()]
    assert result == sorted(values)


@given(
    st.lists(st.integers(min_value=0, max_value=6), max_size=25),
    st.lists(st.integers(min_value=0, max_value=6), max_size=25),
)
@settings(max_examples=40, deadline=None)
def test_hash_join_matches_brute_force(left_values, right_values):
    left = int_table("l", "k", left_values)
    right = int_table("r", "k", right_values)
    expected = sorted(
        (a, b) for a in left_values for b in right_values if a == b
    )
    hashed = sorted(
        (row[0], row[1])
        for row in HashJoin(TableScan(left), TableScan(right), ["l.k"], ["r.k"]).run()
    )
    assert hashed == expected


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_filter_partition_is_complete(values):
    table = int_table("t", "v", values)
    from repro.relational.operators import Filter

    low = Filter(TableScan(table), Comparison("<", ColumnRef("v"), Literal(4))).run()
    high = Filter(TableScan(table), Comparison(">=", ColumnRef("v"), Literal(4))).run()
    assert len(low) + len(high) == len(values)


# ---------------------------------------------------------------------------
# Simulation store (FIFO buffer) invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_store_preserves_fifo_order_for_any_capacity(items, capacity):
    sim = Simulator()
    store = Store(sim, capacity=capacity)

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        received = []
        for _ in items:
            value = yield store.get()
            received.append(value)
        return received

    sim.process(producer())
    consumer_process = sim.process(consumer())
    sim.run()
    assert consumer_process.value == items
    assert store.peak_occupancy <= capacity


# ---------------------------------------------------------------------------
# Cost model invariants
# ---------------------------------------------------------------------------


cost_parameters = st.builds(
    CostParameters.paper_experiment,
    input_record_bytes=st.integers(min_value=50, max_value=10_000),
    argument_fraction=st.floats(min_value=0.05, max_value=0.95),
    result_bytes=st.integers(min_value=0, max_value=10_000),
    selectivity=st.floats(min_value=0.0, max_value=1.0),
    asymmetry=st.floats(min_value=1.0, max_value=200.0),
)


@given(cost_parameters, st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80, deadline=None)
def test_csj_cost_is_monotone_in_selectivity(parameters, other_selectivity):
    lower, higher = sorted([parameters.selectivity, other_selectivity])
    low_cost = CostModel(parameters.with_selectivity(lower)).client_site_join_cost()
    high_cost = CostModel(parameters.with_selectivity(higher)).client_site_join_cost()
    assert low_cost.bottleneck_bytes <= high_cost.bottleneck_bytes + 1e-9
    # The semi-join is unaffected by the pushable predicate's selectivity.
    assert CostModel(parameters.with_selectivity(lower)).semi_join_cost().bottleneck_bytes == (
        CostModel(parameters.with_selectivity(higher)).semi_join_cost().bottleneck_bytes
    )


@given(cost_parameters)
@settings(max_examples=80, deadline=None)
def test_preferred_strategy_has_minimal_bottleneck_cost(parameters):
    model = CostModel(parameters)
    preferred = model.preferred_strategy()
    costs = {
        strategy: cost.bottleneck_bytes
        for strategy, cost in model.all_costs().items()
        if strategy.value != "naive"
    }
    assert costs[preferred] == min(costs.values())


# ---------------------------------------------------------------------------
# Execution strategy equivalence on random workloads
# ---------------------------------------------------------------------------


@given(
    row_count=st.integers(min_value=1, max_value=12),
    argument_fraction=st.sampled_from([0.25, 0.5, 0.75]),
    result_bytes=st.integers(min_value=8, max_value=400),
    selectivity=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    distinct_fraction=st.sampled_from([1.0, 0.5, 0.34]),
)
@settings(max_examples=20, deadline=None)
def test_strategies_agree_on_random_workloads(
    row_count, argument_fraction, result_bytes, selectivity, distinct_fraction
):
    workload = SyntheticWorkload(
        row_count=row_count,
        input_record_bytes=240,
        argument_fraction=argument_fraction,
        result_bytes=result_bytes,
        selectivity=selectivity,
        distinct_fraction=distinct_fraction,
        udf_cost_seconds=0.0001,
    )
    outcomes = []
    for config in (StrategyConfig.naive(), StrategyConfig.semi_join(), StrategyConfig.client_site_join()):
        point = run_workload_point(workload, FAST, config)
        outcomes.append(point.rows)
    assert outcomes[0] == outcomes[1] == outcomes[2]


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=1_000))
@settings(max_examples=50, deadline=None)
def test_data_object_equality_consistent_with_hash(size, seed):
    assert DataObject(size, seed) == DataObject(size, seed)
    assert hash(DataObject(size, seed)) == hash(DataObject(size, seed))


# ---------------------------------------------------------------------------
# Bulk sizers and key codes vs. their scalar definitions
# ---------------------------------------------------------------------------

_NAN = float("nan")
#: One strategy per column type: values of one column compare with each other.
_TYPED_VALUES = {
    "int": st.integers(min_value=-3, max_value=3),
    "number": st.one_of(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from([1.0, 2.0, -0.0, 2.5, _NAN, float("nan")]),
        st.booleans(),
    ),
    "string": st.sampled_from(["", "a", "b", "ab", "naïve", "日本"]),
    "object": st.builds(DataObject, st.integers(0, 40), st.integers(0, 3)),
    "series": st.builds(
        TimeSeries, st.lists(st.sampled_from([0.0, 1.0, 2.5]), max_size=3)
    ),
    "list": st.lists(st.integers(0, 2), max_size=2),  # unhashable
}
if HAVE_NUMPY:
    import numpy

    _TYPED_VALUES["numpy"] = st.sampled_from(
        [numpy.float64(1.5), numpy.float64(2.0), numpy.int64(2), numpy.bool_(True)]
    )


def _columns(kinds, min_size=0):
    """Same-length columns, one per kind, each holding its kind's values and NULLs."""
    return st.integers(min_value=min_size, max_value=12).flatmap(
        lambda rows: st.tuples(
            *(
                st.lists(st.one_of(st.none(), _TYPED_VALUES[kind]), min_size=rows, max_size=rows)
                for kind in kinds
            )
        )
    )


_ANY_VALUE = st.one_of(
    st.none(),
    *_TYPED_VALUES.values(),
    st.binary(max_size=3),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "yz"])),
)


@given(
    st.one_of(
        st.lists(_ANY_VALUE, max_size=12),  # mixed-type columns
        *(
            st.lists(st.one_of(st.none(), values), max_size=12)
            for values in _TYPED_VALUES.values()
        ),
    )
)
@settings(max_examples=200, deadline=None)
def test_bulk_value_sizes_match_the_scalar_sizer(column):
    assert value_sizes(column) == [value_size(value) for value in column]
    assert RowBatch.from_columns([column]).values_bytes() == sum(map(value_size, column))


_DTYPE_VALUES = {
    INTEGER: st.integers(min_value=-5, max_value=5),
    FLOAT: st.one_of(st.integers(-2, 2), st.floats(allow_nan=False, width=32)),
    BOOLEAN: st.booleans(),
    STRING: _TYPED_VALUES["string"],
    DATA_OBJECT: _TYPED_VALUES["object"],
    TIME_SERIES: _TYPED_VALUES["series"],
}


@given(
    st.lists(st.sampled_from(list(_DTYPE_VALUES)), min_size=1, max_size=4).flatmap(
        lambda dtypes: st.tuples(
            st.just(dtypes),
            st.lists(
                st.tuples(*(st.one_of(st.none(), _DTYPE_VALUES[dtype]) for dtype in dtypes)),
                max_size=10,
            ),
        )
    ),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_bulk_row_sizes_match_the_scalar_sizers(case, typed):
    """Schema-based and value-based sizes, per column, per row and per batch,
    over plain and typed columns (an ``int`` in a FLOAT column is 8 bytes by
    schema and 4 by value; a ``bool`` never enters a numeric column)."""
    dtypes, rows = case
    schema = Schema.of(*((f"c{index}", dtype) for index, dtype in enumerate(dtypes)))
    batch = RowBatch([Row(row) for row in rows])
    if typed:
        batch.ensure_typed(schema)
    positions = list(range(len(dtypes)))
    for position, dtype in enumerate(dtypes):
        column = [row[position] for row in rows]
        assert dtype.serialized_sizes(column) == [dtype.serialized_size(v) for v in column]
    assert batch.row_sizes(schema) == [row_size(row, schema) for row in rows]
    assert batch.size_bytes(schema) == sum(row_size(row, schema) for row in rows)
    assert batch.value_sizes(positions) == [values_size(row) for row in rows]
    assert batch.values_bytes() == sum(values_size(row) for row in rows)


_HASHABLE_KINDS = [kind for kind in _TYPED_VALUES if kind != "list"]


@given(
    st.lists(st.sampled_from(_HASHABLE_KINDS), min_size=1, max_size=3).flatmap(_columns)
)
@settings(max_examples=200, deadline=None)
def test_key_codes_are_the_equality_classes_of_the_key_tuples(columns):
    """Two rows share a code exactly when their key tuples are equal (as a
    set would judge it: ``1``, ``1.0`` and ``True`` are one key, a NaN equals
    only itself); codes are dense and number the keys by first appearance."""
    batch = RowBatch.from_columns([list(column) for column in columns])
    positions = list(range(len(columns)))
    tuples = batch.key_tuples(positions)
    coded = batch.encode(positions)
    assert len(coded.codes) == len(tuples)
    assert coded.keys == list(dict.fromkeys(tuples))
    for code, key in enumerate(coded.keys):
        # A key is its first occurrence, object for object (1 stays 1, not 1.0).
        first = tuples[coded.codes.index(code)]
        assert all(mine is theirs for mine, theirs in zip(key, first))
    for code, key in zip(coded.codes, tuples):
        assert coded.keys[code] == key
    for left in range(len(tuples)):
        for right in range(left):
            assert (coded.codes[left] == coded.codes[right]) == (tuples[left] == tuples[right])
    # The sizes by code are the first occurrences', which equal rows need not share.
    assert coded.sizes == [values_size(key) for key in coded.keys]


@given(
    st.lists(
        st.sampled_from([kind for kind in _TYPED_VALUES if kind != "numpy"]),
        min_size=1,
        max_size=3,
    ).flatmap(_columns)
)
@settings(max_examples=300, deadline=None)
def test_order_by_code_is_the_nulls_first_order(columns):
    """Ranking the distinct keys and sorting rows by integer gives the stable
    NULLs-first order of the rows themselves — also where keys cannot be
    ranked (NaNs, unhashable lists) and the wrapper orders row by row."""
    batch = RowBatch.from_columns([list(column) for column in columns])
    positions = list(range(len(columns)))
    tuples = batch.key_tuples(positions)
    coded = batch.encode(positions)
    order = coded.order()
    for reverse in (False, True):
        assert nulls_first_order(tuples, reverse=reverse) == sorted(
            range(len(tuples)), key=lambda row: _NullsFirstKey(tuples[row]), reverse=reverse
        )
    assert order == nulls_first_order(tuples)
    assert coded.take(order).tuples() == [tuples[index] for index in order]


# ---------------------------------------------------------------------------
# Strategy equivalence: every execution mode vs. single-site execution
# ---------------------------------------------------------------------------


def single_site_reference(workload: SyntheticWorkload):
    """The query's answer computed locally, with no network or strategies.

    Replays the workload's data-generation and predicate semantics in plain
    Python: row ``i`` carries argument seed ``p(i) % distinct`` (``p`` the
    identity, or the interleaving stride permutation), the UDF maps a seed-S
    argument to a seed-S result of ``result_bytes`` bytes, and the predicate
    keeps rows whose result seed falls below the selectivity threshold.  The
    output is the ``(NonArgument, result)`` multiset every distributed
    execution must reproduce byte-for-byte.
    """
    distinct = max(1, int(round(workload.row_count * workload.distinct_fraction)))
    stride = interleaving_stride(workload.row_count) if workload.interleaved else 1
    threshold = workload.selectivity_threshold_seed
    rows = []
    for index in range(workload.row_count):
        position = (index * stride) % workload.row_count if workload.interleaved else index
        seed = position % distinct
        if seed < threshold:
            rows.append(
                (
                    DataObject(workload.non_argument_size, seed=index),
                    DataObject(workload.result_bytes, seed=seed),
                )
            )
    return sorted(rows, key=repr)


@given(
    row_count=st.integers(min_value=1, max_value=30),
    selectivity=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    distinct_fraction=st.sampled_from([1.0, 0.5]),
    batch_size=st.sampled_from([1, 3, 16]),
    strategy=st.sampled_from(list(ExecutionStrategy)),
    adaptive=st.booleans(),
    switching=st.booleans(),
    reoptimize=st.booleans(),
    interleaved=st.booleans(),
    declared_selectivity=st.sampled_from([None, 0.05, 0.95]),
    overlap_window=st.sampled_from([None, 1, 4]),
    typed_buffers=st.booleans(),
    paged_storage=st.booleans(),
    indexes=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_every_execution_mode_matches_single_site(
    row_count,
    selectivity,
    distinct_fraction,
    batch_size,
    strategy,
    adaptive,
    switching,
    reoptimize,
    interleaved,
    declared_selectivity,
    overlap_window,
    typed_buffers,
    paged_storage,
    indexes,
):
    """Strategy x batch x adaptive batching x switching x re-optimization x
    overlap window — every combination returns the exact single-site result
    multiset.

    The declared selectivity is deliberately allowed to lie (it only feeds
    the switcher's and re-optimizer's priors), and the tiny segment policies
    force multiple segments — and realistic switches / plan migrations —
    even on small inputs.  ``reoptimize`` routes execution through the
    :class:`PlanMigrationOperator` (it supersedes per-UDF switching when
    both are armed, like the engine path).  ``overlap_window`` exercises the
    overlapped shipping protocol from fully synchronous (1) through bounded
    overlap (4) to each strategy's default; with ``adaptive`` and no pinned
    window, the window is additionally adapted mid-query.  ``typed_buffers``
    runs the identical point with typed column storage (and vectorized
    kernels) disabled, so the typed and fully-scalar data planes face the
    same combinatorial sweep.  ``paged_storage`` feeds the execution from a
    slotted-page heap file behind a buffer pool instead of the in-memory
    rows, so the durable storage data path faces it too; ``indexes``
    additionally maintains a hash index on the argument column through every
    insert — an indexed table must return the identical result multiset.
    """
    workload = SyntheticWorkload(
        row_count=row_count,
        input_record_bytes=120,
        argument_fraction=0.5,
        result_bytes=24,
        selectivity=selectivity,
        distinct_fraction=distinct_fraction,
        udf_cost_seconds=0.0001,
        interleaved=interleaved,
        declared_selectivity=declared_selectivity,
    )
    config = StrategyConfig(
        strategy=strategy, batch_size=batch_size, overlap_window=overlap_window
    )
    if adaptive:
        config = config.with_batch_controller(BatchSizeController())
        if overlap_window is None:
            config = config.with_overlap_controller(OverlapWindowController())
    if switching:
        config = config.with_switch_policy(
            SwitchPolicy(
                initial_segment_rows=4, min_rows_before_switch=4, max_segment_rows=16
            )
        )
    if reoptimize:
        config = config.with_reoptimizer(
            ReOptimizer(
                policy=ReOptimizationPolicy(
                    initial_segment_rows=4,
                    min_rows_before_replan=4,
                    max_segment_rows=16,
                    hysteresis=0.0,
                )
            )
        )
    def run_point():
        if not paged_storage:
            return run_workload_point(workload, FAST, config)
        with tempfile.TemporaryDirectory() as directory:
            return run_workload_point(
                workload, FAST, config, storage_dir=directory, indexes=indexes
            )

    if typed_buffers:
        point = run_point()
    else:
        with scalar_fallback():
            point = run_point()
    assert list(point.result_rows) == single_site_reference(workload)


# ---------------------------------------------------------------------------
# Index access: an interval scan answers exactly like the sequential scan
# ---------------------------------------------------------------------------

_COMPARE = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}
_MIRRORED = {"=": "=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}
#: Small domains, so duplicates, equal bounds and int-vs-float ties are common
#: (non-negative: the SQL grammar has no signed literal).
_NUMBERS = st.one_of(
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=16).map(lambda half: half / 2.0),
)
_STRINGS = st.sampled_from(["a", "b", "bb", "c", "d"])


@st.composite
def interval_cases(draw):
    numeric = draw(st.booleans())
    domain = _NUMBERS if numeric else _STRINGS
    values = draw(st.lists(st.one_of(st.none(), domain), min_size=1, max_size=40))
    conjuncts = draw(
        st.lists(
            st.tuples(st.sampled_from(sorted(_COMPARE)), domain, st.booleans()),
            min_size=1,
            max_size=3,
        )
    )
    return numeric, values, conjuncts


#: Few enough keys that bounds tie (also int against float) in most examples.
_TYING = st.sampled_from([1, 1.0, 1.5, 2, 2.0, 3])


@given(
    conjuncts=st.lists(st.tuples(st.sampled_from(sorted(_COMPARE)), _TYING), min_size=1, max_size=4),
    probes=st.lists(_NUMBERS, max_size=4),
)
@settings(max_examples=200, deadline=None)
def test_key_interval_fold_is_exact(conjuncts, probes):
    """The folded interval holds a key iff every conjunct does — never wider
    (the re-check filters above an index scan would hide that), never
    narrower — and it is empty or a point exactly when the conjunction is."""
    interval = KeyInterval.fold(conjuncts)

    def inside(value):
        above = interval.low is None or (
            value >= interval.low if interval.include_low else value > interval.low
        )
        below = interval.high is None or (
            value <= interval.high if interval.include_high else value < interval.high
        )
        return above and below

    for value in probes + [literal for _, literal in conjuncts]:
        assert inside(value) == all(_COMPARE[op](value, literal) for op, literal in conjuncts)
        assert not (interval.is_empty and inside(value))
        if interval.is_point:
            assert inside(value) == (value == interval.low)


@given(
    case=interval_cases(),
    kind=st.sampled_from(["btree", "hash"]),
    analyzed=st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_interval_index_scan_matches_sequential_scan(case, kind, analyzed):
    """1-3 conjuncts on one indexed column, folded to one interval.

    Random numeric and string columns with duplicates and NULLs; literals on
    either side of the operator; int and float bounds that tie; equal bounds
    with mixed inclusivity; inverted and empty intervals; equality combined
    with a range; B-tree and hash, with and without a histogram.  Every
    index path the estimator offers, realised strictly, returns the
    multiset a plain-Python filter returns — and so do the pinned seq-scan
    plan and whatever ``optimize=True`` decides to run.
    """
    numeric, values, conjuncts = case
    rows = [(row_id, value) for row_id, value in enumerate(values)]
    texts = [
        f"{literal!r} {_MIRRORED[op]} T.V" if literal_first else f"T.V {op} {literal!r}"
        for op, literal, literal_first in conjuncts
    ]
    sql = "SELECT T.Id, T.V FROM T T WHERE " + " AND ".join(texts)
    expected = sorted(
        (row_id, value)
        for row_id, value in rows
        if value is not None and all(_COMPARE[op](value, literal) for op, literal, _ in conjuncts)
    )

    cost = CostSettings(block_access_seconds=0.005)
    with tempfile.TemporaryDirectory() as directory:
        db = Database(network=FAST, storage_dir=directory, cost_settings=cost)
        db.create_table("T", [("Id", INTEGER), ("V", FLOAT if numeric else STRING)], rows=rows)
        db.create_index("t_v", "T", "V", kind=kind)
        if analyzed:
            db.analyze("T")
        bound = db.bind(sql)

        def run(decision):
            executor = Executor(db.session.new_context(), session=db.session)
            result = executor.execute_query(bound, deliver_results=True, decision=decision)
            return result.plan_text, sorted(map(tuple, result.rows))

        plan_text, answer = run(OptimizationDecision.pinned(db.default_config))
        assert "IndexScan" not in plan_text and answer == expected

        enumerator = Optimizer(db.network, settings=cost).enumerator(bound)
        (table,) = enumerator.tables
        paths = [v.access_paths["T"] for v in enumerator.estimator.scan_variants(table)[1:]]
        served = [op for op, _, _ in conjuncts if kind == "btree" or op == "="]
        assert len(paths) == (1 if served else 0)
        for path in paths:
            assert len(path.predicate_keys) == len(served)
            plan_text, answer = run(
                OptimizationDecision.pinned(db.default_config, access_paths={"T": path})
            )
            assert "IndexScan(T AS T via t_v: " in plan_text
            assert plan_text.count("Filter(") == len(conjuncts)  # every re-check kept
            assert answer == expected

        chosen = db.execute(sql, optimize=True, deliver_results=True)
        assert sorted(map(tuple, chosen.rows)) == expected
        db.close()


# ---------------------------------------------------------------------------
# Multi-tenant execution: concurrency never changes answers
# ---------------------------------------------------------------------------


@given(
    concurrent_sessions=st.integers(min_value=1, max_value=4),
    strategy=st.sampled_from(
        [ExecutionStrategy.SEMI_JOIN, ExecutionStrategy.CLIENT_SITE_JOIN]
    ),
    discipline=st.sampled_from(["drr", "fifo"]),
    executor_slots=st.sampled_from([None, 1, 2]),
    repeat=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=10, deadline=None)
def test_concurrent_sessions_match_independent_runs(
    concurrent_sessions, strategy, discipline, executor_slots, repeat
):
    """K sessions on one shared trunk return exactly the multiset of wire
    results that K independent private runs return: fair queueing, admission
    queues, and interleaving reshuffle *time*, never bytes or rows."""
    from repro.tenancy import MultiTenantEngine, SessionWorkload
    from repro.workloads.multitenant import make_tenant_database, point_query_spec

    spec = point_query_spec(strategy=strategy)
    reference = make_tenant_database().execute(spec.sql, **spec.options)
    expected_trace = (
        reference.metrics.downlink_messages,
        reference.metrics.uplink_messages,
        reference.metrics.downlink_bytes,
        reference.metrics.uplink_bytes,
        reference.metrics.rows_returned,
    )

    engine = MultiTenantEngine(
        make_tenant_database(),
        fair_queueing=discipline,
        executor_slots=executor_slots,
    )
    report = engine.run(
        [
            SessionWorkload(
                tenant_id=f"t{index}",
                queries=[spec],
                repeat=repeat,
                think_time_seconds=0.05,
                jitter_fraction=0.5,
                seed=index,
            )
            for index in range(concurrent_sessions)
        ]
    )
    assert report.error_count == 0
    assert report.query_count == concurrent_sessions * repeat
    for record in report.records:
        metrics = record.metrics
        assert (
            metrics.downlink_messages,
            metrics.uplink_messages,
            metrics.downlink_bytes,
            metrics.uplink_bytes,
            metrics.rows_returned,
        ) == expected_trace
    if executor_slots is not None:
        assert engine.slots.peak_in_use <= executor_slots


# ---------------------------------------------------------------------------
# Scatter-gather: sharding/replication/placement never changes answers
# ---------------------------------------------------------------------------


@given(
    sites=st.integers(min_value=1, max_value=3),
    shards=st.integers(min_value=1, max_value=4),
    extra_replicas=st.integers(min_value=0, max_value=2),
    method=st.sampled_from(["hash", "range"]),
    strategy=st.sampled_from(
        [
            None,
            ExecutionStrategy.NAIVE,
            ExecutionStrategy.SEMI_JOIN,
            ExecutionStrategy.CLIENT_SITE_JOIN,
        ]
    ),
    rows=st.integers(min_value=1, max_value=18),
    segments=st.sampled_from([1, 3]),
    optimize=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_scatter_gather_matches_single_site(
    sites, shards, extra_replicas, method, strategy, rows, segments, optimize
):
    """Distributed execution over K shards x replica placement x sharding
    method x strategy x segmentation returns exactly the single-site result
    multiset.

    Replication is clamped to the site count (a shard cannot have more
    replicas than sites), and skewed shard sizes — including empty fragments
    when ``rows < shards`` — are part of the sweep by construction.
    """
    from repro.workloads.sharding import FILTER_SQL, make_sharded_setup

    single, dist = make_sharded_setup(
        sites=sites,
        shards=shards,
        replication_factor=min(sites, 1 + extra_replicas),
        rows=rows,
        series_points=4,
        method=method,
    )
    base = single.execute(FILTER_SQL, strategy=strategy, deliver_results=True)
    result = dist.execute(
        FILTER_SQL, strategy=strategy, optimize=optimize, segments=segments
    )
    assert result.row_set() == base.row_set()
    assert result.metrics.rows_returned == base.metrics.rows_returned


# ---------------------------------------------------------------------------
# Predicate identity: one key per predicate, however it was written
# ---------------------------------------------------------------------------

#: Literals a text-level canonicaliser would trip over.
_KEY_STRINGS = ["b", "a AND b", "x) AND (y", "(", " AND ", "(a OR b)"]


@st.composite
def _key_conjuncts(draw):
    """One AND-free conjunct over ``T(A, B, S)``: a comparison, or an OR / NOT /
    arithmetic wrapped around comparisons."""

    def comparison():
        operator_ = draw(st.sampled_from(["=", "<>", "<", "<=", ">", ">="]))
        if draw(st.booleans()):
            return Comparison(
                operator_, ColumnRef("T.S"), Literal(draw(st.sampled_from(_KEY_STRINGS)))
            )
        left = ColumnRef(draw(st.sampled_from(["T.A", "T.B"])))
        if draw(st.sampled_from([False, False, True])):
            left = Arithmetic(draw(st.sampled_from("+-*")), left, Literal(draw(st.integers(0, 3))))
        return Comparison(operator_, left, Literal(draw(st.sampled_from([0, 1, 2, 1.5]))))

    shape = draw(st.sampled_from(["plain", "plain", "or", "not"]))
    if shape == "or":
        return BooleanOp("OR", [comparison(), comparison()])
    if shape == "not":
        return BooleanOp("NOT", [comparison()])
    return comparison()


def _nested(draw, parts):
    """``parts`` under AND, cut into runs that are each grouped the same way."""
    if len(parts) == 1:
        return parts[0]
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=len(parts) - 1), min_size=1)))
    runs = [parts[start:end] for start, end in zip([0] + cuts, cuts + [len(parts)])]
    return BooleanOp("AND", [_nested(draw, run) for run in runs])


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_predicate_key_is_a_property_of_the_predicate(data):
    """Invariant under conjunct permutation, re-nesting of ``AND`` and re-binding
    from its own SQL text (literals holding `` AND `` and parentheses included);
    different as soon as one conjunct is."""
    parts = data.draw(
        st.lists(_key_conjuncts(), min_size=1, max_size=4, unique_by=str), label="conjuncts"
    )
    key = conjoin(parts).canonical_key
    assert conjoin(data.draw(st.permutations(parts))).canonical_key == key
    assert _nested(data.draw, data.draw(st.permutations(parts))).canonical_key == key

    db = Database(network=FAST)
    db.create_table("T", [("A", INTEGER), ("B", INTEGER), ("S", STRING)])
    for text in (str(conjoin(parts)), key):
        bound = db.bind(f"SELECT T.A FROM T WHERE {text}")
        assert conjoin([p.expression for p in bound.predicates]).canonical_key == key

    other = data.draw(_key_conjuncts().filter(lambda c: str(c) not in map(str, parts)))
    position = data.draw(st.integers(min_value=0, max_value=len(parts) - 1))
    assert conjoin(parts[:position] + [other] + parts[position + 1 :]).canonical_key != key


# ---------------------------------------------------------------------------
# Differential oracle: the SQL surface against stdlib sqlite3
# ---------------------------------------------------------------------------
#
# The seven dimensions above compare the engine with itself.  This one
# compares it with something we did not write: random schemas (every table
# draws its columns from one pool, so names collide across tables), random
# data (NULLs, duplicates, ``1`` / ``1.0`` in one FLOAT column and ``True``
# against both, runs of one key long enough to straddle B-tree leaves) and
# random queries over what the parser accepts, run in memory and paged,
# indexed and not, planned and not — and through SQLite.
#
# A query is built once as a small tree and rendered twice.  Everything the
# two dialects disagree on is declared here, in the renderer and the
# generator, never per query:
#
# * ``/`` is true division here, integer division on SQLite integers: the
#   SQLite rendering casts the dividend to REAL.  A zero divisor raises here
#   and is NULL there, so divisors are non-zero literals.
# * Ordering and comparing a number against a string is an error here and
#   defined there: comparisons stay within one kind (numbers and booleans,
#   or strings).
# * ``ORDER BY`` takes items of the select list here — by their expression
#   (one of two same-named columns, a UDF call, arithmetic) or by their alias;
#   the generator orders by those, and makes the order total (every selected
#   item is a key) so ``LIMIT`` / ``OFFSET`` cut the same prefix on both
#   sides.  An alias that is also a column's name means the column here and
#   the alias there: aliases are names no table has.  Without ``ORDER BY`` a
#   ``LIMIT`` keeps *some* rows: count and membership are compared.
# * The grammar has no signed literal: literals are non-negative.
# * UDFs return NULL on NULL (both sides call the same Python function).
# * One limitation of this engine, pinned below the oracle as a strict
#   xfail: a client-site UDF takes one argument list per query.

#: Strings wide enough that six fill a 4 KiB B-tree leaf: a run of eight
#: equal keys straddles a leaf split.
_WIDE = [letter * 600 for letter in "abc"]

#: name → (engine type, SQLite type, kind, value domain)
_POOL = {
    "K": (INTEGER, "INTEGER", "number", [None, 0, 1, 2, 3, 7]),
    "V": (FLOAT, "REAL", "number", [None, 0, 1, 1.0, 1.5, 2, 2.5]),
    "F": (BOOLEAN, "BOOLEAN", "number", [None, True, False]),
    "S": (STRING, "TEXT", "string", [None, "b", *_WIDE]),
}
_LITERALS = {"number": [0, 1, 1.0, 1.5, 2, 3], "string": ["b", "bb", *_WIDE]}
_ALIASES = ("A", "B", "C")
#: Pages cost something, or the estimator offers no index path at all.
_PAGE_COST = CostSettings(block_access_seconds=0.005)


def _client_udf(value):
    return None if value is None else value * 2 + 1


def _server_udf(value):
    return None if value is None else value - 1


def _render(node, sqlite=False):
    """SQL text of an expression tree, in the engine's dialect or SQLite's."""
    kind = node[0]
    if kind == "column":
        return f"{node[1]}.{node[2]}"
    if kind == "literal":
        value = node[1]
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        return f"'{value}'" if isinstance(value, str) else repr(value)
    if kind == "call":
        return f"{node[1]}({_render(node[2], sqlite)})"
    _, operator_, left, right = node
    left, right = _render(left, sqlite), _render(right, sqlite)
    if operator_ == "/" and sqlite:
        left = f"CAST({left} AS REAL)"
    return f"({left} {operator_} {right})"


def _render_query(query, sqlite=False):
    select = ", ".join(
        _render(node, sqlite) + (f" AS {alias}" if alias else "")
        for node, alias in zip(query["select"], query["aliases"])
    )
    tables = ", ".join(f"{table} {alias}" for alias, table in query["from"])
    sql = f"SELECT {'DISTINCT ' if query['distinct'] else ''}{select} FROM {tables}"
    if query["where"]:
        sql += " WHERE " + " AND ".join(_render(node, sqlite)[1:-1] for node in query["where"])
    if query["order_by"]:
        keys = (
            (query["aliases"][index] if by_alias else _render(query["select"][index], sqlite))
            + (" DESC" if descending else "")
            for index, descending, by_alias in query["order_by"]
        )
        sql += " ORDER BY " + ", ".join(keys)
    if query["limit"] is not None:
        sql += f" LIMIT {query['limit']}"
        if query["offset"]:
            sql += f" OFFSET {query['offset']}"
    return sql


@st.composite
def _oracle_tables(draw):
    """One to three tables: each its own subset of the pool's columns (the
    first, the one that gets indexed, always has the string column), a few
    distinct rows, and — the first table only, to bound the joins — long runs."""
    tables = {}
    for number in range(draw(st.integers(min_value=1, max_value=3))):
        extra = draw(st.lists(st.sampled_from("VFS"), min_size=1, max_size=3, unique=True))
        columns = ["K"] + sorted(set(extra) | ({"S"} if number == 0 else set()))
        row = st.tuples(*(st.sampled_from(_POOL[name][3]) for name in columns))
        repeats = st.sampled_from([1, 2, 8] if number == 0 else [1, 1, 2])
        runs = draw(st.lists(st.tuples(row, repeats), min_size=number == 0, max_size=6))
        tables[f"T{number}"] = (columns, [values for values, count in runs for _ in range(count)])
    return tables


@st.composite
def _oracle_queries(draw, tables, index):
    # One to three aliases over the tables (self-joins included); only the
    # first may name a table with a long run, so cross products stay small.
    # An indexed case is more often the bare probe of its index: the other
    # joins and filters mostly empty the answer, and an empty answer hides
    # whatever the index lost.
    names = sorted(tables)
    small = [name for name in names if len(tables[name][1]) <= 12]
    from_ = [("A", "T0" if index is not None else draw(st.sampled_from(names)))]
    for alias in _ALIASES[1 : draw(st.sampled_from([1, 1, 2, 3] if index else [1, 2, 3, 3]))]:
        if small:
            from_.append((alias, draw(st.sampled_from(small))))
    columns = [("column", alias, name) for alias, table in from_ for name in tables[table][0]]
    client_argument = {}

    def kind_of(column):
        return _POOL[column[2]][2]

    def column(kind, aliases=_ALIASES):
        return draw(
            st.sampled_from([c for c in columns if kind_of(c) == kind and c[1] in aliases])
        )

    def any_kind(aliases=_ALIASES):
        return kind_of(draw(st.sampled_from([c for c in columns if c[1] in aliases])))

    def term(kind):
        """A column of ``kind``, or (numbers) a UDF call or arithmetic over one."""
        base = column(kind)
        shape = draw(st.sampled_from(["column"] * 4 + ["client", "server", "arithmetic"]))
        if kind == "string" or shape == "column" or base[2] == "F":
            return base
        if shape == "arithmetic":
            operator_ = draw(st.sampled_from("+-*/"))
            literals = [value for value in _LITERALS["number"] if value or operator_ != "/"]
            return ("binary", operator_, base, ("literal", draw(st.sampled_from(literals))))
        if shape == "server":
            return ("call", "ServerUdf", base)
        # One argument list per client-site UDF and query: see
        # test_one_client_udf_called_on_two_arguments.
        return ("call", "ClientUdf", client_argument.setdefault("column", base))

    def against_literals(
        left, operators, shapes=("literal", "literal", "mirrored", "range"), literals=None
    ):
        """One conjunct, or the two of a range, comparing ``left`` with literals."""
        literal = st.sampled_from(
            literals or _LITERALS[kind_of(left) if left[0] == "column" else "number"]
        )
        operator_, shape = draw(st.sampled_from(operators)), draw(st.sampled_from(shapes))
        if shape == "mirrored":
            return [("binary", operator_, ("literal", draw(literal)), left)]
        if shape == "range":
            return [
                ("binary", draw(st.sampled_from([">", ">="])), left, ("literal", draw(literal))),
                ("binary", draw(st.sampled_from(["<", "<="])), left, ("literal", draw(literal))),
            ]
        return [("binary", operator_, left, ("literal", draw(literal)))]

    comparisons = sorted(_COMPARE)
    where = []
    if index is not None:
        # Something for the indexes to serve: their column against values it
        # holds (a long run is the likeliest), by equality — all the hash
        # index takes — as often as by an inequality or a range.
        position = tables["T0"][0].index(index[0])
        held = [row[position] for row in tables["T0"][1] if row[position] is not None]
        where += against_literals(
            ("column", "A", index[0]), comparisons + ["="] * 4, literals=held
        )
    for alias, _ in from_[1:]:
        # Usually joined to an earlier alias, usually by equality — on columns
        # that, as often as not, a third alias holds under the same name.
        if draw(st.sampled_from([True, True, True, False])):
            earlier = _ALIASES[: _ALIASES.index(alias)]
            kind = any_kind([alias])
            candidates = [c for c in columns if c[1] in earlier and kind_of(c) == kind]
            if candidates:
                operator_ = draw(st.sampled_from(["=", "=", "=", "<", "<>"]))
                where.append(
                    ("binary", operator_, column(kind, [alias]), draw(st.sampled_from(candidates)))
                )
    for _ in range(draw(st.sampled_from([0, 0, 0, 1] if index else [0, 1, 1, 2]))):
        kind = any_kind()
        if draw(st.sampled_from([True, False, False, False])):
            where.append(
                ("binary", draw(st.sampled_from(comparisons + ["<>"])), term(kind), term(kind))
            )
        else:
            where += against_literals(term(kind), comparisons + ["<>"])

    select = [term(any_kind()) for _ in range(draw(st.integers(min_value=1, max_value=4)))]
    aliases = [None] * len(select)
    order_by = []
    if draw(st.booleans()):
        # Every selected item is a key, so the order is total; an item is
        # named by its alias, if it has one, as often as by its expression.
        select = list(dict.fromkeys(select))
        aliases = [draw(st.sampled_from([None, None, f"X{n}"])) for n in range(len(select))]
        order_by = [
            (position, draw(st.booleans()), aliases[position] is not None and draw(st.booleans()))
            for position in draw(st.permutations(range(len(select))))
        ]
    limit = draw(st.one_of(st.none(), st.none(), st.integers(min_value=0, max_value=8)))
    return {
        "from": from_,
        "select": select,
        "aliases": aliases,
        "distinct": draw(st.sampled_from([False, False, True])),
        "where": where,
        "order_by": order_by,
        "limit": limit,
        "offset": draw(st.integers(min_value=0, max_value=3)) if limit is not None else 0,
    }


@st.composite
def _oracle_cases(draw):
    tables = draw(_oracle_tables())
    first_columns = [name for name in tables["T0"][0] if name != "F"]
    row = st.tuples(*(st.sampled_from(_POOL[name][3]) for name in tables["T0"][0]))
    # (column of T0, built before the load / after it / after the churn): the
    # column gets a B-tree *and* a hash index.  Weighted towards the wide
    # strings, the keys whose equal runs straddle B-tree leaves at this size.
    index = None
    if draw(st.sampled_from([True, True, False])):
        index = draw(
            st.tuples(
                st.sampled_from(first_columns + ["S"]),
                st.sampled_from(["before load", "after load", "after churn"]),
            )
        )
        # An index earns its keep where keys repeat: eight rows equal on the
        # indexed column (and only by chance elsewhere), somewhere in the table.
        columns, rows = tables["T0"]
        position = columns.index(index[0])
        key = draw(st.sampled_from(_POOL[index[0]][3][1:]))
        run = draw(st.lists(row, min_size=8, max_size=8))
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        rows[at:at] = [values[:position] + (key,) + values[position + 1 :] for values in run]
    return {
        "tables": tables,
        "query": draw(_oracle_queries(tables, index)),
        # Churn on the first table after the load: inserts, then a delete by key.
        "inserted": draw(st.lists(row, max_size=4)),
        "deleted_key": draw(st.sampled_from(_POOL["K"][3][1:])),
        "index": index,
        "analyze": draw(st.booleans()),
        "strategy": draw(st.sampled_from(list(ExecutionStrategy))),
        "batch_size": draw(st.sampled_from([1, 3, 64])),
    }


def _sqlite_answer(case):
    """``(the query's rows, its rows without LIMIT / OFFSET)`` from SQLite."""
    connection = sqlite3.connect(":memory:")
    connection.create_function("ClientUdf", 1, _client_udf, deterministic=True)
    connection.create_function("ServerUdf", 1, _server_udf, deterministic=True)
    for table, (columns, rows) in case["tables"].items():
        declared = ", ".join(f"{name} {_POOL[name][1]}" for name in columns)
        connection.execute(f"CREATE TABLE {table} ({declared})")
        if table == "T0":
            rows = rows + case["inserted"]
        marks = ", ".join("?" * len(columns))
        connection.executemany(f"INSERT INTO {table} VALUES ({marks})", rows)
    connection.execute("DELETE FROM T0 WHERE K = ?", (case["deleted_key"],))
    query = case["query"]
    rows = connection.execute(_render_query(query, sqlite=True)).fetchall()
    everything = connection.execute(
        _render_query({**query, "limit": None, "offset": 0}, sqlite=True)
    ).fetchall()
    connection.close()
    return rows, everything


def _load_engine(case, directory):
    """The case's tables, churned, in a ``Database`` (paged under ``directory``)."""
    db = Database(network=FAST, storage_dir=directory, cost_settings=_PAGE_COST)
    db.register_client_udf("ClientUdf", _client_udf)
    db.register_server_udf("ServerUdf", _server_udf)
    index = case["index"] if directory is not None else None

    def build_index(moment):
        if index is not None and index[1] == moment:
            for kind in ("btree", "hash"):
                db.create_index(f"t0_{kind}", "T0", index[0], kind=kind)

    for table, (columns, rows) in case["tables"].items():
        db.create_table(table, [(name, _POOL[name][0]) for name in columns])
        if table == "T0":
            build_index("before load")
        db.catalog.table(table).insert_many(rows)
    build_index("after load")
    first = db.catalog.table("T0")
    first.insert_many(case["inserted"])
    first.delete(lambda row: row[0] == case["deleted_key"])
    build_index("after churn")
    if case["analyze"] and directory is not None:
        for table in case["tables"]:
            db.analyze(table)
    return db


def _engine_answers(case, db):
    """``(how it ran, rows)`` for every way this database can run the query."""
    sql = _render_query(case["query"])
    config = StrategyConfig(strategy=case["strategy"], batch_size=case["batch_size"])
    for optimize in (False, True):
        result = db.execute(sql, config=config, optimize=optimize, deliver_results=True)
        yield f"optimize={optimize}", list(map(tuple, result.rows))
    if db.storage is None or case["index"] is None:
        return
    # Every index path the estimator offers on a table, pinned: the optimizer
    # may never choose the one a bug hides behind.
    bound = db.bind(sql)
    enumerator = Optimizer(db.network, settings=_PAGE_COST).enumerator(bound)
    for table in enumerator.tables:
        for variant in enumerator.estimator.scan_variants(table)[1:]:
            paths = {table.alias: variant.access_paths[table.alias]}
            executor = Executor(
                db.session.new_context(),
                server_functions=db._server_functions(),
                session=db.session,
            )
            result = executor.execute_query(
                bound,
                deliver_results=True,
                decision=OptimizationDecision.pinned(config, access_paths=paths),
            )
            assert "IndexScan" in result.plan_text
            yield f"pinned {paths}", list(map(tuple, result.rows))


def _check_against_sqlite(case):
    expected, everything = _sqlite_answer(case)
    query = case["query"]
    sql = _render_query(query)
    for wide in _WIDE:  # keep a failure message readable
        sql = sql.replace(wide, f"{wide[0]}*{len(wide)}")
    with tempfile.TemporaryDirectory() as directory:
        for storage_dir in (None, directory):
            db = _load_engine(case, storage_dir)
            for how, rows in _engine_answers(case, db):
                where = f"{'paged' if storage_dir else 'in memory'}, {how}: {sql}"
                if query["order_by"]:
                    assert rows == expected, where
                elif query["limit"] is None:
                    assert Counter(rows) == Counter(expected), where
                else:
                    assert len(rows) == len(expected), where
                    assert not Counter(rows) - Counter(everything), where
            db.close()


@given(case=_oracle_cases())
@settings(max_examples=200, deadline=None)
def test_sql_surface_agrees_with_sqlite(case):
    """Every way of running a query returns what SQLite returns.

    In memory and paged; with a B-tree and a hash index on a column of the
    first table — bulk-built over the loaded heap, or maintained through the
    load and the insert / delete churn — and without; the default plan, the
    optimizer's, and every index path pinned; whatever strategy and batch
    size ship the client-site UDF.  Multisets, or exact sequences under
    ``ORDER BY``.

    Teeth: with PR 14's join-predicate fix reverted (``predicates._covered``
    letting ``B.Y`` stand for ``C.Y``) or PR 15's leaf-split fix reverted
    (``BTreeIndex._descend_to_leaf`` bisecting right), some 5–15 of these 200
    examples disagree; CHANGES.md has the tally over fresh seeds.
    """
    _check_against_sqlite(case)


# Disagreements the oracle found whose fix is not this test's to make: each is
# pinned by a minimal repro, strictly, and the generator steps around it.


def _two_small_tables():
    db = Database(network=FAST)
    db.create_table("T0", [("K", INTEGER), ("V", FLOAT)], rows=[(1, 1.0), (2, 0.5), (3, 1.0)])
    db.create_table("T1", [("K", INTEGER), ("V", FLOAT)], rows=[(5, 1.0), (4, 2.0)])
    db.register_client_udf("ClientUdf", _client_udf)
    return db


def test_order_by_a_qualified_column_outside_the_select_list():
    """``ORDER BY B.K`` used to sort, silently, by the selected ``A.K`` (the
    bare name).  SQLite sorts by B.K; rows are sorted after the projection
    here, so the binder refuses — as it does an absent name."""
    try:
        rows = _two_small_tables().execute("SELECT B.V, A.K FROM T0 A, T1 B ORDER BY B.K").rows
    except BindError:
        return  # "ORDER BY column 'B.K' is not in the output"
    assert [tuple(row) for row in rows] == [
        (2.0, 1), (2.0, 2), (2.0, 3), (1.0, 1), (1.0, 2), (1.0, 3)
    ]


def test_order_by_names_an_output_by_expression_then_by_alias():
    """The keys the bare-name fallback mis-sorted or refused: the output whose
    expression is the key's (never one merely *named* like it), one of two
    same-named outputs, an aliased column, an alias, a select-list UDF call."""
    db = _two_small_tables()

    def rows(sql):
        return [tuple(row) for row in db.execute(sql).rows]

    assert rows("SELECT A.V AS K, A.K AS V FROM T0 A ORDER BY A.K DESC") == [
        (1.0, 3), (0.5, 2), (1.0, 1)
    ]
    assert rows("SELECT A.K, B.K FROM T0 A, T1 B ORDER BY B.K, A.K DESC") == [
        (3, 4), (2, 4), (1, 4), (3, 5), (2, 5), (1, 5)
    ]
    assert rows("SELECT A.K AS X FROM T0 A ORDER BY A.K DESC") == [(3,), (2,), (1,)]
    assert rows("SELECT A.V AS X, A.K FROM T0 A ORDER BY X, A.K DESC") == [
        (0.5, 2), (1.0, 3), (1.0, 1)
    ]
    assert rows("SELECT ClientUdf(A.K), A.V FROM T0 A ORDER BY ClientUdf(A.K) DESC") == [
        (7, 1.0), (5, 0.5), (3, 1.0)
    ]
    with pytest.raises(BindError, match="not in the output"):
        db.execute("SELECT A.V FROM T0 A ORDER BY A.V + 1")


@pytest.mark.xfail(
    strict=True,
    reason="A client-site UDF's result column is named after the UDF, not the call: two calls "
    "on different arguments collide (`ambiguous column 'ClientUdf_result'`).  Naming it per "
    "call renames columns in every plan text and decision digest — it joins the estimate "
    "re-pin (ROADMAP item 6) or the name resolution of item 4.",
)
def test_one_client_udf_called_on_two_arguments():
    rows = _two_small_tables().execute("SELECT ClientUdf(A.K), ClientUdf(A.V) FROM T0 A").rows
    assert sorted(map(tuple, rows)) == [(3, 3.0), (5, 2.0), (7, 3.0)]

